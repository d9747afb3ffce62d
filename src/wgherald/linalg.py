"""Dense linear algebra for non-Hermitian time evolution.

Everything in the protocol state spaces is small (a few to a few hundred
dimensions), so exact dense methods are used throughout: the propagator
e^{-iHt} is built from an eigendecomposition of its generator -iH (with a
scaling-and-squaring fallback when that is too ill-conditioned to
diagonalize reliably), which makes evolution to arbitrary times exact up to
rounding.  numpy does all of it but that fallback, scipy's expm, so
scipy.linalg is imported on the first fallback and not at process start.
A real generator, such as the protocol's no-jump generators in their
stage-parity coordinates, takes LAPACK's real eig (about a third of the cost
of the complex one at dimension 81), and no complex H is formed.  The
conditioning test is the Frobenius bound kappa_F = ||V||_F ||V^-1||_F >=
kappa_2 on the inverse the eigenbasis needs anyway, so no SVD is taken.  A
Propagator evolves the one state it is built with, validated and projected
onto the eigenbasis once, up to the latest time it will be asked for, its
horizon.  It decomposes a large real generator only on the Krylov space of a
real state: 16-24 vectors of an `arnoldi` basis on the protocol's exact
sectors of dimension 41-161, grown until Saad's a-posteriori bound (1992),
summed by `exp_sums` on a grid that resolves the reduced generator, holds
every state up to the horizon within 1e-14 of the full evolution.  The
bandgap transfer's Lanczos loop is the same `arnoldi`, its bound summed by
the same `exp_sums`, which also sums a population scan over a uniform grid
of times.  Loss bookkeeping integrates one density R = integral psi psi^dag
ds per evolution and reads every channel's integral off it in one real
product with the flattened real O^dag O stack of the channels.  The time that
maximizes a weighted population is a root of its slope, whose first and
second state derivatives the eigenbasis gives in closed form: Newton's
method on the slope, inside a bracket of its sign change, finds it in 4-5
evaluations, where golden section took 29-31 on the steps' old bracket
[0.8 T, 1.2 T] at 1e-6 T.  The bandgap transfer keeps golden section: 22
evaluations on its bracket of two scan intervals, at 1e-6 pi/G.

`is_int` and `is_real` are the one test of what a parameter value may be: an
integer, or a real number, numpy's included and a bool never.  The params
classes and the sweep config both check their values with them.  On top of
them `check_sector` is the one sector rule, integers with 1 <= m <= N (N
atoms per mirror hold at most N quanta), and `check_rate` the one rate rule,
a non-negative finite real: the params classes and `formulas.table1_compare`
apply them, and everything built from a params object trusts them.

Conventions: hbar = 1, all rates in units of the reference guided-mode decay
rate, times in its inverse.
"""

from __future__ import annotations

import math

import numpy as np

# At or above this eigenvector condition number, taken as the Frobenius bound
# kappa_F = ||V||_F ||V^-1||_F (never below the 2-norm condition number, and
# at least the dimension), the eigenbasis is considered too ill-conditioned
# and the propagator falls back to scipy's expm.
EIGBASIS_MAX_CONDITION = 1e8

# A Propagator given a horizon reduces a generator of at least this dimension
# to the Krylov space of its state (see Propagator._reduce).  On the exact
# sectors (dimension 2m + 1) of accumulation steps at N 60-1000, a reduced
# step costs what a full one does near dimension 35-41, where the space closes
# at k = 16-20, and from 41 on it closes by k = dim / 2 even at P_1d = 3.
KRYLOV_MIN_DIM = 41

# The reduction stops at the first Krylov dimension whose a-posteriori bound
# on the error of every state up to the horizon, relative to the state's
# norm, is at most this.  Over every step of m = 40 accumulations at (N,
# P_1d) = (60, 3), (317, 10), (1000, 100) and (400, inf), at T, 1.2 T and
# T / 2, the largest deviation from the full decomposition is 1-2e-14, the
# rounding floor, from 1e-15 to 1e-13, and 9e-14 at 1e-12.
KRYLOV_MAX_ERROR = 1e-14

# That bound's integral is a trapezoid sum on at least this many uniform
# intervals of [0, horizon], and more where H_k's rates need them (see
# Propagator._reduce).  On reduced steps of m = 40 accumulations at T and 5 T,
# wherever the bound is within 1e-18-1e-10, the sum is 0.9996-1.003 of the
# integral summed on 200,000 intervals (1.005-1.025 on contractive random
# generators of dimension 60 at horizons 0.1-30).
KRYLOV_BOUND_INTERVALS = 64

# A horizon that needs more intervals than this keeps the full decomposition.
# One sum is cheap: on 1,024 intervals `exp_sums` and the trapezoid take
# 0.04 ms at k = 16 and 0.05-0.06 ms at k = 24, against 0.53-0.64 ms for the
# full eig and inv at dimension 41 (timeit, one BLAS thread, 2-vCPU Xeon VM).
# So the cap mainly bounds the work of a reduction that never closes.  The
# reduced steps of `accumulate-exact` need 76-246, and m = 40-160
# accumulations at N 40-5000 up to 549.
KRYLOV_MAX_INTERVALS = 1024

# Points of the uniform grid on which the expm fallback integrates densities;
# its 4096 intervals make 1024 panels of Boole's rule.
BOOLE_POINTS = 4097


class DimensionError(ValueError):
    """Operator/vector dimensions are inconsistent."""


class NumericError(ArithmeticError):
    """Non-finite values were produced or supplied."""


def all_finite(a) -> bool:
    """Whether every entry of a is finite, at half the cost of
    np.isfinite(a).all() on the small arrays of a step."""
    return bool(np.logical_and.reduce(np.isfinite(a), axis=None))


def is_int(value) -> bool:
    """Whether value is an integer, a numpy one included, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether value is a real number, a numpy one included, and not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def check_sector(N, m) -> None:
    """Refuse (N, m) unless both are integers with 1 <= m <= N."""
    if not (is_int(N) and is_int(m) and 1 <= m <= N):
        raise ValueError(f"need integers 1 <= m <= N, not N={N!r}, m={m!r}")


def check_rate(name: str, value) -> None:
    """Refuse a rate unless it is a non-negative, finite real."""
    if not (is_real(value) and 0 <= value < math.inf):
        raise ValueError(f"{name} must be non-negative and finite, not {value!r}")


def as_state(v) -> np.ndarray:
    """Coerce to a finite complex 1-d array."""
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1:
        raise DimensionError(f"expected a 1-d state vector, got shape {arr.shape}")
    if not all_finite(arr):
        raise NumericError("state vector contains non-finite entries")
    return arr


def norm_sq(v) -> float:
    """Squared 2-norm sum_i |v_i|^2."""
    arr = np.asarray(v, dtype=complex)
    return float(np.vdot(arr, arr).real)


def overlap(u, v) -> complex:
    """Inner product <u|v> (conjugation on u)."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise DimensionError(f"overlap of shapes {u.shape} and {v.shape}")
    return complex(np.vdot(u, v))


def boole_weights(t: float, npts: int) -> np.ndarray:
    """Composite Boole weights 2h/45 [7, 32, 12, 32, 14, ..., 14, 32, 12, 32,
    7] on npts equally spaced points of [0, t], npts - 1 a multiple of 4;
    exact for polynomials up to degree 5."""
    w = np.full(npts, 32.0)
    w[2::4] = 12.0
    w[4::4] = 14.0
    w[0] = w[-1] = 7.0
    return w * (2.0 * t / (npts - 1) / 45.0)


def trapezoid(f: np.ndarray, dt: float) -> float:
    """Trapezoid sum of the samples f on a uniform grid of spacing dt, as a
    Python float, so a product with it past the float range is inf quietly."""
    return dt * float(f.sum() - 0.5 * (f[0] + f[-1]))


def exp_sums(lam: np.ndarray, c: np.ndarray, dt: float, n: int) -> np.ndarray:
    """sum_j c_j exp(lam_j m dt) for m = 0 .. n-1, for c a vector or for
    each row of a stack of them.

    With m = r a + b, the exponentials factor into a coarse and a fine table
    of about sqrt(n) rows each, so the n x len(lam) exponentials reduce to
    one matrix product per row of c; the rows share the tables.
    """
    r = math.isqrt(n - 1) + 1
    fine = np.exp(dt * np.outer(np.arange(r), lam))
    coarse = np.exp(dt * r * np.outer(np.arange(-(-n // r)), lam))
    sums = (coarse * c[..., None, :]) @ fine.T
    return sums.reshape(c.shape[:-1] + (-1,))[..., :n]


def arnoldi(matvec, start: np.ndarray, kmax: int):
    """Arnoldi iteration on the Krylov space of the real unit vector start
    under the real linear map matvec, for at most kmax steps.

    Step j orthogonalizes matvec(q_j) against q_0 .. q_j by two classical
    Gram-Schmidt passes (twice is enough, Parlett) and yields (j, b, q, h):
    b the norm of what is left, q the basis, one vector per row, and h the
    projected matrix, whose column j holds the step's projections (both
    passes summed) and, once the next step starts, b below them.  So with
    k = j + 1, matvec Q_k = Q_k H_k + b q_k e_k^T, H_k = h[:k, :k].  The
    iteration ends at an invariant subspace (b = 0).  q and h start at 16
    rows and double as needed, to at most kmax + 1, so memory grows with
    the steps taken, not with kmax.
    """
    q = np.zeros((min(16, kmax + 1), len(start)))
    h = np.zeros((len(q), len(q)))
    q[0] = start
    for j in range(kmax):
        w, basis = matvec(q[j]), q[:j + 1]
        c = basis @ w
        w -= c @ basis
        again = basis @ w
        w -= again @ basis
        h[:j + 1, j] = c + again
        b = math.sqrt(w @ w)
        yield j, b, q, h
        if b == 0.0:
            return
        if j + 1 == len(q):  # twice the rows, at most kmax + 1 (np.pad costs 30-40 us)
            rows = min(2 * len(q), kmax + 1)
            q = np.concatenate((q, np.zeros((rows - len(q), len(start)))))
            old, h = h, np.zeros((rows, rows))
            h[:len(old), :len(old)] = old
        h[j + 1, j] = b
        q[j + 1] = w / b


class Propagator:
    """Evolves one state v0 under the generator g, psi(t) = e^{g t} v0 for
    t in [0, horizon], reusing one eigendecomposition of g, or of g reduced
    to the Krylov space of v0.

    g is a square generator such as -iH, real or complex; a real g takes
    LAPACK's real eig.  With g = V diag(lam) V^-1 the exponents are lam and
    V^-1 comes from inv.  The state is validated and projected onto the
    eigenbasis once, c = V^-1 v0, and `apply`, `population` and
    `integrated_expectation` read it at any times.  The decomposition falls
    back to scipy's expm (Pade scaling-and-squaring) of g, which keeps v0,
    when V is singular or its condition number `condition`, the Frobenius
    bound ||V||_F ||V^-1||_F (inf when V is singular or the product
    overflows), reaches EIGBASIS_MAX_CONDITION; scipy.linalg is imported by
    the first such fallback in a process.  `method` is "eig" or "expm", and
    `dim` the dimension of g.  A non-finite result, such as one at a time t
    where an exponent product lam t or mu t leaves the float range, raises
    NumericError without a numpy warning first.

    horizon, positive and finite, is the latest time the propagator is
    asked for: a time outside [0, horizon] is refused with a ValueError, and
    a non-finite one with NumericError.  A
    generator of dimension KRYLOV_MIN_DIM or more is first reduced to the
    Krylov space of v0 (`_reduce`) when g is real and v0 real up to one
    phase: `arnoldi`'s basis Q of k columns, with H_k = Q^T g Q, k far below
    the dimension on the protocol's steps.  The same eig, inv and condition
    test then run on H_k, with V = Q W_k (dim x k), so every state and
    integral of the propagator lives in that space, within
    KRYLOV_MAX_ERROR ||v0|| of the full evolution at every time up to the
    horizon.  Otherwise, and when the space does not close by k = dim / 2,
    the horizon is too long for the bound's grid, or H_k's eigenbasis is too
    ill-conditioned, the decomposition is that of g itself.
    """

    def __init__(self, g, v0, horizon):
        self.g = np.asarray(g)
        if self.g.ndim != 2 or self.g.shape[0] != self.g.shape[1]:
            raise DimensionError(f"expected a square generator, got shape {self.g.shape}")
        if not all_finite(self.g):
            raise NumericError("generator contains non-finite entries")
        self.dim = self.g.shape[0]
        self.v0 = as_state(v0)
        if self.v0.shape[0] != self.dim:
            raise DimensionError(f"state dim {self.v0.shape[0]} != operator dim {self.dim}")
        if not 0 < horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, not {horizon!r}")
        self.horizon = horizon
        if self.dim < KRYLOV_MIN_DIM or not self._reduce(horizon):
            lam, vecs = np.linalg.eig(self.g)
            try:
                vinv = np.linalg.inv(vecs)
            except np.linalg.LinAlgError:
                vinv = None
            if self._adopt(lam, vecs, vinv):
                self._c = vinv @ self.v0
        self.method = "eig" if self._c is not None else "expm"

    def _adopt(self, lam, vecs, vinv) -> bool:
        """Record the exponents lam, the eigenvectors vecs and the Frobenius
        condition ||vecs||_F ||vinv||_F (inf for a singular basis, vinv
        None); whether it is below EIGBASIS_MAX_CONDITION.  The state's
        coefficients are left for the caller to set."""
        self.exponents, self.eigvecs, self._c = lam.astype(complex), vecs, None
        norm = math.sqrt(np.vdot(vecs, vecs).real)
        # Python floats: a product past the float range is inf, quietly
        cond = math.inf if vinv is None else norm * math.sqrt(np.vdot(vinv, vinv).real)
        self.condition = cond if math.isfinite(cond) else math.inf
        return self.condition < EIGBASIS_MAX_CONDITION

    def _reduce(self, horizon: float) -> bool:
        """Decompose a real g on the Krylov space of v0, when v0 is real up
        to one global phase; whether that space closed within the error bound
        and gave a usable eigenbasis.

        The space is `arnoldi`'s, to at most k = dim / 2.  Its test, at
        k = 16, 20, ... and at an invariant subspace (b = 0, exact), is Saad's
        bound (1992) on the error of beta Q_k e^{H_k t} e_1, beta = ||v0||,
        for every t in [0, horizon]: beta b e^{w t} int_0^t |e_k^T e^{H_k s}
        e_1| ds <= KRYLOV_MAX_ERROR beta, with w >= 0 Gershgorin's bound on
        the largest eigenvalue of (g + g^T)/2, so ||e^{g t}|| <= e^{w t} for
        any g.  The bound is loose: on the 92 reduced steps of the benchmark's
        `accumulate-exact` list 0 (seed 0), e^{w horizon} is 1.29-4.44
        (median 2.12), while the exact largest eigenvalue of (g + g^T)/2
        times the horizon is at most -0.0012 on every one.  The integral is
        the trapezoid sum of `exp_sums` over H_k's eigenpairs on n intervals
        of [0, horizon], at least KRYLOV_BOUND_INTERVALS and 2 horizon r,
        r = sqrt(||H_k||_1 ||H_k||_inf) >= ||H_k||_2, so no interval spans
        more than half a unit of H_k's fastest rate; past
        KRYLOV_MAX_INTERVALS the reduction is not tried.  The imaginary
        residue of v0's real part, at most 1e-15 beta, is added to the bound.
        A complex g or Krylov space keeps the decomposition of g: the complex
        eigs of H_k cost what the real eig of g does.
        """
        g, v0 = self.g, self.v0
        beta = math.sqrt(norm_sq(v0))
        if beta == 0.0 or np.iscomplexobj(g):
            return False
        top = v0[np.argmax(np.abs(v0))]
        rotated = v0 * (abs(top) / top)
        dropped = float(np.linalg.norm(rotated.imag)) / beta
        if dropped > 1e-15:
            return False
        sym = g + g.T
        diag = sym.diagonal()
        w_plus = max(0.0, 0.5 * float((diag + np.abs(sym).sum(axis=1) - np.abs(diag)).max()))
        if w_plus * horizon > 700.0:  # no bound below e^700
            return False
        growth = math.exp(w_plus * horizon)
        start = rotated.real
        beta = float(np.linalg.norm(start))
        for j, b, q, h in arnoldi(lambda x: g @ x, start / beta, self.dim // 2):
            k = j + 1
            if b and (k < 16 or k % 4):
                continue
            hk = h[:k, :k]
            try:
                lam, wk = np.linalg.eig(hk)
                winv = np.linalg.inv(wk)
            except np.linalg.LinAlgError:
                return False
            defect = 0.0
            if b:
                rate = math.sqrt(np.abs(hk).sum(axis=0).max() * np.abs(hk).sum(axis=1).max())
                n = max(KRYLOV_BOUND_INTERVALS, math.ceil(2.0 * horizon * rate))
                if n > KRYLOV_MAX_INTERVALS:
                    return False
                # e^{H_k s} at s past the float range is no bound at all: nan fails the test
                with np.errstate(over="ignore", invalid="ignore"):
                    f = np.abs(exp_sums(lam, wk[-1] * winv[:, 0], horizon / n, n + 1))
                    defect = b * trapezoid(f, horizon / n)
            if growth * (defect + dropped) <= KRYLOV_MAX_ERROR:
                if not self._adopt(lam, q[:k].T @ wk, winv):
                    return False
                self._c = winv[:, 0] * (beta * top / abs(top))
                return True
        return False

    def _check_times(self, lo: float, hi: float) -> None:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise NumericError(f"times [{lo!r}, {hi!r}] must be finite")
        if not 0.0 <= lo <= hi <= self.horizon:
            raise ValueError(f"times [{lo!r}, {hi!r}] leave the propagator's horizon "
                             f"[0, {self.horizon!r}]")

    def _expm_states(self, dt: float, steps: int) -> np.ndarray:
        """The fallback's states at times 0, dt, ..., steps dt, one per row:
        e^{g dt} applied steps times."""
        import scipy.linalg

        step = scipy.linalg.expm(self.g * dt)
        u = np.empty((steps + 1, self.dim), dtype=complex)
        u[0] = self.v0
        # a gain past the float range leaves non-finite states, raised by the callers
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1, steps + 1):
                u[i] = step @ u[i - 1]
        return u

    def apply(self, t: float) -> np.ndarray:
        """Return e^{g t} v0."""
        self._check_times(t, t)
        if self.method == "eig":
            # |lam| t past the float range leaves non-finite amplitudes, raised below
            with np.errstate(over="ignore", invalid="ignore"):
                out = self.eigvecs @ (np.exp(self.exponents * t) * self._c)
        else:
            out = self._expm_states(t, 1)[1]
        if not all_finite(out):
            raise NumericError("propagation produced non-finite amplitudes")
        return out

    def peak_time(self, lo: float, hi: float, tol: float, index, weights) -> float:
        """The argmax on [lo, hi] of the weighted population
        f(t) = ||w o psi(t)[index]||^2, for w = weights and a unimodal f,
        within tol.

        It is a root of the slope f'(t) = 2 Re <w o psi[index], w o psi'[index]>,
        found by Newton's method on f' inside a bracket where f' falls from
        positive to negative: each evaluation moves the bracket's end of its
        slope's sign, and the next point is t - f'/f'' where f'' < 0 puts it
        inside the bracket, else the bracket's secant point.  Once that point
        is within tol / 2 (and 2 eps |t|) of t, or the bracket within tol, it
        is returned unevaluated: in 4-5 evaluations, the ends included, it
        lands within 2.5e-15 T of the maximum on the protocol's pinned steps,
        where comparisons of f resolve it only to about sqrt(eps).  Where f'
        does not fall from positive to negative, the end with the larger f is
        returned.  A bracket outside the horizon, or a tol that is not
        positive and finite, raises ValueError, and a non-finite f, f' or f''
        NumericError, without a numpy warning first.
        """
        self._check_times(lo, hi)
        _check_tol(tol)
        evaluate = self._slope(index, weights)
        # an amplitude, or lam or lam^2 times it, past the float range: NumericError
        with np.errstate(over="ignore", invalid="ignore"):
            a, b = float(lo), float(hi)
            (fa, sa, _), (fb, sb, _) = evaluate(a), evaluate(b)
            if not sa > 0.0 > sb:
                return a if fa > fb else b
            eps2 = 2.0 * np.finfo(float).eps
            t = a - sa * (b - a) / (sb - sa)  # the bracket's secant point
            while b - a > tol:
                _, s, curv = evaluate(t)
                if s > 0.0:
                    a, sa = t, s
                else:
                    b, sb = t, s
                newton = t - s / curv if curv < 0.0 else math.nan
                nxt = newton if a < newton < b else a - sa * (b - a) / (sb - sa)
                if abs(nxt - t) <= 0.5 * tol + eps2 * abs(t):
                    return nxt
                t = nxt
            return t

    def _slope(self, index, weights):
        """The function t -> (f(t), f'(t), f''(t)) that `peak_time` searches,
        f'' = 2 (||w o psi'[index]||^2 + Re <w o psi[index], w o psi''[index]>),
        with psi' and psi'' in closed form: V (lam e^{lam t} c) and
        V (lam^2 e^{lam t} c) on the eigenbasis path, from the rows
        w o V[index] alone, and g psi and g (g psi) on the expm fallback."""
        weights = np.asarray(weights)
        if self.method == "eig":
            rows, lam, c = weights[:, None] * self.eigvecs[index], self.exponents, self._c

            def amplitudes(t):
                e = np.exp(lam * t) * c
                return rows @ e, rows @ (lam * e), rows @ (lam * lam * e)
        else:
            def amplitudes(t):
                psi = self._expm_states(t, 1)[1]
                rate = self.g @ psi
                return (weights * psi[index], weights * rate[index],
                        weights * (self.g @ rate)[index])

        def evaluate(t):
            amps, rates, accels = amplitudes(t)
            f, slope = float(np.vdot(amps, amps).real), 2.0 * float(np.vdot(amps, rates).real)
            curv = 2.0 * (float(np.vdot(rates, rates).real) + float(np.vdot(amps, accels).real))
            if not (math.isfinite(f) and math.isfinite(slope) and math.isfinite(curv)):
                raise NumericError("propagation produced a non-finite population, slope or "
                                   "curvature")
            return f, slope, curv
        return evaluate

    def population(self, t_end: float, n: int, index) -> np.ndarray:
        """sum_{i in index} |(e^{g t} v0)_i|^2 at the n uniform times
        t = k t_end / (n - 1), k = 0 .. n-1, of [0, t_end], for index a
        sequence of basis positions or one position.

        The eigenbasis path sums the rows `index` of V diag(c) in one
        `exp_sums` table; the expm fallback steps one expm of G over the
        grid.  A non-finite population raises NumericError without a numpy
        warning first.
        """
        if n < 2:
            raise DimensionError(f"population needs a grid of at least 2 times, not {n!r}")
        self._check_times(0.0, t_end)
        dt = t_end / (n - 1)
        # a gain past the float range leaves non-finite amplitudes, raised below
        with np.errstate(over="ignore", invalid="ignore"):
            if self.method == "eig":
                amps = exp_sums(self.exponents, self.eigvecs[index] * self._c, dt, n)
            else:
                amps = self._expm_states(dt, n - 1)[:, index].T
            pops = (amps.real**2 + amps.imag**2).reshape(-1, n).sum(axis=0)
        if not all_finite(pops):
            raise NumericError("propagation produced non-finite populations")
        return pops

    def integrated_expectation(self, ops, t: float) -> np.ndarray:
        """Exact integral_0^t <psi(s)|M|psi(s)> ds along psi(s) = e^{g s} v0,
        one for each operator M of ops, a real (k, dim, dim) array such as
        the O^dag O stack of `dissipative.model_matrices`.

        Every integral reads the one density R = integral_0^t psi psi^dag ds
        as sum_ij M_ij Re(R_ji): all k in one real product of the flattened
        stack, (k, 1, dim^2) @ (dim^2), with Re(R^T); each operator's is one
        dot, summed alike whatever k.  In the eigenbasis R^T = conj(A) F A^T
        in closed form, with A = V diag(c) and F the integrals of the
        pairwise exponentials, expm1(mu t) / mu for mu = conj(lam_a) + lam_b
        (t where mu = 0); the expm fallback sums conj(psi) psi^T with
        composite Boole weights on a fine uniform grid.
        """
        if (not isinstance(ops, np.ndarray) or np.iscomplexobj(ops)
                or ops.shape[1:] != (self.dim, self.dim)):
            raise DimensionError(f"integrated_expectation takes a real (k, {self.dim}, "
                                 f"{self.dim}) array of operators")
        if not all_finite(ops):
            raise NumericError("operator contains non-finite entries")
        self._check_times(t, t)
        shape = (ops.shape[0], 1, self.dim * self.dim)
        # |mu| t past the float range leaves non-finite integrals, raised below
        with np.errstate(over="ignore", invalid="ignore"):
            rt = self._density_transpose(t)
            out = (np.ascontiguousarray(ops).reshape(shape) @ rt.real.ravel())[:, 0]
        if not all_finite(out):
            raise NumericError("loss integrals are non-finite")
        return out

    def _density_transpose(self, t: float) -> np.ndarray:
        if self.method != "eig":
            psis = self._expm_states(t / (BOOLE_POINTS - 1), BOOLE_POINTS - 1)
            return (psis.conj().T * boole_weights(t, BOOLE_POINTS)) @ psis
        a = self.eigvecs * self._c
        mu = np.add.outer(np.conj(self.exponents), self.exponents)
        factors = np.expm1(mu * t) / mu  # 0 / 0 where mu = 0, whose factor is t
        factors[mu == 0] = t
        return a.conj() @ factors @ a.T


def _check_tol(tol: float) -> None:
    if not 0 < tol < math.inf:
        raise ValueError(f"search tolerance tol must be positive and finite, not {tol!r}")


def golden_section_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximization of a unimodal f on [lo, hi].

    Returns the argmax. tol is the absolute tolerance on the abscissa,
    positive and finite, or ValueError is raised before f is evaluated.
    """
    _check_tol(tol)
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (a + b) / 2.0
