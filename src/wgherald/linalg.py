"""Dense linear algebra for non-Hermitian time evolution.

Everything in the protocol state spaces is small (a few to a few hundred
dimensions), so exact dense methods are used throughout: the propagator
e^{-iHt} is built from an eigendecomposition of its generator -iH (with a
scaling-and-squaring fallback when that is too ill-conditioned to
diagonalize reliably), which makes evolution to arbitrary times exact up to
rounding.  numpy does all of it but that fallback, scipy's expm, so
scipy.linalg is imported on the first fallback and not at process start.
A generator is given in a diagonal frame T of units, G = T^-1 (-iH) T; the
protocol's no-jump generators are exactly real in their stage-parity frame,
so the decomposition is LAPACK's real eig (about a third of the cost of the
complex one at dimension 81), and no complex H is formed.  The conditioning
test is the Frobenius bound kappa_F = ||V||_F ||V^-1||_F >= kappa_2 on the
inverse the eigenbasis needs anyway, so no SVD is taken.  A Propagator
evolves the one state it is built with, validated and projected onto the
eigenbasis once.  Loss bookkeeping integrates one density R = integral psi
psi^dag ds per evolution and reads every channel's integral off it in one
real product with the flattened stack of channel operators.

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


class Propagator:
    """Evolves one state v0 under the generator g in a frame, reusing one
    eigendecomposition of g.

    g is -iH written in the diagonal frame T = diag(frame), a vector of
    units: G = T^-1 (-iH) T, so psi(t) = e^{-iHt} v0 = T e^{Gt} T^-1 v0; a
    frame of None is T = 1, so g is -iH itself.  The protocol's no-jump
    generators are exactly real in their stage-parity frame (see
    `basis.stage_frame`) and LAPACK's real eig runs on them; a complex g
    takes the same eig.  With G = W diag(lam) W^-1 the eigenvectors are
    V = T W and the exponents lam, the eigenvalues of -iH; V^-1 comes from
    inv.  The state is validated and projected onto the eigenbasis once,
    c = V^-1 v0, and `apply`, `population` and `integrated_expectation` read
    it at any times.  The decomposition falls back to scipy's expm (Pade
    scaling-and-squaring) of G, mapped back through the frame, which keeps
    v0, when V is singular or its condition number `condition`, the
    Frobenius bound ||V||_F ||V^-1||_F (inf when V is singular or the
    product overflows), reaches EIGBASIS_MAX_CONDITION; scipy.linalg is
    imported by the first such fallback in a process.  `method` is "eig" or
    "expm".  A non-finite result, such as one at a time t where an exponent
    product lam t or mu t leaves the float range, raises NumericError
    without a numpy warning first.
    """

    def __init__(self, g, v0, frame=None):
        self.g = np.asarray(g)
        if self.g.ndim != 2 or self.g.shape[0] != self.g.shape[1]:
            raise DimensionError(f"expected a square generator, got shape {self.g.shape}")
        if not all_finite(self.g):
            raise NumericError("generator contains non-finite entries")
        self.dim = self.g.shape[0]
        self.v0 = as_state(v0)
        if self.v0.shape[0] != self.dim:
            raise DimensionError(f"state dim {self.v0.shape[0]} != operator dim {self.dim}")
        self.frame = np.ones(self.dim) if frame is None else np.asarray(frame, dtype=complex)
        if self.frame.shape != (self.dim,):
            raise DimensionError(f"frame shape {self.frame.shape} != ({self.dim},)")
        lam, w = np.linalg.eig(self.g)
        self.exponents, self.eigvecs = lam.astype(complex), self.frame[:, None] * w
        try:
            vinv = np.linalg.inv(self.eigvecs)
        except np.linalg.LinAlgError:
            vinv, cond = None, math.inf
        else:  # Python floats: a product past the float range is inf, quietly
            cond = (math.sqrt(np.vdot(self.eigvecs, self.eigvecs).real)
                    * math.sqrt(np.vdot(vinv, vinv).real))
        self.condition = cond if math.isfinite(cond) else math.inf
        usable = self.condition < EIGBASIS_MAX_CONDITION
        self._c = vinv @ self.v0 if usable else None
        self.method = "eig" if usable else "expm"

    def _expm_states(self, dt: float, steps: int) -> np.ndarray:
        """The fallback's states at times 0, dt, ..., steps dt, one per row:
        e^{G dt} applied in the frame, mapped back through it."""
        import scipy.linalg

        step = scipy.linalg.expm(self.g * dt)
        u = np.empty((steps + 1, self.dim), dtype=complex)
        u[0] = self.v0 / self.frame
        # a gain past the float range leaves non-finite states, raised by the callers
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1, steps + 1):
                u[i] = step @ u[i - 1]
            return u * self.frame

    def apply(self, t: float) -> np.ndarray:
        """Return e^{-iHt} v0."""
        if not math.isfinite(t):
            raise NumericError("evolution time must be finite")
        if self.method == "eig":
            # |lam| t past the float range leaves non-finite amplitudes, raised below
            with np.errstate(over="ignore", invalid="ignore"):
                out = self.eigvecs @ (np.exp(self.exponents * t) * self._c)
        else:
            out = self._expm_states(t, 1)[1]
        if not all_finite(out):
            raise NumericError("propagation produced non-finite amplitudes")
        return out

    def population(self, times, index) -> np.ndarray:
        """sum_{i in index} |(e^{-iHt} v0)_i|^2 for each t of a 1-d time grid.

        The eigenbasis path applies only the rows `index` of V, 256 times at
        a time; the expm fallback loops over apply.
        """
        times = np.asarray(times, dtype=float)
        if times.ndim != 1:
            raise DimensionError(f"population needs a 1-d time grid, got {times.shape}")
        if not all_finite(times):
            raise NumericError("evolution times must be finite")
        if self.method != "eig":
            return np.array([norm_sq(self.apply(t)[index]) for t in times])
        c, rows = self._c, self.eigvecs[index].T
        pops = np.empty(times.shape[0])
        for k in range(0, times.shape[0], 256):
            amps = (np.exp(np.outer(times[k:k + 256], self.exponents)) * c) @ rows
            pops[k:k + 256] = (amps.real**2 + amps.imag**2).sum(axis=1)
        if not all_finite(pops):
            raise NumericError("propagation produced non-finite populations")
        return pops

    def integrated_expectation(self, ops, t: float) -> np.ndarray:
        """Exact integral_0^t <psi(s)|M|psi(s)> ds along psi(s) = e^{-iHs} v0,
        one for each operator M of ops, a (k, dim, dim) array, real or
        complex.

        Every integral reads the one density R = integral_0^t psi psi^dag ds
        as Re sum_ij M_ij R_ji: all k in one real product of the flattened
        stack, (k, 1, dim^2) @ (dim^2), with Re(R^T), less one with Im(R^T)
        for a complex stack; each operator's is one dot, summed alike
        whatever k.  In the eigenbasis R^T = conj(A) F A^T in closed
        form, with A = V diag(c) and F the integrals of the pairwise
        exponentials, expm1(mu t) / mu for mu = conj(lam_a) + lam_b (t where
        mu = 0); the expm fallback sums conj(psi) psi^T with composite
        Boole weights on a fine uniform grid.
        """
        if not isinstance(ops, np.ndarray) or ops.shape[1:] != (self.dim, self.dim):
            raise DimensionError(f"integrated_expectation takes a (k, {self.dim}, "
                                 f"{self.dim}) array of operators")
        if not all_finite(ops):
            raise NumericError("operator contains non-finite entries")
        shape = (ops.shape[0], 1, self.dim * self.dim)
        # |mu| t past the float range leaves non-finite integrals, raised below
        with np.errstate(over="ignore", invalid="ignore"):
            rt = self._density_transpose(t)
            out = (np.ascontiguousarray(ops.real).reshape(shape) @ rt.real.ravel())[:, 0]
            if np.iscomplexobj(ops):
                out -= (np.ascontiguousarray(ops.imag).reshape(shape) @ rt.imag.ravel())[:, 0]
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


def golden_section_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximization of a unimodal f on [lo, hi].

    Returns the argmax. tol is the absolute tolerance on the abscissa.
    """
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
