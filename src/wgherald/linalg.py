"""Dense complex linear algebra for non-Hermitian time evolution.

Everything in the protocol state spaces is small (a few to a few hundred
dimensions), so exact dense methods are used throughout: the propagator
e^{-iHt} is built from an eigendecomposition of H (with a scaling-and-squaring
fallback when H is too ill-conditioned to diagonalize reliably), which makes
evolution to arbitrary times exact up to rounding.  numpy does all of it but
that fallback, scipy's expm, so scipy.linalg is imported on the first
fallback and not at process start.  Given a diagonal frame T of
units in which T^-1 (-iH) T is exactly real, as it is for the protocol's
no-jump generators, the decomposition is taken on that real matrix (LAPACK's
real eig, about a third of the cost of the complex one at dimension 81).  The
conditioning test is the Frobenius bound kappa_F = ||V||_F ||V^-1||_F >=
kappa_2 on the inverse the eigenbasis needs anyway, so no SVD is taken.
Loss bookkeeping integrates one density R = integral psi psi^dag ds per
evolution and reads every channel's integral off it in one reduction over
the stack of channel operators.

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

# Points of the uniform grid on which the expm fallback integrates densities.
SIMPSON_POINTS = 4097


class DimensionError(ValueError):
    """Operator/vector dimensions are inconsistent."""


class NumericError(ArithmeticError):
    """Non-finite values were produced or supplied."""


def as_state(v) -> np.ndarray:
    """Coerce to a finite complex 1-d array."""
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1:
        raise DimensionError(f"expected a 1-d state vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NumericError("state vector contains non-finite entries")
    return arr


def as_operator(h) -> np.ndarray:
    """Coerce to a finite complex square matrix."""
    arr = np.asarray(h, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NumericError("operator contains non-finite entries")
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


def simpson_weights(t: float, npts: int) -> np.ndarray:
    """Composite Simpson weights h/3 [1, 4, 2, ..., 2, 4, 1] on npts (odd)
    equally spaced points of [0, t]."""
    w = np.full(npts, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (t / (npts - 1) / 3.0)


class Propagator:
    """Applies e^{-iHt} to vectors, reusing one eigendecomposition of H.

    The decomposition is eig with V^-1 from inv.  With a frame (a vector of
    units, one per basis state) whose G = T^-1 (-iH) T, T = diag(frame), has
    an imaginary part of exactly zero, eig runs on the real G = W diag(lam)
    W^-1 and H's eigenpairs are i lam and T W; multiplying by +-1 and +-i is
    exact, so only the rounding of eig itself changes.  Any other frame falls
    through to the complex eig of H, so a wrong frame costs speed, never
    accuracy.  The decomposition falls back to scipy's
    expm (Pade scaling-and-squaring) when V is singular or its condition
    number `condition`, the Frobenius bound ||V||_F ||V^-1||_F (inf when V
    is singular or the product overflows), reaches EIGBASIS_MAX_CONDITION;
    scipy.linalg is imported by the first such fallback in a process.
    `method` is "eig" or "expm".  A non-finite result, such as one at a time
    t where an eigenvalue product lambda t or gap mu t leaves the float range,
    raises NumericError without a numpy warning first.
    """

    def __init__(self, h, frame=None):
        self.h = as_operator(h)
        self.dim = self.h.shape[0]
        g = None
        if frame is not None:
            frame = np.asarray(frame, dtype=complex)
            if frame.shape != (self.dim,):
                raise DimensionError(f"frame shape {frame.shape} != ({self.dim},)")
            g = (-1j * self.h) * (frame[None, :] / frame[:, None])
        if g is not None and not g.imag.any():
            lam, w = np.linalg.eig(np.ascontiguousarray(g.real))
            self.eigvals, self.eigvecs = 1j * lam, frame[:, None] * w
        else:
            self.eigvals, self.eigvecs = np.linalg.eig(self.h)
        try:
            vinv = np.linalg.inv(self.eigvecs)
        except np.linalg.LinAlgError:
            vinv, cond = None, math.inf
        else:  # Python floats: a product past the float range is inf, quietly
            cond = (math.sqrt(np.vdot(self.eigvecs, self.eigvecs).real)
                    * math.sqrt(np.vdot(vinv, vinv).real))
        self.condition = cond if math.isfinite(cond) else math.inf
        usable = self.condition < EIGBASIS_MAX_CONDITION
        self._vinv = vinv if usable else None
        self._exponents = -1j * self.eigvals
        self.method = "eig" if usable else "expm"

    def apply(self, t: float, v) -> np.ndarray:
        """Return e^{-iHt} v."""
        v = as_state(v)
        if v.shape[0] != self.dim:
            raise DimensionError(f"state dim {v.shape[0]} != operator dim {self.dim}")
        if not math.isfinite(t):
            raise NumericError("evolution time must be finite")
        if self.method == "eig":
            # |lambda| t past the float range leaves non-finite amplitudes, raised below
            with np.errstate(over="ignore", invalid="ignore"):
                out = self.eigvecs @ (np.exp(self._exponents * t) * (self._vinv @ v))
        else:
            import scipy.linalg

            out = scipy.linalg.expm(-1j * self.h * t) @ v
        if not np.isfinite(out).all():
            raise NumericError("propagation produced non-finite amplitudes")
        return out

    def population(self, times, v0, index) -> np.ndarray:
        """sum_{i in index} |(e^{-iHt} v0)_i|^2 for each t of a 1-d time grid.

        The eigenbasis path forms V^-1 v0 once and applies only the rows
        `index` of V, 256 times at a time; the expm fallback loops over apply.
        """
        v0, times = as_state(v0), np.asarray(times, dtype=float)
        if v0.shape[0] != self.dim or times.ndim != 1:
            raise DimensionError(f"population needs a state of dim {self.dim} and a "
                                 f"1-d time grid, got {v0.shape} and {times.shape}")
        if not np.all(np.isfinite(times)):
            raise NumericError("evolution times must be finite")
        if self.method != "eig":
            return np.array([norm_sq(self.apply(t, v0)[index]) for t in times])
        c, rows = self._vinv @ v0, self.eigvecs[index].T
        pops = np.empty(times.shape[0])
        for k in range(0, times.shape[0], 256):
            amps = (np.exp(-1j * np.outer(times[k:k + 256], self.eigvals)) * c) @ rows
            pops[k:k + 256] = (amps.real**2 + amps.imag**2).sum(axis=1)
        if not np.all(np.isfinite(pops)):
            raise NumericError("propagation produced non-finite populations")
        return pops

    def integrated_expectation(self, ops, t: float, v0) -> np.ndarray:
        """Exact integral_0^t <psi(s)|M|psi(s)> ds along psi(s) = e^{-iHs} v0,
        one for each operator M of ops, a (k, dim, dim) stack or a list of k
        matrices, real or complex.

        Every integral reads the one density R = integral_0^t psi psi^dag ds
        as sum_ij M_ij R_ji, all k in one reduction.  In the eigenbasis
        R = A F^T A^dag in closed form, with A = V diag(V^-1 v0) and F the
        integrals of the pairwise exponentials, expm1(i mu t) / (i mu) for
        mu = conj(lambda_a) - lambda_b (t where mu = 0); the expm fallback
        sums psi psi^dag with composite Simpson weights on a fine uniform
        grid.
        """
        v0 = as_state(v0)
        try:
            ops = np.asarray(ops)
        except ValueError:  # matrices of different shapes
            ops = None
        if ops is not None and ops.shape == (0,):
            ops = ops.reshape(0, self.dim, self.dim)
        if ops is None or ops.shape[1:] != (self.dim, self.dim) or v0.shape[0] != self.dim:
            raise DimensionError("integrated_expectation dimension mismatch")
        if not np.isfinite(ops).all():
            raise NumericError("operator contains non-finite entries")
        # |mu| t past the float range leaves non-finite integrals, raised below
        with np.errstate(over="ignore", invalid="ignore"):
            r = self._integrated_density(t, v0).T
            out = (ops * r).sum(axis=(1, 2)).real
        if not np.isfinite(out).all():
            raise NumericError("loss integrals are non-finite")
        return out

    def _integrated_density(self, t, v0):
        if self.method != "eig":
            import scipy.linalg

            times = np.linspace(0.0, t, SIMPSON_POINTS)
            step = scipy.linalg.expm(-1j * self.h * (times[1] - times[0]))
            psis = np.empty((SIMPSON_POINTS, self.dim), dtype=complex)
            psis[0] = v0
            for i in range(1, SIMPSON_POINTS):
                psis[i] = step @ psis[i - 1]
            return (psis.T * simpson_weights(t, SIMPSON_POINTS)) @ psis.conj()
        a = self.eigvecs * (self._vinv @ v0)
        imu = 1j * (np.conj(self.eigvals)[:, None] - self.eigvals[None, :])
        zero = imu == 0
        factors = np.where(zero, t, np.expm1(imu * t) / np.where(zero, 1j, imu))
        return a @ factors.T @ a.conj().T


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
