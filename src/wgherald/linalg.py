"""Dense complex linear algebra for non-Hermitian time evolution.

Everything in the protocol state spaces is small (a few to a few hundred
dimensions), so exact dense methods are used throughout: the propagator
e^{-iHt} is built from an eigendecomposition of H (with a scaling-and-squaring
fallback when H is too ill-conditioned to diagonalize reliably), which makes
evolution to arbitrary times exact up to rounding.

Conventions: hbar = 1, all rates in units of the reference guided-mode decay
rate, times in its inverse.
"""

from __future__ import annotations

import numpy as np
import scipy.integrate
import scipy.linalg

# Above this eigenvector condition number the eigenbasis is considered too
# ill-conditioned and the propagator falls back to scipy's expm.
EIGBASIS_MAX_CONDITION = 1e8


class DimensionError(ValueError):
    """Operator/vector dimensions are inconsistent."""


class NumericError(ArithmeticError):
    """Non-finite values were produced or supplied."""


def as_state(v) -> np.ndarray:
    """Coerce to a finite complex 1-d array."""
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1:
        raise DimensionError(f"expected a 1-d state vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise NumericError("state vector contains non-finite entries")
    return arr


def as_operator(h) -> np.ndarray:
    """Coerce to a finite complex square matrix."""
    arr = np.asarray(h, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
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


class Propagator:
    """Applies e^{-iHt} to vectors, reusing one eigendecomposition of H.

    The decomposition is eig with V^-1 from inv, falling back to scipy's
    expm (Pade scaling-and-squaring) when the eigenvectors are ill-conditioned
    beyond EIGBASIS_MAX_CONDITION.  `method` is "eig" or "expm".
    """

    def __init__(self, h):
        self.h = as_operator(h)
        self.dim = self.h.shape[0]
        self.eigvals, self.eigvecs = np.linalg.eig(self.h)
        cond = np.linalg.cond(self.eigvecs)
        usable = np.isfinite(cond) and cond < EIGBASIS_MAX_CONDITION
        self._vinv = np.linalg.inv(self.eigvecs) if usable else None
        self.method = "eig" if self._vinv is not None else "expm"

    def apply(self, t: float, v) -> np.ndarray:
        """Return e^{-iHt} v."""
        v = as_state(v)
        if v.shape[0] != self.dim:
            raise DimensionError(f"state dim {v.shape[0]} != operator dim {self.dim}")
        if not np.isfinite(t):
            raise NumericError("evolution time must be finite")
        if self.method == "eig":
            out = self.eigvecs @ (np.exp(-1j * self.eigvals * t) * (self._vinv @ v))
        else:
            out = scipy.linalg.expm(-1j * self.h * t) @ v
        if not np.all(np.isfinite(out.view(float))):
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

    def integrated_expectation(self, m, t: float, v0) -> float:
        """Exact integral_0^t <psi(s)|M|psi(s)> ds along psi(s) = e^{-iHs} v0.

        In the eigenbasis the integrand is a sum of complex exponentials and
        integrates in closed form; the expm fallback uses composite Simpson
        quadrature on a fine grid.
        """
        m = as_operator(m)
        v0 = as_state(v0)
        if m.shape[0] != self.dim or v0.shape[0] != self.dim:
            raise DimensionError("integrated_expectation dimension mismatch")
        if self.method != "eig":
            return self._integrated_expectation_quadrature(m, t, v0)
        c = self._vinv @ v0
        g = self.eigvecs.conj().T @ m @ self.eigvecs
        mu = np.conj(self.eigvals)[:, None] - self.eigvals[None, :]
        scale = max(1.0, float(np.abs(self.eigvals).max()))
        small = np.abs(mu) * t < 1e-8 * scale * max(t, 1.0)
        mu_safe = np.where(small, 1.0, mu)
        factors = np.where(
            small,
            t * (1.0 + 0.5j * mu * t),
            (np.exp(1j * mu_safe * t) - 1.0) / (1j * mu_safe),
        )
        val = np.einsum("a,b,ab,ab->", np.conj(c), c, g, factors)
        return float(val.real)

    def _integrated_expectation_quadrature(self, m, t, v0, npts: int = 4097):
        times = np.linspace(0.0, t, npts)
        vals = np.empty(npts)
        step = scipy.linalg.expm(-1j * self.h * (times[1] - times[0]))
        psi = v0
        for i in range(npts):
            vals[i] = np.vdot(psi, m @ psi).real
            psi = step @ psi
        return float(scipy.integrate.simpson(vals, x=times))


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
