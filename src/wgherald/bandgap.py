"""Finite-range dipole-dipole model for emitters inside a photonic bandgap.

The model holds the source atom and the target ensemble in the
single-excitation sector: the source excitation is transferred into the
target's collective mode.  Excited emitters are dressed by an exponentially
localized photon cloud of range xi (in units of the lattice spacing), giving
position-dependent couplings (gamma_g / 2 xi) exp(-|z_i - z_j| / xi); rates
are in units of gamma_g = 1, times in its inverse.  There are no collective
jumps; only the free-space rate gamma_star decays the norm, uniformly over
the single-excitation space, so the no-jump survival factorizes exactly as
exp(-gamma_star t) and the Hamiltonian built here is the real symmetric
coherent kernel alone.

The couplings shift the source and the collective target mode; the shifts are
compensated by subtracting, per ensemble, the mean of the site-dependent
shifts (a uniform Stark shift).  For finite xi the site-dependence of the
residual is what degrades the prepared collective mode.

The transfer only ever evolves the excited source e_0, so it is propagated in
the Krylov space of e_0: a Lanczos tridiagonalization of the compensated
Hamiltonian (Park & Light, J. Chem. Phys. 85, 5870 (1986)), run until the
Hochbruck-Lubich a-posteriori bound (SIAM J. Numer. Anal. 34, 1911 (1997)) on
the error over the whole scan window falls below KRYLOV_MAX_ERROR.  The
Lanczos steps never form H: on the uniform lattice the range kernel
exp(-|i - j| / xi) is a Kac-Murdock-Szego matrix, so its product with a
vector is two first-order recursions, run as one banded triangular solve in
O(N) time and memory.  Each step first sums the error integrand at a few
scan times; that partial sum is a lower bound on the full one, so where it
already exceeds KRYLOV_MAX_ERROR the full bound over the SCAN_POINTS scan
times is not evaluated.  The dense `build_H_bandgap` and `compensate` are the documented
reference for that product and are not on the transfer path.  The two LAPACK
routines the transfer calls come from scipy, which is imported on the first
transfer and not at process start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import golden_section_max, norm_sq

# Lanczos steps stop once the Hochbruck-Lubich bound on the error of the
# propagated source state, over the whole scan window, is below this.
KRYLOV_MAX_ERROR = 1e-12

# Scan times at which each Lanczos step first sums the error integrand; the
# full bound is evaluated only where that lower bound does not already fail.
_PROBE_TIMES = 8

# Points of the uniform grid on which the transfer scans the target
# population (and sums the error bound) over its window [0, 10 pi / G].
SCAN_POINTS = 2048


class TransferWindowError(RuntimeError):
    """No interior population-transfer maximum found in the search window."""


@dataclass(frozen=True)
class BandgapParams:
    """Geometry and free-space rate (in units of gamma_g = 1) for the
    bandgap configuration.

    The atoms sit on a uniform lattice (units of the spacing d): the source
    at site 0 and the target ensemble contiguous at sites 1..N.  N_m = N-m+1
    is the collective enhancement left once m-1 quanta are stored.
    """

    N: int
    xi: float
    m: int = 1
    gamma_star: float = 0.0

    def __post_init__(self):
        if self.N < 1 or self.m < 1:
            raise ValueError("N and m must be positive")
        if self.N - self.m + 1 < 1:
            raise ValueError("need N - m + 1 >= 1")
        if not (self.xi > 0 and math.isfinite(self.xi)):
            raise ValueError("xi must be positive and finite")
        if not (self.gamma_star >= 0 and math.isfinite(self.gamma_star)):
            raise ValueError("gamma_star must be non-negative and finite")

    @property
    def N_m(self) -> int:
        return self.N - self.m + 1

    @property
    def purcell(self) -> float:
        return math.inf if self.gamma_star == 0 else 1.0 / self.gamma_star

    @property
    def coupling(self) -> float:
        """Source <-> collective-mode matrix element sqrt(N_m) / (2 xi)."""
        return math.sqrt(self.N_m) / (2 * self.xi)


def build_H_bandgap(p: BandgapParams) -> np.ndarray:
    """Real symmetric coherent kernel of the atom-resolved (N+1)-dimensional
    single-excitation block {source excited, target atom n excited}: the
    exchange couplings, the intra-target dipole-dipole block (diagonal
    included) and the source self-energy, all at strength 1 / (2 xi) times
    the range factors.  The uniform free-space decay -i gamma_star / 2
    is not included: it only multiplies the norm by exp(-gamma_star t).

    This dense matrix is the reference for `_products`; the transfer never
    builds it.
    """
    z = np.arange(p.N + 1, dtype=float)
    return 1.0 / (2 * p.xi) * np.exp(-np.abs(z[:, None] - z[None, :]) / p.xi)


def compensate(h: np.ndarray, p: BandgapParams) -> np.ndarray:
    """Subtract the mean collective shift per ensemble (uniform Stark shifts).

    Target atoms all receive the mean of the row sums of the intra-target
    block; the source receives its own self-energy.  The coherent diagonal of
    the compensated Hamiltonian then vanishes on the symmetric mode up to the
    site-dependent residual.  Dense reference, like `build_H_bandgap`.
    """
    mean_shift = h[1:, 1:].real.sum() / p.N
    h = h.copy()
    unit = 1.0 / (2 * p.xi)
    idx = np.arange(1, p.N + 1)
    h[idx, idx] -= mean_shift
    h[0, 0] -= unit
    return h


@dataclass
class TransferRecord:
    """Time series and optimum of the source -> target collective transfer."""

    times: np.ndarray
    source_population: np.ndarray
    target_population: np.ndarray
    optimal_time: float
    amplitudes: np.ndarray          # target amplitudes c_n at the optimum
    intensity: np.ndarray           # |c_n|^2
    phase: np.ndarray               # arg(c_n)
    infidelity: float               # 1 - |<sym|psi>|^2 after target projection
    source_population_at_opt: float
    survival_probability: float     # exp(-gamma_star * optimal_time)
    window: tuple[float, float]
    krylov_steps: int               # Lanczos steps k, at most N + 1
    error_bound: float              # Hochbruck-Lubich bound reached at step k


def _phase_sum(theta: np.ndarray, c: np.ndarray, dt: float, n: int) -> np.ndarray:
    """sum_j c_j exp(-i theta_j m dt) for m = 0 .. n-1.

    With m = r a + b, the phases factor into a coarse and a fine table of
    about sqrt(n) rows each, so the n x len(theta) exponentials reduce to
    one matrix product.
    """
    r = math.isqrt(n - 1) + 1
    fine = np.exp(-1j * dt * np.outer(np.arange(r), theta))
    coarse = np.exp(-1j * dt * r * np.outer(np.arange(-(-n // r)), theta))
    return ((coarse * c) @ fine.T).ravel()[:n]


def _products(p: BandgapParams):
    """O(N) products x -> build_H_bandgap(p) @ x and x -> H @ x, with H the
    compensated compensate(build_H_bandgap(p), p); neither matrix is formed.

    On the uniform lattice the range kernel K_ij = rho^|i-j|, rho =
    exp(-1/xi), is a Kac-Murdock-Szego matrix: K x = y + reverse(u) - x,
    where y_i = x_i + rho y_{i-1} runs forward over x and u is the same
    recursion over reverse(x).  Both recursions are one unit lower-bidiagonal
    banded solve with two right-hand sides.  The mean target shift of
    `compensate` is the same product on the target indicator.
    """
    from scipy.linalg.lapack import dtbtrs

    n = p.N + 1
    unit = 1.0 / (2 * p.xi)
    ab = np.empty((2, n))  # band storage: unit diagonal, subdiagonal -rho
    ab[0] = 1.0
    ab[1] = -math.exp(-1.0 / p.xi)

    def kernel(x):
        # a unit diagonal is never singular, so info is always 0
        y, _ = dtbtrs(ab, np.column_stack((x, x[::-1])), uplo="L", diag="U")
        return unit * (y[:, 0] + y[::-1, 1] - x)

    target = np.ones(n)
    target[0] = 0.0
    shift = target @ kernel(target) / p.N * target  # the diagonal compensate subtracts
    shift[0] = unit

    def hamiltonian(x):
        return kernel(x) - shift * x

    return kernel, hamiltonian


def _lanczos(apply, n: int, dt: float, n_grid: int):
    """Lanczos tridiagonalization T_k = Q^T H Q of the real symmetric n x n H
    (given as its product `apply`) on the orbit of e_0, with full
    reorthogonalization.

    e^{-iHt} e_0 ~ Q S e^{-i theta t} (Q S)^T e_0, with T_k = S diag(theta) S^T.
    Steps continue until beta_k int_0^{t_hi} |e_k^T e^{-isT_k} e_1| ds, the
    Hochbruck-Lubich bound on that error for every t up to t_hi, is at most
    KRYLOV_MAX_ERROR, or until k = n, where the Krylov space is the whole
    space.  The integral is taken by the trapezoidal rule on the scan grid
    m dt, m < n_grid.  Its integrand is non-negative, so its sum over
    _PROBE_TIMES interior grid points is a lower bound: where that already
    fails the test, the full sum is skipped.  An invariant subspace
    (beta_k = 0) gives a zero bound: the propagation is then exact.  Returns
    the basis Q S, the Ritz values theta, k and the bound.
    """
    from scipy.linalg.lapack import dstevd

    q = np.zeros((min(n, 16), n))  # row j is q_j; doubled as steps are taken
    q[0, 0] = 1.0
    alpha, beta = np.zeros(n), np.zeros(n)
    probe = dt * np.unique(np.linspace(1, n_grid - 2, _PROBE_TIMES).round())
    for j in range(n):
        w = apply(q[j])
        alpha[j] = q[j] @ w
        for _ in range(2):  # twice is enough (Parlett)
            w -= (q[:j + 1] @ w) @ q[:j + 1]
        b = math.sqrt(w @ w)
        if j == 0:  # dstevd rejects the 1 x 1 case
            theta, s = alpha[:1].copy(), np.ones((1, 1))
        else:
            theta, s, info = dstevd(alpha[:j + 1], beta[:j])
            if info:
                raise np.linalg.LinAlgError(f"dstevd did not converge (info={info})")
        c = s[-1] * s[0]
        last = j + 1 == n
        partial = b * dt * np.abs(np.exp(-1j * np.outer(probe, theta)) @ c).sum()
        if partial <= KRYLOV_MAX_ERROR or last:
            defect = np.abs(_phase_sum(theta, c, dt, n_grid))
            bound = b * dt * (defect.sum() - 0.5 * (defect[0] + defect[-1]))
            if bound <= KRYLOV_MAX_ERROR or last:
                return q[:j + 1].T @ s, theta, j + 1, bound
        beta[j] = b
        if j + 1 == len(q):  # twice the rows, at most n
            grown = np.zeros((min(2 * len(q), n), n))
            grown[:len(q)] = q
            q = grown
        q[j + 1] = w / b


def run_transfer(p: BandgapParams) -> TransferRecord:
    """Evolve the single-excitation transfer and characterize its optimum.

    The compensated coherent Hamiltonian (real symmetric) drives the
    dynamics of the excited source e_0, propagated in its Krylov space (see
    `_lanczos`; `krylov_steps` and `error_bound` report the step count and
    the error bound reached).  The target population, 1 - source, is scanned
    at SCAN_POINTS times on [0, 10 pi / G] and its maximum refined by golden
    section to 1e-6 * pi / G.  The uniform free-space decay multiplies the norm by
    exp(-gamma_star t), so the no-jump survival at the optimum is reported
    without re-evolving.
    """
    _, hamiltonian = _products(p)
    g = p.coupling
    t_hi = 10 * math.pi / g
    times = np.linspace(0.0, t_hi, SCAN_POINTS)
    dt = t_hi / (SCAN_POINTS - 1)
    basis, theta, steps, bound = _lanczos(hamiltonian, p.N + 1, dt, SCAN_POINTS)
    s0 = basis[0]  # e_0 in the Ritz basis

    def psi(t):
        v = np.exp(-1j * theta * t) * s0
        return basis @ v.real + 1j * (basis @ v.imag)  # no complex copy of basis

    # norm is conserved by the coherent dynamics: target = 1 - source
    source = _phase_sum(theta, s0 * s0, dt, SCAN_POINTS)
    pops = 1.0 - (source.real**2 + source.imag**2)
    # first interior population maximum: later quasi-revivals can edge higher
    # but are useless once the uniform decay factor is attached
    interior = np.flatnonzero((pops[1:-1] >= pops[:-2]) & (pops[1:-1] > pops[2:])) + 1
    if interior.size == 0:
        raise TransferWindowError(
            f"no transfer maximum inside the window [0, {t_hi:.4g}]"
        )
    k = int(interior[0])
    t_opt = golden_section_max(lambda t: norm_sq(psi(t)[1:]),
                               times[k - 1], times[k + 1], 1e-6 * math.pi / g)

    psi_opt = psi(t_opt)
    c = psi_opt[1:]
    proj = c / math.sqrt(norm_sq(c))
    sym = np.full(p.N, 1.0 / math.sqrt(p.N), dtype=complex)
    infid = 1.0 - abs(np.vdot(sym, proj)) ** 2
    return TransferRecord(
        times=times,
        source_population=1.0 - pops,
        target_population=pops,
        optimal_time=t_opt,
        amplitudes=c,
        intensity=np.abs(c) ** 2,
        phase=np.angle(c),
        infidelity=float(infid),
        source_population_at_opt=float(abs(psi_opt[0]) ** 2),
        survival_probability=float(math.exp(-p.gamma_star * t_opt)),
        window=(0.0, t_hi),
        krylov_steps=steps,
        error_bound=float(bound),
    )


def ideal_step_probability(p: BandgapParams) -> float:
    """Closed-form heralding probability in the ideal limit xi >> N:
    exp(-pi xi / (sqrt(N_m) P_1d)); 1 when free-space decay is off."""
    if p.gamma_star == 0:
        return 1.0
    return math.exp(-math.pi * p.xi / (math.sqrt(p.N_m) * p.purcell))
