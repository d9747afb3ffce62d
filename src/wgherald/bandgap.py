"""Finite-range dipole-dipole model for emitters inside a photonic bandgap.

The model holds the source atom and the target ensemble in the
single-excitation sector: the source excitation is transferred into the
target's collective mode.  Excited emitters are dressed by an exponentially
localized photon cloud of range xi (in units of the lattice spacing), giving
position-dependent couplings (gamma_g / 2 xi) exp(-|z_i - z_j| / xi).  There
are no collective jumps; only the free-space rate gamma_star decays the norm,
uniformly over the single-excitation space, so the no-jump survival
factorizes exactly as exp(-gamma_star t) and the Hamiltonian built here is
the real symmetric coherent kernel alone.

The couplings shift the source and the collective target mode; the shifts are
compensated by subtracting, per ensemble, the mean of the site-dependent
shifts (a uniform Stark shift).  For finite xi the site-dependence of the
residual is what degrades the prepared collective mode.

The transfer only ever evolves the excited source e_0, so it is propagated in
the Krylov space of e_0: a Lanczos tridiagonalization of the compensated
Hamiltonian (Park & Light, J. Chem. Phys. 85, 5870 (1986)), run until the
Hochbruck-Lubich a-posteriori bound (SIAM J. Numer. Anal. 34, 1911 (1997)) on
the error over the whole scan window falls below KRYLOV_MAX_ERROR.  A dense
eigendecomposition of the Hamiltonian is kept only as the test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .linalg import golden_section_max, norm_sq

# Lanczos steps stop once the Hochbruck-Lubich bound on the error of the
# propagated source state, over the whole scan window, is below this.
KRYLOV_MAX_ERROR = 1e-12


class TransferWindowError(RuntimeError):
    """No interior population-transfer maximum found in the search window."""


@dataclass(frozen=True)
class BandgapParams:
    """Geometry and rates for the bandgap configuration.

    Positions are integer lattice coordinates (units of the spacing d); the
    default geometry is the source at site 0 with the target ensemble
    contiguous at sites 1..N.  N_m = N-m+1 is the collective enhancement left
    once m-1 quanta are stored.
    """

    N: int
    xi: float
    m: int = 1
    gamma_g: float = 1.0
    gamma_star: float = 0.0
    source_position: int = 0
    target_positions: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.N < 1 or self.m < 1:
            raise ValueError("N and m must be positive")
        if self.N - self.m + 1 < 1:
            raise ValueError("need N - m + 1 >= 1")
        if not (self.xi > 0 and math.isfinite(self.xi)):
            raise ValueError("xi must be positive and finite")
        if not (self.gamma_g > 0 and math.isfinite(self.gamma_g)):
            raise ValueError("gamma_g must be positive and finite")
        if not (self.gamma_star >= 0 and math.isfinite(self.gamma_star)):
            raise ValueError("gamma_star must be non-negative and finite")
        if self.target_positions is None:
            object.__setattr__(self, "target_positions", tuple(range(1, self.N + 1)))
        if len(self.target_positions) != self.N:
            raise ValueError("need one target position per atom")
        allpos = (self.source_position, *self.target_positions)
        if len(set(allpos)) != len(allpos):
            raise ValueError("atom positions must be distinct")

    @property
    def N_m(self) -> int:
        return self.N - self.m + 1

    @property
    def purcell(self) -> float:
        return math.inf if self.gamma_star == 0 else self.gamma_g / self.gamma_star

    @property
    def coupling(self) -> float:
        """Source <-> collective-mode matrix element sqrt(N_m) gamma_g / (2 xi)."""
        return math.sqrt(self.N_m) * self.gamma_g / (2 * self.xi)


def build_H_bandgap(p: BandgapParams) -> np.ndarray:
    """Real symmetric coherent kernel of the atom-resolved (N+1)-dimensional
    single-excitation block {source excited, target atom n excited}: the
    exchange couplings, the intra-target dipole-dipole block (diagonal
    included) and the source self-energy, all at strength gamma_g / (2 xi)
    times the range factors.  The uniform free-space decay -i gamma_star / 2
    is not included: it only multiplies the norm by exp(-gamma_star t).
    """
    z = np.array((p.source_position, *p.target_positions), dtype=float)
    return p.gamma_g / (2 * p.xi) * np.exp(-np.abs(z[:, None] - z[None, :]) / p.xi)


def compensate(h: np.ndarray, p: BandgapParams) -> np.ndarray:
    """Subtract the mean collective shift per ensemble (uniform Stark shifts).

    Target atoms all receive the mean of the row sums of the intra-target
    block; the source receives its own self-energy.  The coherent diagonal of
    the compensated Hamiltonian then vanishes on the symmetric mode up to the
    site-dependent residual.
    """
    mean_shift = h[1:, 1:].real.sum() / p.N
    h = h.copy()
    unit = p.gamma_g / (2 * p.xi)
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
    window: tuple[float, float] = field(default=(0.0, 0.0))
    krylov_steps: int = 0           # Lanczos steps k, at most N + 1
    error_bound: float = 0.0        # Hochbruck-Lubich bound reached at step k


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


def _lanczos(h: np.ndarray, dt: float, n_grid: int):
    """Lanczos tridiagonalization T_k = Q^T h Q of the real symmetric h on the
    orbit of e_0, with full reorthogonalization.

    e^{-iht} e_0 ~ Q S e^{-i theta t} (Q S)^T e_0, with T_k = S diag(theta) S^T.
    Steps continue until beta_k int_0^{t_hi} |e_k^T e^{-isT_k} e_1| ds, the
    Hochbruck-Lubich bound on that error for every t up to t_hi, is at most
    KRYLOV_MAX_ERROR, or until k = dim h, where the Krylov space is the whole
    space.  The integral is taken by the trapezoidal rule on the scan grid
    m dt, m < n_grid.  An invariant subspace (beta_k = 0) gives a zero bound:
    the propagation is then exact.  Returns the basis Q S, the Ritz values
    theta, k and the bound.
    """
    n = h.shape[0]
    q = np.zeros((n, n))  # row j is q_j; rows past k are never touched
    q[0, 0] = 1.0
    alpha, beta = [], []
    for j in range(n):
        w = h @ q[j]
        alpha.append(q[j] @ w)
        for _ in range(2):  # twice is enough (Parlett)
            w -= (q[:j + 1] @ w) @ q[:j + 1]
        b = math.sqrt(w @ w)
        theta, s = scipy.linalg.eigh_tridiagonal(np.array(alpha), np.array(beta))
        defect = np.abs(_phase_sum(theta, s[-1] * s[0], dt, n_grid))
        bound = b * dt * (defect.sum() - 0.5 * (defect[0] + defect[-1]))
        if bound <= KRYLOV_MAX_ERROR or j + 1 == n:
            return q[:j + 1].T @ s, theta, j + 1, bound
        beta.append(b)
        q[j + 1] = w / b


def run_transfer(p: BandgapParams, n_grid: int = 2048) -> TransferRecord:
    """Evolve the single-excitation transfer and characterize its optimum.

    The compensated coherent Hamiltonian (real symmetric) drives the
    dynamics of the excited source e_0, propagated in its Krylov space (see
    `_lanczos`; `krylov_steps` and `error_bound` report the step count and
    the error bound reached).  The target population, 1 - source, is scanned
    on [0, 10 pi / G] and its maximum refined by golden section to
    1e-6 * pi / G.  The uniform free-space decay multiplies the norm by
    exp(-gamma_star t), so the no-jump survival at the optimum is reported
    without re-evolving.
    """
    h = compensate(build_H_bandgap(p), p)
    g = p.coupling
    t_hi = 10 * math.pi / g
    times = np.linspace(0.0, t_hi, n_grid)
    if n_grid < 3:
        raise TransferWindowError(f"a grid of {n_grid} times has no interior maximum")
    dt = t_hi / (n_grid - 1)
    basis, theta, steps, bound = _lanczos(h, dt, n_grid)
    s0 = basis[0]  # e_0 in the Ritz basis

    def psi(t):
        return basis @ (np.exp(-1j * theta * t) * s0)

    # norm is conserved by the coherent dynamics: target = 1 - source
    source = _phase_sum(theta, s0 * s0, dt, n_grid)
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
