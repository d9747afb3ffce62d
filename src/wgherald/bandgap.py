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
Hamiltonian (Park & Light, J. Chem. Phys. 85, 5870 (1986)), grown by
`linalg.arnoldi` until the Hochbruck-Lubich a-posteriori bound (SIAM J.
Numer. Anal. 34, 1911 (1997)) on the error over the whole scan window falls
below KRYLOV_MAX_ERROR (see `_lanczos`).  The Lanczos steps never form H: on
the uniform lattice the range kernel exp(-|i - j| / xi) is a
Kac-Murdock-Szego matrix, so its product with a vector is a blocked product,
one small dense block per block of sites and a rank-one coupling between
blocks, in O(N) memory.  The stopping step's `linalg.exp_sums` table also
gives the scan of the source population.  The dense
`build_H_bandgap` and `compensate` are the documented reference for that
product and are not on the transfer path.  The transfer runs on numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (arnoldi, check_positive, check_rate, check_sector, exp_sums,
                     golden_section_max, norm_sq, trapezoid)

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
    is the collective enhancement left once m-1 quanta are stored, at least 1
    because N and m are integers with 1 <= m <= N (`linalg.check_sector`).
    xi is a positive finite real (`linalg.check_positive`) and gamma_star a
    non-negative finite one (`linalg.check_rate`).
    """

    N: int
    xi: float
    m: int = 1
    gamma_star: float = 0.0

    def __post_init__(self):
        check_sector(self.N, self.m)
        check_positive("xi", self.xi)
        check_rate("gamma_star", self.gamma_star)

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


@dataclass(eq=False)  # arrays: compared by identity
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


def _products(p: BandgapParams):
    """O(N)-memory products x -> build_H_bandgap(p) @ x and x -> H @ x, with H
    the compensated compensate(build_H_bandgap(p), p); neither matrix is
    formed.

    On the uniform lattice the range kernel K_ij = rho^|i-j|, rho =
    exp(-1/xi), is a Kac-Murdock-Szego matrix.  With x padded to nb blocks
    of b = ceil(sqrt(N + 1)) sites, each block is multiplied by one symmetric
    b x b KMS block (the near field).  Between site a of block k and site c
    of block l < k the kernel is rank one, rho^(b(k-l-1)) rho^(a+1)
    rho^(b-1-c), so the far field is two sums of x per block, weighted
    towards its end and towards its start, carried to the blocks on the
    other side by one (2 nb) x (2 nb) matrix.  Every factor is
    exp(-d / xi), scaled as `build_H_bandgap` scales it, and every operation
    is a matrix product.  The mean target shift of `compensate` is the same
    product on the target indicator.
    """
    n = p.N + 1
    unit = 1.0 / (2 * p.xi)
    b = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    nb = -(-n // b)
    a = np.arange(b)
    near = unit * np.exp(-np.abs(a[:, None] - a[None, :]) / p.xi)
    ends = np.exp(-np.column_stack((b - 1 - a, a + 1)) / p.xi)
    k = np.arange(nb)
    far = np.tril(np.exp(-b * np.abs(k[:, None] - k[None, :] - 1) / p.xi), -1)
    across = np.zeros((nb, 2, nb, 2))  # (block k, sum) <- (block l, sum)
    across[:, 0, :, 1] = far.T  # from the blocks on the right
    across[:, 1, :, 0] = far  # from the blocks on the left
    across = across.reshape(2 * nb, 2 * nb)
    spread = unit * ends.T
    xb = np.zeros((nb, b))  # x, padded with zeros
    flat = xb.reshape(-1)

    def kernel(x):
        flat[:n] = x
        carried = (across @ (xb @ ends).ravel()).reshape(nb, 2)
        return (xb @ near + carried @ spread).ravel()[:n]

    target = np.ones(n)
    target[0] = 0.0
    shift = target @ kernel(target) / p.N * target  # the diagonal compensate subtracts
    shift[0] = unit

    def hamiltonian(x):
        return kernel(x) - shift * x

    return kernel, hamiltonian


def _lanczos(apply, n: int, dt: float, n_grid: int):
    """Lanczos on the orbit of e_0 under the real symmetric n x n H, given as
    its product `apply`: `arnoldi`'s loop, whose H_k is the tridiagonal T_k,
    read from its lower triangle by `np.linalg.eigh`, T_k = S diag(theta) S^T,
    so e^{-iHt} e_0 ~ Q S e^{-i theta t} (Q S)^T e_0.

    The stop test is the Hochbruck-Lubich bound on that error for every t up
    to t_hi, beta_k int_0^{t_hi} |e_k^T e^{-isT_k} e_1| ds <= KRYLOV_MAX_ERROR,
    a trapezoid sum on the scan grid m dt, m < n_grid; the loop also stops at
    k = n and at an invariant subspace (beta_k = 0: a zero bound, exact).
    The integrand is non-negative, so its sum over _PROBE_TIMES grid points
    is a lower bound: where that probe already fails, the full sum is
    skipped.  Until the probe first passes, it and the Ritz pairs are taken
    at odd j only; when odd j's probe passes, the skipped step j - 1 is
    tested first where its residual certifies it, beta_{j-1} t_hi <=
    KRYLOV_MAX_ERROR with t_hi = dt (n_grid - 1): e^{-isT_k} is unitary, so
    the integrand is at most 1, and the trapezoid weights sum to t_hi, so
    such a step's bound passes.  Then j and every later step are tested.  So
    the step returned always meets the bound, and it is the first that does
    unless the probe passes at j - 1 and fails again at j, or j - 1's bound
    passes without the certificate; either returns a later step.  On random
    orbits with N 1-600 the second case never occurred below xi/N = 20; it
    returned one step more in 6 of 250 orbits at xi/N 20-100, 4 of 300 at
    100-1000 and 14 of 150 at 1000-1e6, each with a bound below 1e-14 (N 10,
    xi 1e4: k 5 -> 6, bound 8.4e-14 -> 9.0e-18).  One `exp_sums` table
    gives the stopping step's bound and source amplitudes
    sum_j (S_0j)^2 e^{-i theta_j m dt}.
    Returns the basis Q S, the Ritz values theta, k, the bound and the
    source amplitudes.
    """
    grid = np.linspace(1, n_grid - 2, _PROBE_TIMES).round()  # non-decreasing
    probe = dt * grid[np.append(True, grid[1:] > grid[:-1])]

    # ritz and stop read the loop's current basis q and projection h
    def ritz(i, b):  # step i's Ritz pairs, the bound's weights S_kj S_1j and its probe
        theta, s = np.linalg.eigh(h[:i + 1, :i + 1])  # reads the lower triangle
        c = s[-1] * s[0]
        return theta, s, c, b * dt * np.abs(np.exp(-1j * np.outer(probe, theta)) @ c).sum()

    def stop(i, b, pairs, last):  # step i's test: the probe, then the full bound
        theta, s, c, partial = pairs
        if not (partial <= KRYLOV_MAX_ERROR or last):
            return None
        sums = exp_sums(-1j * theta, np.stack((c, s[0] * s[0])), dt, n_grid)
        bound = b * trapezoid(np.abs(sums[0]), dt)
        if bound <= KRYLOV_MAX_ERROR or last:
            return q[:i + 1].T @ s, theta, i + 1, bound, sums[1]
        return None

    every = False  # whether every step is tested: the probe has passed
    for j, b, q, h in arnoldi(apply, np.eye(1, n)[0], n):
        last = j + 1 == n or b == 0
        if every or j % 2 or last:
            pairs = ritz(j, b)
            if not every and pairs[3] <= KRYLOV_MAX_ERROR:
                every = True
                # the skipped step j - 1 first, where its residual certifies it
                b_skip = h[j, j - 1]
                found = (j % 2 and b_skip * dt * (n_grid - 1) <= KRYLOV_MAX_ERROR
                         and stop(j - 1, b_skip, ritz(j - 1, b_skip), False))
                if found:
                    return found
            found = stop(j, b, pairs, last)
            if found:
                return found


def run_transfer(p: BandgapParams) -> TransferRecord:
    """Evolve the single-excitation transfer and characterize its optimum.

    The compensated coherent Hamiltonian (real symmetric) drives the
    dynamics of the excited source e_0, propagated in its Krylov space (see
    `_lanczos`; `krylov_steps` and `error_bound` report the step count and
    the error bound reached).  The target population, 1 - source, is scanned
    at SCAN_POINTS times on [0, 10 pi / G] and its maximum refined by golden
    section to 1e-6 * pi / G.  The uniform free-space decay multiplies the norm by
    exp(-gamma_star t), so the no-jump survival at the optimum is reported
    without re-evolving.  The atom-resolved single-excitation model holds no
    stored quanta, so only m = 1 is evolved (`ideal_step_probability` takes
    any m).
    """
    if p.m != 1:
        raise ValueError(f"the transfer holds no stored quanta: m must be 1, not {p.m}")
    _, hamiltonian = _products(p)
    g = p.coupling
    t_hi = 10 * math.pi / g
    times = np.linspace(0.0, t_hi, SCAN_POINTS)
    dt = t_hi / (SCAN_POINTS - 1)
    basis, theta, steps, bound, source = _lanczos(hamiltonian, p.N + 1, dt, SCAN_POINTS)
    s0 = basis[0]  # e_0 in the Ritz basis

    # norm is conserved by the coherent dynamics: target = 1 - source
    pops = 1.0 - (source.real**2 + source.imag**2)
    # first interior population maximum: later quasi-revivals can edge higher
    # but are useless once the uniform decay factor is attached
    interior = np.flatnonzero((pops[1:-1] >= pops[:-2]) & (pops[1:-1] > pops[2:])) + 1
    if interior.size == 0:
        raise TransferWindowError(
            f"no transfer maximum inside the window [0, {t_hi:.4g}]"
        )
    k = int(interior[0])
    rate, weights = -1j * theta, (s0 * s0).astype(complex)
    t_opt = golden_section_max(lambda t: 1.0 - abs(np.exp(rate * t) @ weights) ** 2,
                               times[k - 1], times[k + 1], 1e-6 * math.pi / g)

    v = np.exp(-1j * theta * t_opt) * s0
    psi_opt = basis @ v.real + 1j * (basis @ v.imag)  # no complex copy of basis
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
