"""Closed-form probabilities, infidelity fits, and the protocol comparison.

Each function evaluates one closed form exactly as written, in units of the
first guided-mode rate (gamma_g = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .linalg import check_sector, is_real

INFIDELITY_FIT_PREFACTOR = 0.061


def p_double_mirrors(N: float, m: float, p1d: float) -> float:
    """Heralding probability of the tunable-ratio fast-pulse step:
    exp[-(sqrt(2) pi / (8 sqrt(2N))) (3 + 2 sqrt(m) + 8 / P_1d)]."""
    coeff = math.sqrt(2) * math.pi / (8 * math.sqrt(2 * N))
    return math.exp(-coeff * (3 + 2 * math.sqrt(m) + 8 / p1d))


def p_fixed_ratio(N: float, m: float, p1d: float) -> float:
    """Full fixed-ratio (gamma_s = gamma_g) heralding probability:
    (4m/(m+1)^2) exp[-(2 pi / sqrt(2N(m+1))) ((3m^2+m+1)/(2(m+1)^2) + 1/P_1d)]."""
    pref = 4 * m / (m + 1) ** 2
    coeff = 2 * math.pi / math.sqrt(2 * N * (m + 1))
    return pref * math.exp(-coeff * ((3 * m**2 + m + 1) / (2 * (m + 1) ** 2) + 1 / p1d))


def p_continuous_drive(N: float, m: float, p1d: float) -> float:
    """Heralding probability with continuous driving:
    exp[-(sqrt(6) pi / sqrt(2N)) ((10 + 9 sqrt(m))/64 + 29/(64 P_1d))]."""
    coeff = math.sqrt(6) * math.pi / math.sqrt(2 * N)
    return math.exp(-coeff * ((10 + 9 * math.sqrt(m)) / 64 + 29 / (64 * p1d)))


def p_fresh_level(N: float, p1d: float) -> float:
    """Heralding probability when prior quanta sit in spectator levels:
    exp[-(sqrt(2) pi / (8 sqrt(2N))) (5 + 8 / P_1d)]; no sqrt(m) enhancement."""
    coeff = math.sqrt(2) * math.pi / (8 * math.sqrt(2 * N))
    return math.exp(-coeff * (5 + 8 / p1d))


def infidelity_fit(n_total: float, m: float) -> float:
    """Fitted accumulated infidelity 0.061 m(m-1) / N^2.

    N here is the total number of target atoms (both mirrors together): the
    simulated law converges to 0.061 with that convention, while per-mirror
    counting would need the prefactor 0.061/4.
    """
    return INFIDELITY_FIT_PREFACTOR * m * (m - 1) / n_total**2


def accumulation_infidelity_prediction(n_per_mirror: float, m: float) -> float:
    """infidelity_fit evaluated for a double-mirrors run with N atoms per mirror."""
    return infidelity_fit(2 * n_per_mirror, m)


# ---------------------------------------------------------------------------
# Protocol comparison table
# ---------------------------------------------------------------------------

# Requirement gates: the tabulated conditions are asymptotic, so they become
# boolean thresholds.
DEFAULT_THRESHOLDS = {
    "p1d_large": 10.0,   # P_1d >> 1
    "xi_over_n": 5.0,    # xi >> N
    "n_large": 10.0,     # N >> 1
    "x_small": 0.1,      # x = Omega T sqrt(N) << 1
}


@dataclass(frozen=True)
class ComparisonEntry:
    """One protocol row: order-of-magnitude error and success scalings.

    Constants are deliberately dropped in the sources, so error_scaling and
    p_m rank protocols rather than predict absolute numbers.
    """

    protocol: str
    error_scaling: float
    p_m: float
    requirement: str
    requirement_satisfied: bool


def table1_compare(
    m: int,
    N: int,
    p1d: float,
    xi: float,
    eta: float = 1.0,
    x: float = 0.1,
) -> list[ComparisonEntry]:
    """Evaluate all five protocol rows at the given operating point.

    eta is the external-photodetector efficiency (first probabilistic scheme
    only) and x = Omega T sqrt(N) its drive parameter.
    """
    th = DEFAULT_THRESHOLDS
    check_sector(N, m)
    if not all(map(is_real, (p1d, xi, eta, x))):
        raise ValueError(f"p1d, xi, eta and x must be real numbers, not {(p1d, xi, eta, x)}")
    if not 0 <= eta <= 1:
        raise ValueError("eta must be in [0, 1]")
    if not (p1d > 0 and xi > 0):
        raise ValueError(f"p1d and xi must be positive, not p1d={p1d}, xi={xi}")
    if not (x >= 0 and math.isfinite(x)):
        raise ValueError(f"x must be non-negative and finite, not x={x}")
    n_m = N - m + 1
    return [
        ComparisonEntry(
            "Deterministic", m / math.sqrt(p1d), 1.0,
            "P1d >> 1", p1d > th["p1d_large"]),
        ComparisonEntry(
            "ProbabilisticI", m * (1 - eta) * x**2, (eta * x**2) ** m,
            "x = Omega T sqrt(N) << 1", x < th["x_small"]),
        ComparisonEntry(
            "ProbabilisticII", 0.0, math.exp(-m / math.sqrt(p1d)),
            "P1d >> 1", p1d > th["p1d_large"]),
        ComparisonEntry(
            "DoubleMirrors", m**2 / N**2,
            math.exp(-m * math.sqrt(m / N) * (1 + 1 / p1d)),
            "N >> 1", N > th["n_large"]),
        ComparisonEntry(
            "DipoleDipole", xi**-2.0,
            math.exp(-xi / (math.sqrt(n_m) * p1d)),
            "xi >> N", xi > th["xi_over_n"] * N),
    ]
