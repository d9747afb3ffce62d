"""Double-mirrors model: coherent Hamiltonian, jump channels, no-jump generator.

Rate conventions follow the explicit chain matrix for the approximate
representation: with jump channels (O_k, Gamma_k) the no-jump Hamiltonian is

    H_nh = H_coherent - (i/2) sum_k Gamma_k O_k^dag O_k,

which puts -i(Gamma_g + Gamma*)/2, -i(m Gamma_s + Gamma*)/2 and -i Gamma*/2 on
the three chain states.  The detector ensemble's own collective jump channel
is dropped: both detector states the protocol visits are dark with respect to
it.  Free-space emission acts per excited atom at the uniform rate Gamma*, so
it enters as a diagonal channel weighted by the excited-atom count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import (
    BasisSet,
    add_actions,
    collective_operator,
    compose,
    detector_action,
    excitation_number_diagonal,
    excited_number_diagonal,
    matrix_from_action,
    scale_action,
    target_action,
    _act_source,
)


@dataclass(frozen=True)
class DissipativeParams:
    """Physical rates and counts for the double-mirrors configuration.

    N is the number of atoms per target mirror (the detector ensemble holds
    2N), m the excitation sector being added.  gamma_s defaults to the
    transfer-optimal gamma_g / sqrt(m).  drive_omega = 0 selects the
    fast-pulse protocol.
    """

    N: int
    m: int
    gamma_g: float = 1.0
    gamma_s: float | None = None
    gamma_star: float = 0.0
    drive_omega: float = 0.0

    def __post_init__(self):
        if self.N < 1 or self.m < 1:
            raise ValueError("N and m must be positive integers")
        if not (self.gamma_g > 0 and math.isfinite(self.gamma_g)):
            raise ValueError("gamma_g must be positive and finite")
        if self.gamma_s is None:
            object.__setattr__(self, "gamma_s", self.gamma_g / math.sqrt(self.m))
        for name in ("gamma_s", "gamma_star", "drive_omega"):
            val = getattr(self, name)
            if val < 0 or not math.isfinite(val):
                raise ValueError(f"{name} must be non-negative and finite")

    @property
    def purcell(self) -> float:
        """P_1d = gamma_g / gamma_star (inf when free-space decay is off)."""
        return math.inf if self.gamma_star == 0 else self.gamma_g / self.gamma_star

    @classmethod
    def from_purcell(cls, N, m, p1d, gamma_g=1.0, gamma_s=None, drive_omega=0.0):
        gamma_star = 0.0 if math.isinf(p1d) else gamma_g / p1d
        return cls(N, m, gamma_g, gamma_s, gamma_star, drive_omega)


@dataclass(frozen=True)
class JumpChannel:
    """One Lindblad channel: rate Gamma and the in-sector product O^dag O.

    `opdag_op` is the exact product on the reachable basis (not the product
    of basis-projected jump operators, whose images of the collective
    channels leave the no-jump sector).  It sets the channel's decay diagonal
    in H_nh and its loss rate Gamma <psi|O^dag O|psi> in the bookkeeping.
    """

    name: str
    rate: float
    opdag_op: np.ndarray


def _coherent_actions(p: DissipativeParams, basis: BasisSet):
    terms = [
        (p.gamma_g / 2, compose(_act_source("g", "e"), target_action(basis, "S_eg_plus_t"))),
        (p.gamma_g / 2, compose(_act_source("e", "g"), target_action(basis, "S_ge_plus_t"))),
        (p.gamma_s / 2, compose(detector_action(basis, "S_es_minus_d"),
                                target_action(basis, "S_se_minus_t"))),
        (p.gamma_s / 2, compose(detector_action(basis, "S_se_minus_d"),
                                target_action(basis, "S_es_minus_t"))),
    ]
    if p.drive_omega > 0:
        terms += [
            (p.drive_omega / 2, _act_source("e", "s")),
            (p.drive_omega / 2, _act_source("s", "e")),
            (p.drive_omega / 2, detector_action(basis, "S_ge_plus_d")),
            (p.drive_omega / 2, detector_action(basis, "S_eg_plus_d")),
        ]
    return [scale_action(act, rate) for rate, act in terms]


def _check_match(p: DissipativeParams, basis: BasisSet) -> None:
    if p.N != basis.N or p.m != basis.m:
        raise ValueError(
            f"params (N={p.N}, m={p.m}) do not match basis (N={basis.N}, m={basis.m})"
        )


def build_H_coherent(p: DissipativeParams, basis: BasisSet) -> np.ndarray:
    """Waveguide-mediated exchange Hamiltonian (plus drive terms if any)."""
    _check_match(p, basis)
    if p.drive_omega > 0 and not basis.with_drive:
        raise ValueError("drive_omega > 0 requires a with_drive basis")
    op = matrix_from_action(basis, add_actions(*_coherent_actions(p, basis)))
    if op.truncation_loss > 1e-12:
        raise ValueError(
            f"coherent Hamiltonian leaks outside the reachable basis "
            f"(loss {op.truncation_loss:.3e}); basis/sector mismatch"
        )
    return op.matrix


def build_jump_operators(p: DissipativeParams, basis: BasisSet) -> list[JumpChannel]:
    """Jump channels with rates folded so the no-jump diagonal is reproduced.

    Channels: the source guided decay, the antisymmetric target decay on the
    first guided mode, the superradiant target decay on the second guided
    mode, and one uniform free-space channel per excited atom.  Channels with
    zero rate are omitted.
    """
    _check_match(p, basis)
    channels = []
    dagger_name = {"S_ge_minus_t": "S_eg_minus_t", "S_se_minus_t": "S_es_minus_t"}

    def target_jump(name, rate, opname):
        sq = compose(target_action(basis, dagger_name[opname]), target_action(basis, opname))
        channels.append(JumpChannel(name, rate, matrix_from_action(basis, sq).matrix))

    if p.gamma_g > 0:
        src_sq = collective_operator(basis, "sigma_ee_s").matrix
        channels.append(JumpChannel("source_guided", p.gamma_g, src_sq))
        target_jump("target_guided_ge", p.gamma_g, "S_ge_minus_t")
    if p.gamma_s > 0:
        target_jump("target_guided_se", p.gamma_s, "S_se_minus_t")
    if p.gamma_star > 0:
        ne = excited_number_diagonal(basis)
        # one excited atom at most per reachable state, so O^dag O = diag(n_e)
        channels.append(JumpChannel("free_space", p.gamma_star,
                                    np.diag(ne.astype(complex))))
    return channels


def no_jump_generator(h_coherent: np.ndarray, channels: list[JumpChannel]) -> np.ndarray:
    """H_coherent - (i/2) sum_k Gamma_k O_k^dag O_k over the given channels."""
    h = h_coherent.astype(complex)
    for ch in channels:
        h -= 0.5j * ch.rate * ch.opdag_op
    return h


def build_H_nh(p: DissipativeParams, basis: BasisSet) -> np.ndarray:
    """No-jump generator of the model's coherent part and all its channels."""
    return no_jump_generator(build_H_coherent(p, basis), build_jump_operators(p, basis))


@dataclass(frozen=True)
class OptimalParams:
    """Transfer-optimal second-mode rate and evolution time (drive optional)."""

    gamma_s: float
    T: float
    omega: float | None = None


def optimal_parameters(p: DissipativeParams) -> OptimalParams:
    """Parameters maximizing the source-to-detector population transfer.

    Fast-pulse protocol: gamma_s = gamma_g / sqrt(m) and
    T = sqrt(2) pi / (sqrt(2N) gamma_g).  Continuous drive: the chain becomes
    a five-site perfect-transfer chain for
    omega = sqrt(2/3) sqrt(2N) gamma_g, with the transfer completing at
    T = sqrt(6) pi / (sqrt(2N) gamma_g) = 2 pi / omega.
    """
    g = math.sqrt(2 * p.N) * p.gamma_g
    gamma_s = p.gamma_g / math.sqrt(p.m)
    if p.drive_omega > 0:
        omega = math.sqrt(2.0 / 3.0) * g
        return OptimalParams(gamma_s, 2 * math.pi / omega, omega)
    return OptimalParams(gamma_s, math.sqrt(2) * math.pi / g)


def excitation_number_operator(basis: BasisSet) -> np.ndarray:
    """Diagonal bookkeeping operator counting in-protocol excitations."""
    return np.diag(excitation_number_diagonal(basis).astype(complex))
