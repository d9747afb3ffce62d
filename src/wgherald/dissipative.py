"""Double-mirrors model: coherent Hamiltonian, jump channels, no-jump generator.

Rate conventions follow the explicit chain matrix for the approximate
representation: with jump channels (O_k, Gamma_k) the no-jump Hamiltonian is

    H_nh = H_coherent - (i/2) sum_k Gamma_k O_k^dag O_k,

which puts -i(Gamma_g + Gamma*)/2, -i(m Gamma_s + Gamma*)/2 and -i Gamma*/2 on
the three chain states.  The detector ensemble's own collective jump channel
is dropped: both detector states the protocol visits are dark with respect to
it.  Free-space emission acts per excited atom at the uniform rate Gamma*, so
it enters as a diagonal channel weighted by the excited-atom count.

Every term is written once below as a per-label rule (a function from a basis
label to its (image label, amplitude) pairs) and assembled on the basis by
`basis.matrix_from_action`: the exchange, the detector loading, the drives and
each channel's O^dag O.  The O^dag O products pass through intermediate images
that may lie outside the basis, so they are exact on the reachable sector.
Every term commutes with the signed mirror swap of `basis`, so the same rules
assemble the model on either mirror-parity sector.

A model is undriven: the unit-strength loading and readout drives
(`source_drive`, `readout_drive`) are rules a protocol step scales and adds to
its generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import (
    DET_EXCITED,
    DET_HERALDED,
    DET_NONE,
    BasisLabel,
    BasisSet,
    HPMode,
    matrix_from_action,
    mirror_image,
)


@dataclass(frozen=True)
class DissipativeParams:
    """Physical rates and counts for the double-mirrors configuration.

    N is the number of atoms per target mirror (the detector ensemble holds
    2N), m the excitation sector being added.  gamma_s defaults to the
    transfer-optimal gamma_g / sqrt(m).
    """

    N: int
    m: int
    gamma_g: float = 1.0
    gamma_s: float | None = None
    gamma_star: float = 0.0

    def __post_init__(self):
        if self.N < 1 or self.m < 1:
            raise ValueError("N and m must be positive integers")
        if not (self.gamma_g > 0 and math.isfinite(self.gamma_g)):
            raise ValueError("gamma_g must be positive and finite")
        if self.gamma_s is None:
            object.__setattr__(self, "gamma_s", self.gamma_g / math.sqrt(self.m))
        for name in ("gamma_s", "gamma_star"):
            val = getattr(self, name)
            if val < 0 or not math.isfinite(val):
                raise ValueError(f"{name} must be non-negative and finite")

    @classmethod
    def from_purcell(cls, N, m, p1d, gamma_s=None):
        """Rates in units of gamma_g = 1 from P_1d = gamma_g / gamma_star;
        P_1d = inf means no free-space decay."""
        if not p1d > 0:
            raise ValueError(f"p1d must be positive, not {p1d!r}")
        gamma_star = 0.0 if math.isinf(p1d) else 1.0 / p1d
        return cls(N, m, 1.0, gamma_s, gamma_star)


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


def target_images(basis: BasisSet, lbl: BasisLabel, which: str, sign: float):
    """Images of lbl under the collective target operator S_which,sign.

    S_which,+- = S_which(mirror 1) +- S_which(mirror 2).  EXACT: the bosonized
    per-mirror operator on each mirror.  APPROX: the linearized modes (k1 the
    antisymmetric storage mode, l1 the symmetric excited mode); only the
    operators the model applies are defined there.
    """
    if basis.mode == HPMode.EXACT:
        out = []
        image = mirror_image(which, lbl.k1, lbl.l1, basis.N)
        if image:
            out.append((lbl._replace(k1=image[0], l1=image[1]), image[2]))
        image = mirror_image(which, lbl.k2, lbl.l2, basis.N)
        if image:
            out.append((lbl._replace(k2=image[0], l2=image[1]), sign * image[2]))
        return out
    k, l = lbl.k1, lbl.l1
    root2n = math.sqrt(2 * basis.N)
    if (which, sign) == ("eg", 1.0):
        return [(lbl._replace(l1=l + 1), root2n * math.sqrt(l + 1))]
    if (which, sign) == ("ge", 1.0):
        return [(lbl._replace(l1=l - 1), root2n * math.sqrt(l))] if l else []
    if (which, sign) == ("ge", -1.0):
        # annihilates the antisymmetric excited mode, which the chain never fills
        return []
    if (which, sign) == ("se", -1.0):
        # bs-^dag be+ survives; bs+^dag be- annihilates an empty mode
        return [(lbl._replace(k1=k + 1, l1=l - 1), math.sqrt(k + 1) * math.sqrt(l))] if l else []
    if (which, sign) == ("es", -1.0):
        return [(lbl._replace(k1=k - 1, l1=l + 1), math.sqrt(k) * math.sqrt(l + 1))] if k else []
    raise ValueError(f"S_{which},{sign:+.0f} leaves the linearized chain")


def source_drive(lbl: BasisLabel):
    """sigma_es + sigma_se: the unit-strength drive between source levels e and s."""
    flip = {"e": "s", "s": "e"}.get(lbl.source_level)
    return [(lbl._replace(source_level=flip), 1.0)] if flip else []


def readout_drive(lbl: BasisLabel):
    """S_ge,+ + S_eg,+ on the detector: the unit-strength excited <-> heralded drive."""
    flip = {DET_EXCITED: DET_HERALDED, DET_HERALDED: DET_EXCITED}.get(lbl.detector)
    return [(lbl._replace(detector=flip), 1.0)] if flip else []


def _coherent_rule(p: DissipativeParams, basis: BasisSet):
    """(gamma_g/2)(sigma_ge S_eg,+ + h.c.) + (gamma_s/2)(S_es,-^d S_se,- + h.c.)."""
    half_g, half_s = p.gamma_g / 2, p.gamma_s / 2
    root = math.sqrt(2 * basis.N)  # collective flip of the 2N detector atoms

    def rule(lbl):
        out = []
        if lbl.source_level == "e":
            out += [(t._replace(source_level="g"), half_g * a)
                    for t, a in target_images(basis, lbl, "eg", 1.0)]
        elif lbl.source_level == "g":
            out += [(t._replace(source_level="e"), half_g * a)
                    for t, a in target_images(basis, lbl, "ge", 1.0)]
        if lbl.detector == DET_NONE:
            out += [(t._replace(detector=DET_EXCITED), half_s * (a * root))
                    for t, a in target_images(basis, lbl, "se", -1.0)]
        elif lbl.detector == DET_EXCITED:
            out += [(t._replace(detector=DET_NONE), half_s * (a * root))
                    for t, a in target_images(basis, lbl, "es", -1.0)]
        return out

    return rule


def _jump_product(basis: BasisSet, which: str):
    """O^dag O for O = S_which,-, with O^dag = S_(which reversed),-."""

    def rule(lbl):
        return [(fin, a * b)
                for mid, a in target_images(basis, lbl, which, -1.0)
                for fin, b in target_images(basis, mid, which[::-1], -1.0)]

    return rule


def _check_match(p: DissipativeParams, basis: BasisSet) -> None:
    if p.N != basis.N or p.m != basis.m:
        raise ValueError(
            f"params (N={p.N}, m={p.m}) do not match basis (N={basis.N}, m={basis.m})"
        )


def build_H_coherent(p: DissipativeParams, basis: BasisSet) -> np.ndarray:
    """Waveguide-mediated exchange Hamiltonian."""
    _check_match(p, basis)
    op = matrix_from_action(basis, _coherent_rule(p, basis))
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
    rules = []
    if p.gamma_g > 0:
        rules.append(("source_guided", p.gamma_g,
                      lambda lbl: [(lbl, 1.0)] if lbl.source_level == "e" else []))
        rules.append(("target_guided_ge", p.gamma_g, _jump_product(basis, "ge")))
    if p.gamma_s > 0:
        rules.append(("target_guided_se", p.gamma_s, _jump_product(basis, "se")))
    if p.gamma_star > 0:
        # one excited atom at most per reachable state, so O^dag O = diag(n_e)
        rules.append(("free_space", p.gamma_star, lambda lbl: [(lbl, lbl.excited_count)]))
    return [JumpChannel(name, rate, matrix_from_action(basis, rule).matrix)
            for name, rate, rule in rules]


def no_jump_generator(h_coherent: np.ndarray, channels: list[JumpChannel]) -> np.ndarray:
    """H_coherent - (i/2) sum_k Gamma_k O_k^dag O_k over the given channels."""
    h = h_coherent.astype(complex)
    for ch in channels:
        h -= 0.5j * ch.rate * ch.opdag_op
    return h


def build_H_nh(p: DissipativeParams, basis: BasisSet) -> np.ndarray:
    """No-jump generator of the model's coherent part and all its channels."""
    return no_jump_generator(build_H_coherent(p, basis), build_jump_operators(p, basis))


def optimal_time(p: DissipativeParams) -> float:
    """Evolution time maximizing the fast-pulse source-to-detector transfer,
    T = sqrt(2) pi / (sqrt(2N) gamma_g), at the optimal gamma_s = gamma_g /
    sqrt(m) (the DissipativeParams default).  The driven step finds its own
    optimum (run_step_continuous_drive)."""
    return math.sqrt(2) * math.pi / (math.sqrt(2 * p.N) * p.gamma_g)
