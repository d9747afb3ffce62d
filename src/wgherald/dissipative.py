"""Double-mirrors model: coherent Hamiltonian, jump channels, no-jump generator.

Rate conventions follow the explicit chain matrix for the approximate
representation: with jump channels (O_k, Gamma_k) the no-jump Hamiltonian is

    H_nh = H_coherent - (i/2) sum_k Gamma_k O_k^dag O_k,

which puts -i(Gamma_g + Gamma*)/2, -i(m Gamma_s + Gamma*)/2 and -i Gamma*/2 on
the three chain states.  Rates are in units of Gamma_g = 1, times in its
inverse.  The detector ensemble's own collective jump channel is dropped:
both detector states the protocol visits are dark with respect to it.
Free-space emission acts per excited atom at the uniform rate Gamma*, so
it enters as a diagonal channel weighted by the excited-atom count.

Every term is written once below as a per-label rule (a function from a basis
label to its (image label, amplitude) pairs, free of N and of the rates) and
recorded once per basis by `basis.matrix_from_action`: the exchange, the
detector loading, the drives and each channel's O^dag O.  The builders
evaluate the recorded terms at the params' N and rates.  The O^dag O products
pass through intermediate images that may lie outside the basis, so they are
exact on the reachable sector.  Every term commutes with the signed mirror
swap of `basis`, so the same rules assemble the model on either mirror-parity
sector.

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
    ONE,
    RATE_G,
    RATE_S,
    ROOT_2N,
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
    2N), m the excitation sector being added.  The rates are in units of the
    guided decay rate gamma_g = 1.  gamma_s defaults to the transfer-optimal
    1 / sqrt(m).
    """

    N: int
    m: int
    gamma_s: float | None = None
    gamma_star: float = 0.0

    def __post_init__(self):
        if self.N < 1 or self.m < 1:
            raise ValueError("N and m must be positive integers")
        if self.gamma_s is None:
            object.__setattr__(self, "gamma_s", 1.0 / math.sqrt(self.m))
        for name in ("gamma_s", "gamma_star"):
            val = getattr(self, name)
            if val < 0 or not math.isfinite(val):
                raise ValueError(f"{name} must be non-negative and finite")

    @classmethod
    def from_purcell(cls, N, m, p1d, gamma_s=None):
        """Rates from P_1d = gamma_g / gamma_star; P_1d = inf means no
        free-space decay."""
        if not p1d > 0:
            raise ValueError(f"p1d must be positive, not {p1d!r}")
        gamma_star = 0.0 if math.isinf(p1d) else 1.0 / p1d
        return cls(N, m, gamma_s, gamma_star)


@dataclass(frozen=True)
class JumpChannel:
    """One Lindblad channel: rate Gamma and the in-sector product O^dag O.

    `opdag_op` is the exact product on the reachable basis (not the product
    of basis-projected jump operators, whose images of the collective
    channels leave the no-jump sector), a real matrix: a view of the stack
    `model_matrices` returns.  It sets the channel's decay diagonal in H_nh
    and its loss rate Gamma <psi|O^dag O|psi> in the bookkeeping.
    """

    name: str
    rate: float
    opdag_op: np.ndarray


def target_images(basis: BasisSet, lbl: BasisLabel, which: str, sign: float):
    """Images of lbl under the collective target operator S_which,sign, each
    with its amplitude factor (c, q) (see `basis.roots`).

    S_which,+- = S_which(mirror 1) +- S_which(mirror 2).  EXACT: the bosonized
    per-mirror operator on each mirror.  APPROX: the linearized modes (k1 the
    antisymmetric storage mode, l1 the symmetric excited mode); only the
    operators the model applies are defined there.
    """
    if basis.mode == HPMode.EXACT:
        out = []
        image = mirror_image(which, lbl.k1, lbl.l1)
        if image:
            out.append((lbl._replace(k1=image[0], l1=image[1]), image[2]))
        image = mirror_image(which, lbl.k2, lbl.l2)
        if image:
            out.append((lbl._replace(k2=image[0], l2=image[1]), (sign * image[2][0], image[2][1])))
        return out
    k, l = lbl.k1, lbl.l1
    if (which, sign) == ("eg", 1.0):
        return [(lbl._replace(l1=l + 1), (math.sqrt(l + 1), ROOT_2N))]
    if (which, sign) == ("ge", 1.0):
        return [(lbl._replace(l1=l - 1), (math.sqrt(l), ROOT_2N))] if l else []
    if (which, sign) == ("ge", -1.0):
        # annihilates the antisymmetric excited mode, which the chain never fills
        return []
    if (which, sign) == ("se", -1.0):
        # bs-^dag be+ survives; bs+^dag be- annihilates an empty mode
        return [(lbl._replace(k1=k + 1, l1=l - 1),
                 (math.sqrt(k + 1) * math.sqrt(l), ONE))] if l else []
    if (which, sign) == ("es", -1.0):
        return [(lbl._replace(k1=k - 1, l1=l + 1),
                 (math.sqrt(k) * math.sqrt(l + 1), ONE))] if k else []
    raise ValueError(f"S_{which},{sign:+.0f} leaves the linearized chain")


def source_drive(lbl: BasisLabel):
    """sigma_es + sigma_se: the unit-strength drive between source levels e and s."""
    flip = {"e": "s", "s": "e"}.get(lbl.source_level)
    return [(lbl._replace(source_level=flip), 1.0)] if flip else []


def readout_drive(lbl: BasisLabel):
    """S_ge,+ + S_eg,+ on the detector: the unit-strength excited <-> heralded drive."""
    flip = {DET_EXCITED: DET_HERALDED, DET_HERALDED: DET_EXCITED}.get(lbl.detector)
    return [(lbl._replace(detector=flip), 1.0)] if flip else []


def _coherent_rule(basis: BasisSet):
    """(gamma_g/2)(sigma_ge S_eg,+ + h.c.) + (gamma_s/2)(S_es,-^d S_se,- + h.c.),
    the halved rates 1/2 and gamma_s / 2 in the roots RATE_G and RATE_S."""
    half_g, half_s = (1.0, RATE_G), (1.0, RATE_S)

    def rule(lbl):
        out = []
        if lbl.source_level == "e":
            out += [(t._replace(source_level="g"), (half_g, a))
                    for t, a in target_images(basis, lbl, "eg", 1.0)]
        elif lbl.source_level == "g":
            out += [(t._replace(source_level="e"), (half_g, a))
                    for t, a in target_images(basis, lbl, "ge", 1.0)]
        # the collective flip of the 2N detector atoms: sqrt(2N)
        if lbl.detector == DET_NONE:
            out += [(t._replace(detector=DET_EXCITED), (half_s, (a[0], ROOT_2N)))
                    for t, a in target_images(basis, lbl, "se", -1.0)]
        elif lbl.detector == DET_EXCITED:
            out += [(t._replace(detector=DET_NONE), (half_s, (a[0], ROOT_2N)))
                    for t, a in target_images(basis, lbl, "es", -1.0)]
        return out

    return rule


def _jump_product(basis: BasisSet, which: str):
    """O^dag O for O = S_which,-, with O^dag = S_(which reversed),-."""

    def rule(lbl):
        return [(fin, (a, b))
                for mid, a in target_images(basis, lbl, which, -1.0)
                for fin, b in target_images(basis, mid, which[::-1], -1.0)]

    return rule


# the source guided decay and the antisymmetric target decay (both at rate
# gamma_g = 1), the superradiant target decay (gamma_s), and one free-space
# channel per excited atom (gamma_star)
_CHANNELS = ("source_guided", "target_guided_ge", "target_guided_se", "free_space")


def _terms(basis: BasisSet):
    """The model's recorded terms on a basis: one stack of the coherent part
    and each channel's O^dag O in _CHANNELS order.  The channels use neither
    rate root, and no O^dag O image leaves the basis."""
    return matrix_from_action(basis, _coherent_rule(basis),
                              lambda lbl: [(lbl, 1.0)] if lbl.source_level == "e" else [],
                              _jump_product(basis, "ge"), _jump_product(basis, "se"),
                              # one excited atom at most per reachable state,
                              # so O^dag O = diag(n_e)
                              lambda lbl: [(lbl, lbl.excited_count)])


def model_matrices(p: DissipativeParams, basis: BasisSet) -> tuple:
    """The coherent Hamiltonian, and the names, rates and stack of exact
    O^dag O of the _CHANNELS whose rate is nonzero, in _CHANNELS order: newly
    allocated real matrices from one evaluation of the recorded terms."""
    if p.m != basis.m or p.N < p.m:
        raise ValueError(f"params (N={p.N}, m={p.m}) do not match basis (m={basis.m})")
    op = basis.memo(_terms).at(p.N, (0.5, p.gamma_s / 2))
    if op.truncation_loss > 1e-12:
        raise ValueError(
            f"coherent Hamiltonian leaks outside the reachable basis "
            f"(loss {op.truncation_loss:.3e}); basis/sector mismatch"
        )
    rates = [1.0, 1.0, p.gamma_s, p.gamma_star]
    keep = [k for k, rate in enumerate(rates) if rate > 0]
    products = op.matrix[1:] if len(keep) == len(rates) else op.matrix[1:][keep]
    return op.matrix[0], [_CHANNELS[k] for k in keep], [rates[k] for k in keep], products


def build_H_coherent(p: DissipativeParams, basis: BasisSet) -> np.ndarray:
    """Waveguide-mediated exchange Hamiltonian, a real matrix."""
    return model_matrices(p, basis)[0]


def build_jump_operators(p: DissipativeParams, basis: BasisSet) -> list[JumpChannel]:
    """The _CHANNELS whose rate is nonzero, each with the exact O^dag O whose
    rate-weighted sum reproduces the no-jump diagonal."""
    return [JumpChannel(*channel) for channel in zip(*model_matrices(p, basis)[1:])]


def no_jump_generator(h_coherent: np.ndarray, rates, ops: np.ndarray) -> np.ndarray:
    """H_coherent - (i/2) sum_k rates[k] ops[k] as a new complex matrix, each
    real product ops[k] subtracted from its imaginary part in real arithmetic."""
    h = h_coherent.astype(complex)
    decay = h.imag
    for rate, op in zip(rates, ops):
        decay -= (0.5 * rate) * op
    return h


def build_H_nh(p: DissipativeParams, basis: BasisSet) -> np.ndarray:
    """No-jump generator of the model's coherent part and all its channels."""
    h, _, rates, ops = model_matrices(p, basis)
    return no_jump_generator(h, rates, ops)


def optimal_time(p: DissipativeParams) -> float:
    """Evolution time maximizing the fast-pulse source-to-detector transfer,
    T = sqrt(2) pi / sqrt(2N), at the optimal gamma_s = 1 / sqrt(m) (the
    DissipativeParams default).  The driven step finds its own optimum
    (run_step_continuous_drive)."""
    return math.sqrt(2) * math.pi / math.sqrt(2 * p.N)
