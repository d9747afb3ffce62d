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
sector.  Both representations take their amplitudes from one boson algebra,
`basis.mirror_image`: the linearized images are the mirror's, with the
collective root sqrt(2N) in place of the mirror's N-root.

A step never forms the complex H_nh.  Each coherent term is recorded with the
stage-parity sign S = +-1 of its branch (see `basis.stage_frame`), so
`model_matrices` returns the real generator
G = S o H_coherent - (1/2) sum_k Gamma_k O_k^dag O_k, the form
T^-1 (-i H_nh) T takes in the stage-parity frame T, and a step evolves it
as it is.  `build_H_coherent` and `build_H_nh` are the complex references,
signed back from G.  A model is undriven: the unit-strength loading and
readout drives (`source_drive`, `readout_drive`), recorded with their signs
too, are generator terms a protocol step scales and adds to G.
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
    stage_frame,
)
from .linalg import check_rate, check_sector, is_real


@dataclass(frozen=True)
class DissipativeParams:
    """Physical rates and counts for the double-mirrors configuration.

    N is the number of atoms per target mirror (the detector ensemble holds
    2N), m the excitation sector being added: integers with 1 <= m <= N
    (`linalg.check_sector`).  A basis takes no N, so that sector rule is
    checked here, when the params are built, and nowhere downstream.  The
    rates are in units of the guided decay rate gamma_g = 1, non-negative
    and finite (`linalg.check_rate`).  gamma_s defaults to the
    transfer-optimal 1 / sqrt(m).
    """

    N: int
    m: int
    gamma_s: float | None = None
    gamma_star: float = 0.0

    def __post_init__(self):
        check_sector(self.N, self.m)
        if self.gamma_s is None:
            object.__setattr__(self, "gamma_s", 1.0 / math.sqrt(self.m))
        check_rate("gamma_s", self.gamma_s)
        check_rate("gamma_star", self.gamma_star)

    @classmethod
    def from_purcell(cls, N, m, p1d, gamma_s=None):
        """Rates from P_1d = gamma_g / gamma_star (see `free_space_rate`)."""
        return cls(N, m, gamma_s, free_space_rate(p1d))


def free_space_rate(p1d) -> float:
    """gamma_star = 1 / P_1d in units of gamma_g; P_1d = inf means no
    free-space decay."""
    if not (is_real(p1d) and p1d > 0):
        raise ValueError(f"p1d must be positive, not {p1d!r}")
    return 0.0 if math.isinf(p1d) else 1.0 / p1d


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
    antisymmetric storage mode, l1 the symmetric excited mode), on which
    S_which,sign acts as mirror 1's operator with the collective root
    sqrt(2N) (ROOT_2N) for the mirror's N-root; only the operators the model
    applies are defined there.
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
    if (which, sign) == ("ge", -1.0):
        # annihilates the antisymmetric excited mode, which the chain never fills
        return []
    # one sign per operator; of S_se,-, bs-^dag be+ survives and bs+^dag be-
    # annihilates an empty mode
    if sign != {"eg": 1.0, "ge": 1.0, "se": -1.0, "es": -1.0}.get(which):
        raise ValueError(f"S_{which},{sign:+.0f} leaves the linearized chain")
    image = mirror_image(which, lbl.k1, lbl.l1)
    if not image:
        return []
    k, l, (c, q) = image
    return [(lbl._replace(k1=k, l1=l), (c, ONE if q == ONE else ROOT_2N))]


def source_drive(lbl: BasisLabel):
    """The generator term of sigma_es + sigma_se, the unit-strength drive
    between source levels e and s: +1 from e (an odd stage) to s, -1 back."""
    flip = {"e": ("s", 1.0), "s": ("e", -1.0)}.get(lbl.source_level)
    return [(lbl._replace(source_level=flip[0]), flip[1])] if flip else []


def readout_drive(lbl: BasisLabel):
    """The generator term of S_ge,+ + S_eg,+ on the detector, the
    unit-strength excited <-> heralded drive: +1 from excited (an odd stage)
    to heralded, -1 back."""
    flip = {DET_EXCITED: (DET_HERALDED, 1.0), DET_HERALDED: (DET_EXCITED, -1.0)}.get(lbl.detector)
    return [(lbl._replace(detector=flip[0]), flip[1])] if flip else []


def _coherent_rule(basis: BasisSet):
    """S o H_coherent for H_coherent = (gamma_g/2)(sigma_ge S_eg,+ + h.c.)
    + (gamma_s/2)(S_es,-^d S_se,- + h.c.), the halved rates 1/2 and
    gamma_s / 2 in the roots RATE_G and RATE_S.  Every move joins adjacent
    stages, so its stage-parity sign S_ij = Im f_j - Im f_i (see
    `basis.stage_frame`) is the branch's: +1 out of the odd stages (e -> g,
    detector excited -> none), -1 into them (g -> e, none -> excited)."""

    def rule(lbl):
        out = []
        if lbl.source_level == "e":
            out += [(t._replace(source_level="g"), ((1.0, RATE_G), a))
                    for t, a in target_images(basis, lbl, "eg", 1.0)]
        elif lbl.source_level == "g":
            out += [(t._replace(source_level="e"), ((-1.0, RATE_G), a))
                    for t, a in target_images(basis, lbl, "ge", 1.0)]
        # the collective flip of the 2N detector atoms: sqrt(2N)
        if lbl.detector == DET_NONE:
            out += [(t._replace(detector=DET_EXCITED), ((-1.0, RATE_S), (a[0], ROOT_2N)))
                    for t, a in target_images(basis, lbl, "se", -1.0)]
        elif lbl.detector == DET_EXCITED:
            out += [(t._replace(detector=DET_NONE), ((1.0, RATE_S), (a[0], ROOT_2N)))
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
    """The model's recorded terms on a basis: one stack of the signed
    coherent part S o H_coherent and each channel's O^dag O in _CHANNELS
    order.  The channels use neither rate root, and no O^dag O image leaves
    the basis."""
    return matrix_from_action(basis, _coherent_rule(basis),
                              lambda lbl: [(lbl, 1.0)] if lbl.source_level == "e" else [],
                              _jump_product(basis, "ge"), _jump_product(basis, "se"),
                              # one excited atom at most per reachable state,
                              # so O^dag O = diag(n_e)
                              lambda lbl: [(lbl, lbl.excited_count)])


def model_matrices(p: DissipativeParams, basis: BasisSet) -> tuple:
    """The real no-jump generator G, and the names, rates and stack of exact
    O^dag O of the _CHANNELS whose rate is nonzero, in _CHANNELS order: newly
    allocated real matrices from one evaluation of the recorded terms.

    G = S o H_coherent - sum_k (Gamma_k / 2) O_k^dag O_k, the channels
    subtracted one at a time in place of the signed coherent part, is
    T^-1 (-i H_nh) T, T = diag(`basis.stage_frame`): the generator a step's
    `linalg.Propagator` evolves its input under, in the coordinates
    u = T^-1 psi."""
    if p.m != basis.m:
        raise ValueError(f"params (m={p.m}) do not match basis (m={basis.m})")
    op = basis.memo(_terms).at(p.N, (0.5, p.gamma_s / 2))
    if op.truncation_loss > 1e-12:
        raise ValueError(
            f"coherent Hamiltonian leaks outside the reachable basis "
            f"(loss {op.truncation_loss:.3e}); basis/sector mismatch"
        )
    rates = [1.0, 1.0, p.gamma_s, p.gamma_star]
    keep = [k for k, rate in enumerate(rates) if rate > 0]
    products = op.matrix[1:] if len(keep) == len(rates) else op.matrix[1:][keep]
    rates, g = [rates[k] for k in keep], op.matrix[0]
    for rate, product in zip(rates, products):
        g -= (0.5 * rate) * product
    return g, [_CHANNELS[k] for k in keep], rates, products


def _stage_sign(basis: BasisSet) -> np.ndarray:
    """S_ij = Im f_j - Im f_i of the stage-parity frame f (`basis.stage_frame`)."""
    stage = stage_frame(basis).imag
    return stage - stage[:, None]


def build_H_coherent(p: DissipativeParams, basis: BasisSet) -> np.ndarray:
    """Waveguide-mediated exchange Hamiltonian, a real matrix: S o G, since
    the coherent terms join adjacent stages (S = +-1) and the channels keep
    a stage (S = 0)."""
    return _stage_sign(basis) * model_matrices(p, basis)[0]


def build_jump_operators(p: DissipativeParams, basis: BasisSet) -> list[JumpChannel]:
    """The _CHANNELS whose rate is nonzero, each with the exact O^dag O whose
    rate-weighted sum reproduces the no-jump diagonal."""
    return [JumpChannel(*channel) for channel in zip(*model_matrices(p, basis)[1:])]


def build_H_nh(p: DissipativeParams, basis: BasisSet) -> np.ndarray:
    """No-jump Hamiltonian H_nh of the model's coherent part and all its
    channels, a complex matrix: S o G plus i times G where S = 0, the decay
    part -(1/2) sum_k Gamma_k O_k^dag O_k."""
    g, sign = model_matrices(p, basis)[0], _stage_sign(basis)
    return sign * g + 1j * np.where(sign == 0, g, 0.0)


def optimal_time(p: DissipativeParams) -> float:
    """Evolution time maximizing the fast-pulse source-to-detector transfer,
    T = sqrt(2) pi / sqrt(2N), at the optimal gamma_s = 1 / sqrt(m) (the
    DissipativeParams default).  The driven step finds its own optimum
    (run_step_continuous_drive)."""
    return math.sqrt(2) * math.pi / math.sqrt(2 * p.N)
