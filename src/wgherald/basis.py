"""Labeled symmetric-subspace bases and the one operator-assembly primitive.

Two representations of the two-mirror target ensemble are supported:

* EXACT -- the multilevel bosonization of the per-mirror collective spin
  operators, S_eg = b_e^dag sqrt(N - n_s - n_e) etc., on labeled two-mode Fock
  states |k, l> per mirror (k storage quanta, l excited quanta).  For the
  sector in which the m-th excitation is added, the reachable set has exactly
  4m + 1 states (cutoffs: l <= 1 per mirror, k <= m).  The model commutes
  with the signed mirror swap P, (k1, l1) <-> (k2, l2) with sign -1 on
  detector-excited labels, so the reachable set splits into the parity
  sectors P = +1 and P = -1 of 2m + 1 and 2m states (which is which depends
  on m); a sector basis holds one representative label per swap orbit.
* APPROX -- the linearized (large-N) limit in which only two collective modes
  survive: the antisymmetric-between-mirrors storage mode and the symmetric
  excited mode.  The reachable chain has 3 states, or 5 when the protocol is
  driven continuously instead of with fast pulses.

The detector ensemble (2N atoms) only ever holds zero or one collective
excitation and is carried as a three-valued flag: 'none' (all atoms parked),
'excited' (one collective flip present, matrix element sqrt(2N)), 'heralded'
(the flip has been mapped to the readout level, unit matrix element).

A basis does not depend on N, and `build_basis` builds each one once.
Operators are written as per-label rules, functions from a basis label to its
(image label, amplitude) pairs, amplitudes free of N and of the rates (see
`roots`).  `matrix_from_action` runs a rule over a basis once, folding every
image into its orbit representative on a parity sector, and records sparse
terms that `OperatorTerms.at` evaluates at an N and rates.  This module
supplies the exact per-mirror amplitudes (`mirror_image`); the model's terms
themselves are written in `dissipative`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .linalg import is_int

DET_NONE = "none"
DET_EXCITED = "excited"
DET_HERALDED = "heralded"
_DET_ORDER = {DET_NONE: 0, DET_EXCITED: 1, DET_HERALDED: 2}
BASIS_CACHE_SIZE = 256  # bases build_basis keeps; each holds O(dim): labels, terms, layout

# root indices q of an amplitude factor (c, q): see `roots`
ONE, RATE_G, RATE_S, ROOT_2N, ROOT_N = range(5)


class HPMode(Enum):
    """Target-ensemble representation: exact bosonization or linearized modes."""

    EXACT = "hp-exact"
    APPROX = "hp-approx"


class BasisError(ValueError):
    """Invalid basis construction request."""


class BasisLabel(NamedTuple):
    """One symmetric-subspace basis state.

    In EXACT mode (k1, l1) / (k2, l2) are per-mirror storage/excited
    occupations.  In APPROX mode k1 holds the occupation of the antisymmetric
    storage mode, l1 the occupation of the symmetric excited mode, and
    k2 = l2 = 0.
    """

    source_level: str  # 'g' | 'e' | 's'
    k1: int
    l1: int
    k2: int
    l2: int
    detector: str = DET_NONE

    @property
    def excited_count(self) -> int:
        """Number of atoms in the excited level (0 or 1 on reachable states)."""
        return int(self.source_level == "e") + self.l1 + self.l2 + int(self.detector == DET_EXCITED)

    def sort_key(self):
        return (self.source_level, _DET_ORDER[self.detector], self.k1, self.l1, self.k2, self.l2)


@dataclass(frozen=True)
class BasisSet:
    """Ordered reachable basis for one excitation sector.

    `fold` maps every label of the reachable set to (index, weight): basis
    state `index` is sum(weight * |label>) over the labels folded onto it.
    It defaults to the identity (weight 1 on each label).  On a parity sector
    a representative has weight 1/sqrt(orbit size), its swap partner
    parity * sign / sqrt(2), and a swap-fixed label of the other parity
    weight 0.
    """

    labels: tuple[BasisLabel, ...]
    mode: HPMode
    m: int
    with_drive: bool = False
    fold: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise BasisError("duplicate basis labels")
        object.__setattr__(self, "_memo", {})
        if self.fold is None:
            object.__setattr__(self, "fold", {lbl: (i, 1.0) for i, lbl in enumerate(self.labels)})

    def memo(self, fn, *args):
        """fn(self, *args), computed once per basis object and kept on it."""
        key = (fn, *args)
        if key not in self._memo:
            self._memo[key] = fn(self, *args)
        return self._memo[key]

    @property
    def dim(self) -> int:
        return len(self.labels)


def _mirror_swap(lbl: BasisLabel) -> tuple[BasisLabel, float]:
    """The signed mirror swap P on an EXACT label: (k1, l1) <-> (k2, l2), with
    sign -1 on detector-excited labels and +1 otherwise."""
    source_level, k1, l1, k2, l2, detector = lbl
    return (BasisLabel(source_level, k2, l2, k1, l1, detector),
            -1.0 if detector == DET_EXCITED else 1.0)


def build_basis(m: int, mode: HPMode, with_drive: bool = False,
                parity: int | None = None) -> BasisSet:
    """Construct the ordered reachable basis for adding the m-th excitation.

    EXACT mode enumerates the 4m+1 reachable states, sorted lexicographically
    on (source_level, detector, k1, l1, k2, l2) so matrices are reproducible.
    With parity = +1 or -1 it returns that eigenspace of the signed mirror
    swap instead: in sort order, the first label of each two-label swap orbit
    and each swap-fixed label whose sign equals the parity (2m + 1 or 2m
    states), with the fold that maps the reachable set onto them.
    APPROX mode returns the 3-state chain, or the 5-state chain in protocol
    order when with_drive is set (start state, then the transfer chain, then
    the heralded end state).  A basis takes no N: it serves every N >= m,
    and the params classes check that sector rule (`linalg.check_sector`).
    Every form of a call shares the one cached basis of its arguments.  An m
    that is not an integer >= 1 (`linalg.is_int`: a bool or a float is
    refused) and a mode that is not an HPMode raise BasisError before the
    cache is consulted, so neither reaches it as a key.
    """
    if not (is_int(m) and m >= 1 and isinstance(mode, HPMode)):
        raise BasisError(f"need an integer sector m >= 1 and an HPMode, not m={m!r}, mode={mode!r}")
    return _build_basis(m, mode, with_drive, parity)


@functools.lru_cache(maxsize=BASIS_CACHE_SIZE)
def _build_basis(m: int, mode: HPMode, with_drive: bool, parity: int | None) -> BasisSet:
    if mode == HPMode.EXACT:
        if with_drive:
            raise BasisError("the driven protocol is modeled in APPROX mode only")
        labels = []
        for i in range(m):
            labels.append(BasisLabel("e", m - 1 - i, 0, i, 0, DET_NONE))
            labels.append(BasisLabel("g", m - 1 - i, 1, i, 0, DET_NONE))
            labels.append(BasisLabel("g", m - 1 - i, 0, i, 1, DET_NONE))
        for i in range(m + 1):
            labels.append(BasisLabel("g", m - i, 0, i, 0, DET_EXCITED))
        labels.sort(key=BasisLabel.sort_key)
        if parity is None:
            return BasisSet(tuple(labels), mode, m)
        if parity not in (1, -1):
            raise BasisError(f"parity must be +1 or -1, not {parity!r}")
        reps, fold, half = [], {}, 1 / math.sqrt(2)
        for lbl in labels:
            image, sign = _mirror_swap(lbl)
            if image in fold:  # the partner of an earlier representative
                fold[lbl] = (fold[image][0], parity * sign * half)
            elif image == lbl and sign != parity:  # swap-fixed, other parity
                fold[lbl] = (0, 0.0)
            else:
                fold[lbl] = (len(reps), half if image != lbl else 1.0)
                reps.append(lbl)
        return BasisSet(tuple(reps), mode, m, fold=fold)
    if parity is not None:
        raise BasisError("parity sectors exist in EXACT mode only")

    chain = [
        BasisLabel("e", m - 1, 0, 0, 0, DET_NONE),
        BasisLabel("g", m - 1, 1, 0, 0, DET_NONE),
        BasisLabel("g", m, 0, 0, 0, DET_EXCITED),
    ]
    if with_drive:
        chain = [BasisLabel("s", m - 1, 0, 0, 0, DET_NONE)] + chain + [
            BasisLabel("g", m, 0, 0, 0, DET_HERALDED)
        ]
    return BasisSet(tuple(chain), mode, m, with_drive)


def stage_frame(basis: BasisSet) -> np.ndarray:
    """The stage-parity frame of a basis: 1j on odd stages, 1 on even ones.

    Each reachable label holds one excitation at a stage: s 0, e 1, target
    excited (g, detector none) 2, detector excited 3, heralded 4.  Every
    coherent term of the model (exchange, detector loading, both unit drives)
    moves it one stage with a real amplitude, and every channel's O^dag O
    keeps it in its stage with real amplitudes, on a parity sector too.  So
    H = A - (i/2) D with A and D real, and with T = diag(frame),
    T^-1 (-iH) T = S o A - D/2 is exactly real, where S_ij = Im f_j - Im f_i
    is +1 from an odd stage j to an even stage i, -1 from even to odd, and 0
    between stages of one parity.  `dissipative` records every coherent
    term with its S, so `dissipative.model_matrices` returns that real
    generator, and a step evolves u = T^-1 psi under it: `protocol._layout`
    folds the frame into the input and herald weights, so the phases live
    there alone.
    """
    return np.array([1j if lbl.source_level == "e" or lbl.detector == DET_EXCITED else 1.0
                     for lbl in basis.labels], dtype=complex)


def roots(N: int, top: int, rates=(1.0, 1.0)) -> np.ndarray:
    """The roots r that amplitude factors (c, q), worth c * r[q], stand for:
    r[ONE] = 1, r[RATE_G] and r[RATE_S] the caller's two rates, r[ROOT_2N] =
    sqrt(2N) and r[ROOT_N + j] = sqrt(max(N - j, 0)) for j < top."""
    return np.concatenate(([1.0, *rates, math.sqrt(2 * N)],
                           np.sqrt(np.maximum(N - np.arange(top), 0))))


def mirror_image(which: str, k: int, l: int) -> tuple[int, int, tuple[float, int]] | None:
    """Bosonized per-mirror collective operator S_which on |k, l>.

    `which` names the transition as S_eg etc.: eg, ge, sg, gs, se or es.
    Returns the image occupations (k', l') and the amplitude factor (c, q),
    or None where the operator annihilates the state.
    """
    s = ROOT_N + k + l
    if which == "eg":
        return k, l + 1, (math.sqrt(l + 1), s)
    if which == "ge":
        return (k, l - 1, (math.sqrt(l), s - 1)) if l else None
    if which == "sg":
        return k + 1, l, (math.sqrt(k + 1), s)
    if which == "gs":
        return (k - 1, l, (math.sqrt(k), s - 1)) if k else None
    if which == "se":
        return (k + 1, l - 1, (math.sqrt(k + 1) * math.sqrt(l), ONE)) if l else None
    if which == "es":
        return (k - 1, l + 1, (math.sqrt(k) * math.sqrt(l + 1), ONE)) if k else None
    raise BasisError(f"unknown mirror operator {which!r}")


@dataclass(frozen=True)
class CollectiveOperator:
    """Basis-projected operator matrix plus the squared norm it discards.

    truncation_loss sums |amplitude|^2 over all image components that fall
    outside the reachable set (beyond a cutoff or outside the sector), taken
    over unit input on every basis state.
    """

    matrix: np.ndarray
    truncation_loss: float


class OperatorTerms:
    """Per-label rules recorded on a basis, free of N and of the rates.

    Term t adds (c[0, t] r[q[0, t]]) * (c[1, t] r[q[1, t]]) * ratio[t] to
    entry flat[t] of the flattened matrix (or stack of matrices, one per
    rule), in the rules' loop order; flat[t] = its size marks an image
    outside the basis, and `lost` indexes those terms.  The arrays are
    read-only.
    """

    def __init__(self, shape: tuple[int, ...], rows: list[tuple]):
        flat, c1, c2, q1, q2, ratio = np.array(rows, dtype=float).reshape(-1, 6).T
        self.shape, self.flat = shape, flat.astype(np.intp)
        self.c, self.q = np.array([c1, c2]), np.array([q1, q2], dtype=np.intp)
        self.ratio = np.ascontiguousarray(ratio)
        self.top = int(self.q.max(initial=ROOT_N)) - ROOT_N + 1
        self.lost = np.flatnonzero(self.flat == math.prod(shape))
        for a in (self.flat, self.c, self.q, self.ratio, self.lost):
            a.flags.writeable = False

    def at(self, N: int, rates=(1.0, 1.0)) -> CollectiveOperator:
        """The newly allocated real matrix at N and rates, and its truncation
        loss.  Each entry sums its terms in order, as one rule loop would."""
        x = self.c * roots(N, self.top, rates)[self.q]
        v = x[0] * x[1] * self.ratio
        size = math.prod(self.shape)
        matrix = np.bincount(self.flat, v, size + 1)[:size].reshape(self.shape)
        lost = v[self.lost]
        return CollectiveOperator(matrix, float(lost @ lost))


def matrix_from_action(basis: BasisSet, *actions) -> OperatorTerms:
    """The terms of the operator whose per-label rule is `action` on the
    basis, or of the stack of operators of several rules.

    `action(label)` returns the (image label, amplitude) pairs of one basis
    state; an amplitude is a number, a factor (c, q) (see `roots`) or a
    product (f1, f2) of two factors, and amplitude on images outside the
    reachable set is the truncation loss.  On a parity sector the operator
    must commute with the mirror swap: column j is then the rule applied to
    its representative alone, each image folded in as amp * phase *
    sqrt(size_j / size_i), where phase is +-1 for an image in orbit i and an
    image of the other parity cancels.
    """
    dim, fold, rows = basis.dim, basis.fold, []
    size = len(actions) * dim * dim
    for k, action in enumerate(actions):
        for j, lbl in enumerate(basis.labels):
            wj = fold[lbl][1]
            for out, amp in action(lbl):
                amp = amp if isinstance(amp, tuple) else (amp, ONE)
                (c1, q1), (c2, q2) = amp if isinstance(amp[0], tuple) else (amp, (1.0, ONE))
                hit = fold.get(out)
                flat, ratio = ((size, 1.0) if hit is None
                               else ((k * dim + hit[0]) * dim + j, hit[1] / wj))
                rows.append((flat, c1, c2, q1, q2, ratio))
    return OperatorTerms((dim, dim) if len(actions) == 1 else (len(actions), dim, dim), rows)


# ---------------------------------------------------------------------------
# Target-ensemble goal state
# ---------------------------------------------------------------------------


def storage_labels(m: int) -> list[tuple[int, int]]:
    """Canonical ordering of the m-quanta storage-only target space."""
    return [(m - i, i) for i in range(m + 1)]


def goal_amplitudes(m: int) -> np.ndarray:
    """Amplitudes of the antisymmetric m-quanta storage state.

    Expansion of (b1^dag - b2^dag)^m acting on the two-mode vacuum, normalized:
    component i (occupations (m-i, i)) carries (-1)^i sqrt(C(m, i) / 2^m).
    """
    amps = np.array(
        [(-1.0) ** i * math.sqrt(math.comb(m, i) / 2.0 ** m) for i in range(m + 1)]
    )
    return amps.astype(complex)


def goal_state(basis: BasisSet) -> np.ndarray:
    """Goal target-ensemble state in the representation matching the basis.

    EXACT mode: amplitudes over storage_labels(basis.m).  APPROX mode: the
    goal is the single tracked antisymmetric-mode state, i.e. the vector [1].
    """
    if basis.mode == HPMode.APPROX:
        return np.array([1.0 + 0.0j])
    return goal_amplitudes(basis.m)
