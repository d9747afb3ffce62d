"""Labeled symmetric-subspace bases and the one operator-assembly primitive.

Two representations of the two-mirror target ensemble are supported:

* EXACT -- the multilevel bosonization of the per-mirror collective spin
  operators, S_eg = b_e^dag sqrt(N - n_s - n_e) etc., on labeled two-mode Fock
  states |k, l> per mirror (k storage quanta, l excited quanta).  For the
  sector in which the m-th excitation is added, the reachable set has exactly
  4m + 1 states (cutoffs: l <= 1 per mirror, k <= m).
* APPROX -- the linearized (large-N) limit in which only two collective modes
  survive: the antisymmetric-between-mirrors storage mode and the symmetric
  excited mode.  The reachable chain has 3 states, or 5 when the protocol is
  driven continuously instead of with fast pulses.

The detector ensemble (2N atoms) only ever holds zero or one collective
excitation and is carried as a three-valued flag: 'none' (all atoms parked),
'excited' (one collective flip present, matrix element sqrt(2N)), 'heralded'
(the flip has been mapped to the readout level, unit matrix element).

Operators are written as per-label rules, functions from a basis label to its
(image label, amplitude) pairs; `matrix_from_action` turns a rule into its
matrix on a basis and reports the squared norm the basis cuts off.  This
module supplies the exact per-mirror amplitudes (`mirror_image`); the model's
terms themselves are written in `dissipative`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

DET_NONE = "none"
DET_EXCITED = "excited"
DET_HERALDED = "heralded"
_DET_ORDER = {DET_NONE: 0, DET_EXCITED: 1, DET_HERALDED: 2}


class HPMode(Enum):
    """Target-ensemble representation: exact bosonization or linearized modes."""

    EXACT = "hp-exact"
    APPROX = "hp-approx"


class BasisError(ValueError):
    """Invalid basis construction request."""


@dataclass(frozen=True)
class BasisLabel:
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
    def detector_excited(self) -> bool:
        return self.detector == DET_EXCITED

    @property
    def excited_count(self) -> int:
        """Number of atoms in the excited level (0 or 1 on reachable states)."""
        return int(self.source_level == "e") + self.l1 + self.l2 + int(self.detector == DET_EXCITED)

    def sort_key(self):
        return (self.source_level, _DET_ORDER[self.detector], self.k1, self.l1, self.k2, self.l2)


@dataclass(frozen=True)
class BasisSet:
    """Ordered reachable basis for one excitation sector."""

    labels: tuple[BasisLabel, ...]
    mode: HPMode
    N: int
    m: int
    with_drive: bool = False

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise BasisError("duplicate basis labels")
        object.__setattr__(self, "_index", {lbl: i for i, lbl in enumerate(self.labels)})

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index_of(self, label: BasisLabel) -> int:
        return self._index[label]

    def __contains__(self, label: BasisLabel) -> bool:
        return label in self._index


def build_basis(N: int, m: int, mode: HPMode, with_drive: bool = False) -> BasisSet:
    """Construct the ordered reachable basis for adding the m-th excitation.

    EXACT mode enumerates the 4m+1 reachable states (sorted lexicographically
    on (source_level, detector, k1, l1, k2, l2) so matrices are reproducible);
    APPROX mode returns the 3-state chain, or the 5-state chain in protocol
    order when with_drive is set (start state, then the transfer chain, then
    the heralded end state).
    """
    if m < 1:
        raise BasisError("excitation sector m must be >= 1")
    if m > N:
        raise BasisError(f"m = {m} exceeds atoms per mirror N = {N}")
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
        return BasisSet(tuple(labels), mode, N, m)

    chain = [
        BasisLabel("e", m - 1, 0, 0, 0, DET_NONE),
        BasisLabel("g", m - 1, 1, 0, 0, DET_NONE),
        BasisLabel("g", m, 0, 0, 0, DET_EXCITED),
    ]
    if with_drive:
        chain = [BasisLabel("s", m - 1, 0, 0, 0, DET_NONE)] + chain + [
            BasisLabel("g", m, 0, 0, 0, DET_HERALDED)
        ]
    return BasisSet(tuple(chain), mode, N, m, with_drive)


def mirror_image(which: str, k: int, l: int, N: int) -> tuple[int, int, float] | None:
    """Bosonized per-mirror collective operator S_which on |k, l> (N atoms).

    `which` names the transition as S_eg etc.: eg, ge, sg, gs, se or es.
    Returns the image occupations (k', l') and the amplitude, or None where
    the operator annihilates the state.
    """
    s = k + l
    if which == "eg":
        image = (k, l + 1, math.sqrt(l + 1) * math.sqrt(max(N - s, 0)))
    elif which == "ge":
        image = (k, l - 1, math.sqrt(l) * math.sqrt(N - s + 1)) if l else None
    elif which == "sg":
        image = (k + 1, l, math.sqrt(k + 1) * math.sqrt(max(N - s, 0)))
    elif which == "gs":
        image = (k - 1, l, math.sqrt(k) * math.sqrt(N - s + 1)) if k else None
    elif which == "se":
        image = (k + 1, l - 1, math.sqrt(k + 1) * math.sqrt(l)) if l else None
    elif which == "es":
        image = (k - 1, l + 1, math.sqrt(k) * math.sqrt(l + 1)) if k else None
    else:
        raise BasisError(f"unknown mirror operator {which!r}")
    return image if image and image[2] else None


@dataclass(frozen=True)
class CollectiveOperator:
    """Basis-projected operator matrix plus the squared norm it discards.

    truncation_loss sums |amplitude|^2 over all image components that fall
    outside the basis (beyond a cutoff or outside the reachable set), taken
    over unit input on every basis state.
    """

    matrix: np.ndarray
    truncation_loss: float


def matrix_from_action(basis: BasisSet, action) -> CollectiveOperator:
    """Matrix of the operator whose per-label rule is `action` on the basis.

    `action(label)` returns the (image label, amplitude) pairs of one basis
    state; amplitude on images outside the basis is the truncation loss.
    """
    dim = basis.dim
    mat = np.zeros((dim, dim), dtype=complex)
    loss = 0.0
    for j, lbl in enumerate(basis.labels):
        for out, amp in action(lbl):
            if out in basis:
                mat[basis.index_of(out), j] += amp
            else:
                loss += abs(amp) ** 2
    return CollectiveOperator(mat, loss)


def excitation_number_diagonal(basis: BasisSet) -> np.ndarray:
    """Protocol excitation bookkeeping: source e or s, target s and e quanta.

    Detector flips do not add to the count (the flip is fed by a target
    quantum), so every reachable state of one sector carries the same number.
    """
    out = []
    for lbl in basis.labels:
        n = int(lbl.source_level in ("e", "s"))
        n += lbl.k1 + lbl.l1 + lbl.k2 + lbl.l2
        out.append(n)
    return np.array(out, dtype=float)


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


def goal_state(basis: BasisSet, m: int | None = None) -> np.ndarray:
    """Goal target-ensemble state in the representation matching the basis.

    EXACT mode: amplitudes over storage_labels(m).  APPROX mode: the goal is
    the single tracked antisymmetric-mode state, i.e. the vector [1].
    """
    if m is None:
        m = basis.m
    if basis.mode == HPMode.APPROX:
        return np.array([1.0 + 0.0j])
    return goal_amplitudes(m)
