"""Labeled symmetric-subspace bases and collective spin operators.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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


# ---------------------------------------------------------------------------
# Label actions.  An action maps a BasisLabel to a list of (label, amplitude)
# pairs; a None label marks amplitude pushed outside the representable space
# (beyond a mode that is not tracked), which surfaces as truncation loss.
# ---------------------------------------------------------------------------


def _act_source(alpha: str, beta: str):
    def act(lbl):
        if lbl.source_level != beta:
            return []
        return [(replace(lbl, source_level=alpha), 1.0)]

    return act


def _act_source_diag(level: str):
    def act(lbl):
        return [(lbl, 1.0)] if lbl.source_level == level else []

    return act


def _act_detector(transition: str, N: int):
    """Detector-flag transitions; total detector atom number is 2N."""
    root = math.sqrt(2 * N)
    moves = {
        "excite": (DET_NONE, DET_EXCITED, root),
        "deexcite": (DET_EXCITED, DET_NONE, root),
        "herald": (DET_EXCITED, DET_HERALDED, 1.0),
        "unherald": (DET_HERALDED, DET_EXCITED, 1.0),
    }
    src, dst, amp = moves[transition]

    def act(lbl):
        if lbl.detector != src:
            return []
        return [(replace(lbl, detector=dst), amp)]

    return act


def _mirror_occ(lbl: BasisLabel, j: int) -> tuple[int, int]:
    return (lbl.k1, lbl.l1) if j == 1 else (lbl.k2, lbl.l2)


def _mirror_set(lbl: BasisLabel, j: int, k: int, l: int) -> BasisLabel:
    if j == 1:
        return replace(lbl, k1=k, l1=l)
    return replace(lbl, k2=k, l2=l)


def _act_mirror(which: str, j: int, N: int):
    """Exact bosonized per-mirror collective operator (mirror j holds N atoms)."""

    def act(lbl):
        k, l = _mirror_occ(lbl, j)
        s = k + l
        if which == "eg":
            amp = math.sqrt(l + 1) * math.sqrt(max(N - s, 0))
            return [(_mirror_set(lbl, j, k, l + 1), amp)] if amp else []
        if which == "ge":
            if l == 0:
                return []
            return [(_mirror_set(lbl, j, k, l - 1), math.sqrt(l) * math.sqrt(N - s + 1))]
        if which == "sg":
            amp = math.sqrt(k + 1) * math.sqrt(max(N - s, 0))
            return [(_mirror_set(lbl, j, k + 1, l), amp)] if amp else []
        if which == "gs":
            if k == 0:
                return []
            return [(_mirror_set(lbl, j, k - 1, l), math.sqrt(k) * math.sqrt(N - s + 1))]
        if which == "se":
            if l == 0:
                return []
            return [(_mirror_set(lbl, j, k + 1, l - 1), math.sqrt(k + 1) * math.sqrt(l))]
        if which == "es":
            if k == 0:
                return []
            return [(_mirror_set(lbl, j, k - 1, l + 1), math.sqrt(k) * math.sqrt(l + 1))]
        raise BasisError(f"unknown mirror operator {which!r}")

    return act


def _combine(act_a, act_b, sign: float):
    def act(lbl):
        return list(act_a(lbl)) + [(out, sign * amp) for out, amp in act_b(lbl)]

    return act


def _act_mode(which: str, N: int):
    """Linearized collective-mode operator on (k1 = storage-, l1 = excited+).

    Operators that would populate the two untracked modes (symmetric storage,
    antisymmetric excited) return a None label carrying the lost amplitude;
    operators that merely annihilate an untracked (hence empty) mode are an
    exact zero.
    """
    root2n = math.sqrt(2 * N)

    def act(lbl):
        k, l = lbl.k1, lbl.l1
        if which == "eg_plus":
            return [(replace(lbl, l1=l + 1), root2n * math.sqrt(l + 1))]
        if which == "ge_plus":
            return [(replace(lbl, l1=l - 1), root2n * math.sqrt(l))] if l else []
        if which == "eg_minus":
            return [(None, root2n)]
        if which == "ge_minus":
            return []
        if which == "se_minus":
            # bs-^dag be+ survives; bs+^dag be- annihilates an empty mode
            return [(replace(lbl, k1=k + 1, l1=l - 1), math.sqrt(k + 1) * math.sqrt(l))] if l else []
        if which == "es_minus":
            return [(replace(lbl, k1=k - 1, l1=l + 1), math.sqrt(k) * math.sqrt(l + 1))] if k else []
        if which == "se_plus":
            # bs+^dag be+ leaves the tracked space
            return [(None, math.sqrt(l))] if l else []
        if which == "es_plus":
            return [(None, math.sqrt(k))] if k else []
        raise BasisError(f"unknown mode operator {which!r}")

    return act


def target_action(basis: BasisSet, name: str):
    """Action of a collective target-ensemble operator (no basis projection)."""
    N = basis.N
    _, base, sign_name, _ = name.split("_")
    if basis.mode == HPMode.APPROX:
        return _act_mode(f"{base}_{sign_name}", N)
    sign = 1.0 if sign_name == "plus" else -1.0
    return _combine(_act_mirror(base, 1, N), _act_mirror(base, 2, N), sign)


def detector_action(basis: BasisSet, name: str):
    transitions = {
        "S_es_minus_d": "excite",
        "S_se_minus_d": "deexcite",
        "S_ge_plus_d": "herald",
        "S_eg_plus_d": "unherald",
    }
    return _act_detector(transitions[name], basis.N)


def compose(after, first):
    """Operator product (after . first) at the action level.

    Amplitude already lost by `first` (None labels) stays lost; callers that
    need exact products must check losses separately.
    """

    def act(lbl):
        out = []
        for mid, a in first(lbl):
            if mid is None:
                continue
            for fin, b in after(mid):
                out.append((fin, a * b))
        return out

    return act


def scale_action(action, factor: float):
    def act(lbl):
        return [(out, factor * amp) for out, amp in action(lbl)]

    return act


def add_actions(*actions):
    def act(lbl):
        out = []
        for a in actions:
            out.extend(a(lbl))
        return out

    return act


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
    dim = basis.dim
    mat = np.zeros((dim, dim), dtype=complex)
    loss = 0.0
    for j, lbl in enumerate(basis.labels):
        for out, amp in action(lbl):
            if out is not None and out in basis:
                mat[basis.index_of(out), j] += amp
            else:
                loss += abs(amp) ** 2
    return CollectiveOperator(mat, loss)


_TARGET_NAMES = {
    "S_eg_plus_t", "S_eg_minus_t", "S_ge_plus_t", "S_ge_minus_t",
    "S_se_plus_t", "S_se_minus_t", "S_es_plus_t", "S_es_minus_t",
}
_DETECTOR_NAMES = {"S_es_minus_d", "S_se_minus_d", "S_ge_plus_d", "S_eg_plus_d"}


def collective_operator(basis: BasisSet, which: str, alpha: str | None = None,
                        beta: str | None = None) -> CollectiveOperator:
    """Matrix of a named collective operator on the basis.

    `which` is one of the target operators (S_eg_plus_t, S_se_minus_t, ...),
    the detector operators (S_es_minus_d, S_ge_plus_d, ...), 'sigma_source'
    (requires alpha, beta), 'sigma_ee_s', or the diagonal counters 'S_ee_t'
    and 'S_ss_t'.
    """
    if which in _TARGET_NAMES:
        return matrix_from_action(basis, target_action(basis, which))
    if which in _DETECTOR_NAMES:
        return matrix_from_action(basis, detector_action(basis, which))
    if which == "sigma_source":
        if alpha is None or beta is None:
            raise BasisError("sigma_source needs alpha and beta levels")
        return matrix_from_action(basis, _act_source(alpha, beta))
    if which == "sigma_ee_s":
        return matrix_from_action(basis, _act_source_diag("e"))
    if which == "S_ee_t":
        diag = np.array([lbl.l1 + lbl.l2 for lbl in basis.labels], dtype=complex)
        return CollectiveOperator(np.diag(diag), 0.0)
    if which == "S_ss_t":
        diag = np.array([lbl.k1 + lbl.k2 for lbl in basis.labels], dtype=complex)
        return CollectiveOperator(np.diag(diag), 0.0)
    raise BasisError(f"unknown collective operator {which!r}")


def excited_number_diagonal(basis: BasisSet) -> np.ndarray:
    """Per-state number of excited-level atoms (drives the free-space decay)."""
    return np.array([lbl.excited_count for lbl in basis.labels], dtype=float)


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
