"""Heralded single-excitation steps and the accumulation loop.

One step: load the source (fast pulse or continuous drive), evolve under the
no-jump generator for a time T, map the detector excitation to the readout
level, and herald on finding it there.  The heralding probability is the
squared norm of the projected state; failures are handled analytically (the
protocol restarts on failure, so jump branches are never propagated).

Every step builds its undriven model in `_model`, its input placed by the
positions its basis records, or a copy of the default input embedded there
(in either representation), and evolves that input under one `Propagator`,
built with it, in `_evolve`.  Every Propagator is given the latest time it
is asked for: a pi-pulse step the time it evolves to, T, a refine_T step
the end of its search, 1.2 T, and a driven step T or the end of its scan,
so an exact sector of dimension `linalg.KRYLOV_MIN_DIM` or more is
decomposed on the Krylov space of its input alone (16-24 dimensions).  The
model's generator is real: the no-jump generator in the basis's stage-parity
coordinates T^-1 (-iH) T, T = diag(`basis.stage_frame`), as
`dissipative.model_matrices` returns it from the signed recorded terms, so
no complex H is formed and no step handles the sign.  The model's input and
herald weights carry the stage phases (`_layout`), so the Propagator evolves
the input in those coordinates and the herald reads physical amplitudes off
it.  A drive is a term of that generator, recorded with its sign:
(omega/2)(source + readout drive) for the continuous drive.  In the exact
representation the model commutes with the signed mirror swap, so the input
of step m, a parity eigenstate, evolves in its mirror-parity sector alone.
The parity is read off the input before any basis is built: the swap
reverses the storage amplitudes, so an input equal to its reversal lies in
P = +1 and one equal to minus its reversal in P = -1.  Any other input
evolves on the full 4m+1 basis, and is complex past one global phase, so its
propagator decomposes the whole generator.

A continuous-drive step off its optimal omega searches its time: one
population scan on a uniform grid (one `linalg.exp_sums` table), then a root
of the slope next to the grid's best point.  A drive too fast for the grid
is refused with ProtocolError.

After a successful herald the source and detector are in definite states, so
the reduction to the target ensemble is an amplitude relabeling onto the
storage-only target space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import (
    DET_EXCITED,
    DET_HERALDED,
    DET_NONE,
    BasisLabel,
    BasisSet,
    HPMode,
    build_basis,
    goal_amplitudes,
    goal_state,
    matrix_from_action,
    stage_frame,
    storage_labels,
)
from .dissipative import (
    DissipativeParams,
    model_matrices,
    optimal_time,
    readout_drive,
    source_drive,
)
from .linalg import Propagator, all_finite, check_positive, norm_sq, overlap

HERALD_FLOOR = 1e-15


class ProtocolError(ValueError):
    """Invalid protocol configuration."""


@dataclass
class StepDiagnostics:
    """Norm bookkeeping for one step: p + losses + residual should be 1.

    propagator_method is the step's `Propagator.method` ("eig", or "expm"
    when it fell back from the eigenbasis) and eigvec_condition its
    eigenvector condition number (the Frobenius bound
    `Propagator.condition`); on a step reduced to the Krylov space of its
    input, that of the Ritz basis, ||W_k||_F ||W_k^-1||_F for H_k's
    eigenvectors W_k, which follows rounding-level changes of the input
    (by up to 80% between two arithmetically equivalent versions), so only
    its order of magnitude is meaningful.
    """

    channel_losses: dict[str, float] = field(default_factory=dict)
    unheralded_residual: float = 0.0
    herald_impossible: bool = False
    propagator_method: str = "eig"
    eigvec_condition: float = 0.0

    def bookkeeping_total(self, p_success: float) -> float:
        return p_success + sum(self.channel_losses.values()) + self.unheralded_residual


@dataclass(eq=False)  # arrays: compared by identity
class StepResult:
    """Outcome of one heralded addition.

    post_state lives on the storage-only target space (ordering
    storage_labels(m); a single component in the approximate representation)
    and is None when heralding is impossible.  overlap_goal is the squared
    overlap with the goal state.
    """

    p_success: float
    post_state: np.ndarray | None
    overlap_goal: float | None
    T_used: float
    diagnostics: StepDiagnostics


@dataclass(eq=False)  # arrays: compared by identity
class AccumulationResult:
    steps: list[StepResult]
    infidelity: float
    repetitions: float
    final_state: np.ndarray


def _embed_input(basis: BasisSet, input_state: np.ndarray | None) -> np.ndarray:
    """Place a normalized (m-1)-quanta target state under the loaded source,
    folded onto the basis in the generator's coordinates (see `_layout`);
    None is a copy of the recorded default input."""
    idx, weights, default = basis.memo(_layout)[3:]
    if input_state is None:
        return default.copy()
    input_state = np.asarray(input_state, dtype=complex)
    if input_state.ndim != 1 or not all_finite(input_state):
        raise ProtocolError("input target state must be a finite 1-d vector, "
                            f"got shape {input_state.shape}")
    if input_state.shape[0] != len(idx):
        raise ProtocolError(f"input target state has {input_state.shape[0]} components, "
                            f"sector m={basis.m} expects {len(idx)}")
    if abs(math.sqrt(norm_sq(input_state)) - 1.0) > 1e-9:
        raise ProtocolError("input target state must be normalized")
    psi = np.zeros(basis.dim, dtype=complex)
    np.add.at(psi, idx, weights * input_state)
    return psi


def _layout(basis: BasisSet) -> tuple[np.ndarray, ...]:
    """Read-only 1-D arrays a step reads off its basis, built once per basis,
    so it holds O(dim): the goal, the basis positions and weights of the
    heralded branch (the readout level on a driven basis, the excited detector
    otherwise) and of the input (under the loaded source: s on a driven
    basis, e otherwise), in storage order, and the default input on the
    basis: the goal of m - 1 quanta ([1] on the chain, storage state (m-1, 0)).

    The weights are in the generator's coordinates u = T^-1 psi, T = diag(f)
    for the stage-parity frame f (`basis.stage_frame`):
    the herald weights carry f and the input weights conj(f) = 1 / f, so
    weights * u[positions] unfolds the heralded branch's physical amplitudes
    and an input placed with its weights, the default one included, is u."""
    driven, m, exact = basis.with_drive, basis.m, basis.mode == HPMode.EXACT
    frame, parts = stage_frame(basis), []
    for source, det, k, phase in (("g", DET_HERALDED if driven else DET_EXCITED, m, frame),
                                  ("s" if driven else "e", DET_NONE, m - 1, frame.conj())):
        occupations = storage_labels(k) if exact else [(k, 0)]
        folds = [basis.fold[BasisLabel(source, k1, 0, k2, 0, det)] for k1, k2 in occupations]
        idx = np.array([f[0] for f in folds], dtype=np.intp)
        parts += [idx, np.array([f[1] for f in folds]) * phase[idx]]
    default = np.zeros(basis.dim, dtype=complex)
    np.add.at(default, parts[2], parts[3] * (goal_amplitudes(m - 1) if exact else 1.0))
    arrays = (goal_state(basis), *parts, default)
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass
class _Model:
    """The model a step evolves: its basis, the folded input, its channels'
    names, rates and real O^dag O stack, the real no-jump generator g
    (undriven as built; a driven step adds its drive term to it), the goal
    and the herald positions and weights.  The input and the herald weights
    are in the coordinates of g (see `_layout`), so the step's Propagator
    takes g and the input as they are.

    In EXACT mode the basis is the mirror-parity sector of a parity
    eigenstate input and the full 4m+1 basis of a mixed one; in APPROX mode
    it is the chain.
    """

    basis: BasisSet
    psi0: np.ndarray
    channels: list[str]
    rates: list[float]
    ops: np.ndarray
    g: np.ndarray
    goal: np.ndarray
    idx: np.ndarray
    weights: np.ndarray

    def heralded(self, psi: np.ndarray) -> np.ndarray:
        """Physical heralded amplitudes of a model state, unfolded to storage
        order."""
        return self.weights * psi[self.idx]


def _parity(p: DissipativeParams, mode: HPMode,
            input_target_state: np.ndarray | None) -> int | None:
    """The mirror parity of an input, read off its storage amplitudes a: the
    swap maps them to a[::-1], so a == a[::-1] is P = +1 and a == -a[::-1]
    is P = -1; the default input, the goal of k = m - 1 quanta, has
    a[::-1] = (-1)^k a.  None for a mixed input and in APPROX mode."""
    if mode != HPMode.EXACT:
        return None
    if input_target_state is None:
        return -1 if (p.m - 1) % 2 else 1
    a = np.asarray(input_target_state, dtype=complex)
    if (a == a[::-1]).all():
        return 1
    if (a == -a[::-1]).all():
        return -1
    return None


def _model(p: DissipativeParams, mode: HPMode,
           input_target_state: np.ndarray | None = None, with_drive: bool = False) -> _Model:
    """The undriven model of a step of p on the basis its input needs."""
    basis = build_basis(p.m, mode, with_drive, _parity(p, mode, input_target_state))
    psi0 = _embed_input(basis, input_target_state)
    g, names, rates, ops = model_matrices(p, basis)
    return _Model(basis, psi0, names, rates, ops, g, *basis.memo(_layout)[:3])


def _evolve(model: _Model, T: float, prop: Propagator | None = None) -> StepResult:
    """Evolve the model's input for a time T under prop, book every
    channel's loss from one integrated density, and herald.

    prop propagates the model's input under its generator to a horizon of
    at least T; by default it is built here, with horizon T.  A T given to
    an entry point is checked there (`linalg.check_positive`), before its
    model is built.
    """
    if prop is None:
        prop = Propagator(model.g, model.psi0, T)
    integrals = prop.integrated_expectation(model.ops, T)
    diags = StepDiagnostics(
        {name: rate * x for name, rate, x in zip(model.channels, model.rates, integrals)},
        propagator_method=prop.method, eigvec_condition=prop.condition)
    psi = prop.apply(T)
    herald_amps = model.heralded(psi)
    p_success = norm_sq(herald_amps)
    diags.unheralded_residual = norm_sq(psi) - p_success
    if p_success < HERALD_FLOOR:
        diags.herald_impossible = True
        return StepResult(p_success, None, None, T, diags)
    post = herald_amps / math.sqrt(p_success)
    ovl = abs(overlap(model.goal, post)) ** 2
    return StepResult(p_success, post, ovl, T, diags)


def run_step(
    p: DissipativeParams,
    mode: HPMode = HPMode.APPROX,
    input_target_state: np.ndarray | None = None,
    T: float | None = None,
) -> StepResult:
    """One fast-pulse heralded step in sector p.m.

    The input state (storage-only, sector m-1; on the approximate chain its
    one amplitude) defaults to the goal of the previous sector.  T defaults
    to the transfer-optimal time; a given T must be a positive finite real
    (`linalg.check_positive`).
    """
    if T is None:
        T = optimal_time(p)
    check_positive("evolution time T", T)
    return _evolve(_model(p, mode, input_target_state), T)


def run_step_fixed_ratio(
    N: int,
    m: int,
    p1d: float,
    mode: HPMode = HPMode.APPROX,
) -> StepResult:
    """Heralded step with gamma_s = gamma_g, evolved to its own optimum
    T = 2 pi / sqrt(2N(m+1)), from the default input."""
    p = DissipativeParams.from_purcell(N, m, p1d, gamma_s=1.0)
    return run_step(p, mode, T=2 * math.pi / math.sqrt(2 * N * (m + 1)))


def run_step_fresh_level(N: int, p1d: float) -> StepResult:
    """Heralded step when prior excitations sit in spectator storage levels.

    The occupied spectator levels do not couple to either guided mode, so the
    dynamics is the first-excitation step however many are stored.
    """
    p = DissipativeParams.from_purcell(N, 1, p1d)
    return run_step(p, HPMode.APPROX)


def run_step_continuous_drive(
    N: int,
    m: int,
    p1d: float,
    omega: float | None = None,
    T: float | None = None,
) -> StepResult:
    """Heralded step with the fast pulses replaced by a continuous drive.

    With the default omega = sqrt(2/3) sqrt(2N) gamma_g the five-state chain
    has perfect-transfer couplings and the herald population peaks at
    T = 2 pi / omega.  A given omega or T must be a positive finite real
    (`linalg.check_positive`).  For other omega the herald population is
    maximized numerically: a scan of [0, t_hi], t_hi = 6 pi / min(omega, g), on
    max(1201, 40 t_hi omega / 2 pi) uniform times
    (`Propagator.population`) picks the largest grid point, and
    `Propagator.peak_time` finds the root of the population's closed-form
    slope between its neighbours by Newton's method on its closed-form
    curvature, to 1e-9 t_hi (the window's end where the population still
    rises there).  The grid's 40 points per drive period stop at
    20001, so an omega past 20001 g / 120 (about 167 g), which would need
    more, raises ProtocolError rather than return an unresolved maximum.
    The scan ranks its points by the unweighted population, which is the
    herald probability `peak_time` maximizes only because the driven chain's
    one herald weight is exactly 1; on an exact parity sector the fold
    weights are 1/sqrt(2), and 1 on the label that is its own mirror image,
    so there the two would differ.
    """
    g = math.sqrt(2 * N)
    omega_opt = math.sqrt(2.0 / 3.0) * g
    if omega is None:
        omega = omega_opt
    check_positive("drive strength omega", omega)
    if T is not None:
        check_positive("evolution time T", T)
    p = DissipativeParams.from_purcell(N, m, p1d)
    model = _model(p, HPMode.APPROX, with_drive=True)
    drive = model.basis.memo(matrix_from_action, source_drive, readout_drive).at(N).matrix.sum(0)
    model.g += (omega / 2) * drive
    if T is None and abs(omega - omega_opt) < 1e-12 * g:  # the optimal drive
        T = 2 * math.pi / omega
    if T is not None:
        return _evolve(model, T)

    # global max over a few chain periods: dense scan + root of the slope
    # between the best point's neighbours; the scan must resolve the fast
    # Rabi scale when omega >> g
    t_hi = 6 * math.pi / min(omega, g)
    npts = max(1201, int(40 * t_hi * omega / (2 * math.pi)))
    if npts > 20001:  # 120 omega / g points once omega > g
        raise ProtocolError(f"drive strength omega {omega!r} is too fast for the scan's "
                            f"20001 points at N={N}; the largest usable omega is "
                            f"20001 g / 120 = {20001 * g / 120!r}")
    prop = Propagator(model.g, model.psi0, t_hi)
    dt = t_hi / (npts - 1)
    k = int(np.argmax(prop.population(t_hi, npts, model.idx)))
    lo, hi = max(k - 1, 0) * dt, t_hi if k + 2 >= npts else (k + 1) * dt
    T = prop.peak_time(lo, hi, 1e-9 * t_hi, model.idx, model.weights)
    return _evolve(model, T, prop)


def run_accumulation(
    N: int,
    m_target: int,
    p1d: float = math.inf,
    mode: HPMode = HPMode.EXACT,
    refine_T: bool = False,
) -> AccumulationResult:
    """Chain heralded steps up to m_target quanta in the storage mode.

    Step k uses the re-derived optimum gamma_s = gamma_g / sqrt(k) and
    T = sqrt(2) pi / (sqrt(2N) gamma_g); with refine_T the time is re-optimized
    numerically at a root of the herald probability's closed-form slope,
    found by Newton's method on its closed-form curvature in 4-5 evaluations
    (`Propagator.peak_time`, to 1e-6 T), on the propagator the kept step
    evolves with.  The search starts on [0.8 T, 1.2 T]; while it returns its
    low end lo, where the probability still falls, it goes on in [lo / 2, lo],
    since the probability is 0 at t = 0.  At low Purcell factors the maximum
    lies there, as low as 0.54 T at N 5, P_1d 0.3.  In the exact
    representation the input of step k is the renormalized heralded output of
    step k-1.  N, m_target and p1d are checked once, as the params of step
    m_target, before any step runs.
    """
    DissipativeParams.from_purcell(N, m_target, p1d)
    steps: list[StepResult] = []
    state: np.ndarray | None = None
    for k in range(1, m_target + 1):
        p = DissipativeParams.from_purcell(N, k, p1d)
        T = optimal_time(p)
        if refine_T:
            # the kept step evolves on the model and propagator the search built
            model = _model(p, mode, state)
            prop = Propagator(model.g, model.psi0, 1.2 * T)
            lo, tol = 0.8 * T, 1e-6 * T
            T = prop.peak_time(lo, 1.2 * T, tol, model.idx, model.weights)
            while T == lo > 0:  # still falling at lo
                lo, T = lo / 2, prop.peak_time(lo / 2, lo, tol, model.idx, model.weights)
            res = _evolve(model, T, prop)
        else:
            res = run_step(p, mode, state, T)
        if res.post_state is None:
            raise ProtocolError(f"heralding impossible at step {k}")
        steps.append(res)
        state = res.post_state if mode == HPMode.EXACT else None
    final = steps[-1].post_state
    infidelity = 1.0 - math.sqrt(steps[-1].overlap_goal)
    repetitions = 1.0
    for s in steps:
        repetitions /= s.p_success
    return AccumulationResult(steps, infidelity, repetitions, final)
