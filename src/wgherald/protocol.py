"""Heralded single-excitation steps and the accumulation loop.

One step: load the source (fast pulse or continuous drive), evolve under the
no-jump generator for a time T, map the detector excitation to the readout
level, and herald on finding it there.  The heralding probability is the
squared norm of the projected state; failures are handled analytically (the
protocol restarts on failure, so jump branches are never propagated).

Every step builds its undriven model in `_model`, its input placed by the
positions and the default input its basis records (in either
representation), and evolves that input under one `Propagator`, built with
it, in `_evolve`.  A drive is a term of that propagator's
generator: (omega/2)(source + readout drive) for the continuous drive.  In
the exact representation the model commutes with the signed mirror swap, so
the input of step m, a parity eigenstate, evolves in its mirror-parity
sector alone.  The parity is read off the input before any basis is built:
the swap reverses the storage amplitudes, so an input equal to its reversal
lies in P = +1 and one equal to minus its reversal in P = -1.  Any other
input evolves on the full 4m+1 basis.

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
    no_jump_generator,
    optimal_time,
    readout_drive,
    source_drive,
)
from .linalg import Propagator, golden_section_max, norm_sq, overlap

HERALD_FLOOR = 1e-15


class ProtocolError(ValueError):
    """Invalid protocol configuration."""


@dataclass
class StepDiagnostics:
    """Norm bookkeeping for one step: p + losses + residual should be 1.

    propagator_method is the step's `Propagator.method` ("eig", or "expm"
    when it fell back from the eigenbasis) and eigvec_condition its
    eigenvector condition number (the Frobenius bound
    `Propagator.condition`).
    """

    channel_losses: dict[str, float] = field(default_factory=dict)
    unheralded_residual: float = 0.0
    herald_impossible: bool = False
    propagator_method: str = "eig"
    eigvec_condition: float = 0.0

    def bookkeeping_total(self, p_success: float) -> float:
        return p_success + sum(self.channel_losses.values()) + self.unheralded_residual


@dataclass
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


@dataclass
class AccumulationResult:
    steps: list[StepResult]
    infidelity: float
    repetitions: float
    final_state: np.ndarray


def _embed_input(basis: BasisSet, input_state: np.ndarray | None) -> np.ndarray:
    """Place a normalized (m-1)-quanta target state under the loaded source,
    folded onto the basis; None is the recorded default input."""
    idx, weights, default = basis.memo(_layout)[4:]
    if input_state is None:
        input_state = default
    else:
        input_state = np.asarray(input_state, dtype=complex)
        if input_state.ndim != 1 or not np.isfinite(input_state).all():
            raise ProtocolError("input target state must be a finite 1-d vector, "
                                f"got shape {input_state.shape}")
        if input_state.shape[0] != len(idx):
            raise ProtocolError(
                f"input target state has {input_state.shape[0]} components, "
                f"sector m={basis.m} expects {len(idx)}"
            )
        if abs(math.sqrt(norm_sq(input_state)) - 1.0) > 1e-9:
            raise ProtocolError("input target state must be normalized")
    psi = np.zeros(basis.dim, dtype=complex)
    np.add.at(psi, idx, weights * input_state)
    return psi


def _layout(basis: BasisSet) -> tuple[np.ndarray, ...]:
    """Read-only arrays a step reads off its basis, built once per basis: the
    stage-parity frame, the goal, the basis positions and weights of the
    heralded branch (the readout level on a driven basis, the excited
    detector otherwise) and of the input (under the loaded source: s on a
    driven basis, e otherwise), in storage order (weights * psi[positions]
    unfolds a branch), and the default input, the goal of m - 1 quanta ([1]
    on the chain, whose one storage state is (m - 1, 0))."""
    driven, m, exact = basis.with_drive, basis.m, basis.mode == HPMode.EXACT
    arrays = [stage_frame(basis), goal_state(basis)]
    for source, det, k in (("g", DET_HERALDED if driven else DET_EXCITED, m),
                           ("s" if driven else "e", DET_NONE, m - 1)):
        occupations = storage_labels(k) if exact else [(k, 0)]
        folds = [basis.fold[BasisLabel(source, k1, 0, k2, 0, det)] for k1, k2 in occupations]
        arrays += [np.array([f[0] for f in folds], dtype=np.intp), np.array([f[1] for f in folds])]
    arrays.append(goal_amplitudes(m - 1) if exact else np.ones(1, dtype=complex))
    for a in arrays:
        a.flags.writeable = False
    return tuple(arrays)


@dataclass
class _Model:
    """The model a step evolves: its basis, the folded input, its channels'
    names, rates and real O^dag O stack, the undriven no-jump generator, its
    stage-parity frame (which the step's Propagator takes, drive included),
    the goal and the herald positions and weights.

    In EXACT mode the basis is the mirror-parity sector of a parity
    eigenstate input and the full 4m+1 basis of a mixed one; in APPROX mode
    it is the chain.
    """

    basis: BasisSet
    psi0: np.ndarray
    channels: list[str]
    rates: list[float]
    ops: np.ndarray
    h: np.ndarray
    frame: np.ndarray
    goal: np.ndarray
    idx: np.ndarray
    weights: np.ndarray

    def heralded(self, psi: np.ndarray) -> np.ndarray:
        """Heralded amplitudes of a model state, unfolded to storage order."""
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
           input_target_state: np.ndarray | None = None, decay: bool = True,
           with_drive: bool = False) -> _Model:
    """The undriven model of a step of p on the basis its input needs.
    decay=False drops every channel."""
    basis = build_basis(p.N, p.m, mode, with_drive, _parity(p, mode, input_target_state))
    psi0 = _embed_input(basis, input_target_state)
    h, names, rates, ops = model_matrices(p, basis)
    if not decay:
        names, rates, ops = [], [], ops[:0]
    h = no_jump_generator(h, rates, ops)
    return _Model(basis, psi0, names, rates, ops, h, *basis.memo(_layout)[:4])


def _evolve(model: _Model, prop: Propagator, T: float) -> StepResult:
    """Evolve the model's input for a time T under prop, book every
    channel's loss from one integrated density, and herald.

    prop propagates the model's input under its generator plus the step's
    drive.  T must lie in (0, inf).
    """
    if not 0 < T < math.inf:
        raise ProtocolError(f"evolution time T must be positive and finite, not {T!r}")
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
    to the transfer-optimal time.
    """
    if T is None:
        T = optimal_time(p)
    model = _model(p, mode, input_target_state)
    return _evolve(model, Propagator(model.h, model.psi0, model.frame), T)


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
    zero_decay: bool = False,
) -> StepResult:
    """Heralded step with the fast pulses replaced by a continuous drive.

    With the default omega = sqrt(2/3) sqrt(2N) gamma_g the five-state chain
    has perfect-transfer couplings and the herald population peaks at
    T = 2 pi / omega.  For other omega the herald population is maximized
    numerically.  zero_decay drops every decay diagonal (coherent dynamics
    only), which is the full-transfer check.
    """
    g = math.sqrt(2 * N)
    omega_opt = math.sqrt(2.0 / 3.0) * g
    if omega is None:
        omega = omega_opt
    if not 0 < omega < math.inf:
        raise ProtocolError(f"drive strength omega must be positive and finite, not {omega!r}")
    default_omega = abs(omega - omega_opt) < 1e-12 * g
    p = DissipativeParams.from_purcell(N, m, p1d)
    model = _model(p, HPMode.APPROX, decay=not zero_decay, with_drive=True)
    src, det = (model.basis.memo(matrix_from_action, rule).at(N).matrix
                for rule in (source_drive, readout_drive))
    prop = Propagator(model.h + (omega / 2) * (src + det), model.psi0, model.frame)

    if T is None:
        if default_omega:
            T = 2 * math.pi / omega
        else:
            # global max over a few chain periods: dense scan + local refine;
            # the scan must resolve the fast Rabi scale when omega >> g
            t_hi = 6 * math.pi / min(omega, g)
            npts = min(20001, max(1201, int(40 * t_hi * omega / (2 * math.pi))))
            grid = np.linspace(0.0, t_hi, npts)
            k = int(np.argmax(prop.population(grid, model.idx)))
            lo = grid[max(k - 1, 0)]
            hi = grid[min(k + 1, len(grid) - 1)]
            T = golden_section_max(lambda t: norm_sq(prop.apply(t)[model.idx]),
                                   lo, hi, 1e-9 * t_hi)
    return _evolve(model, prop, T)


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
    numerically within +-20% of the analytic value.  In the exact
    representation the input of step k is the renormalized heralded output of
    step k-1.
    """
    if m_target < 1:
        raise ProtocolError("m_target must be >= 1")
    if m_target > N:
        raise ProtocolError("m_target exceeds the ensemble size")
    steps: list[StepResult] = []
    state: np.ndarray | None = None
    for k in range(1, m_target + 1):
        p = DissipativeParams.from_purcell(N, k, p1d)
        T = optimal_time(p)
        if refine_T:
            # the kept step evolves on the model and propagator the search built
            model = _model(p, mode, state)
            prop = Propagator(model.h, model.psi0, model.frame)
            T = golden_section_max(
                lambda t: norm_sq(model.heralded(prop.apply(t))),
                0.8 * T, 1.2 * T, 1e-6 * T)
            res = _evolve(model, prop, T)
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
