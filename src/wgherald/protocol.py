"""Heralded single-excitation steps and the accumulation loop.

One step: load the source (fast pulse or continuous drive), evolve under the
no-jump generator for a time T, map the detector excitation to the readout
level, and herald on finding it there.  The heralding probability is the
squared norm of the projected state; failures are handled analytically (the
protocol restarts on failure, so jump branches are never propagated).

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
    storage_labels,
)
from .dissipative import (
    DissipativeParams,
    build_H_coherent,
    build_jump_operators,
    no_jump_generator,
    optimal_parameters,
    readout_drive,
    source_drive,
)
from .linalg import Propagator, golden_section_max, norm_sq, overlap

HERALD_FLOOR = 1e-15


class ProtocolError(ValueError):
    """Invalid protocol configuration."""


@dataclass
class StepDiagnostics:
    """Norm bookkeeping for one step: p + losses + residual should be 1."""

    channel_losses: dict[str, float] = field(default_factory=dict)
    unheralded_residual: float = 0.0
    herald_impossible: bool = False

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
    """Place a normalized (m-1)-quanta target state under an excited source."""
    m = basis.m
    psi = np.zeros(basis.dim, dtype=complex)
    if basis.mode == HPMode.APPROX:
        if input_state is not None and (
            len(input_state) != 1 or abs(abs(complex(input_state[0])) - 1.0) > 1e-9
        ):
            raise ProtocolError(
                "the approximate chain admits only the reference input state"
            )
        start = BasisLabel("s" if basis.with_drive else "e", m - 1, 0, 0, 0, DET_NONE)
        psi[basis.index_of(start)] = 1.0
        return psi
    if input_state is None:
        input_state = goal_amplitudes(m - 1)
    input_state = np.asarray(input_state, dtype=complex)
    labels = storage_labels(m - 1)
    if input_state.shape[0] != len(labels):
        raise ProtocolError(
            f"input target state has {input_state.shape[0]} components, "
            f"sector m={m} expects {len(labels)}"
        )
    nrm = math.sqrt(norm_sq(input_state))
    if abs(nrm - 1.0) > 1e-9:
        raise ProtocolError("input target state must be normalized")
    for (k1, k2), amp in zip(labels, input_state):
        psi[basis.index_of(BasisLabel("e", k1, 0, k2, 0, DET_NONE))] = amp
    return psi


def _herald_index(basis: BasisSet, detector_state: str) -> np.ndarray:
    """Basis positions of the heralded branch, in storage-space order."""
    occupations = storage_labels(basis.m) if basis.mode == HPMode.EXACT else [(basis.m, 0)]
    return np.array([basis.index_of(BasisLabel("g", k1, 0, k2, 0, detector_state))
                     for k1, k2 in occupations])


def _evolve_segments(basis: BasisSet, psi0: np.ndarray, segments, channels,
                     idx: np.ndarray, T: float) -> StepResult:
    """Evolve through piecewise-constant (Propagator, duration) segments,
    booking each channel's loss per segment, and herald on positions idx.

    T is the free-evolution time reported as T_used.
    """
    psi = psi0
    diags = StepDiagnostics()
    for prop, dt in segments:
        for ch in channels:
            loss = ch.rate * prop.integrated_expectation(ch.opdag_op, dt, psi)
            diags.channel_losses[ch.name] = diags.channel_losses.get(ch.name, 0.0) + loss
        psi = prop.apply(dt, psi)
    herald_amps = psi[idx]
    p_success = norm_sq(herald_amps)
    diags.unheralded_residual = norm_sq(psi) - p_success
    if p_success < HERALD_FLOOR:
        diags.herald_impossible = True
        return StepResult(p_success, None, None, T, diags)
    post = herald_amps / math.sqrt(p_success)
    ovl = abs(overlap(goal_state(basis), post)) ** 2
    return StepResult(p_success, post, ovl, T, diags)


def _fast_pulse_model(p: DissipativeParams, mode: HPMode,
                      input_target_state: np.ndarray | None):
    """Basis, input state, channels, no-jump propagator and herald positions
    of a fast-pulse step."""
    basis = build_basis(p.N, p.m, mode)
    psi0 = _embed_input(basis, input_target_state)
    channels = build_jump_operators(p, basis)
    prop = Propagator(no_jump_generator(build_H_coherent(p, basis), channels))
    return basis, psi0, channels, prop, _herald_index(basis, DET_EXCITED)


def run_step(
    p: DissipativeParams,
    mode: HPMode = HPMode.APPROX,
    input_target_state: np.ndarray | None = None,
    T: float | None = None,
) -> StepResult:
    """One fast-pulse heralded step in sector p.m.

    The input state (storage-only, sector m-1) defaults to the goal of the
    previous sector.  T defaults to the transfer-optimal time.
    """
    if p.drive_omega > 0:
        raise ProtocolError("use run_step_continuous_drive for a driven step")
    if T is None:
        T = optimal_parameters(p).T
    if not 0 < T < math.inf:
        raise ProtocolError(f"evolution time T must be positive and finite, not {T!r}")
    basis, psi0, channels, prop, idx = _fast_pulse_model(p, mode, input_target_state)
    return _evolve_segments(basis, psi0, [(prop, T)], channels, idx, T)


def run_step_fixed_ratio(
    N: int,
    m: int,
    p1d: float,
    mode: HPMode = HPMode.APPROX,
    input_target_state: np.ndarray | None = None,
) -> StepResult:
    """Heralded step with gamma_s = gamma_g, evolved to its own optimum
    T = 2 pi / (sqrt(2N(m+1)) gamma_s)."""
    p = DissipativeParams.from_purcell(N, m, p1d, gamma_s=1.0)
    T = 2 * math.pi / math.sqrt(2 * N * (m + 1))
    return run_step(p, mode, input_target_state, T)


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
    p = DissipativeParams.from_purcell(N, m, p1d, drive_omega=omega)
    basis = build_basis(N, m, HPMode.APPROX, with_drive=True)
    channels = [] if zero_decay else build_jump_operators(p, basis)
    prop = Propagator(no_jump_generator(build_H_coherent(p, basis), channels))
    psi0 = _embed_input(basis, None)
    idx = _herald_index(basis, DET_HERALDED)

    if T is None:
        if default_omega:
            T = 2 * math.pi / omega
        else:
            # global max over a few chain periods: dense scan + local refine;
            # the scan must resolve the fast Rabi scale when omega >> g
            t_hi = 6 * math.pi / min(omega, g)
            npts = min(20001, max(1201, int(40 * t_hi * omega / (2 * math.pi))))
            grid = np.linspace(0.0, t_hi, npts)
            k = int(np.argmax(prop.population(grid, psi0, idx)))
            lo = grid[max(k - 1, 0)]
            hi = grid[min(k + 1, len(grid) - 1)]
            T = golden_section_max(lambda t: norm_sq(prop.apply(t, psi0)[idx]),
                                   lo, hi, 1e-9 * t_hi)
    if not 0 < T < math.inf:
        raise ProtocolError(f"evolution time T must be positive and finite, not {T!r}")
    return _evolve_segments(basis, psi0, [(prop, T)], channels, idx, T)


def run_step_pulsed(
    N: int,
    m: int,
    p1d: float,
    omega_pulse: float,
    T: float | None = None,
) -> StepResult:
    """Fast-pulse step with finite-strength loading and readout pulses.

    The source pulse (duration pi/omega) and the detector readout pulse run
    with the waveguide couplings still on, so for finite omega the step
    differs from the ideal instantaneous-pulse protocol by O(g/omega); as
    omega grows it converges to run_step.  A true continuous drive does not
    have this limit: its dressed-state splitting detunes the transfer.
    """
    p = DissipativeParams.from_purcell(N, m, p1d)
    if T is None:
        T = optimal_parameters(p).T
    if not (0 < T < math.inf and 0 < omega_pulse < math.inf):
        raise ProtocolError("need positive, finite T and pulse strength")
    basis = build_basis(N, m, HPMode.APPROX, with_drive=True)
    channels = build_jump_operators(p, basis)
    h_free = no_jump_generator(build_H_coherent(p, basis), channels)
    src_drive = (omega_pulse / 2) * matrix_from_action(basis, source_drive).matrix
    det_drive = (omega_pulse / 2) * matrix_from_action(basis, readout_drive).matrix
    t_pulse = math.pi / omega_pulse
    segments = [
        (Propagator(h_free + src_drive), t_pulse),
        (Propagator(h_free), T),
        (Propagator(h_free + det_drive), t_pulse),
    ]
    return _evolve_segments(basis, _embed_input(basis, None), segments, channels,
                            _herald_index(basis, DET_HERALDED), T)


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
        T = optimal_parameters(p).T
        if refine_T:
            # the kept step evolves on the model the search built
            basis, psi0, channels, prop, idx = _fast_pulse_model(p, mode, state)
            T = golden_section_max(lambda t: norm_sq(prop.apply(t, psi0)[idx]),
                                   0.8 * T, 1.2 * T, 1e-6 * T)
            res = _evolve_segments(basis, psi0, [(prop, T)], channels, idx, T)
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
