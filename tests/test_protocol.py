"""Heralded steps, accumulation, and the protocol variants."""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    FullModelOracle,
    coherent_drive,
    drive_matrix,
    full_basis_step,
    limit_fixed_ratio,
    stage_sign,
)
from wgherald.basis import HPMode, goal_amplitudes, matrix_from_action, stage_frame
from wgherald.dissipative import (
    DissipativeParams,
    build_H_coherent,
    build_H_nh,
    model_matrices,
    optimal_time,
    readout_drive,
    source_drive,
)
from wgherald.formulas import (
    accumulation_infidelity_prediction,
    p_continuous_drive,
    p_double_mirrors,
    p_fixed_ratio,
)
from wgherald.linalg import NumericError, Propagator, golden_section_max, norm_sq
from wgherald.protocol import (
    ProtocolError,
    _evolve,
    _model,
    run_accumulation,
    run_step,
    run_step_continuous_drive,
    run_step_fixed_ratio,
    run_step_fresh_level,
)
from wgherald import build_basis, dissipative, linalg, protocol


def test_step_probability_matches_closed_form():
    res = run_step(DissipativeParams.from_purcell(500, 1, 10.0), HPMode.APPROX)
    assert res.p_success == pytest.approx(p_double_mirrors(500, 1, 10.0), rel=0.03)
    assert res.p_success == pytest.approx(0.903452, abs=1e-5)


def test_step_equals_direct_chain_amplitude():
    p = DissipativeParams.from_purcell(300, 2, 8.0)
    basis = build_basis(2, HPMode.APPROX)
    h = build_H_nh(p, basis)
    t = optimal_time(p)
    amp = Propagator(-1j * h, np.array([1.0, 0, 0], complex), t).apply(t)[2]
    res = run_step(p, HPMode.APPROX)
    assert res.p_success == pytest.approx(abs(amp) ** 2, abs=1e-14)


def test_step_overlap_is_unity_in_chain_representation():
    for m in (1, 2, 5):
        res = run_step(DissipativeParams.from_purcell(400, m, 10.0), HPMode.APPROX)
        assert res.overlap_goal == pytest.approx(1.0, abs=1e-12)


def test_step_gamma_s_zero_cannot_herald():
    p = DissipativeParams(N=100, m=1, gamma_s=0.0, gamma_star=0.0)
    res = run_step(p, HPMode.APPROX)
    assert res.p_success == 0.0
    assert res.post_state is None
    assert res.diagnostics.herald_impossible


def test_step_rejects_bad_time_and_input():
    p = DissipativeParams(N=100, m=1)
    with pytest.raises(ProtocolError):
        run_step(p, HPMode.APPROX, T=-1.0)
    with pytest.raises(ProtocolError):
        run_step(p, HPMode.EXACT, input_target_state=np.array([2.0]))
    with pytest.raises(ProtocolError):
        run_step_continuous_drive(100, 1, 10.0, T=math.inf)


def test_approx_input_keeps_its_phase():
    # the chain's one input amplitude goes through the embedding both
    # representations share: -1 negates the post state bit for bit and
    # leaves every probability and loss unchanged
    p = DissipativeParams.from_purcell(317, 3, 10.0)
    default = run_step(p, HPMode.APPROX)
    flipped = run_step(p, HPMode.APPROX, np.array([-1.0]))
    assert flipped.post_state.tobytes() == (-default.post_state).tobytes()
    assert flipped.p_success == default.p_success
    assert flipped.overlap_goal == default.overlap_goal
    assert flipped.diagnostics.channel_losses == default.diagnostics.channel_losses
    assert flipped.diagnostics.unheralded_residual == default.diagnostics.unheralded_residual
    for state, match in (([2.0], "normalized"), ([1.0, 0.0], "components")):
        with pytest.raises(ProtocolError, match=match):
            run_step(p, HPMode.APPROX, np.array(state))


@pytest.mark.parametrize("mode, state", [
    (HPMode.APPROX, [math.nan]),
    (HPMode.EXACT, [math.nan, 0.0]),
    (HPMode.EXACT, [[1.0, 0.0]]),
])
def test_step_rejects_non_finite_or_non_vector_input(mode, state):
    p = DissipativeParams.from_purcell(100, 2, 10.0)
    with pytest.raises(ProtocolError, match="finite 1-d vector"):
        run_step(p, mode, input_target_state=np.array(state))


def _mixed_parity_input(m):
    # a normalized complex storage state (sector m-1) with no mirror symmetry
    x = np.random.default_rng(m).normal(size=(m, 2)) @ [1.0, 1.0j]
    return x / math.sqrt(norm_sq(x))


@pytest.mark.parametrize("n, m, p1d, mixed", [
    (100, 1, 10.0, False), (300, 4, 5.0, False), (300, 7, math.inf, False),
    (1000, 40, 10.0, False), (200, 3, 3.0, True), (500, 6, 20.0, True),
])
def test_parity_sector_step_matches_full_basis_step(n, m, p1d, mixed):
    # the goal input, a parity eigenstate, evolves in its parity sector alone
    # (2m + 1 states) and a mixed input on the unreduced 4m+1 basis; either
    # agrees with the reference step on the unreduced basis
    p = DissipativeParams.from_purcell(n, m, p1d)
    state = _mixed_parity_input(m) if mixed else goal_amplitudes(m - 1)
    dim = _model(p, HPMode.EXACT, state).basis.dim
    assert dim == (4 * m + 1 if mixed else 2 * m + 1)
    T = optimal_time(p)
    res = run_step(p, HPMode.EXACT, state, T)
    p_ref, losses_ref, residual_ref, post_ref = full_basis_step(p, state, T)
    assert abs(res.p_success - p_ref) <= 1e-12
    assert res.diagnostics.channel_losses.keys() == losses_ref.keys()
    for name, loss in losses_ref.items():
        assert abs(res.diagnostics.channel_losses[name] - loss) <= 1e-12, name
    assert abs(res.diagnostics.unheralded_residual - residual_ref) <= 1e-12
    assert np.abs(res.post_state - post_ref).max() <= 1e-12


def _count_builds(monkeypatch):
    # the arguments of every basis and Propagator the protocol builds
    bases, props = [], []
    monkeypatch.setattr(protocol, "build_basis",
                        lambda *args: bases.append(args) or build_basis(*args))
    monkeypatch.setattr(protocol, "Propagator",
                        lambda *args: props.append(args) or Propagator(*args))
    return bases, props


@pytest.mark.parametrize("m, mixed, parity", [
    (1, False, 1), (4, False, -1), (7, False, 1), (3, True, None), (6, True, None),
])
def test_step_builds_only_the_sectors_its_input_occupies(monkeypatch, m, mixed, parity):
    # the parity is read off the input's storage amplitudes before any basis
    # is built: a parity eigenstate builds its sector's basis, a mixed input
    # the full basis, and either one Propagator
    bases, props = _count_builds(monkeypatch)
    state = _mixed_parity_input(m) if mixed else goal_amplitudes(m - 1)
    run_step(DissipativeParams.from_purcell(300, m, 10.0), HPMode.EXACT, state)
    assert [args[-1] for args in bases] == [parity]
    assert len(props) == 1


def test_every_step_kind_builds_one_basis_and_one_propagator(monkeypatch):
    # the drive's time scan and the refine_T search run on the propagator
    # the kept step evolves with
    bases, props = _count_builds(monkeypatch)
    steps = [
        (lambda: run_step(DissipativeParams.from_purcell(300, 2, 10.0), HPMode.APPROX), 1),
        (lambda: run_step_continuous_drive(300, 2, 10.0), 1),
        (lambda: run_step_continuous_drive(300, 2, 10.0, omega=25.0), 1),
        (lambda: run_accumulation(150, 4, 10.0, refine_T=True), 4),
    ]
    for step, count in steps:
        bases.clear()
        props.clear()
        step()
        assert len(bases) == len(props) == count


def test_models_share_read_only_layouts_and_fresh_matrices():
    # two models of one shape at different N: the basis and its read-only
    # goal and herald positions and weights are shared, the generator, the
    # channels' stack and the input are newly allocated, so mutating them
    # changes no later model; every array the layout keeps is 1-D, so a
    # memoized basis holds O(dim) of it
    p, q = (DissipativeParams.from_purcell(n, 6, 10.0) for n in (30, 900))
    first = _model(p, HPMode.EXACT)
    want = [a.tobytes() for a in (first.psi0, first.g, first.ops)]
    for a in (first.psi0, first.g, first.ops):
        a[...] = np.nan
    other = _model(q, HPMode.EXACT)
    again = _model(p, HPMode.EXACT)
    assert [a.tobytes() for a in (again.psi0, again.g, again.ops)] == want
    assert other.basis is again.basis and other.weights is again.weights
    layout = again.basis.memo(protocol._layout)
    assert [again.goal, again.idx, again.weights] == list(layout[:3])
    for a in layout:
        assert a.ndim == 1
        with pytest.raises(ValueError):
            a[...] = 0


def test_mutating_step_outputs_changes_no_later_step():
    # a step's post state and its model's arrays are its own: writing to them
    # leaves the goal, layout and terms memoized on the basis intact
    p, q = (DissipativeParams.from_purcell(300, m, 10.0) for m in (4, 5))
    first = run_step(p, HPMode.EXACT)
    chained = run_step(q, HPMode.EXACT, first.post_state)
    want = [first.post_state.tobytes(), chained.post_state.tobytes()]
    model = _model(q, HPMode.EXACT, first.post_state)
    for a in (first.post_state, chained.post_state, model.psi0, model.g, model.ops):
        a[...] = np.nan
    again = run_step(p, HPMode.EXACT)
    assert [again.post_state.tobytes(),
            run_step(q, HPMode.EXACT, again.post_state).post_state.tobytes()] == want


def test_results_holding_arrays_compare_by_identity():
    # an exact-mode post state has several components, so an elementwise
    # dataclass __eq__ would raise rather than return a bool
    a, b = (run_accumulation(100, 3, 10.0, HPMode.EXACT) for _ in range(2))
    assert (a == b, a.steps[-1] == b.steps[-1]) == (False, False)
    assert (a == a, a.steps[-1] == a.steps[-1]) == (True, True)


def test_default_input_parity_matches_the_goal_amplitudes():
    # the default input's parity (-1)^(m-1) is the one read off its amplitudes
    for m in range(1, 41):
        p = DissipativeParams.from_purcell(40, m, 10.0)
        assert protocol._parity(p, HPMode.EXACT, None) == protocol._parity(
            p, HPMode.EXACT, goal_amplitudes(m - 1)) == (-1) ** (m - 1)


# p_success, each channel loss, overlap_goal, T and post_state of these steps,
# as computed at commit c47b1c5 (before the channels became one real stack);
# drive-off-omega, at omega 25 off the optimal 20 of N = 300, and
# refine-T-accumulation-m5, whose times come from a numerical search, as
# computed by the root search on the population's slope (each T within 2e-15
# of its scale of the population's maximum in 40-digit arithmetic)
STEP_PINS = json.loads(Path(__file__).with_name("step_pins.json").read_text())


def _pinned_steps(name):
    approx = {f"hp-approx-m{m}": (317, m) for m in (1, 6)}
    exact = {f"hp-exact-m{m}-{kind}": (m, kind) for m in (2, 5, 12, 40) for kind in ("goal", "mixed")}
    if name in approx:
        return [run_step(DissipativeParams.from_purcell(*approx[name], 10.0), HPMode.APPROX)]
    if name in exact:
        m, kind = exact[name]
        state = _mixed_parity_input(m) if kind == "mixed" else None
        return [run_step(DissipativeParams.from_purcell(500, m, 10.0), HPMode.EXACT, state)]
    return {
        "fixed-ratio": lambda: [run_step_fixed_ratio(400, 3, 10.0, HPMode.EXACT)],
        "drive-default-omega": lambda: [run_step_continuous_drive(300, 2, 10.0)],
        "drive-off-omega": lambda: [run_step_continuous_drive(300, 2, 10.0, omega=25.0)],
        "refine-T-accumulation-m5": lambda: run_accumulation(150, 5, 10.0, refine_T=True).steps,
    }[name]()


@pytest.mark.parametrize("name", sorted(STEP_PINS))
def test_step_outputs_match_the_recorded_pins(name):
    steps = _pinned_steps(name)
    assert len(steps) == len(STEP_PINS[name])
    for res, pin in zip(steps, STEP_PINS[name]):
        for key in ("p_success", "overlap_goal", "T_used"):
            assert getattr(res, key) == pytest.approx(pin[key], rel=1e-12, abs=0), key
        losses = res.diagnostics.channel_losses
        assert list(losses) == list(pin["channel_losses"])
        want = np.array(list(pin["channel_losses"].values()))
        assert np.abs(np.array(list(losses.values())) - want).max() <= 1e-12 * want.max()
        post = np.array([complex(re, im) for re, im in pin["post_state"]])
        assert res.post_state.shape == post.shape
        assert np.abs(res.post_state - post).max() <= 1e-12 * np.abs(post).max()


def test_off_optimum_drive_pin_runs_the_numerical_time_search():
    # at N = 300 the optimal omega is sqrt(2/3) sqrt(2N) = 20, where the step
    # takes T = 2 pi / omega; at omega 25 it searches T numerically
    assert math.sqrt(2 / 3) * math.sqrt(600) == pytest.approx(20.0, rel=1e-15)
    res = _pinned_steps("drive-off-omega")[0]
    assert res.T_used != 2 * math.pi / 25.0
    assert STEP_PINS["drive-off-omega"][0]["T_used"] != 2 * math.pi / 25.0


def test_step_diagnostics_report_the_worst_propagator(monkeypatch):
    # the method and the eigenvector condition number are those of the
    # step's one propagator; with the eigenbasis refused, it runs the expm
    # fallback and the step agrees with the eigenbasis step
    p = DissipativeParams.from_purcell(200, 3, 10.0)
    state = _mixed_parity_input(3)
    res = run_step(p, HPMode.EXACT, state)
    model = _model(p, HPMode.EXACT, state)
    condition = Propagator(model.g, model.psi0, optimal_time(p)).condition
    assert res.diagnostics.propagator_method == "eig"
    assert res.diagnostics.eigvec_condition == condition
    monkeypatch.setattr(linalg, "EIGBASIS_MAX_CONDITION", 0.0)
    fallback = run_step(p, HPMode.EXACT, state)
    assert fallback.diagnostics.propagator_method == "expm"
    assert fallback.diagnostics.eigvec_condition == condition
    assert abs(fallback.p_success - res.p_success) <= 1e-12
    for name, loss in res.diagnostics.channel_losses.items():
        assert abs(fallback.diagnostics.channel_losses[name] - loss) <= 1e-12, name
    assert abs(fallback.diagnostics.bookkeeping_total(fallback.p_success) - 1.0) <= 1e-9


def _step_generators():
    # (generator, stage-parity frame, channel products, time, herald index,
    # herald weights, input) of every step kind: exact sectors of both
    # parities and the full exact basis up to m = 40, the 3-state chain, the
    # continuously driven 5-state chain with and without decay
    cases = []
    for n, m, p1d in ((100, 1, 10.0), (300, 2, 5.0), (500, 7, math.inf), (1000, 40, 10.0)):
        p = DissipativeParams.from_purcell(n, m, p1d)
        inputs = [goal_amplitudes(m - 1)] + ([_mixed_parity_input(m)] if m > 1 else [])
        for state in inputs:
            s = _model(p, HPMode.EXACT, state)
            cases.append((s.g, stage_frame(s.basis), s.ops, optimal_time(p), s.idx, s.weights,
                          s.psi0))
    p = DissipativeParams.from_purcell(400, 3, 10.0)
    chain = _model(p, HPMode.APPROX)
    cases.append((chain.g, stage_frame(chain.basis), chain.ops, optimal_time(p), chain.idx,
                  chain.weights, chain.psi0))
    omega = math.sqrt(2.0 / 3.0) * math.sqrt(800)
    driven = _model(p, HPMode.APPROX, with_drive=True)
    driven.g += stage_sign(driven.basis) * ((omega / 2) * drive_matrix(driven.basis))
    for s in (driven, coherent_drive(p, omega, 2 * math.pi / omega)[0]):
        cases.append((s.g, stage_frame(s.basis), s.ops, 2 * math.pi / omega, s.idx, s.weights,
                      s.psi0))
    return cases


def test_frame_path_matches_frameless_path_on_every_step_generator():
    # each step's real generator G evolves u = T^-1 psi, T = diag(stage_frame):
    # from u0 = T^-1 v0 for a random physical v0, T u(t) is the state of the
    # complex reference -iH = T G T^-1 from v0, and the herald populations,
    # the loss integrals, the peak time of the model's herald weights (which
    # carry T) and the condition number are the reference's
    rng = np.random.default_rng(14)
    cases = _step_generators()
    assert len(cases) == 10
    for g, frame, products, t, idx, weights, _ in cases:
        v0 = rng.normal(size=(g.shape[0], 2)) @ [1.0, 1.0j]
        v0 /= math.sqrt(norm_sq(v0))
        ref = Propagator(frame[:, None] * g / frame, v0, 2 * t)
        prop = Propagator(g, v0 / frame, 2 * t)
        assert prop.method == ref.method == "eig"
        assert prop.eigvecs.shape == ref.eigvecs.shape == g.shape
        assert np.abs(frame * prop.apply(t) - ref.apply(t)).max() <= 1e-12
        assert np.abs(prop.population(2 * t, 200, idx)
                      - ref.population(2 * t, 200, idx)).max() <= 1e-12
        ops = np.concatenate([products, np.eye(g.shape[0])[None]])
        assert np.abs(prop.integrated_expectation(ops, t)
                      - ref.integrated_expectation(ops, t)).max() <= 1e-12
        want = ref.peak_time(0.5 * t, 1.5 * t, 1e-12 * t, idx, weights / frame[idx])
        assert abs(prop.peak_time(0.5 * t, 1.5 * t, 1e-12 * t, idx, weights) - want) <= 1e-12 * t
        assert abs(prop.condition - ref.condition) <= 1e-12 * ref.condition


def test_every_step_kind_diagonalizes_a_real_matrix(monkeypatch):
    # each step's propagator runs one or more eigs: of the real generator in
    # its stage-parity frame, or, on the sectors of m >= 20, of the real H_k
    # of its Krylov space, one per tested bound
    seen, eig = [], np.linalg.eig
    monkeypatch.setattr(linalg.np.linalg, "eig",
                        lambda a: seen.append(np.iscomplexobj(a)) or eig(a))
    counts = []

    def counting(*args):
        before = len(seen)
        prop = Propagator(*args)
        counts.append(len(seen) - before)
        return prop
    monkeypatch.setattr(protocol, "Propagator", counting)
    run_accumulation(1000, 40)
    run_accumulation(150, 4, 10.0, refine_T=True)
    run_step(DissipativeParams.from_purcell(300, 2, 10.0), HPMode.APPROX)
    run_step(DissipativeParams.from_purcell(200, 3, 10.0), HPMode.EXACT, _mixed_parity_input(3))
    run_step_fixed_ratio(300, 2, 10.0, HPMode.EXACT)
    run_step_fresh_level(300, 10.0)
    run_step_continuous_drive(300, 2, 10.0)
    run_step_continuous_drive(300, 2, 10.0, omega=25.0)
    omega = math.sqrt(2.0 / 3.0) * math.sqrt(600)
    coherent_drive(DissipativeParams.from_purcell(300, 2, 10.0), omega, 2 * math.pi / omega)
    assert len(counts) == 40 + 4 + 1 + 1 + 1 + 1 + 3
    assert min(counts) >= 1
    assert not any(seen)


@pytest.mark.parametrize("n, p1d", [(60, 3.0), (317, 10.0), (1000, 100.0), (400, math.inf)])
def test_reduced_propagator_matches_the_full_one_on_accumulation_steps(full_propagator, n, p1d):
    # every step of an m = 40 accumulation, at its optimal time T, at the
    # refine_T horizon 1.2 T and at T / 2: the propagator reduced to the
    # Krylov space of the step's input agrees with the full decomposition on
    # amplitudes, herald populations and loss integrals; every sector of
    # dimension KRYLOV_MIN_DIM or more is reduced
    state, reduced = None, 0
    for k, res in enumerate(run_accumulation(n, 40, p1d).steps, 1):
        p = DissipativeParams.from_purcell(n, k, p1d)
        model, T = _model(p, HPMode.EXACT, state), optimal_time(p)
        full = full_propagator(model.g, model.psi0, 1.2 * T)
        ops = np.concatenate([model.ops, np.eye(model.g.shape[0])[None]])
        for horizon in (T, 1.2 * T, T / 2):
            prop = Propagator(model.g, model.psi0, horizon)
            assert prop.method == "eig" and prop.dim == model.g.shape[0]
            reduced += prop.eigvecs.shape[1] < prop.dim
            want = full.apply(horizon)
            assert np.abs(prop.apply(horizon) - want).max() <= 1e-12 * np.abs(want).max()
            want = full.population(horizon, 40, model.idx)
            got = prop.population(horizon, 40, model.idx)
            assert np.abs(got - want).max() <= 1e-12 * want.max()
            want = full.integrated_expectation(ops, horizon)
            got = prop.integrated_expectation(ops, horizon)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        state = res.post_state
    assert reduced == 3 * sum(2 * k + 1 >= linalg.KRYLOV_MIN_DIM for k in range(1, 41))


@pytest.mark.parametrize("m", [12, 40])
def test_reduced_propagator_matches_the_full_one_on_a_mixed_input(full_propagator, m):
    # a mixed input evolves on the full 4m + 1 basis; its Krylov space is
    # complex, so at m = 12 (dimension 49) and m = 40 (dimension 161) the
    # propagator decomposes the whole generator, as the full reference does
    p = DissipativeParams.from_purcell(500, m, 10.0)
    model, T = _model(p, HPMode.EXACT, _mixed_parity_input(m)), optimal_time(p)
    prop = Propagator(model.g, model.psi0, T)
    full = full_propagator(model.g, model.psi0, T)
    assert prop.dim == 4 * m + 1
    assert prop.eigvecs.shape == (prop.dim, prop.dim)
    want = full.apply(T)
    assert np.abs(prop.apply(T) - want).max() <= 1e-12 * np.abs(want).max()
    want = full.population(T, 40, model.idx)
    assert np.abs(prop.population(T, 40, model.idx) - want).max() <= 1e-12 * want.max()
    want = full.integrated_expectation(model.ops, T)
    assert np.abs(prop.integrated_expectation(model.ops, T) - want).max() <= 1e-12 * want.max()


@pytest.mark.parametrize("T", [0.3, 2.0, 50.0])
def test_step_at_a_long_user_time_books_the_full_decomposition_losses(full_propagator, T):
    # an exact sector of dimension 41, whose optimal time is pi / 10, evolved
    # to a user time T: the step reduces near that time, and decomposes the
    # whole generator where the space does not close by half the dimension
    # or the bound's grid would pass 512 intervals; either way its losses,
    # herald population and post state are those of the full decomposition
    p = DissipativeParams.from_purcell(100, 20, 10.0)
    model = _model(p, HPMode.EXACT)
    res = run_step(p, HPMode.EXACT, T=T)
    prop = Propagator(model.g, model.psi0, T)
    assert (prop.eigvecs.shape[1] < prop.dim) == (T < 1.0)
    want = _evolve(model, T, full_propagator(model.g, model.psi0, T))
    scale = max(want.diagnostics.channel_losses.values())
    for name, loss in want.diagnostics.channel_losses.items():
        assert abs(res.diagnostics.channel_losses[name] - loss) <= 1e-12 * scale
    assert res.p_success == pytest.approx(want.p_success, rel=1e-12, abs=1e-15)
    if want.post_state is not None:
        assert np.abs(res.post_state - want.post_state).max() <= 1e-10


def _rotated(h, frame):
    # T^-1 (-iH) T, whose imaginary part is exactly zero on every step's H
    g = (-1j * h) * (frame[None, :] / frame[:, None])
    assert not g.imag.any()
    return g.real


def test_step_generator_is_the_real_part_of_the_rotated_h_nh():
    # G = S o A - sum_k (Gamma_k / 2) O_k^dag O_k, built in real arithmetic,
    # is bit for bit the real part of T^-1 (-i H_nh) T on parity sectors, the
    # chain and the full basis of a mixed input, and with the drive term
    # S o (omega/2)(source + readout) on the driven chain, with and without
    # decay.  build_H_nh reads G back, so G is also held to references of
    # its own: its coherent part S o G (S the oracle's stage_sign) is
    # symmetric, to the rounding of a parity sector's fold weights, the
    # recorded drives are exactly S o drive_matrix, and on the full exact
    # bases of n = 3 G is the rotated brute-force H_nh
    cases = 0
    for n in (5, 50, 317, 1000):
        for m in (m for m in (1, 2, 4, 12, 40) if m <= n):
            for p1d in (math.inf, 10.0, 3.0):
                p = DissipativeParams.from_purcell(n, m, p1d)
                models = [_model(p, HPMode.EXACT), _model(p, HPMode.APPROX)]
                if m > 1:
                    models.append(_model(p, HPMode.EXACT, _mixed_parity_input(m)))
                    assert models[-1].basis.dim == 4 * m + 1
                for model in models:
                    assert model.g.dtype == np.float64
                    assert np.array_equal(model.g, _rotated(build_H_nh(p, model.basis),
                                                            stage_frame(model.basis)))
                    coherent = stage_sign(model.basis) * model.g
                    assert (np.abs(coherent - coherent.T) <= 1e-15 * np.abs(coherent)).all()
                    cases += 1
                model = _model(p, HPMode.APPROX, with_drive=True)
                sign = stage_sign(model.basis)
                recorded = matrix_from_action(model.basis, source_drive, readout_drive).at(n)
                assert np.array_equal(recorded.matrix.sum(0), sign * drive_matrix(model.basis))
                drive = (math.sqrt(2 * n) / 2) * drive_matrix(model.basis)
                coherent = coherent_drive(p, math.sqrt(2 * n), 1.0)[0]
                for g, h in ((model.g + sign * drive, build_H_nh(p, model.basis)),
                             (coherent.g, build_H_coherent(p, model.basis))):
                    assert np.array_equal(g, _rotated(h + drive, stage_frame(model.basis)))
    assert cases == 108 + 42
    oracle = FullModelOracle(3)
    for m, gamma_s, gamma_star in itertools.product((1, 2, 3), (0.7, 1.3), (0.0, 0.3)):
        basis = build_basis(m, HPMode.EXACT)
        g = model_matrices(DissipativeParams(3, m, gamma_s, gamma_star), basis)[0]
        frame = stage_frame(basis)
        want = (-1j * oracle.h_nh_projected(basis.labels, gamma_s, gamma_star)) \
            * (frame[None, :] / frame[:, None])
        assert np.abs(g - want).max() < 1e-12


def test_step_path_forms_no_complex_generator(monkeypatch):
    # with the complex model builders refused, every step kind still runs,
    # and each Propagator it builds takes a real generator
    def refuse(*args):
        raise AssertionError("a step built a complex H")
    for name in ("build_H_nh", "build_H_coherent", "build_jump_operators"):
        monkeypatch.setattr(dissipative, name, refuse)
    generators = []
    monkeypatch.setattr(protocol, "Propagator",
                        lambda g, *args: generators.append(g) or Propagator(g, *args))
    steps = [
        lambda: run_step(DissipativeParams.from_purcell(300, 2, 10.0), HPMode.APPROX),
        lambda: run_step(DissipativeParams.from_purcell(300, 4, 10.0), HPMode.EXACT),
        lambda: run_step(DissipativeParams.from_purcell(200, 3, 10.0), HPMode.EXACT,
                         _mixed_parity_input(3)),
        lambda: run_step_fixed_ratio(300, 2, 10.0, HPMode.EXACT),
        lambda: run_step_fresh_level(300, 10.0),
        lambda: run_step_continuous_drive(300, 2, 10.0),
        lambda: run_step_continuous_drive(300, 2, 10.0, omega=25.0),
        lambda: run_accumulation(150, 4, 10.0, refine_T=True),
    ]
    for step in steps:
        step()
    assert len(generators) == 7 + 4
    assert all(g.dtype == np.float64 for g in generators)


def _fallback_losses(monkeypatch, g, v0, ops, t):
    monkeypatch.setattr(linalg, "EIGBASIS_MAX_CONDITION", 0.0)
    prop = Propagator(g, v0, t)
    monkeypatch.undo()
    assert prop.method == "expm"
    return prop.integrated_expectation(ops, t)


def test_loss_integrals_match_the_expm_fallback(monkeypatch, full_propagator):
    # the closed-form integrals off Re(R^T) of the full eigenbasis agree with
    # the Boole sums of the expm fallback on every step generator from the
    # step's own input, on the zero-decay drive's empty stack, and on a
    # generator with mu = 0 pairs
    cases = [(g, ops, t, v0) for g, _, ops, t, _, _, v0 in _step_generators()]
    p = DissipativeParams.from_purcell(400, 3, 10.0)
    omega = math.sqrt(2.0 / 3.0) * math.sqrt(800)
    zero_decay = coherent_drive(p, omega, 2 * math.pi / omega)[0]
    assert zero_decay.ops.shape == (0, 5, 5)
    cases.append((zero_decay.g, zero_decay.ops, 2 * math.pi / omega, zero_decay.psi0))
    flat = np.zeros((4, 4))
    flat[3, 3] = -0.5
    cases.append((flat, np.array([np.eye(4), np.diag([1.0, 2.0, 0.0, 1.0])]), 1.3,
                  np.full(4, 0.5j)))
    for g, ops, t, v0 in cases:
        prop = full_propagator(g, v0, t)
        assert prop.eigvecs.shape == g.shape
        got = prop.integrated_expectation(ops, t)
        want = _fallback_losses(monkeypatch, g, v0, ops, t)
        assert got.shape == want.shape == (len(ops),)
        assert np.abs(got - want).max(initial=0.0) <= 1e-12 * np.abs(want).max(initial=0.0)
    mu = np.conj(prop.exponents)[:, None] + prop.exponents
    assert (mu == 0).sum() == 9


def test_fallback_loss_integrals_match_the_closed_form_from_random_inputs(monkeypatch):
    # a random input excites the fast modes of an exact sector (|G| t about
    # 50), where the fallback's quadrature error shows: Boole's rule on its
    # 4,097 points keeps it within 1e-10 of the largest integral
    rng = np.random.default_rng(23)
    for n, m in itertools.product((300, 1000), (2, 5, 12, 40)):
        p = DissipativeParams.from_purcell(n, m, 10.0)
        s = _model(p, HPMode.EXACT)
        v0 = rng.normal(size=(s.g.shape[0], 2)) @ [1.0, 1.0j]
        v0 /= math.sqrt(norm_sq(v0))
        t = optimal_time(p)
        got = Propagator(s.g, v0, t).integrated_expectation(s.ops, t)
        want = _fallback_losses(monkeypatch, s.g, v0, s.ops, t)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_step_at_an_extreme_time_books_every_loss_quietly():
    # at T = 1e300 every amplitude has decayed into the channels; the loss
    # integrals stay finite and raise no floating-point warning
    for m, mode in ((2, HPMode.EXACT), (1, HPMode.APPROX)):
        res = run_step(DissipativeParams.from_purcell(100, m, 10.0), mode, T=1e300)
        assert res.diagnostics.herald_impossible
        assert abs(res.diagnostics.bookkeeping_total(res.p_success) - 1.0) <= 1e-9


@pytest.mark.parametrize("T", [1.9e298, 2.5e298, 3.5e298])
def test_step_whose_loss_integrals_overflow_raises(T):
    # at omega = 1e10 the pairwise gaps mu t of the loss density overflow
    # from T ~ 1.83e298 while every eigenvalue lambda t is still finite; the
    # losses are then NaN and the step refuses to book them
    with pytest.raises(NumericError, match="loss integrals"):
        run_step_continuous_drive(100, 1, 10.0, omega=1e10, T=T)


def test_step_bookkeeping_sums_to_one():
    cases = [
        (DissipativeParams.from_purcell(500, 1, 10.0), HPMode.APPROX),
        (DissipativeParams.from_purcell(200, 3, 5.0), HPMode.EXACT),
        (DissipativeParams.from_purcell(50, 2, 2.0), HPMode.EXACT),
    ]
    for p, mode in cases:
        res = run_step(p, mode)
        assert res.diagnostics.bookkeeping_total(res.p_success) == pytest.approx(
            1.0, abs=1e-9
        )


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(["approx", "exact", "mixed", "drive", "refine", "drive-search"]),
    n=st.integers(10, 600),
    m=st.integers(1, 8),
    p1d=st.one_of(st.just(math.inf), st.floats(1.0, 100.0)),
    t_scale=st.floats(0.1, 3.0),
    ratio=st.floats(0.5, 2.0),
)
def test_bookkeeping_sums_to_one_over_random_parameters(kind, n, m, p1d, t_scale, ratio):
    # p_success + channel losses + residual = 1 for every step kind, a
    # mixed-parity exact input on the full basis included, and for the steps
    # whose time a search picked: every step of a refine_T accumulation, and
    # a driven step at ratio times the optimal omega
    omega_opt = math.sqrt(2.0 / 3.0) * math.sqrt(2 * n)
    if kind == "drive":
        res = [run_step_continuous_drive(n, m, p1d, T=t_scale * 2 * math.pi / omega_opt)]
    elif kind == "drive-search":
        res = [run_step_continuous_drive(n, m, p1d, omega=ratio * omega_opt)]
    elif kind == "refine":
        res = run_accumulation(n, m, p1d, HPMode.EXACT, refine_T=True).steps
    else:
        p = DissipativeParams.from_purcell(n, m, p1d)
        mode = HPMode.APPROX if kind == "approx" else HPMode.EXACT
        state = _mixed_parity_input(m) if kind == "mixed" else None
        res = [run_step(p, mode, state, T=t_scale * optimal_time(p))]
    for step in res:
        assert abs(step.diagnostics.bookkeeping_total(step.p_success) - 1.0) <= 1e-9


@pytest.mark.parametrize("mode", [HPMode.EXACT, HPMode.APPROX])
def test_refine_T_maximizes_run_step_probability(mode):
    # each refined time is the golden-section optimum of run_step's p_success
    # on [0.8 T, 1.2 T] around the analytic T, fed the previous step's output
    n, m_target, p1d = 150, 4, 10.0
    acc = run_accumulation(n, m_target, p1d, mode, refine_T=True)
    state = None
    for k, step in enumerate(acc.steps, start=1):
        p = DissipativeParams.from_purcell(n, k, p1d)
        T = optimal_time(p)
        T_ref = golden_section_max(
            lambda t: run_step(p, mode, state, t).p_success, 0.8 * T, 1.2 * T, 1e-6 * T
        )
        assert abs(step.T_used - T_ref) <= 1e-6 * T
        state = step.post_state if mode == HPMode.EXACT else None


def _count_evaluations(monkeypatch):
    # the slope evaluations of each Propagator.peak_time search, in order
    counts, slope = [], Propagator._slope

    def counting(self, index, weights):
        evaluate = slope(self, index, weights)
        counts.append(0)

        def counted(t):
            counts[-1] += 1
            return evaluate(t)
        return counted
    monkeypatch.setattr(Propagator, "_slope", counting)
    return counts


def _refined_against_golden(monkeypatch, n, m_target, p1d, mode):
    # each refined time of an accumulation, and golden section's maxima of
    # the herald population on the propagator that step searched, at 1e-6 T
    # and at 1e-12 T; the evaluations of each search
    _, props = _count_builds(monkeypatch)
    counts = _count_evaluations(monkeypatch)
    acc = run_accumulation(n, m_target, p1d, mode, refine_T=True)
    assert len(props) == len(counts) == m_target
    state, rows = None, []
    for k, (step, args) in enumerate(zip(acc.steps, props), start=1):
        p = DissipativeParams.from_purcell(n, k, p1d)
        T = optimal_time(p)
        model, prop = _model(p, mode, state), Propagator(*args)
        f = lambda t: norm_sq(model.heralded(prop.apply(t)))  # noqa: E731
        rows.append((step, T, *(golden_section_max(f, 0.8 * T, 1.2 * T, tol * T)
                                for tol in (1e-6, 1e-12))))
        state = step.post_state if mode == HPMode.EXACT else None
    return rows, counts


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    n=st.integers(20, 2000),
    m=st.integers(1, 6),
    p1d=st.floats(1.0, 1000.0),
    mode=st.sampled_from([HPMode.EXACT, HPMode.APPROX]),
)
def test_refine_T_search_finds_the_maximum_in_few_evaluations(n, m, p1d, mode):
    # the root of the population's slope is golden section's maximum within
    # golden's own 1e-6 T, and within 5e-8 T of golden at 1e-12 T (which
    # comparisons resolve to about 1e-8 T), in at most 6 evaluations
    # against golden's 29
    with pytest.MonkeyPatch.context() as monkeypatch:
        rows, counts = _refined_against_golden(monkeypatch, n, m, p1d, mode)
    for step, T, coarse, fine in rows:
        assert abs(step.T_used - coarse) <= 1e-6 * T
        assert abs(step.T_used - fine) <= 5e-8 * T
    assert max(counts) <= 6


def test_refine_T_on_the_expm_fallback_matches_golden_section(monkeypatch):
    # with every eigenbasis refused, the slope comes from the fallback's
    # states, T G T^-1 psi, and each refined time is golden section's within
    # 1e-6 T, in at most 6 evaluations
    monkeypatch.setattr(linalg, "EIGBASIS_MAX_CONDITION", 0.0)
    rows, counts = _refined_against_golden(monkeypatch, 150, 3, 10.0, HPMode.EXACT)
    for step, T, coarse, _ in rows:
        assert step.diagnostics.propagator_method == "expm"
        assert abs(step.T_used - coarse) <= 1e-6 * T
    assert max(counts) <= 6


@pytest.mark.parametrize("n, p1d", [(5, 0.3), (13, 0.318), (20, 0.3), (5, 0.5), (5, 1.0)])
def test_refine_T_follows_a_maximum_below_its_bracket(n, p1d):
    # at low Purcell factors the herald population still falls at 0.8 T, its
    # maximum lying at 0.54-0.79 T: the search goes on below the bracket and
    # lands on the best point of a dense scan of [0, 3 T], whose spacing is
    # 1e-4 T, stepped by expm
    step = run_accumulation(n, 1, p1d, HPMode.EXACT, refine_T=True).steps[0]
    p = DissipativeParams.from_purcell(n, 1, p1d)
    T, model = optimal_time(p), _model(p, HPMode.EXACT)
    dt, psi, pops = 1e-4 * T, model.psi0, []
    u = scipy.linalg.expm(model.g * dt)
    for _ in range(30001):
        pops.append(norm_sq(model.heralded(psi)))
        psi = u @ psi
    best = int(np.argmax(pops))
    assert step.T_used < 0.8 * T
    assert abs(step.T_used - best * dt) <= 1e-4 * T
    assert step.p_success >= pops[best] - 1e-12
    assert abs(step.diagnostics.bookkeeping_total(step.p_success) - 1.0) <= 1e-9


@pytest.mark.parametrize("n, m, p1d, omega", [
    (300, 2, 10.0, 25.0),
    (746, 3, 905.5701900720969, 115.9332186973199),
    (100, 1, 10.0, 1e3),
])
def test_driven_step_on_the_expm_fallback_matches_the_eigenbasis(monkeypatch, n, m, p1d, omega):
    # with every eigenbasis refused, the driven step's scan, the slope its
    # search follows and its bookkeeping run on the fallback's expm of the
    # real generator, on a chain whose stage-parity frame holds 1j: the
    # pinned off-optimum drive, a scan peaking at its window's end and an
    # 8,485-point scan give the eigenbasis step's time, herald probability
    # and channel losses, each search in at most 6 evaluations
    counts = _count_evaluations(monkeypatch)
    want = run_step_continuous_drive(n, m, p1d, omega)
    monkeypatch.setattr(linalg, "EIGBASIS_MAX_CONDITION", 0.0)
    got = run_step_continuous_drive(n, m, p1d, omega)
    assert len(counts) == 2 and max(counts) <= 6
    assert want.diagnostics.propagator_method == "eig"
    assert got.diagnostics.propagator_method == "expm"
    assert abs(got.T_used - want.T_used) <= 1e-12 * want.T_used
    assert abs(got.p_success - want.p_success) <= 1e-11 * want.p_success
    losses = want.diagnostics.channel_losses
    assert list(got.diagnostics.channel_losses) == list(losses)
    for name, loss in got.diagnostics.channel_losses.items():
        assert abs(loss - losses[name]) <= 1e-9, name


def test_every_propagator_knows_the_latest_time_it_is_asked_for(monkeypatch):
    # the horizon each step gives its Propagator: T for a pi-pulse step and
    # for a driven step at its optimal omega or at a given T, 1.2 T for a
    # refine_T step, and the scan's end t_hi off the optimal omega; no time
    # the step then asks for (apply, population, loss integrals, search
    # bracket) lies past it
    built = []

    class Recording(Propagator):
        def __init__(self, g, v0, horizon):
            super().__init__(g, v0, horizon)
            self.asked = []
            built.append(self)

        def apply(self, t):
            self.asked.append(t)
            return super().apply(t)

        def population(self, t_end, n, index):
            self.asked.append(t_end)
            return super().population(t_end, n, index)

        def integrated_expectation(self, ops, t):
            self.asked.append(t)
            return super().integrated_expectation(ops, t)

        def peak_time(self, lo, hi, tol, index, weights):
            self.asked += [lo, hi]
            return super().peak_time(lo, hi, tol, index, weights)
    monkeypatch.setattr(protocol, "Propagator", Recording)
    p = DissipativeParams.from_purcell(300, 2, 10.0)
    omega_opt = math.sqrt(2.0 / 3.0) * math.sqrt(600)
    t_hi = 6 * math.pi / math.sqrt(600)
    refine = [1.2 * optimal_time(DissipativeParams.from_purcell(150, k, 10.0)) for k in (1, 2, 3)]
    steps = [
        (lambda: [run_step(p, HPMode.EXACT)], [optimal_time(p)]),
        (lambda: run_accumulation(150, 3, 10.0, refine_T=True).steps, refine),
        (lambda: [run_step_continuous_drive(300, 2, 10.0)], [2 * math.pi / omega_opt]),
        (lambda: [run_step_continuous_drive(300, 2, 10.0, omega=25.0)], [t_hi]),
        (lambda: [run_step_continuous_drive(300, 2, 10.0, omega=25.0, T=0.3)], [0.3]),
    ]
    for step, horizons in steps:
        built.clear()
        results = step()
        assert [prop.horizon for prop in built] == horizons
        for prop, res in zip(built, results):
            assert res.T_used in prop.asked
            assert 0.0 <= min(prop.asked) and max(prop.asked) <= prop.horizon


@pytest.mark.parametrize("n, m, p1d, omega", [
    (746, 3, 905.5701900720969, 115.9332186973199),
    (100, 1, 10.0, 1e-3),
])
def test_driven_search_returns_the_scan_windows_end(monkeypatch, n, m, p1d, omega):
    # the scan's largest population is its last point, t_hi: the population
    # still rises across the last interval, so the slope keeps its sign and
    # the search returns that end, within 1e-9 t_hi of golden section
    _, props = _count_builds(monkeypatch)
    res = run_step_continuous_drive(n, m, p1d, omega)
    t_hi = 6 * math.pi / min(omega, math.sqrt(2 * n))
    npts = max(1201, int(40 * t_hi * omega / (2 * math.pi)))
    prop = Propagator(*props[0])
    # the scan ranks its grid by the unweighted population, the herald
    # probability only because the chain's one herald weight is 1
    model = _model(DissipativeParams.from_purcell(n, m, p1d), HPMode.APPROX, with_drive=True)
    assert (model.weights == 1).all()
    idx = model.idx
    assert np.argmax(prop.population(t_hi, npts, idx)) == npts - 1
    assert res.T_used == t_hi
    last = (npts - 2) * (t_hi / (npts - 1))
    golden = golden_section_max(lambda t: norm_sq(prop.apply(t)[idx]), last, t_hi, 1e-9 * t_hi)
    assert abs(res.T_used - golden) <= 1e-9 * t_hi


def test_driven_scan_refuses_a_drive_it_cannot_resolve():
    # the scan's 40 points per drive period stop at 20001, so past omega =
    # 20001 g / 120 (2357.14 at N = 100) the step is refused rather than run
    # on a grid that returns an aliased maximum; at that limit it runs, and at
    # omega = 1e3 (8485 points) its T and p_success are those of an exp taken
    # at each grid time directly (T within 2.5e-15 of the population's
    # maximum in 40-digit arithmetic)
    limit = r"largest usable omega is 20001 g / 120 = 2357\.14"
    for omega in (1e4, 1e6):
        with pytest.raises(ProtocolError, match=limit):
            run_step_continuous_drive(100, 1, 10.0, omega)
    run_step_continuous_drive(100, 1, 10.0, 20001 * math.sqrt(200) / 120)
    res = run_step_continuous_drive(100, 1, 10.0, 1e3)
    assert (res.T_used, res.p_success) == (1.32875569330435, 0.0029941193229837204)


def test_accumulation_single_step_is_error_free():
    acc = run_accumulation(100, 1, 10.0, HPMode.EXACT)
    assert acc.infidelity <= 1e-10
    assert len(acc.steps) == 1


def test_accumulation_infidelity_near_prediction():
    acc = run_accumulation(100, 3, 10.0, HPMode.EXACT)
    predicted = accumulation_infidelity_prediction(100, 3)
    assert predicted / 1.5 <= acc.infidelity <= predicted * 1.5


def test_accumulation_repetitions_consistent():
    acc = run_accumulation(200, 3, 10.0, HPMode.EXACT)
    product = 1.0
    for s in acc.steps:
        product /= s.p_success
    assert acc.repetitions == product
    assert acc.repetitions >= 1.0


def test_accumulation_infidelity_purcell_independent():
    vals = [run_accumulation(100, 3, p1d, HPMode.EXACT).infidelity
            for p1d in (1.0, 10.0, 100.0)]
    spread = (max(vals) - min(vals)) / max(vals)
    assert spread < 0.01


def test_accumulation_refine_does_not_hurt_much():
    base = run_accumulation(100, 2, 10.0, HPMode.EXACT)
    refined = run_accumulation(100, 2, 10.0, HPMode.EXACT, refine_T=True)
    assert refined.repetitions <= base.repetitions * 1.0 + 1e-12


def test_fixed_ratio_full_formula_agreement():
    res = run_step_fixed_ratio(100, 1, 10.0)
    assert res.p_success == pytest.approx(p_fixed_ratio(100, 1, 10.0), rel=0.05)


def test_fixed_ratio_large_n_plateau():
    # extrapolate ln p linearly in 1/sqrt(N); the (m+1)^2 form is the one
    # the dynamics actually approaches
    for m in (1, 2):
        p1 = run_step_fixed_ratio(2000, m, math.inf).p_success
        p2 = run_step_fixed_ratio(8000, m, math.inf).p_success
        plateau = p2 * p2 / p1
        limits = limit_fixed_ratio(m)
        assert plateau == pytest.approx(limits["m_plus_1"], rel=0.02)
        if m > 1:
            assert abs(plateau - limits["m_plus_2"]) / limits["m_plus_2"] > 0.5


def test_fresh_level_is_first_step_physics():
    fresh = run_step_fresh_level(500, 10.0)
    first = run_step(DissipativeParams.from_purcell(500, 1, 10.0), HPMode.APPROX)
    assert fresh.p_success == first.p_success


def test_drive_full_transfer_without_decay():
    omega = math.sqrt(2.0 / 3.0) * math.sqrt(200)
    p_success = coherent_drive(DissipativeParams.from_purcell(100, 1, math.inf), omega,
                               2 * math.pi / omega)[1]
    assert p_success >= 0.99
    assert p_success == pytest.approx(1.0, abs=1e-9)


def test_drive_probability_matches_closed_form():
    res = run_step_continuous_drive(500, 1, 10.0)
    assert res.p_success == pytest.approx(p_continuous_drive(500, 1, 10.0), rel=0.05)
    res2 = run_step_continuous_drive(500, 2, 10.0)
    assert res2.p_success == pytest.approx(p_continuous_drive(500, 2, 10.0), rel=0.05)


def test_drive_bookkeeping():
    res = run_step_continuous_drive(200, 1, 5.0)
    assert res.diagnostics.bookkeeping_total(res.p_success) == pytest.approx(
        1.0, abs=1e-9
    )


def test_norm_decay_matches_collective_only_closed_form():
    # with free-space decay off, the step's surviving norm tracks the closed
    # form evaluated without its Purcell term, within 3% for N >= 100
    for n in (100, 500):
        for m in (1, 3):
            res = run_step(DissipativeParams.from_purcell(n, m, math.inf),
                           HPMode.APPROX)
            survived = res.p_success + res.diagnostics.unheralded_residual
            closed = p_double_mirrors(n, m, math.inf)
            assert abs(survived - closed) / closed <= 0.03


def test_purcell_scaling_of_log_probability():
    from oracles import linear_regression_r2

    n, m = 500, 2
    inv_p1d = np.array([1 / 1, 1 / 2, 1 / 5, 1 / 10, 1 / 20, 1 / 50])
    lnp = []
    for x in inv_p1d:
        res = run_step(DissipativeParams.from_purcell(n, m, 1 / x), HPMode.APPROX)
        lnp.append(math.log(res.p_success))
    _, slope, r2 = linear_regression_r2(inv_p1d, np.array(lnp))
    assert r2 > 0.999
    expected = -math.sqrt(2) * math.pi / math.sqrt(2 * n)
    assert slope == pytest.approx(expected, rel=0.10)


def test_accumulation_guard_rails():
    with pytest.raises(ValueError, match="1 <= m <= N"):
        run_accumulation(10, 0, 10.0)
    with pytest.raises(ValueError, match="1 <= m <= N"):
        run_accumulation(3, 5, 10.0)


@pytest.mark.parametrize("args", [(5, True, 10.0), (5, 3.0, 10.0), (5, 2, True), (5, 2, 0.0)],
                         ids=["bool-m", "float-m", "bool-p1d", "zero-p1d"])
def test_accumulation_checks_its_inputs_before_any_step(monkeypatch, args):
    # N, m_target and p1d are checked as the last step's params, before any
    # step builds its model
    monkeypatch.setattr(protocol, "_model", lambda *a: pytest.fail("a step ran"))
    with pytest.raises(ValueError):
        run_accumulation(*args)
