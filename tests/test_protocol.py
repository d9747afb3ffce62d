"""Heralded steps, accumulation, and the protocol variants."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import drive_matrix, full_basis_step, limit_fixed_ratio
from wgherald.basis import HPMode, goal_amplitudes
from wgherald.dissipative import DissipativeParams, build_H_nh, optimal_time
from wgherald.formulas import (
    accumulation_infidelity_prediction,
    p_continuous_drive,
    p_double_mirrors,
    p_fixed_ratio,
)
from wgherald.linalg import NumericError, Propagator, golden_section_max, norm_sq
from wgherald.protocol import (
    ProtocolError,
    _model,
    run_accumulation,
    run_step,
    run_step_continuous_drive,
    run_step_fixed_ratio,
    run_step_fresh_level,
)
from wgherald import build_basis, linalg, protocol


def test_step_probability_matches_closed_form():
    res = run_step(DissipativeParams.from_purcell(500, 1, 10.0), HPMode.APPROX)
    assert res.p_success == pytest.approx(p_double_mirrors(500, 1, 10.0), rel=0.03)
    assert res.p_success == pytest.approx(0.903452, abs=1e-5)


def test_step_equals_direct_chain_amplitude():
    p = DissipativeParams.from_purcell(300, 2, 8.0)
    basis = build_basis(300, 2, HPMode.APPROX)
    h = build_H_nh(p, basis)
    t = optimal_time(p)
    amp = Propagator(h, np.array([1.0, 0, 0], complex)).apply(t)[2]
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
        (lambda: run_step_continuous_drive(300, 2, 10.0, omega=20.0), 1),
        (lambda: run_accumulation(150, 4, 10.0, refine_T=True), 4),
    ]
    for step, count in steps:
        bases.clear()
        props.clear()
        step()
        assert len(bases) == len(props) == count


def test_models_share_read_only_layouts_and_fresh_matrices():
    # two models of one shape at different N: the basis and its read-only
    # frame, goal and herald positions are shared, the generator, the
    # channels' stack and the input are newly allocated, so mutating them
    # changes no later model
    p, q = (DissipativeParams.from_purcell(n, 6, 10.0) for n in (30, 900))
    first = _model(p, HPMode.EXACT)
    want = [a.tobytes() for a in (first.psi0, first.h, first.ops)]
    for a in (first.psi0, first.h, first.ops):
        a[...] = np.nan
    other = _model(q, HPMode.EXACT)
    again = _model(p, HPMode.EXACT)
    assert [a.tobytes() for a in (again.psi0, again.h, again.ops)] == want
    assert other.basis is again.basis and other.frame is again.frame
    layout = again.basis.memo(protocol._layout)
    assert [again.frame, again.goal, again.idx, again.weights] == list(layout[:4])
    for a in layout:
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
    for a in (first.post_state, chained.post_state, model.psi0, model.h, model.ops):
        a[...] = np.nan
    again = run_step(p, HPMode.EXACT)
    assert [again.post_state.tobytes(),
            run_step(q, HPMode.EXACT, again.post_state).post_state.tobytes()] == want


def test_default_input_parity_matches_the_goal_amplitudes():
    # the default input's parity (-1)^(m-1) is the one read off its amplitudes
    for m in range(1, 41):
        p = DissipativeParams.from_purcell(40, m, 10.0)
        assert protocol._parity(p, HPMode.EXACT, None) == protocol._parity(
            p, HPMode.EXACT, goal_amplitudes(m - 1)) == (-1) ** (m - 1)


# p_success, each channel loss, overlap_goal, T and post_state of these steps,
# as computed at commit c47b1c5 (before the channels became one real stack)
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
        "drive-off-omega": lambda: [run_step_continuous_drive(300, 2, 10.0, omega=20.0)],
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


def test_step_diagnostics_report_the_worst_propagator(monkeypatch):
    # the method and the eigenvector condition number are those of the
    # step's one propagator; with the eigenbasis refused, it runs the expm
    # fallback and the step agrees with the eigenbasis step
    p = DissipativeParams.from_purcell(200, 3, 10.0)
    state = _mixed_parity_input(3)
    res = run_step(p, HPMode.EXACT, state)
    model = _model(p, HPMode.EXACT, state)
    condition = Propagator(model.h, model.psi0, model.frame).condition
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
    # (generator, frame, channel products, time, herald index) of every step
    # kind: exact sectors of both parities and the full exact basis up to
    # m = 40, the 3-state chain, the continuously driven 5-state chain with
    # and without decay
    cases = []
    for n, m, p1d in ((100, 1, 10.0), (300, 2, 5.0), (500, 7, math.inf), (1000, 40, 10.0)):
        p = DissipativeParams.from_purcell(n, m, p1d)
        inputs = [goal_amplitudes(m - 1)] + ([_mixed_parity_input(m)] if m > 1 else [])
        for state in inputs:
            s = _model(p, HPMode.EXACT, state)
            cases.append((s.h, s.frame, s.ops, optimal_time(p), s.idx))
    p = DissipativeParams.from_purcell(400, 3, 10.0)
    chain = _model(p, HPMode.APPROX)
    cases.append((chain.h, chain.frame, chain.ops, optimal_time(p), chain.idx))
    omega = math.sqrt(2.0 / 3.0) * math.sqrt(800)
    for decay in (True, False):
        s = _model(p, HPMode.APPROX, decay=decay, with_drive=True)
        cases.append((s.h + (omega / 2) * drive_matrix(s.basis), s.frame, s.ops,
                      2 * math.pi / omega, s.idx))
    return cases


def test_frame_path_matches_frameless_path_on_every_step_generator():
    rng = np.random.default_rng(14)
    cases = _step_generators()
    assert len(cases) == 10
    for h, frame, products, t, idx in cases:
        v0 = rng.normal(size=(h.shape[0], 2)) @ [1.0, 1.0j]
        v0 /= math.sqrt(norm_sq(v0))
        prop, ref = Propagator(h, v0, frame), Propagator(h, v0)
        assert prop.method == ref.method == "eig"
        assert np.abs(prop.apply(t) - ref.apply(t)).max() <= 1e-12
        times = np.linspace(0.0, 2 * t, 200)
        assert np.abs(prop.population(times, idx) - ref.population(times, idx)).max() <= 1e-12
        ops = np.concatenate([products, np.eye(h.shape[0])[None]])
        assert np.abs(prop.integrated_expectation(ops, t)
                      - ref.integrated_expectation(ops, t)).max() <= 1e-12


def test_every_step_kind_diagonalizes_a_real_matrix(monkeypatch):
    # each step's eig runs on the real generator in its stage-parity frame
    seen, eig = [], np.linalg.eig
    monkeypatch.setattr(linalg.np.linalg, "eig",
                        lambda a: seen.append(np.iscomplexobj(a)) or eig(a))
    run_accumulation(1000, 40)
    run_accumulation(150, 4, 10.0, refine_T=True)
    run_step(DissipativeParams.from_purcell(300, 2, 10.0), HPMode.APPROX)
    run_step(DissipativeParams.from_purcell(200, 3, 10.0), HPMode.EXACT, _mixed_parity_input(3))
    run_step_fixed_ratio(300, 2, 10.0, HPMode.EXACT)
    run_step_fresh_level(300, 10.0)
    run_step_continuous_drive(300, 2, 10.0)
    run_step_continuous_drive(300, 2, 10.0, omega=20.0)
    run_step_continuous_drive(300, 2, 10.0, zero_decay=True)
    assert len(seen) == 40 + 4 + 1 + 1 + 1 + 1 + 3
    assert not any(seen)


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
    kind=st.sampled_from(["approx", "exact", "mixed", "drive"]),
    n=st.integers(10, 600),
    m=st.integers(1, 8),
    p1d=st.one_of(st.just(math.inf), st.floats(1.0, 100.0)),
    t_scale=st.floats(0.1, 3.0),
)
def test_bookkeeping_sums_to_one_over_random_parameters(kind, n, m, p1d, t_scale):
    # p_success + channel losses + residual = 1 for every step kind, a
    # mixed-parity exact input on the full basis included
    if kind == "drive":
        t_drive = 2 * math.pi / (math.sqrt(2.0 / 3.0) * math.sqrt(2 * n))
        res = run_step_continuous_drive(n, m, p1d, T=t_scale * t_drive)
    else:
        p = DissipativeParams.from_purcell(n, m, p1d)
        mode = HPMode.APPROX if kind == "approx" else HPMode.EXACT
        state = _mixed_parity_input(m) if kind == "mixed" else None
        res = run_step(p, mode, state, T=t_scale * optimal_time(p))
    total = res.diagnostics.bookkeeping_total(res.p_success)
    assert abs(total - 1.0) <= 1e-9


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
    res = run_step_continuous_drive(100, 1, math.inf, zero_decay=True)
    assert res.p_success >= 0.99
    assert res.p_success == pytest.approx(1.0, abs=1e-9)


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
    with pytest.raises(ProtocolError):
        run_accumulation(10, 0, 10.0)
    with pytest.raises(ProtocolError):
        run_accumulation(3, 5, 10.0)
