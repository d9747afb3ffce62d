"""Heralded steps, accumulation, and the protocol variants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wgherald.basis import HPMode
from wgherald.dissipative import DissipativeParams, build_H_nh, optimal_parameters
from wgherald.formulas import (
    accumulation_infidelity_prediction,
    limit_fixed_ratio,
    p_continuous_drive,
    p_double_mirrors,
    p_fixed_ratio,
)
from wgherald.linalg import Propagator, golden_section_max
from wgherald.protocol import (
    ProtocolError,
    run_accumulation,
    run_step,
    run_step_continuous_drive,
    run_step_fixed_ratio,
    run_step_fresh_level,
    run_step_pulsed,
)
from wgherald import build_basis


def test_step_probability_matches_closed_form():
    res = run_step(DissipativeParams.from_purcell(500, 1, 10.0), HPMode.APPROX)
    assert res.p_success == pytest.approx(p_double_mirrors(500, 1, 10.0), rel=0.03)
    assert res.p_success == pytest.approx(0.903452, abs=1e-5)


def test_step_equals_direct_chain_amplitude():
    p = DissipativeParams.from_purcell(300, 2, 8.0)
    basis = build_basis(300, 2, HPMode.APPROX)
    h = build_H_nh(p, basis)
    t = optimal_parameters(p).T
    amp = Propagator(h).apply(t, np.array([1.0, 0, 0], complex))[2]
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
    kind=st.sampled_from(["approx", "exact", "drive", "pulsed"]),
    n=st.integers(10, 600),
    m=st.integers(1, 8),
    p1d=st.one_of(st.just(math.inf), st.floats(1.0, 100.0)),
    t_scale=st.floats(0.1, 3.0),
    pulse_scale=st.floats(2.0, 50.0),
)
def test_bookkeeping_sums_to_one_over_random_parameters(kind, n, m, p1d, t_scale,
                                                        pulse_scale):
    # p_success + channel losses + residual = 1 for every step kernel variant
    t_fast = optimal_parameters(DissipativeParams.from_purcell(n, m, p1d)).T
    if kind in ("approx", "exact"):
        mode = HPMode.APPROX if kind == "approx" else HPMode.EXACT
        res = run_step(DissipativeParams.from_purcell(n, m, p1d), mode, T=t_scale * t_fast)
    elif kind == "drive":
        t_drive = 2 * math.pi / (math.sqrt(2.0 / 3.0) * math.sqrt(2 * n))
        res = run_step_continuous_drive(n, m, p1d, T=t_scale * t_drive)
    else:
        res = run_step_pulsed(n, m, p1d, omega_pulse=pulse_scale * math.sqrt(2 * n),
                              T=t_scale * t_fast)
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
        T = optimal_parameters(p).T
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


def test_pulsed_step_converges_to_ideal_pulses():
    ideal = run_step(DissipativeParams.from_purcell(500, 1, 10.0), HPMode.APPROX)
    g = math.sqrt(2 * 500)
    strong = run_step_pulsed(500, 1, 10.0, omega_pulse=40 * g)
    assert strong.p_success == pytest.approx(ideal.p_success, rel=0.02)
    weak = run_step_pulsed(500, 1, 10.0, omega_pulse=5 * g)
    assert abs(weak.p_success - ideal.p_success) > abs(
        strong.p_success - ideal.p_success
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
