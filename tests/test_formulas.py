"""Closed-form evaluators: frozen arithmetic and structural identities."""

import math

import numpy as np
import pytest

from oracles import limit_fixed_ratio
from wgherald import formulas as F


def test_double_mirrors_values():
    assert F.p_double_mirrors(500, 1, 10.0) == pytest.approx(0.9031562, abs=2e-6)
    assert F.p_double_mirrors(500, 2, 10.0) == pytest.approx(0.8901114, abs=2e-6)
    assert F.p_double_mirrors(1e12, 1, 10.0) == pytest.approx(1.0, abs=1e-5)


def test_double_mirrors_monotone_in_m():
    vals = [F.p_double_mirrors(500, m, 10.0) for m in range(1, 8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_fixed_ratio_limits():
    lim1 = limit_fixed_ratio(1)
    assert lim1["m_plus_1"] == pytest.approx(1.0)
    lim2 = limit_fixed_ratio(2)
    assert lim2["m_plus_2"] == pytest.approx(0.5)
    assert lim2["m_plus_1"] == pytest.approx(8 / 9)


def test_fixed_ratio_consistent_with_own_limit():
    # exponent ~ 2 pi (5/8) / sqrt(2N(m+1)) = 9.8e-4 at N = 4e6, m = 1
    p = F.p_fixed_ratio(4e6, 1, math.inf)
    assert abs(p - limit_fixed_ratio(1)["m_plus_1"]) < 1e-3


def test_continuous_drive_values():
    assert F.p_continuous_drive(500, 1, 10.0) == pytest.approx(0.9201025, abs=2e-6)
    assert F.p_continuous_drive(1e12, 1, 10.0) == pytest.approx(1.0, abs=1e-5)


def test_continuous_drive_exceeds_pulsed():
    # every exponent coefficient of the driven form is smaller than the
    # pulsed form's (0.383 + 0.344 sqrt(m) + 1.110/P vs 0.530 + 0.354 sqrt(m)
    # + 1.414/P in units of pi/sqrt(2N)), so the driven probability is the
    # larger one at equal arguments
    for m in (1, 2, 3, 4):
        for p1d in (1.0, 10.0, 100.0):
            assert F.p_continuous_drive(500, m, p1d) >= F.p_double_mirrors(500, m, p1d)


def test_fresh_level_identity_and_scaling():
    for (n, p1d) in ((500, 10.0), (123, 3.0), (50, 1.0)):
        assert F.p_fresh_level(n, p1d) == F.p_double_mirrors(n, 1, p1d)
    ratio = math.log(F.p_fresh_level(50, 10.0)) / math.log(F.p_fresh_level(200, 10.0))
    assert ratio == pytest.approx(2.0, rel=1e-12)
    assert F.p_fresh_level(500, 10.0) == pytest.approx(0.9031562, abs=2e-6)


def test_infidelity_fit():
    assert F.infidelity_fit(100, 1) == 0.0
    assert F.infidelity_fit(100, 3) == pytest.approx(3.66e-5, rel=1e-12)
    assert F.accumulation_infidelity_prediction(50, 3) == F.infidelity_fit(100, 3)
    for m in range(1, 6):
        assert F.infidelity_fit(100, m) >= 0.0


def test_repetitions_asymptotic_vs_product():
    n, m = 100, 9
    # prod_k 1/p_k against the large-m scaling exp(m sqrt(m/N))
    product = math.prod(1 / F.p_double_mirrors(n, k, math.inf) for k in range(1, m + 1))
    asym = math.exp(m * math.sqrt(m / n))
    assert 0.5 <= asym / product <= 2.0


def test_table1_rows():
    rows = {e.protocol: e for e in F.table1_compare(4, 100, 100.0, 1000.0, eta=1.0, x=0.05)}
    assert rows["ProbabilisticII"].p_m == pytest.approx(math.exp(-0.4), rel=1e-12)
    assert rows["ProbabilisticI"].error_scaling == 0.0  # eta = 1
    assert rows["Deterministic"].p_m == 1.0
    assert rows["DipoleDipole"].requirement_satisfied  # xi = 1000 > 5 * 100
    assert rows["Deterministic"].requirement_satisfied

    rows3 = {e.protocol: e for e in F.table1_compare(3, 100, 10.0, 100.0)}
    assert rows3["DoubleMirrors"].error_scaling == pytest.approx(9e-4)
    assert not rows3["DipoleDipole"].requirement_satisfied
    assert not rows3["Deterministic"].requirement_satisfied  # threshold is strict

    with pytest.raises(ValueError):
        F.table1_compare(1, 100, 10.0, 100.0, eta=1.5)


@pytest.mark.parametrize("args, kwargs, match", [
    ((True, 50, 10.0, 100.0), {}, "1 <= m <= N"),
    ((2.5, 50, 10.0, 100.0), {}, "1 <= m <= N"),
    ((2, 50.0, 10.0, 100.0), {}, "1 <= m <= N"),
    ((2, 50, True, 100.0), {}, "real numbers"),
    ((2, 50, 10.0, True), {}, "real numbers"),
    ((2, 50, 10.0, 100.0), {"eta": True}, "real numbers"),
    ((2, 50, 10.0, 100.0), {"x": False}, "real numbers"),
    ((2, 50, math.nan, 100.0), {}, "positive"),
], ids=["bool-m", "float-m", "float-N", "bool-p1d", "bool-xi", "bool-eta", "bool-x", "nan-p1d"])
def test_table1_refuses_what_is_not_a_sector_or_a_real(args, kwargs, match):
    with pytest.raises(ValueError, match=match):
        F.table1_compare(*args, **kwargs)


def test_table1_runs_at_infinite_p1d_and_xi():
    rows = {e.protocol: e for e in F.table1_compare(2, 50, math.inf, math.inf)}
    assert rows["Deterministic"].error_scaling == 0.0
    assert rows["DipoleDipole"].error_scaling == 0.0


def test_probability_ranges():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = float(rng.uniform(10, 5000))
        m = float(rng.integers(1, 8))
        p1d = float(rng.uniform(0.5, 200))
        for val in (
            F.p_double_mirrors(n, m, p1d),
            F.p_fixed_ratio(n, m, p1d),
            F.p_continuous_drive(n, m, p1d),
            F.p_fresh_level(n, p1d),
        ):
            assert 0.0 < val <= 1.0
