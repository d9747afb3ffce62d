"""Log-space least-squares fits."""

import numpy as np
import pytest

from oracles import linear_regression_r2
from wgherald.fitting import InsufficientDataError, fit_loglog


def test_recovers_its_own_power_law():
    ms = np.array([2, 2, 2, 3, 3, 3, 4, 4, 4])
    ns = np.array([50, 100, 200, 50, 100, 200, 50, 100, 200], dtype=float)
    u = ms * (ms - 1)
    y = 0.061 * u / ns**2
    report = fit_loglog([ns, u], y, model="power_law", x_names=("N", "mm1"))
    assert report.prefactor == pytest.approx(0.061, abs=1e-6)
    assert report.exponents[0] == pytest.approx(-2.0, abs=1e-6)
    assert report.exponents[1] == pytest.approx(1.0, abs=1e-6)
    assert report.prefactor_stderr < 1e-6
    assert report.exponent_stderrs[0] < 1e-6


def test_exp_sqrt_model():
    x = np.array([10.0, 40, 90, 160, 250])
    y = 2.0 * np.exp(-0.3 * np.sqrt(x))
    report = fit_loglog([x], y, model="exp_sqrt")
    assert report.prefactor == pytest.approx(2.0, rel=1e-9)
    assert report.exponents[0] == pytest.approx(-0.3, abs=1e-10)


def test_insufficient_data():
    with pytest.raises(InsufficientDataError):
        fit_loglog([np.array([1.0, 2.0])], np.array([1.0, 2.0]))


def test_nonpositive_rows_excluded_with_warning():
    x = np.array([1.0, 2, 3, 4, 5, 6])
    y = 3.0 * x**2
    y[2] = -1.0
    with pytest.warns(UserWarning):
        report = fit_loglog([x], y)
    assert report.n_used == 5
    assert report.prefactor == pytest.approx(3.0, rel=1e-9)
    assert report.exponents[0] == pytest.approx(2.0, abs=1e-9)


def test_unknown_model_and_shape_errors():
    x = np.arange(1.0, 6.0)
    with pytest.raises(ValueError):
        fit_loglog([x], x, model="nope")
    with pytest.raises(ValueError):
        fit_loglog([x], np.arange(1.0, 5.0))
    with pytest.raises(ValueError):
        fit_loglog([], x)
    # one name per x column
    with pytest.raises(ValueError, match="x_names"):
        fit_loglog([x, x**2], x, x_names=("a",))
    with pytest.raises(ValueError, match="x_names"):
        fit_loglog([x], x, x_names=("a", "b", "c"))


def test_linear_regression_r2():
    x = np.arange(10.0)
    y = 2.0 - 0.5 * x
    a, b, r2 = linear_regression_r2(x, y)
    assert a == pytest.approx(2.0, abs=1e-12)
    assert b == pytest.approx(-0.5, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
