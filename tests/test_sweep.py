"""The (protocol, variant) table agrees with the code it dispatches to."""

import math

import pytest

from wgherald.sweep import PARAMETERS, TABLE, SweepSpec, run_point

# a value for each parameter that differs from the small base point below
CHANGED = {"N": 60, "m": 3, "p1d": 20.0, "gamma_s_ratio": 3.0, "omega": 5.0,
           "xi": 5.0, "T": 2.0}


def base_point(protocol, variant):
    point = SweepSpec.from_config({"protocol": protocol, "variant": variant}).points()[0]
    point.update(N=50, m=2, p1d=10.0)
    return point


def without_wall_time(row):
    return {k: v for k, v in row.items() if k != "wall_time_s"}


@pytest.mark.parametrize("pair", list(TABLE))
def test_entry_reads_exactly_its_parameters(pair):
    base = base_point(*pair)
    row = run_point(base)
    assert math.isfinite(row["p_success"])
    assert math.isfinite(row["formula_p"])
    assert set(CHANGED) == set(PARAMETERS)
    for key, value in CHANGED.items():
        changed = run_point(dict(base, **{key: value}))
        if key in TABLE[pair].reads:
            assert (changed["p_success"], changed["T"]) != (row["p_success"], row["T"]), key
            assert changed[key] == value, key
        else:
            # not even the row's own cell shows the changed value
            assert without_wall_time(changed) == without_wall_time(row), key
            if key != "T":  # T is also the result column
                assert row[key] == "", key
