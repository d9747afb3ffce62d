"""Command-line harness: subcommands, determinism, parallel equality."""

import csv
import dataclasses
import io
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
import yaml

import wgherald
from wgherald import sweep as sweep_module
from wgherald.basis import HPMode
from wgherald.cli import build_parser, main
from wgherald.dissipative import DissipativeParams
from wgherald.linalg import NumericError, Propagator
from wgherald.protocol import _evolve, _model, run_accumulation, run_step
from wgherald.sweep import (
    COLUMNS,
    PARAMETERS,
    SweepConfigError,
    SweepSpec,
    rows_to_csv,
    run_sweep,
)

SRC = str(pathlib.Path(wgherald.__file__).resolve().parent.parent)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def strip_wall_time(text):
    idx = COLUMNS.index("wall_time_s")
    lines = []
    for line in text.strip().splitlines():
        cells = line.split(",")
        del cells[idx]
        lines.append(",".join(cells))
    return "\n".join(lines)


def test_step_command_matches_closed_form(capsys):
    code, out, _ = run_cli(capsys, "step", "--N", "500", "--m", "1",
                           "--p1d", "10", "--mode", "hp-approx")
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["p_success"]) == pytest.approx(0.9031562, rel=0.03)
    assert float(row["rel_deviation"]) < 0.03
    assert row["error"] == ""


def test_step_exact_mode_overlap_below_unity(capsys):
    code, out, _ = run_cli(capsys, "step", "--N", "5", "--m", "2",
                           "--p1d", "10", "--mode", "hp-exact")
    assert code == 0
    row = parse_csv(out)[0]
    assert 0.0 < float(row["overlap_goal"]) < 1.0


def test_missing_required_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "step", "--N", "500")
    assert code == 1
    assert "missing required flag" in err


def test_unknown_command_usage(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert "usage" in err.lower()


@pytest.mark.parametrize("argv", [
    ("step", "--N", "5", "--m", "10", "--p1d", "10"),       # ValueError: m > N
    ("step", "--N", "0", "--m", "1", "--p1d", "10"),        # ValueError: N < 1
    ("accumulate", "--N", "5", "--m", "10", "--p1d", "10"),  # ValueError: m > N
])
def test_parameter_errors_exit_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("exc", [np.linalg.LinAlgError("eig did not converge"),
                                 NumericError("non-finite amplitudes")])
def test_numeric_failures_exit_2(capsys, monkeypatch, exc):
    # LinAlgError is a ValueError subclass and must still count as numeric
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(sweep_module, "run_step", fail)
    code, _, err = run_cli(capsys, "step", "--N", "100", "--m", "1", "--p1d", "10")
    assert code == 2
    assert err.startswith("numeric failure: ")


@pytest.mark.parametrize("T", ["2.5e298", "1e300"])
def test_overflowing_step_fails_with_one_line(T):
    # a fresh process under the default warning filters: the overflowing
    # products print no numpy RuntimeWarning before the exit-2 message
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-m", "wgherald.cli", "step", "--variant", "continuous-drive",
         "--N", "100", "--m", "1", "--p1d", "10", "--omega", "1e10", "--T", T],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "numeric failure: NumericError: loss integrals are non-finite\n"


def test_reducible_exact_step_at_an_extreme_time_runs_quietly(full_propagator):
    # a parity sector of dimension 41, at the Krylov crossover, evolved to
    # T = 1e300 in a fresh process under the default warning filters: exit 0,
    # every amplitude decayed, and nothing on stderr.  No Krylov bound holds
    # to such a time, so the step decomposes the whole generator and books
    # the losses of the full reference
    p = DissipativeParams.from_purcell(100, 20, 10.0)
    model = _model(p, HPMode.EXACT)
    prop = Propagator(model.g, model.psi0, 1e300)
    assert prop.eigvecs.shape == (41, 41)
    want = _evolve(model, 1e300, full_propagator(model.g, model.psi0, 1e300))
    assert dataclasses.asdict(run_step(p, HPMode.EXACT, T=1e300)) == dataclasses.asdict(want)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, "-m", "wgherald.cli", "step", "--N", "100", "--m", "20",
         "--p1d", "10", "--mode", "hp-exact", "--T", "1e300"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert parse_csv(proc.stdout)[0]["p_success"] == "0"


@pytest.mark.parametrize("variant", ["continuous-drive", "fresh-level"])
def test_hp_exact_rejected_without_exact_model(capsys, variant):
    with pytest.raises(SweepConfigError):
        SweepSpec.from_config({"mode": "hp-exact", "variant": variant})
    code, out, err = run_cli(capsys, "step", "--N", "100", "--m", "2", "--p1d", "10",
                             "--mode", "hp-exact", "--variant", variant)
    assert code == 1
    assert out == ""
    assert "hp-exact" in err


def test_accumulate_command(capsys):
    code, out, _ = run_cli(capsys, "accumulate", "--N", "50", "--m", "3",
                           "--p1d", "10", "--mode", "hp-exact")
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["repetitions"]) > 1.0
    assert float(row["infidelity"]) > 0.0
    assert float(row["formula_infidelity"]) > 0.0


def test_point_commands_default_to_the_library_mode(capsys):
    # accumulate runs run_accumulation's default (exact), step run_step's (approx)
    code, out, _ = run_cli(capsys, "accumulate", "--N", "100", "--m", "3", "--p1d", "10")
    assert code == 0
    row = parse_csv(out)[0]
    acc = run_accumulation(100, 3, 10.0)
    assert row["mode"] == "hp-exact"
    assert row["infidelity"] == format(acc.infidelity, ".12g")
    assert row["repetitions"] == format(acc.repetitions, ".12g")
    code, out, _ = run_cli(capsys, "step", "--N", "100", "--m", "3", "--p1d", "10")
    assert code == 0
    assert parse_csv(out)[0]["mode"] == "hp-approx"


def sweep_config(tmp_path, **extra):
    cfg = {
        "protocol": "step",
        "mode": "hp-approx",
        "variant": "pi-pulse",
        "fixed": {"p1d": 10},
        "axes": [
            {"name": "N", "values": [100, 200]},
            {"name": "m", "values": [1, 2]},
        ],
    }
    cfg.update(extra)
    path = tmp_path / "sweep.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def test_sweep_deterministic_and_parallel_equal(tmp_path, capsys, free_forks):
    cfg = sweep_config(tmp_path)
    outs = []
    # forks cost nothing here, so every sweep of jobs > 1 forks; jobs 5 is
    # more processes than the 4 points: one child per other point
    for i, jobs in enumerate((1, 1, 2, 3, 5)):
        out_path = tmp_path / f"out{i}.csv"
        before = len(free_forks)
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                             "--out", str(out_path), "--jobs", str(jobs))
        assert code == 0
        assert len(free_forks) - before == min(jobs, 4) - 1
        outs.append(out_path.read_text())
    for out in outs[1:]:
        assert strip_wall_time(out) == strip_wall_time(outs[0])
    rows = parse_csv(outs[0])
    assert len(rows) == 4
    assert [(r["N"], r["m"]) for r in rows] == [("100", "1"), ("100", "2"),
                                                ("200", "1"), ("200", "2")]


def test_degenerate_sweep_single_row(tmp_path, capsys):
    cfg = sweep_config(tmp_path, axes=[], fixed={"p1d": 10, "N": 100, "m": 1})
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    assert len(parse_csv(out)) == 1


def test_sweep_row_failure_recorded_not_fatal(tmp_path, capsys):
    cfg = sweep_config(
        tmp_path,
        axes=[{"name": "m", "values": [1, 80]}],  # m = 80 > N fails
        fixed={"p1d": 10, "N": 50},
    )
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    rows = parse_csv(out)
    assert rows[0]["error"] == ""
    assert rows[1]["error"] != ""
    assert "1/2" in err


def test_sweep_jsonl_output(tmp_path, capsys):
    cfg = sweep_config(tmp_path, axes=[], fixed={"p1d": 10, "N": 100, "m": 1})
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--jsonl")
    assert code == 0
    import json

    row = json.loads(out.strip().splitlines()[0])
    assert row["N"] == 100


def test_sweep_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({"protocol": "nope"}))
    code, _, err = run_cli(capsys, "sweep", "--config", str(path))
    assert code == 1
    assert "protocol" in err


def test_sweep_spec_validation():
    with pytest.raises(SweepConfigError):
        SweepSpec.from_config({"axes": [{"values": [1, 2]}]})
    with pytest.raises(SweepConfigError):
        SweepSpec.from_config({"axes": [{"name": "bogus", "values": [1]}]})
    with pytest.raises(SweepConfigError):
        SweepSpec.from_config({"axes": [{"name": "N"}]})
    spec = SweepSpec.from_config(
        {"axes": [{"name": "N", "logspace": [50, 200], "num": 3}]}
    )
    assert spec.axes[0][1] == (50, 100, 200)


def test_fit_command_synthetic(tmp_path, capsys):
    path = tmp_path / "data.csv"
    with open(path, "w") as fh:
        fh.write("N,mm1,I\n")
        for m in (2, 3, 4):
            for n in (50, 100, 200):
                fh.write(f"{n},{m * (m - 1)},{0.061 * m * (m - 1) / n**2}\n")
    code, out, _ = run_cli(capsys, "fit", str(path), "--x", "N", "--x", "mm1",
                           "--y", "I")
    assert code == 0
    rows = {r["quantity"]: float(r["value"]) for r in parse_csv(out)}
    assert rows["prefactor"] == pytest.approx(0.061, abs=1e-9)
    assert rows["exponent[N]"] == pytest.approx(-2.0, abs=1e-9)
    assert rows["exponent[mm1]"] == pytest.approx(1.0, abs=1e-9)


def test_fit_command_insufficient_data(tmp_path, capsys):
    path = tmp_path / "two.csv"
    path.write_text("x,y\n1,1\n2,4\n")
    code, _, err = run_cli(capsys, "fit", str(path), "--x", "x", "--y", "y")
    assert code == 1
    assert "insufficient data" in err


def test_fit_command_missing_column(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("x,y\n1,1\n2,4\n3,9\n4,16\n")
    code, _, err = run_cli(capsys, "fit", str(path), "--x", "z", "--y", "y")
    assert code == 1
    assert "column" in err


@pytest.mark.parametrize("n, x, code", [
    (200, "p1d", 0),  # the p1d = inf row (no free-space decay) is left out
    (200, "N", 1),    # N does not vary
    (1, "N", 1),      # ln N is 0 on every row
])
def test_fit_command_on_a_p1d_sweep(tmp_path, capsys, n, x, code):
    config = tmp_path / "s.yaml"
    config.write_text(yaml.safe_dump({
        "fixed": {"N": n},
        "axes": [{"name": "p1d", "values": [3, 10, 30, 100, math.inf]}],
    }))
    data = tmp_path / "s.csv"
    assert run_cli(capsys, "sweep", "--config", str(config), "--out", str(data))[0] == 0
    if code == 0:
        got, out, err = run_cli(capsys, "fit", str(data), "--x", x, "--y", "p_success")
        assert err == ("warning: excluded 1 row(s) with non-positive or non-finite data "
                       "from the fit\n")
        rows = {r["quantity"]: r for r in parse_csv(out)}
        assert rows["n_used"]["value"] == "4"
        assert float(rows[f"exponent[{x}]"]["stderr"]) > 0
    else:
        got, out, err = run_cli(capsys, "fit", str(data), "--x", x, "--y", "p_success")
        assert out == ""
        assert err.startswith("error: InsufficientDataError: ")
    assert got == code, err


def test_fit_counts_every_row_it_excludes(tmp_path, capsys):
    # an empty, a nan and an inf cell are all screened by fit_loglog
    data = tmp_path / "d.csv"
    data.write_text("x,y\n" + "".join(f"{x},{2.0 * x**1.5}\n" for x in range(1, 5))
                    + "5,\n6,nan\n7,inf\n")
    code, out, err = run_cli(capsys, "fit", str(data), "--x", "x", "--y", "y")
    assert code == 0
    assert err == "warning: excluded 3 row(s) with non-positive or non-finite data from the fit\n"
    rows = {r["quantity"]: r for r in parse_csv(out)}
    assert rows["n_used"]["value"] == "4"
    assert float(rows["exponent[x]"]["value"]) == pytest.approx(1.5)


def test_fit_quotes_a_regressor_name_holding_a_comma(tmp_path, capsys):
    # the exponent row of a column named N,atoms is one quoted cell, so every
    # row of the report parses back into the header's three fields
    data = tmp_path / "d.csv"
    data.write_text('"N,atoms",y\n' + "".join(f"{x},{3.0 * x**0.5}\n" for x in range(1, 6)))
    code, out, _ = run_cli(capsys, "fit", str(data), "--x", "N,atoms", "--y", "y")
    assert code == 0
    table = list(csv.reader(io.StringIO(out)))
    assert table[0] == ["quantity", "value", "stderr"]
    assert all(len(row) == 3 for row in table)
    assert table[2][0] == "exponent[N,atoms]" and float(table[2][1]) == pytest.approx(0.5)


def test_compare_command(capsys):
    code, out, _ = run_cli(capsys, "compare", "--m", "4", "--p1d", "100",
                           "--N", "100", "--xi", "1000")
    assert code == 0
    rows = {r["protocol"]: r for r in parse_csv(out)}
    assert float(rows["ProbabilisticII"]["p_m"]) == pytest.approx(math.exp(-0.4))
    assert rows["DipoleDipole"]["requirement_satisfied"] == "True"
    table = list(csv.reader(io.StringIO(out)))
    assert len(table) == 6 and all(len(row) == len(table[0]) for row in table)


@pytest.mark.parametrize("command", ["step", "accumulate", "sweep", "bandgap"])
def test_every_parameter_is_a_flag_of_the_point_commands(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "200")  # help lines unwrapped
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = capsys.readouterr().out
    for name, (kind, _, description) in PARAMETERS.items():
        flag = "--" + name.replace("_", "-")
        value = getattr(build_parser().parse_args([command, flag, "3"]), name)
        assert type(value) is kind and value == 3, name
        assert re.search(rf"{flag} {name.upper()}\s+{re.escape(description)}\n", text), name


def test_compare_takes_the_sweep_types_and_defaults():
    shared = ("N", "m", "p1d", "xi")
    defaults = vars(build_parser().parse_args(["compare"]))
    given = vars(build_parser().parse_args(
        ["compare", *(arg for name in shared for arg in (f"--{name}", "3"))]))
    for name in shared:
        kind, default, _ = PARAMETERS[name]
        assert type(defaults[name]) is kind and defaults[name] == default, name
        assert type(given[name]) is kind and given[name] == 3, name


def test_bandgap_command_writes_series_and_profile(tmp_path, capsys):
    series = tmp_path / "series.csv"
    profile = tmp_path / "profile.csv"
    code, _, err = run_cli(capsys, "bandgap", "--N", "40", "--xi", "60",
                           "--out", str(series), "--profile-out", str(profile))
    assert code == 0
    srows = parse_csv(series.read_text())
    assert {"t", "source_population", "target_population"} <= set(srows[0])
    prows = parse_csv(profile.read_text())
    assert len(prows) == 40
    assert "optimal_time=" in err
    intensities = np.array([float(r["intensity"]) for r in prows])
    # everything except the small residual source population
    assert intensities.sum() == pytest.approx(1.0, abs=1e-3)


def test_rows_to_csv_header():
    assert rows_to_csv([]).strip() == ",".join(COLUMNS)


def test_sweep_formula_agreement_over_grid(tmp_path):
    # the in-row deviation column stays small on a coarse grid
    spec = SweepSpec.from_config(
        {
            "protocol": "step",
            "fixed": {"p1d": 10},
            "axes": [
                {"name": "N", "values": [100, 500]},
                {"name": "m", "values": [1, 4]},
            ],
        }
    )
    for row in run_sweep(spec):
        assert row["error"] == ""
        assert row["rel_deviation"] < 0.05


SWEPT_N = {"protocol": "step", "fixed": {"p1d": 10},
           "axes": [{"name": "N", "values": [100, 200, 400]}]}


@pytest.mark.parametrize("config, argv", [
    # no (accumulate, fixed-ratio) entry: it ran pi-pulse steps under the
    # fixed-ratio closed form
    (None, ("accumulate", "--N", "100", "--m", "2", "--p1d", "10",
            "--mode", "hp-exact", "--variant", "fixed-ratio")),
    # parameters the selected entry does not read
    (None, ("accumulate", "--N", "100", "--m", "2", "--p1d", "10",
            "--gamma-s-ratio", "3", "--T", "5")),
    (None, ("step", "--N", "100", "--m", "2", "--p1d", "10", "--variant", "fixed-ratio",
            "--T", "2", "--gamma-s-ratio", "3")),
    (None, ("step", "--N", "100", "--m", "2", "--p1d", "10",
            "--variant", "continuous-drive", "--gamma-s-ratio", "3")),
    (None, ("step", "--N", "100", "--m", "2", "--p1d", "10", "--xi", "5")),
    (None, ("step", "--N", "100", "--p1d", "10", "--variant", "fresh-level", "--m", "3")),
    # bandgap has one entry, one mode and no row options
    (None, ("bandgap", "--mode", "hp-exact")),
    (None, ("bandgap", "--variant", "fixed-ratio")),
    (None, ("bandgap", "--T", "1")),
    (None, ("bandgap", "--jsonl")),
    (None, ("bandgap", "--jobs", "3")),
    (None, ("bandgap", "--mode", "hp-exact", "--variant", "fixed-ratio", "--T", "1",
            "--jsonl", "--jobs", "3")),
    (None, ("step", "--N", "100", "--m", "1", "--p1d", "10", "--jobs", "3")),
    (None, ("accumulate", "--N", "100", "--m", "1", "--p1d", "10", "--jobs", "3")),
    (None, ("bandgap", "--N", "0")),
    # single-point commands run one point; a flag may not name a swept axis
    ({"fixed": {"N": 100, "m": 1, "p1d": 10}, "axes": [{"name": "T", "values": [0.1, 0.2]}]},
     ("step",)),
    (SWEPT_N, ("step", "--m", "1")),
    (SWEPT_N, ("step", "--N", "50", "--m", "1")),
    (SWEPT_N, ("sweep", "--N", "50")),
    (dict(SWEPT_N, axes=[{"name": "N", "values": [50]}], fixed={"N": 60, "p1d": 10}),
     ("sweep",)),
    # config keys the command does not read
    ({"jobs": 2, "fixed": {"N": 100, "m": 1, "p1d": 10}}, ("step",)),
    ({"protocol": "accumulate", "fixed": {"N": 100, "m": 1, "p1d": 10}}, ("step",)),
    ({"fixed": {"N": 100}, "axis": [{"name": "m", "values": [1, 2]}]}, ("sweep",)),
    # malformed config shapes
    ({"fixed": 5}, ("sweep",)),
    ({"axes": 5}, ("sweep",)),
    ({"axes": [{"name": "N", "values": 3}]}, ("sweep",)),
    ({"axes": [{"name": "N", "logspace": 3}]}, ("sweep",)),
    # worker counts that cannot run as written
    (None, ("sweep", "--jobs", "0")),
    (None, ("sweep", "--jobs", "-3")),
    ({"jobs": 0}, ("sweep",)),
    ({"jobs": "abc"}, ("sweep",)),
    # output options and axis keys that would not run as written
    ({"jsonl": "false"}, ("sweep",)),
    ({"out": 5}, ("sweep",)),
    ({"axes": [{"name": "N", "values": [50, 100], "logspace": [1, 2], "num": 3}]},
     ("sweep",)),
    ({"axes": [{"name": "N", "values": [50, 100], "num": 3}]}, ("sweep",)),
    ({"axes": [{"name": "N", "num": 3}]}, ("sweep",)),
    ({"axes": [{"name": "N", "values": [50, 100], "nm": 3}]}, ("sweep",)),
    # P_1d outside (0, inf]: a negative one ran as a gain, NaN printed nan and
    # zero ended in a ZeroDivisionError
    (None, ("bandgap", "--N", "40", "--xi", "60", "--p1d", "-5")),
    (None, ("bandgap", "--N", "40", "--xi", "60", "--p1d", "nan")),
    (None, ("bandgap", "--N", "40", "--xi", "60", "--p1d", "0")),
    (None, ("step", "--N", "100", "--m", "1", "--p1d", "0")),
    (None, ("accumulate", "--N", "100", "--m", "1", "--p1d", "0")),
    # evolution times and drive strengths outside (0, inf)
    (None, ("step", "--N", "100", "--m", "1", "--p1d", "10", "--T", "inf")),
    (None, ("step", "--N", "100", "--m", "1", "--p1d", "10", "--T", "nan")),
    (None, ("step", "--N", "100", "--m", "1", "--p1d", "10", "--variant", "continuous-drive",
            "--T", "inf")),
    (None, ("step", "--N", "100", "--m", "1", "--p1d", "10", "--variant", "continuous-drive",
            "--omega", "0")),
    # comparison inputs outside the table's domain
    (None, ("compare", "--eta", "2")),
    (None, ("compare", "--p1d", "-1")),
    (None, ("compare", "--p1d", "0")),
    (None, ("compare", "--m", "200")),
    (None, ("compare", "--m", "0")),
    (None, ("compare", "--N", "0")),
    (None, ("compare", "--xi", "0")),
    # non-integer atom and excitation counts were truncated but echoed as given
    ({"fixed": {"p1d": 10, "N": 100.7, "m": 1.9}}, ("sweep",)),
    ({"fixed": {"p1d": 10}, "axes": [{"name": "N", "values": [50, 100.5]}]}, ("sweep",)),
    ({"fixed": {"N": 100, "p1d": 10}, "axes": [{"name": "m", "values": [1.5]}]}, ("sweep",)),
    # a negative drive parameter gave a ProbabilisticI p_m above 1, NaN gave nan rows
    (None, ("compare", "--N", "100", "--m", "2", "--x", "-3", "--eta", "0.5")),
    (None, ("compare", "--x", "nan")),
    # the transfer holds no stored quanta: m = 2 ran the m = 1 dynamics
    (None, ("bandgap", "--N", "40", "--xi", "40", "--m", "2")),
    # non-finite logspace bounds: a p1d axis ran at inf with a numpy warning,
    # an N axis overflowed converting inf, and a NaN bound raised a bare ValueError
    ({"fixed": {"m": 1, "N": 100}, "axes": [{"name": "p1d", "logspace": [1, math.inf], "num": 3}]},
     ("sweep",)),
    ({"fixed": {"m": 1, "p1d": 10}, "axes": [{"name": "N", "logspace": [1, math.inf]}]},
     ("sweep",)),
    ({"fixed": {"m": 1, "p1d": 10}, "axes": [{"name": "N", "logspace": [math.nan, 100]}]},
     ("sweep",)),
])
def test_ignored_inputs_are_rejected(tmp_path, capsys, config, argv):
    if config is not None:
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(config))
        argv = (argv[0], "--config", str(path)) + argv[1:]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_axis_provides_required_parameter(tmp_path, capsys):
    path = tmp_path / "m.yaml"
    path.write_text(yaml.safe_dump({"axes": [{"name": "m", "values": [2]}]}))
    code, out, _ = run_cli(capsys, "step", "--config", str(path), "--N", "100", "--p1d", "10")
    assert code == 0
    assert parse_csv(out)[0]["m"] == "2"


@pytest.mark.parametrize("argv, flag", [
    (("step", "--N", "100", "--m", "1", "--p1d", "10"), "--out"),
    (("accumulate", "--N", "50", "--m", "1", "--p1d", "10"), "--out"),
    (("sweep",), "--out"),
    (("bandgap", "--N", "20", "--xi", "20"), "--out"),
    (("bandgap", "--N", "20", "--xi", "20"), "--profile-out"),
    (("compare",), "--out"),
    (("fit", "{data}", "--x", "N", "--y", "p_success"), "--out"),
])
def test_unwritable_output_exits_1(tmp_path, capsys, argv, flag):
    data = tmp_path / "data.csv"
    data.write_text("N,p_success\n100,0.9\n200,0.95\n400,0.97\n800,0.98\n")
    argv = tuple(a.format(data=data) for a in argv)
    code, out, err = run_cli(capsys, *argv, flag, str(tmp_path / "missing" / "x.csv"))
    assert code == 1
    assert err.startswith("error: ")
    if flag == "--out":
        assert out == ""


@pytest.mark.parametrize("argv", [("bandgap", "--N", "20", "--xi", "20"), ("compare",)])
def test_empty_out_writes_to_stdout(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--out", "")
    assert code == 0
    assert out.count("\n") > 1
