"""The (protocol, variant) table agrees with the code it dispatches to, and
`run_sweep` splits points over forked processes when the points' predicted
times show that the forks pay."""

import csv
import json
import math
import os
import signal
import time

import numpy as np
import pytest
import yaml

from wgherald import basis, sweep
from wgherald.cli import main
from wgherald.sweep import (
    PARAMETERS,
    TABLE,
    Entry,
    SweepConfigError,
    SweepSpec,
    predicted_s,
    run_point,
    run_sweep,
)

# a value for each parameter that differs from the small base point below
CHANGED = {"N": 60, "m": 3, "p1d": 20.0, "gamma_s_ratio": 3.0, "omega": 5.0,
           "xi": 5.0, "T": 2.0}


def base_point(protocol, variant):
    point = SweepSpec.from_config({"protocol": protocol, "variant": variant}).points()[0]
    # the bandgap transfer evolves m = 1 alone
    point.update(N=50, m=1 if protocol == "bandgap" else 2, p1d=10.0)
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
        if pair[0] == "bandgap" and key == "m":
            # an m the transfer refuses, which the closed form reads
            with pytest.raises(ValueError, match="m must be 1"):
                run_point(dict(base, m=value))
            formula_p = TABLE[pair].formula(sweep._converted(dict(base, m=value)))
            assert formula_p != row["formula_p"]
            continue
        changed = run_point(dict(base, **{key: value}))
        if key in TABLE[pair].reads:
            assert (changed["p_success"], changed["T"]) != (row["p_success"], row["T"]), key
            assert changed[key] == value, key
        else:
            # not even the row's own cell shows the changed value
            assert without_wall_time(changed) == without_wall_time(row), key
            if key != "T":  # T is also the result column
                assert row[key] == "", key


def sweep_config(jobs, N=(100, 200), m=(1, 2)):
    return {"protocol": "step", "mode": "hp-approx", "fixed": {"p1d": 10}, "jobs": jobs,
            "axes": [{"name": "N", "values": list(N)}, {"name": "m", "values": list(m)}]}


def tag_pid(monkeypatch, before=lambda: None):
    """Make every row carry the pid of the process that evaluated it, after
    calling `before` in that process."""
    evaluate = sweep.evaluate_point

    def tagged(point):
        before()
        return dict(evaluate(point), pid=os.getpid())
    monkeypatch.setattr(sweep, "evaluate_point", tagged)


def test_points_go_longest_first_to_the_least_loaded_process(monkeypatch, free_forks):
    # four points predicted equal alternate between the processes, caller
    # first; points of 1, 2, 3 and 4 ms split as m = 4 and 1 in the caller
    # and m = 3 and 2 in the child, 5 ms each
    tag_pid(monkeypatch)
    pids = [row["pid"] for row in run_sweep(SweepSpec.from_config(sweep_config(2)))]
    assert len(free_forks) == 1
    assert pids == [os.getpid(), free_forks[0]] * 2
    config = stub_entry(monkeypatch, lambda pt: 1e-3 * pt["m"])
    pids = [row["pid"] for row in run_sweep(SweepSpec.from_config(dict(config, jobs=2)))]
    assert len(free_forks) == 2
    assert pids == [os.getpid(), free_forks[1], free_forks[1], os.getpid()]
    points = SweepSpec.from_config(dict(config, jobs=2)).points()
    assert sweep._shares(points, 2) == [[3, 0], [2, 1]]


def test_ci_accumulate_sweep_splits_evenly():
    # N {200, 1000} x m {20, 40}: by index the two m = 40 points would share
    # one process (21.0 and 36.9 ms); longest first, each process gets one
    # m = 40 and one m = 20 point, 28.9 ms each
    config = {"protocol": "accumulate", "mode": "hp-exact", "fixed": {"p1d": 10},
              "axes": [{"name": "N", "values": [200, 1000]}, {"name": "m", "values": [20, 40]}]}
    points = SweepSpec.from_config(config).points()
    cost = [predicted_s(pt) for pt in points]
    shares = sweep._shares(points, 2)
    assert shares == [[1, 0], [3, 2]]
    for share in shares:
        assert sum(cost[i] for i in share) == pytest.approx(0.02892906, rel=1e-12)
    assert [sum(cost[k::2]) for k in range(2)] == pytest.approx([0.02095206, 0.03690606], rel=1e-12)


def test_more_jobs_than_points_forks_one_child_per_other_point(monkeypatch, free_forks):
    tag_pid(monkeypatch)
    spec = SweepSpec.from_config(sweep_config(5, N=(100,), m=(1, 2, 3)))
    pids = [row["pid"] for row in run_sweep(spec)]
    assert len(free_forks) == 2
    assert pids == [os.getpid(), *free_forks]


@pytest.mark.parametrize("jobs", [2, 3])
def test_cheap_sweep_starts_no_child(monkeypatch, forks, jobs):
    # four hp-approx steps predicted at STEP_S each: the forks would cost
    # more than the points they take over, so this process runs them all
    serial = run_sweep(SweepSpec.from_config(sweep_config(1)))
    tag_pid(monkeypatch)
    rows = run_sweep(SweepSpec.from_config(sweep_config(jobs)))
    assert forks == []
    assert [row.pop("pid") for row in rows] == [os.getpid()] * 4
    assert list(map(without_wall_time, rows)) == list(map(without_wall_time, serial))


def stub_entry(monkeypatch, cost, run=lambda pt: {"p_success": 1.0}):
    """Add a ("step", "stub") entry to TABLE, reading N and m and predicted
    to take cost(point) seconds, and return its sweep config at one N over
    m = 1..4."""
    monkeypatch.setitem(TABLE, ("step", "stub"), Entry(
        frozenset({"N", "m"}), ("hp-approx",), run, lambda pt: 0.0, cost))
    return {"protocol": "step", "variant": "stub",
            "axes": [{"name": "m", "values": [1, 2, 3, 4]}]}


@pytest.mark.parametrize("jobs, points", [(2, 4), (3, 4), (2, 2), (5, 3)],
                         ids=["2-jobs", "3-jobs", "2-jobs-2-points", "more-jobs-than-points"])
@pytest.mark.parametrize("scale, forked", [(0.99, False), (1.01, True)],
                         ids=["below", "above"])
def test_predicted_times_decide_whether_to_fork(monkeypatch, forks, jobs, points, scale,
                                                forked):
    # every point is predicted just below or just above the break-even time
    # c, at which the largest share, ceil(points / used) c, plus the
    # (used - 1) forks lasts as long as all points in a row
    used = min(jobs, points)
    break_even = (used - 1) * sweep.FORK_COST_S / (points - math.ceil(points / used))
    config = stub_entry(monkeypatch, lambda pt: scale * break_even)
    config["axes"][0]["values"] = list(range(1, points + 1))
    tag_pid(monkeypatch)
    pids = [row["pid"] for row in run_sweep(SweepSpec.from_config(dict(config, jobs=jobs)))]
    assert len(forks) == (used - 1 if forked else 0)
    # points predicted equal go round the processes in axis order, caller first
    owners = [os.getpid(), *forks]
    assert pids == [owners[i % len(owners)] for i in range(points)]


@pytest.mark.parametrize("points", [2, 4])
def test_slow_sweep_forks_and_finishes_sooner(monkeypatch, forks, points):
    # points of 0.15 s each, predicted as such: --jobs 2 forks one child,
    # which takes the odd points, and finishes well before --jobs 1
    config = stub_entry(monkeypatch, lambda pt: 0.15,
                        lambda pt: time.sleep(0.15) or {"p_success": 1.0})
    config["axes"][0]["values"] = list(range(1, points + 1))
    walls = []
    for jobs in (1, 2):
        start = time.perf_counter()
        rows = run_sweep(SweepSpec.from_config(dict(config, jobs=jobs)))
        walls.append(time.perf_counter() - start)
        assert [row["error"] for row in rows] == [""] * points
    assert len(forks) == 1
    assert walls[1] < 0.8 * walls[0]


@pytest.mark.parametrize("order", [(1, 2), (2, 1)])
def test_one_long_point_keeps_the_sweep_serial(monkeypatch, forks, order):
    # m = 2 is predicted at 1 s and m = 1 at 1 ms: whichever process took
    # the long point, forking would save 1 ms and cost FORK_COST_S
    config = stub_entry(monkeypatch, lambda pt: 1.0 if pt["m"] == 2 else 0.001)
    config["axes"][0]["values"] = list(order)
    run_sweep(SweepSpec.from_config(dict(config, jobs=2)))
    assert forks == []


def test_cheap_first_point_does_not_keep_the_sweep_serial(monkeypatch, forks):
    # hp-exact accumulations to m = 1, 60, 80 and 120 at N = 1000: three more
    # points of the first one's time would not pay for the fork, but the
    # points after it take far longer, so the sweep forks
    config = {"protocol": "accumulate", "mode": "hp-exact", "jobs": 2, "fixed": {"N": 1000},
              "axes": [{"name": "m", "values": [1, 60, 80, 120]}]}
    spec = SweepSpec.from_config(config)
    cost = [predicted_s(pt) for pt in spec.points()]
    assert 3 * cost[0] < 2 * sweep.FORK_COST_S
    assert sum(cost[1:]) > 10 * sweep.FORK_COST_S
    monkeypatch.setattr(sweep, "evaluate_point", lambda pt: {"m": pt["m"], "pid": os.getpid()})
    rows = run_sweep(spec)
    assert len(forks) == 1
    # m = 120 alone outlasts the other three: it runs here, they in the child
    assert rows == [{"m": m, "pid": pid} for m, pid in
                    zip((1, 60, 80, 120), [forks[0]] * 3 + [os.getpid()])]


def test_predicted_times_follow_the_parameters():
    # a deterministic function of the point: more quanta, more atoms or a
    # longer accumulation never predict less, and a failing point predicts 0
    def cost(config, **fixed):
        point = SweepSpec.from_config(dict(config, fixed=fixed)).points()[0]
        return predicted_s(point)
    exact = {"protocol": "step", "mode": "hp-exact"}
    assert cost(exact, m=1) < cost(exact, m=20) < cost(exact, m=40)
    assert cost({"protocol": "step", "mode": "hp-approx"}, m=40) == sweep.STEP_S + 27 * sweep.EIG_S
    acc = {"protocol": "accumulate", "mode": "hp-exact"}
    assert cost(acc, m=3) == pytest.approx(3 * sweep.STEP_S + (27 + 125 + 343) * sweep.EIG_S)
    assert cost(acc, m=40) > 40 * cost(exact, m=1)
    assert cost({"protocol": "bandgap"}, N=40) < cost({"protocol": "bandgap"}, N=5000)
    drive = {"protocol": "step", "variant": "continuous-drive"}
    assert cost(drive, omega=20.0) == 3 * cost(drive)
    point = SweepSpec.from_config({"protocol": "step"}).points()[0]
    assert predicted_s(dict(point, p1d="many")) == 0.0


@pytest.mark.parametrize("free", [False, True], ids=["default-cost", "free-forks"])
def test_error_row_at_point_0_keeps_the_split(monkeypatch, forks, free):
    # point 0 (m = 80 > N = 50) fails at once; whether the sweep forks or
    # not, every row lands at its point and the failure stays in its row
    config = {"protocol": "step", "mode": "hp-approx", "fixed": {"p1d": 10, "N": 50},
              "axes": [{"name": "m", "values": [80, 1, 2, 3, 4]}]}
    serial = run_sweep(SweepSpec.from_config(dict(config, jobs=1)))
    if free:
        monkeypatch.setattr(sweep, "FORK_COST_S", 0.0)
    tag_pid(monkeypatch)
    rows = run_sweep(SweepSpec.from_config(dict(config, jobs=2)))
    assert len(forks) == (1 if free else 0)
    # the five hp-approx steps are predicted equal (m is not checked against N
    # before the point runs), so they go round the processes, caller first
    owners = [os.getpid(), *forks]
    assert [row.pop("pid") for row in rows] == [owners[i % len(owners)] for i in range(5)]
    assert list(map(without_wall_time, rows)) == list(map(without_wall_time, serial))
    assert serial[0]["error"].startswith("ValueError: need integers 1 <= m <= N")
    assert [row["error"] for row in serial[1:]] == [""] * 4


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("death, message", [
    (lambda: os._exit(3), "exited with status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"was killed by signal {signal.SIGKILL:d}"),
    (lambda: os._exit(0), "sent unreadable rows"),
], ids=["exit-status", "killed", "no-rows"])
def test_dying_worker_fails_loudly(monkeypatch, tmp_path, capsys, free_forks, death,
                                   message):
    caller = os.getpid()
    tag_pid(monkeypatch, lambda: os.getpid() != caller and death())
    with pytest.raises(RuntimeError, match=rf"sweep worker 1 \(pid \d+\) {message}"):
        run_sweep(SweepSpec.from_config(sweep_config(2)))
    assert len(free_forks) == 1
    assert_no_child_left()

    config, out = tmp_path / "sweep.yaml", tmp_path / "f.csv"
    config.write_text(yaml.safe_dump(sweep_config(2)))
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
    assert len(free_forks) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert_no_child_left()


def test_interrupted_caller_kills_and_reaps_its_children(monkeypatch, free_forks):
    caller = os.getpid()

    def interrupt_or_stall():
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)
    tag_pid(monkeypatch, interrupt_or_stall)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_sweep(SweepSpec.from_config(sweep_config(3)))
    assert len(free_forks) == 2
    assert_no_child_left()
    assert time.monotonic() - start < 30


def test_jobs_above_one_need_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    with pytest.raises(SweepConfigError, match="os.fork"):
        SweepSpec.from_config(sweep_config(2))
    assert SweepSpec.from_config(sweep_config(1)).jobs == 1


def test_numeric_parameters_refuse_bools(tmp_path, capsys):
    # YAML's true, yes and no load as bools, which the runners' float() would
    # take as 1 or 0: a bool is refused for every parameter, fixed, on an
    # axis or as an override, and the command exits 1 before any point runs;
    # N and m take integers
    for name, (kind, _, _) in PARAMETERS.items():
        protocol, variant = next(pair for pair, e in TABLE.items() if name in e.reads)
        cfg = {"protocol": protocol, "variant": variant}
        noun = "integers" if kind is int else "numbers"
        for config, overrides in (({**cfg, "fixed": {name: True}}, None),
                                  ({**cfg, "axes": [{"name": name, "values": [2, True]}]}, None),
                                  (cfg, {name: False}), (cfg, {name: np.False_})):
            with pytest.raises(SweepConfigError, match=f"{name} takes {noun}"):
                SweepSpec.from_config(config, overrides)
    for command, fixed in (("step", "{N: 100, m: 1, p1d: true}"),
                           ("step", "{N: 100, m: 1, p1d: 10, T: yes}"),
                           ("bandgap", "{xi: true}")):
        path = tmp_path / "bool.yaml"
        path.write_text(f"fixed: {fixed}\n")
        assert main([command, "--config", str(path)]) == 1
        assert "takes numbers" in capsys.readouterr().err


def test_numeric_parameters_refuse_strings(tmp_path, capsys):
    # a quoted number would run through the runners' float() and be echoed
    # as written, and any other string would fail there as a ValueError; a
    # string is refused like a bool, and YAML's bare inf is a string too
    for name in ("p1d", "gamma_s_ratio", "omega", "xi", "T"):
        protocol, variant = next(pair for pair, e in TABLE.items() if name in e.reads)
        cfg = {"protocol": protocol, "variant": variant}
        for config, overrides in (({**cfg, "fixed": {name: "1e1"}}, None),
                                  ({**cfg, "axes": [{"name": name, "values": [2.0, "3"]}]}, None),
                                  (cfg, {name: "inf"})):
            with pytest.raises(SweepConfigError, match=f"{name} takes numbers"):
                SweepSpec.from_config(config, overrides)
    # a list, a mapping or a null would fail in the runners' float() as a
    # TypeError: each is refused for every parameter, fixed, on an axis or as
    # an override, a null only where the default is not None (a null
    # override leaves the parameter unset)
    for name, (kind, default, _) in PARAMETERS.items():
        protocol, variant = next(pair for pair, e in TABLE.items() if name in e.reads)
        cfg = {"protocol": protocol, "variant": variant}
        noun = "integers" if kind is int else "numbers"
        for value in ([10], {"a": 1}, *([None] if default is not None else [])):
            for config, overrides in (({**cfg, "fixed": {name: value}}, None),
                                      ({**cfg, "axes": [{"name": name, "values": [value, 20]}]},
                                       None),
                                      (cfg, {name: value})):
                if value is None and overrides:
                    continue
                with pytest.raises(SweepConfigError, match=f"{name} takes {noun}"):
                    SweepSpec.from_config(config, overrides)
    for command, config, shown in (
            ("step", '{fixed: {N: 100, m: 1, p1d: "1e1"}}', "p1d takes numbers, not ['1e1']"),
            ("step", '{fixed: {N: 100, m: 1, p1d: "abc"}}', "p1d takes numbers, not ['abc']"),
            ("step", "{fixed: {N: 100, m: 1, p1d: inf}}", "p1d takes numbers, not ['inf']"),
            ("step", "{fixed: {N: 100, m: 1, p1d: [10]}}", "p1d takes numbers, not [[10]]"),
            ("step", "{fixed: {N: 100, m: 1, p1d: null}}", "p1d takes numbers, not [None]"),
            ("step", "{fixed: {N: 100, m: 1, p1d: 10, T: {a: 1}}}",
             "T takes numbers, not [{'a': 1}]"),
            ("step", "{fixed: {N: [100], m: 1, p1d: 10}}", "N takes integers, not [[100]]"),
            ("sweep", "{fixed: {N: 100, m: 1}, axes: [{name: p1d, values: [[10], 20]}]}",
             "p1d takes numbers, not [[10], 20]")):
        path = tmp_path / "string.yaml"
        path.write_text(f"{config}\n")
        assert main([command, "--config", str(path)]) == 1
        assert shown in capsys.readouterr().err
    path.write_text("fixed: {N: 100, m: 1, p1d: .inf}\n")
    assert main(["step", "--config", str(path)]) == 0
    # None is the optimum where it is the default
    for config in ("fixed: {N: 100, m: 1, p1d: 10, gamma_s_ratio: null, T: null}",
                   "{variant: continuous-drive, fixed: {N: 100, m: 1, p1d: 10, omega: null}}"):
        path.write_text(f"{config}\n")
        assert main(["step", "--config", str(path)]) == 0


def test_exact_sweep_rows_do_not_depend_on_jobs_or_on_bases_built_before(tmp_path, free_forks):
    # forked children inherit the caller's bases and the terms recorded on
    # them: from a cold cache, and again after the caller has built every
    # basis, --jobs 2 writes the cells --jobs 1 writes, apart from wall_time_s
    config = tmp_path / "sweep.yaml"
    config.write_text(yaml.safe_dump({
        "protocol": "accumulate", "mode": "hp-exact", "fixed": {"p1d": 10},
        "axes": [{"name": "N", "values": [30, 200, 1000]}, {"name": "m", "values": [2, 5, 8]}]}))
    basis._build_basis.cache_clear()
    tables = []
    for i, jobs in enumerate((2, 1, 2)):
        out = tmp_path / f"rows{i}.csv"
        argv = ["sweep", "--config", str(config), "--out", str(out), "--jobs", str(jobs)]
        assert main(argv) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        wall = rows[0].index("wall_time_s")
        tables.append([row[:wall] + row[wall + 1:] for row in rows])
    assert len(free_forks) == 2
    assert len(tables[0]) == 10
    assert tables[0] == tables[1] == tables[2]


def _strict(constant):
    raise ValueError(f"bare JSON constant {constant}")


def test_non_finite_cells_are_written_alike_in_csv_and_jsonl(tmp_path):
    # both writers give -inf, inf and nan as those strings, so -inf keeps its
    # sign and every JSON line parses without a bare NaN or Infinity token
    config = tmp_path / "sweep.yaml"
    config.write_text("protocol: step\nfixed: {N: 100}\n"
                      "axes: [{name: T, values: [-.inf, .inf, 0.05]},"
                      " {name: p1d, values: [.nan, 10.0]}]\n")
    for suffix, flags in (("csv", []), ("jsonl", ["--jsonl"])):
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / f"rows.{suffix}"),
                     *flags]) == 0
    with open(tmp_path / "rows.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    lines = [json.loads(line, parse_constant=_strict)
             for line in (tmp_path / "rows.jsonl").read_text().splitlines()]
    cells = [(t, p) for t in ("-inf", "inf", "0.05") for p in ("nan", "10")]
    assert [(row["T"], row["p1d"]) for row in table] == cells
    assert [(row["T"], row["p1d"]) for row in lines] == [
        (t, p) for t in ("-inf", "inf", 0.05) for p in ("nan", 10.0)]
    assert lines[1]["error"].endswith("not -inf") and lines[3]["error"].endswith("not inf")
    assert table[5]["error"] == lines[5]["error"] == ""
    assert table[5]["p_success"] == format(lines[5]["p_success"], ".12g")


def test_a_drive_too_fast_for_its_scan_is_an_error_row(tmp_path):
    # a driven step refused for a drive its time scan cannot resolve leaves
    # its message in the row's error column, and the sweep goes on
    config = tmp_path / "sweep.yaml"
    config.write_text("protocol: step\nvariant: continuous-drive\nfixed: {N: 100, m: 1, p1d: 10}\n"
                      "axes: [{name: omega, values: [1.0e+6, 1.0e+3]}]\n")
    path = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(config), "--out", str(path)]) == 0
    with open(path, newline="") as fh:
        table = list(csv.DictReader(fh))
    assert table[0]["error"].startswith("ProtocolError: drive strength omega 1000000.0")
    assert table[1]["error"] == "" and float(table[1]["p_success"]) > 0.0


def test_write_table_renders_every_cell_type(tmp_path, capsys):
    # the one CSV format: a float of either type to 12 significant digits or
    # as inf, -inf or nan, an int or a bool by str(), None as an empty cell,
    # and quotes only around a cell holding a comma or a quote (doubled)
    header = ("name", "value", "note")
    rows = [("py", 1 / 3, ""), ("np", np.float64(2e-20), True),
            ("int", 12345678901234, False), ("inf", math.inf, -math.inf),
            ("nan", math.nan, None), ("text", 0.5, 'a, "b"')]
    want = ('name,value,note\n'
            'py,0.333333333333,\n'
            'np,2e-20,True\n'
            'int,12345678901234,False\n'
            'inf,inf,-inf\n'
            'nan,nan,\n'
            'text,0.5,"a, ""b"""\n')
    path = tmp_path / "table.csv"
    sweep.write_table(header, rows, str(path))
    sweep.write_table(header, rows, None)
    assert path.read_text() == capsys.readouterr().out == want


def test_error_cells_keep_every_csv_row_as_wide_as_the_header(tmp_path):
    # an error message holding a comma is quoted, so a CSV reader sees each
    # row's cells under the header's names and the message whole; a row with
    # no comma, quote or line break in any cell is its cells joined by commas
    config = tmp_path / "sweep.yaml"
    config.write_text("protocol: step\nfixed: {N: 100}\n"
                      "axes: [{name: T, values: [-.inf, 0.05]},"
                      " {name: p1d, values: [.nan, 10.0]}]\n")
    path = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(config), "--out", str(path)]) == 0
    with open(path, newline="") as fh:
        table = list(csv.DictReader(fh))
    assert len(table) == 4
    for row in table:
        assert list(row) == list(sweep.COLUMNS) and None not in row.values()
    assert [row["error"] for row in table] == [
        "ValueError: p1d must be positive, not nan",
        "ValueError: evolution time T must be positive and finite, not -inf",
        "ValueError: p1d must be positive, not nan",
        ""]
    last = path.read_text().splitlines()[-1]
    assert last == ",".join(table[-1].values())
