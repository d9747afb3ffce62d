"""The (protocol, variant) table agrees with the code it dispatches to, and
`run_sweep` splits points over forked processes when the points' predicted
times show that the forks pay."""

import csv
import json
import math
import os
import signal
import time

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


def test_point_i_runs_in_process_i_mod_jobs(monkeypatch, free_forks):
    tag_pid(monkeypatch)
    pids = [row["pid"] for row in run_sweep(SweepSpec.from_config(sweep_config(2)))]
    assert len(free_forks) == 1
    assert pids[0] == pids[2] == os.getpid()
    assert pids[1] == pids[3] == free_forks[0]


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
    # hp-exact accumulations to m = 1, 30, 40 and 50: three more points of
    # the first one's time would not pay for the fork, but the points after
    # it take far longer, so the sweep forks
    config = {"protocol": "accumulate", "mode": "hp-exact", "jobs": 2,
              "axes": [{"name": "m", "values": [1, 30, 40, 50]}]}
    spec = SweepSpec.from_config(config)
    cost = [predicted_s(pt) for pt in spec.points()]
    assert 3 * cost[0] < 2 * sweep.FORK_COST_S
    assert sum(cost[1:]) > 10 * sweep.FORK_COST_S
    monkeypatch.setattr(sweep, "evaluate_point", lambda pt: {"m": pt["m"], "pid": os.getpid()})
    rows = run_sweep(spec)
    assert len(forks) == 1
    assert rows == [{"m": m, "pid": pid} for m, pid in
                    zip((1, 30, 40, 50), [os.getpid(), forks[0]] * 2)]


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
    assert cost({"protocol": "step"}, p1d="many") == 0.0


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
    owners = [os.getpid(), *forks]
    assert [row.pop("pid") for row in rows] == [owners[i % len(owners)] for i in range(5)]
    assert list(map(without_wall_time, rows)) == list(map(without_wall_time, serial))
    assert serial[0]["error"].startswith("BasisError")
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
