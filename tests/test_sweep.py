"""The (protocol, variant) table agrees with the code it dispatches to, and
`run_sweep` splits points over forked processes."""

import math
import os
import signal
import time

import pytest
import yaml

from wgherald import sweep
from wgherald.cli import main
from wgherald.sweep import PARAMETERS, TABLE, SweepConfigError, SweepSpec, run_point, run_sweep

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


def test_point_i_runs_in_process_i_mod_jobs(monkeypatch):
    tag_pid(monkeypatch)
    pids = [row["pid"] for row in run_sweep(SweepSpec.from_config(sweep_config(2)))]
    assert pids[0] == pids[2] == os.getpid()
    assert pids[1] == pids[3] != os.getpid()


def test_more_jobs_than_points_forks_one_child_per_other_point(monkeypatch):
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counting_fork)
    tag_pid(monkeypatch)
    spec = SweepSpec.from_config(sweep_config(5, N=(100,), m=(1, 2, 3)))
    pids = [row["pid"] for row in run_sweep(spec)]
    assert len(forks) == 2
    assert pids == [os.getpid(), *forks]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("death, message", [
    (lambda: os._exit(3), "exited with status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"was killed by signal {signal.SIGKILL:d}"),
    (lambda: os._exit(0), "sent unreadable rows"),
], ids=["exit-status", "killed", "no-rows"])
def test_dying_worker_fails_loudly(monkeypatch, tmp_path, capsys, death, message):
    caller = os.getpid()
    tag_pid(monkeypatch, lambda: os.getpid() != caller and death())
    with pytest.raises(RuntimeError, match=rf"sweep worker 1 \(pid \d+\) {message}"):
        run_sweep(SweepSpec.from_config(sweep_config(2)))
    assert_no_child_left()

    config, out = tmp_path / "sweep.yaml", tmp_path / "f.csv"
    config.write_text(yaml.safe_dump(sweep_config(2)))
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert_no_child_left()


def test_interrupted_caller_kills_and_reaps_its_children(monkeypatch):
    caller = os.getpid()

    def interrupt_or_stall():
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)
    tag_pid(monkeypatch, interrupt_or_stall)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_sweep(SweepSpec.from_config(sweep_config(3)))
    assert_no_child_left()
    assert time.monotonic() - start < 30


def test_jobs_above_one_need_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    with pytest.raises(SweepConfigError, match="os.fork"):
        SweepSpec.from_config(sweep_config(2))
    assert SweepSpec.from_config(sweep_config(1)).jobs == 1
