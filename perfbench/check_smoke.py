"""Smoke test of the benchmark itself, at tiny job counts.

    python3 perfbench/check_smoke.py

Checks that every end-to-end and per-layer metric named in BENCHMARK.json is
printed with its unit, that a deliberately corrupted reference value makes
fail_ratio > 0, and that without wgherald's sources the benchmark exits
non-zero without a result.  Runs in about a minute; exits 1 on the first
failed check.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SCRATCH = os.path.join(ROOT, ".perfbench_work", f"smoke-{os.getpid()}")


def bench(*args: str, cwd: str = ROOT, run: str = RUN) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, run, "--seconds", "1", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics_printed(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        proc = bench("--workload", workload, "--list-size", "4", "--trace", "0")
        result = last_json(proc)
        assert result["failed"] == 0 and result["correct"], proc.stdout
        assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
        for metric in spec["end_to_end"]:
            got = result["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"] and got["value"] > 0, (metric, got)
            assert any(line.split()[:1] == [metric["name"]] and metric["unit"] in line.split()
                       for line in proc.stdout.splitlines()), metric["name"]
        assert "fail_ratio" in proc.stdout
        print(f"ok  {workload}: every end-to-end metric printed with its unit")

    proc = bench("--workload", "sweep-steps", "--list-size", "2", "--trace", "1")
    result = last_json(proc)
    assert result["failed"] == 0, proc.stdout
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["cli.main.calls"]["value"] == 4
    print("ok  sweep-steps: every per-layer metric printed with its unit")


def check_corrupted_reference() -> None:
    with open(os.path.join(HERE, "reference", "bandgap-transfer.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    ref["jobs"][0]["values"]["infidelity"] *= 1.001
    path = os.path.join(SCRATCH, "corrupted.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh)
    proc = bench("--workload", "bandgap-transfer", "--seed", "0", "--list-size", "2",
                 "--reference", path)
    result = last_json(proc)
    assert result["failed"] > 0 and not result["correct"], proc.stdout
    ratio = [line.split()[1] for line in proc.stdout.splitlines()
             if line.split()[:1] == ["fail_ratio"]]
    assert ratio and float(ratio[0]) > 0, proc.stdout
    print("ok  a corrupted reference value makes fail_ratio > 0")


def check_refuses_without_sources() -> None:
    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench("--workload", "sweep-steps", "--trace", "0", cwd=bare,
                 run=os.path.join(bare, "perfbench", "run.py"))
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok  without src/wgherald the benchmark exits non-zero and prints no result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(SCRATCH, exist_ok=True)
    try:
        check_refuses_without_sources()
        check_corrupted_reference()
        check_metrics_printed(spec)
    except AssertionError as exc:
        print(f"FAILED: {exc}")
        return 1
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(SCRATCH))
    return 0


if __name__ == "__main__":
    sys.exit(main())
