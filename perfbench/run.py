"""wgherald benchmark: seeded workloads, end-to-end metrics, a traced run.

Run from the root of a wgherald checkout:

    python3 perfbench/run.py --workload accumulate-exact --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  Lines before it give each metric with its
unit and sample count, fail_ratio, and the environment record.  See
perfbench/README.md for the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
from scipy.special import betainc  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import COMPUTED, LAYER_METRICS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _source_digest(src: str) -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


def _git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _child_env(blas_threads: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    if blas_threads != "default":
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = blas_threads
    return env


def _worker(args: list[str], env: dict, workdir: str) -> str:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args, "--workdir", workdir]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {' '.join(args[:2])} failed:\n{proc.stderr[-2000:]}")
    return proc.stdout


def setup_seconds(workload: str, env: dict, workdir: str) -> list[float]:
    """Process start -> import wgherald -> warm-up job, once per fresh process.

    Not calibrated: set-up is mostly process start and imports, whose time
    does not follow the calibration kernel's.
    """
    samples = []
    for _ in range(SETUP_RUNS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        ready = float(_worker(["probe", workload], env, workdir))
        samples.append(ready - start)
    return samples


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A Beta-weighted mean of all order statistics, centred on rank q n.  The
    job costs of a list are lumpy (m_target and N are discrete), so a single
    order statistic jumps between neighbouring job kinds from run to run; the
    weighted mean does not.
    """
    ordered = np.sort(values)
    n = len(ordered)
    cdf = betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(cdf) @ ordered)


def run_workload(workload: str, seed: int, seconds: float, trace: int, blas_threads: str,
                 list_size: int | None, reference: str | None) -> tuple[dict, list[str]]:
    workdir = os.path.join(ROOT, ".perfbench_work", f"{os.getpid()}-{workload}")
    os.makedirs(workdir, exist_ok=True)
    try:
        env = _child_env(blas_threads)
        setup = [] if trace else setup_seconds(workload, env, workdir)
        result_path = os.path.join(workdir, "result.json")
        if reference is None:
            reference = os.path.join(HERE, "reference", f"{workload}.json")
        args = ["measure", workload, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace), "--result", result_path, "--reference", reference]
        if list_size is not None:
            args += ["--list-size", str(list_size)]
        _worker(args, env, workdir)
        with open(result_path, encoding="utf-8") as fh:
            raw = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            os.rmdir(os.path.dirname(workdir))

    attempted, failed = raw["attempted"], raw["failed"]
    env_record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "blas_threads_requested": blas_threads, **raw["environment"],
        "git_commit": _git_commit(), "src_sha256": _source_digest(
            os.path.join(ROOT, "src", "wgherald")),
    }
    lines = [f"workload {workload}  seed {seed}  trace {trace}",
             "env " + json.dumps(env_record, sort_keys=True)]
    if trace:
        metrics = {name: {"value": raw["layers"][name], "unit": unit}
                   for name, (unit, _) in LAYER_METRICS.items()}
        lines.append(f"list 0 wall: untraced {raw['untraced_wall']:.6g} s, traced "
                     f"{raw['traced_wall']:.6g} s (medians of {raw['passes']} passes each)")
        lines.append("per-layer totals for one pass over list 0:")
        for name, (unit, _) in LAYER_METRICS.items():
            note = "  (computed)" if name in COMPUTED else ""
            lines.append(f"  {name:48s} {raw['layers'][name]:.6g} {unit}{note}"
                         if unit == "s" else f"  {name:48s} {raw['layers'][name]} {unit}{note}")
    else:
        # calibrated (reported) and raw figures; see calibrate.py
        lists = raw["lists"]
        lat_raw = [t for t, _ in raw["latencies"]]
        lat = [t for _, t in raw["latencies"]]
        p90 = quantile(lat, 0.9)
        beyond = sum(t > p90 for t in lat)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(l["wall_cal"] for l in lists),
            "job_p50_ms": quantile(lat, 0.5) * 1e3,
            "job_p90_ms": p90 * 1e3,
            "cpu_s": statistics.median(l["cpu_cal"] for l in lists),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        raws = {
            "wall_s": statistics.median(l["wall"] for l in lists),
            "job_p50_ms": quantile(lat_raw, 0.5) * 1e3,
            "job_p90_ms": quantile(lat_raw, 0.9) * 1e3,
            "cpu_s": statistics.median(l["cpu"] for l in lists),
        }
        notes = {
            "setup_s": f"median of {len(setup)} fresh processes",
            "wall_s": f"median over {len(lists)} lists of {lists[0]['jobs']} jobs",
            "job_p50_ms": f"{len(lat)} jobs",
            "job_p90_ms": f"{len(lat)} jobs, {beyond} beyond p90",
            "cpu_s": "median per list, process and children",
            "peak_rss_mb": "max of process and children",
        }
        for name, value in raws.items():
            notes[name] = f"calibrated; raw {value:.6g}; {notes[name]}"
        lines.append("  mean calibration factor per list (reference / measured kernel time): "
                     + " ".join(f"{l['factor']:.4f}" for l in lists))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        for name, unit in END_TO_END.items():
            lines.append(f"  {name:12s} {values[name]:12.6g} {unit:5s} ({notes[name]})")
    lines.append(f"  {'fail_ratio':12s} {failed / attempted:12.6g} {'ratio':5s} "
                 f"({failed}/{attempted} jobs failed)")
    lines += [f"  failure: {msg}" for msg in raw["problems"]]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def _blas_threads(value: str) -> str:
    if value != "default" and not (value.isdigit() and int(value) > 0):
        raise argparse.ArgumentTypeError("expected a positive integer or 'default'")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wgherald benchmark")
    parser.add_argument("--workload", default="all", choices=(*wl.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per run (whole job lists)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--blas-threads", type=_blas_threads, default="1",
                        help="BLAS threads for the program ('default' leaves them unset)")
    parser.add_argument("--list-size", type=int, default=None,
                        help="truncate every job list (smoke runs only)")
    parser.add_argument("--reference", default=None,
                        help="reference file to check list 0 of seed 0 against")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "wgherald", "__init__.py")):
        sys.stderr.write(f"no wgherald sources under {ROOT}/src; "
                         "run from the root of a checkout\n")
        return 2
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name], lines = run_workload(
                name, args.seed, args.seconds, args.trace, args.blas_threads,
                args.list_size, args.reference)
            print("\n".join(lines), flush=True)
    except (BenchmarkError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
