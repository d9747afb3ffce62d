"""Child process of the benchmark: one set-up probe or one measured run.

    worker.py probe WORKLOAD
        import wgherald, run the workload's warm-up job, print the monotonic
        clock and exit; the parent times set-up from before it started the
        probe.
    worker.py measure WORKLOAD --seed S --seconds T --result PATH [...]
        run job lists until T seconds are used up and write the raw
        measurements (JSON) to PATH.
    worker.py record WORKLOAD --result PATH
        write reference values of list 0 of the default seed to PATH.

wgherald is imported from the PYTHONPATH the parent sets (the checkout's
src/ directory).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import workloads as wl
from calibrate import Kernel, local_factors

DEFAULT_SEED = 0
# Enough jobs that the p90 latency rests on about ten samples beyond it.
MIN_JOBS = 100


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def environment() -> dict:
    """Library versions and BLAS threading as this process sees them."""
    import ctypes
    import glob
    import platform

    import numpy as np
    import scipy

    import wgherald

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "wgherald_file": wgherald.__file__,
    }


def _run_list(runner: wl.Runner, jobs: list[dict], refs: list | None, tracer=None,
              kernel: Kernel | None = None):
    """Run one job list; returns per-job latency and CPU, and failure messages.

    With a kernel, the calibration kernel is timed after every job, outside
    the job's latency and CPU time.
    """
    prepared = [runner.prepare(job) for job in jobs]
    outcomes, latencies, cpu, samples = [], [], [], []
    for i, job in enumerate(prepared):
        if tracer is not None:
            tracer.job = i
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        try:
            outcome = runner.run(job)
        except Exception:  # noqa: BLE001 - a failed job is a measurement
            outcome = traceback.format_exc(limit=3)
        latencies.append(time.perf_counter() - start)
        cpu.append(_cpu_seconds() - cpu0)
        outcomes.append(outcome)
        if kernel is not None:
            samples.append(kernel.time_once())

    problems: list[list[str]] = []
    summaries = []
    for i, (job, outcome) in enumerate(zip(prepared, outcomes)):
        if isinstance(outcome, str):
            summaries.append({})
            problems.append([f"exception: {outcome.strip().splitlines()[-1]}"])
            continue
        summary, found = runner.summarize(job, outcome)
        summaries.append(summary)
        if runner.workload == "sweep-steps" and job["jobs"] == 2:
            found += wl.pair_problems(summaries[i - 1], summary)
        if refs is not None and i < len(refs):
            found += wl.reference_problems(jobs[i], summary, refs[i])
        problems.append(found)
    return {"wall": sum(latencies), "latencies": latencies, "cpu": cpu,
            "kernel": samples, "problems": problems, "summaries": summaries}


def measure(args) -> dict:
    runner = wl.Runner(args.workload, args.workdir)
    runner.run(runner.prepare(wl.WARMUP_JOB[args.workload]))
    refs = None
    if args.seed == DEFAULT_SEED and args.reference:
        with open(args.reference, encoding="utf-8") as fh:
            refs = json.load(fh)["jobs"]

    failures, attempted = [], 0
    begin = time.perf_counter()
    if args.trace:
        from tracer import Tracer, combine, count_mismatches

        tracer = Tracer()
        jobs = wl.generate(args.workload, args.seed, 0, args.list_size)
        passes, plain_walls, traced_walls = [], [], []
        # Alternate untraced and traced passes over list 0 (changing which
        # goes first) so that slow drift of the machine cancels in the
        # overhead; stop when the next pair would overrun the time.
        while True:
            for traced in ((False, True) if len(passes) % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                    first = len(tracer.spans)
                try:
                    res = _run_list(runner, jobs, refs, tracer if traced else None)
                finally:
                    tracer.uninstall()
                if traced:
                    passes.append(tracer.layer_metrics(first, len(tracer.spans)))
                    traced_walls.append(res["wall"])
                else:
                    plain_walls.append(res["wall"])
                attempted += len(jobs)
                failures += [p for p in res["problems"] if p]
            elapsed = time.perf_counter() - begin
            if elapsed + elapsed / len(passes) > args.seconds:
                break
        plain, traced = statistics.median(plain_walls), statistics.median(traced_walls)
        layers = combine(passes, traced - plain)
        for name in count_mismatches(passes):
            failures.append([f"count {name} differs between passes over the same jobs"])
        result = {"layers": layers, "passes": len(passes), "untraced_wall": plain,
                  "traced_wall": traced}
    else:
        kernel = Kernel()
        lists, latencies, index = [], [], 0
        while True:
            jobs = wl.generate(args.workload, args.seed, index, args.list_size)
            list_start = time.perf_counter()
            res = _run_list(runner, jobs, refs if index == 0 else None, kernel=kernel)
            list_seconds = time.perf_counter() - list_start
            scale = local_factors(res["kernel"])
            lat_cal = [t * f for t, f in zip(res["latencies"], scale)]
            lists.append({"jobs": len(jobs), "wall": res["wall"], "wall_cal": sum(lat_cal),
                          "cpu": sum(res["cpu"]),
                          "cpu_cal": sum(c * f for c, f in zip(res["cpu"], scale)),
                          "factor": statistics.fmean(scale)})
            latencies += [[t, c] for t, c in zip(res["latencies"], lat_cal)]
            attempted += len(jobs)
            failures += [p for p in res["problems"] if p]
            index += 1
            elapsed = time.perf_counter() - begin
            enough_jobs = attempted >= MIN_JOBS or args.list_size is not None
            if enough_jobs and elapsed + list_seconds > args.seconds:
                break
        result = {"lists": lists, "latencies": latencies}
    result.update(attempted=attempted, failed=len(failures),
                  problems=[msg for p in failures[:10] for msg in p[:3]],
                  peak_rss_mb=_peak_rss_mb(), environment=environment())
    return result


def record(args) -> dict:
    """Reference values of list 0 at the default seed, from this program."""
    runner = wl.Runner(args.workload, args.workdir)
    jobs = wl.generate(args.workload, DEFAULT_SEED, 0)
    res = _run_list(runner, jobs, None)
    bad = [p for p in res["problems"] if p]
    if bad:
        raise SystemExit(f"refusing to record a reference that fails its checks: {bad[:3]}")
    entries = []
    for job, summary in zip(jobs, res["summaries"]):
        if job.get("jobs") == 2:
            summary = {}  # checked against its --jobs 1 twin instead
        values = {k: v for k, v in summary.items() if k != "rows_without_wall_time"}
        entries.append({"job": job, "values": values})
    return {"workload": args.workload, "seed": DEFAULT_SEED,
            "environment": environment(), "jobs": entries}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("probe", "measure", "record"))
    parser.add_argument("workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-size", type=int, default=None)
    parser.add_argument("--reference", default=None)
    parser.add_argument("--workdir", default=".")
    parser.add_argument("--result", default=None)
    args = parser.parse_args(argv)

    if args.mode == "probe":
        runner = wl.Runner(args.workload, args.workdir)
        runner.run(runner.prepare(wl.WARMUP_JOB[args.workload]))
        print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
        return 0
    result = measure(args) if args.mode == "measure" else record(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        if args.mode == "record":  # one job per line, for readable diffs
            entries = result.pop("jobs")
            fh.write(json.dumps(result)[:-1] + ', "jobs": [\n')
            fh.write(",\n".join(json.dumps(e) for e in entries) + "\n]}\n")
        else:
            json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
