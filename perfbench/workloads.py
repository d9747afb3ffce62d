"""Seeded job lists, job execution and output checks for the three workloads.

Every workload runs as a closed loop: one job at a time in one process, the
next job starting when the previous one returns.  Jobs are generated in fixed
lists.  Each list is a Latin-hypercube sample of the workload's input ranges
(every input dimension is cut into as many equal-probability strata as the
list has jobs, one job per stratum), so two lists from different seeds hold
the same mix of cheap and expensive jobs and their wall times are
comparable.  List k of seed s is drawn from its own generator, so lists do
not depend on how many earlier lists a run managed to finish.

The program sees only the generated inputs: the numbers passed to the public
functions, and for `sweep-steps` a YAML config file and a CSV path.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

WORKLOADS = ("accumulate-exact", "bandgap-transfer", "sweep-steps")

# Jobs per fixed list.  Sweep jobs come in (--jobs 1, --jobs 2) pairs.
LIST_SIZE = {"accumulate-exact": 50, "bandgap-transfer": 50, "sweep-steps": 100}

# Bookkeeping and normalization identities hold to ~1e-14 on these inputs.
IDENTITY_TOL = 1e-9
# Reference comparison: relative tolerance on values, looser on times that
# come out of a golden-section search (its stopping tolerance is 1e-6).
REF_RTOL = 1e-6
REF_RTOL_TIME = 1e-5
REF_ATOL = 1e-12

_WORKLOAD_ID = {name: i for i, name in enumerate(WORKLOADS)}


def _strata(rng: np.random.Generator, n: int, centred: bool = False) -> np.ndarray:
    """n draws on (0, 1), one in each of n equal strata, shuffled.

    centred=True takes each stratum's midpoint.  It is used for the input that
    sets a job's cost (m_target, N), so that every list holds the same costs
    and the seed changes which inputs are combined, not how much work there is.
    """
    offsets = np.full(n, 0.5) if centred else rng.random(n)
    return (rng.permutation(n) + offsets) / n


def _log_uniform(u, lo: float, hi: float):
    return lo * (hi / lo) ** u


def list_rng(workload: str, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, _WORKLOAD_ID[workload], index])


def generate(workload: str, seed: int, index: int, size: int | None = None) -> list[dict]:
    """Job list `index` of `workload` for `seed`.

    `size` truncates the list (smoke runs); the truncated jobs are the first
    jobs of the full list, so reference values still apply to them.
    """
    n = LIST_SIZE[workload]
    rng = list_rng(workload, seed, index)
    jobs = _GENERATORS[workload](rng, n)
    return jobs if size is None else jobs[:size]


def _accumulate_jobs(rng, n):
    # run_accumulation(N, m_target, p1d, EXACT, refine_T); one job in five
    # re-optimizes T at m_target <= 6.  m_target = 2 + floor(39 u^3) puts
    # m >= 30 in the top decile: those jobs are eig-bound at dimension up to 161.
    n_refine = n // 5
    jobs = []
    for refine, count in ((False, n - n_refine), (True, n_refine)):
        u_n, u_p, u_m = _strata(rng, count), _strata(rng, count), _strata(rng, count, True)
        for i in range(count):
            m = 2 + min(4, int(5 * u_m[i])) if refine else 2 + min(38, int(39 * u_m[i] ** 3))
            jobs.append({
                "N": int(round(_log_uniform(u_n[i], 100, 1000))),
                "m_target": m,
                "p1d": round(float(_log_uniform(u_p[i], 3, 100)), 4),
                "refine_T": refine,
            })
    return [jobs[i] for i in rng.permutation(n)]


def _bandgap_jobs(rng, n):
    # run_transfer(BandgapParams(N, xi, gamma_star=1/p1d)).
    u_n, u_x, u_p = _strata(rng, n, True), _strata(rng, n), _strata(rng, n)
    jobs = []
    for i in range(n):
        N = int(round(_log_uniform(u_n[i], 40, 600)))
        jobs.append({
            "N": N,
            "xi": round(float(N * _log_uniform(u_x[i], 0.5, 8)), 4),
            "p1d": round(float(_log_uniform(u_p[i], 3, 100)), 4),
        })
    return jobs


# (variant, mode, N values, m values or None, with a non-default omega)
_SWEEP_KINDS = (
    ("pi-pulse", "hp-approx", 6, (1, 10, 3), False),
    ("pi-pulse", "hp-exact", 6, (1, 6, 2), False),
    ("fixed-ratio", "hp-approx", 6, (1, 10, 3), False),
    ("fresh-level", "hp-approx", 6, None, False),
    ("continuous-drive", "hp-approx", 4, (1, 10, 1), True),
)


def _distinct_ints(values) -> list[int]:
    out = []
    for v in sorted(int(round(x)) for x in values):
        out.append(max(v, out[-1] + 1) if out else v)
    return out


def _sweep_jobs(rng, n):
    # Each config is swept twice, first with --jobs 1 and then with --jobs 2,
    # and each sweep is followed by a power-law fit of p_success against N.
    n_cfg = n // 2
    kinds = [_SWEEP_KINDS[i % len(_SWEEP_KINDS)] for i in range(n_cfg)]
    kinds = [kinds[i] for i in rng.permutation(n_cfg)]
    jobs = []
    for variant, mode, n_values, m_axis, drive in kinds:
        cfg = {"protocol": "step", "variant": variant, "mode": mode,
               "fixed": {"p1d": round(float(_log_uniform(rng.random(), 3, 100)), 4)}}
        n_axis = _distinct_ints(_log_uniform(_strata(rng, n_values), 50, 1000))
        axes = [{"name": "N", "values": n_axis}]
        if m_axis is not None:
            lo, hi, count = m_axis
            m_vals = sorted(int(v) for v in rng.choice(np.arange(lo, hi + 1), count,
                                                       replace=False))
            axes.append({"name": "m", "values": m_vals})
        if drive:
            # the optimal drive is sqrt(2/3) sqrt(2N); a fixed omega off that
            # for every N forces the numerical scan over >= 1201 times
            g_mid = math.sqrt(2 * math.sqrt(n_axis[0] * n_axis[-1]))
            ratio = _log_uniform(rng.random(), 0.5, 2.0)
            cfg["fixed"]["omega"] = round(float(math.sqrt(2 / 3) * g_mid * ratio), 4)
        cfg["axes"] = axes
        for jobs_flag in (1, 2):
            jobs.append({"config": cfg, "jobs": jobs_flag})
    return jobs


_GENERATORS = {
    "accumulate-exact": _accumulate_jobs,
    "bandgap-transfer": _bandgap_jobs,
    "sweep-steps": _sweep_jobs,
}

# One small job per workload, run once after import and before timing.  It
# does not depend on the seed, so set-up time does not either.
WARMUP_JOB = {
    "accumulate-exact": {"N": 100, "m_target": 3, "p1d": 10.0, "refine_T": False},
    "bandgap-transfer": {"N": 40, "xi": 40.0, "p1d": 10.0},
    "sweep-steps": {"config": {"protocol": "step", "variant": "pi-pulse",
                               "mode": "hp-approx", "fixed": {"p1d": 10.0},
                               "axes": [{"name": "N", "values": [50, 100, 200, 400]}]},
                    "jobs": 1},
}


class Runner:
    """Runs jobs of one workload through wgherald's public functions.

    Functions are looked up on the package and on wgherald.cli at call time,
    so the tracer's wrappers take effect while they are installed.  `workdir`
    receives the sweep configs and CSV files.
    """

    def __init__(self, workload: str, workdir: str):
        import wgherald
        import wgherald.cli

        self.workload = workload
        self.workdir = workdir
        self.wgherald = wgherald
        self.cli = wgherald.cli
        self._counter = 0

    def prepare(self, job: dict) -> dict:
        """Write the job's input files (untimed); returns what `run` needs."""
        if self.workload != "sweep-steps":
            return job
        self._counter += 1
        stem = os.path.join(self.workdir, f"job{self._counter}")
        with open(stem + ".yaml", "w", encoding="utf-8") as fh:
            json.dump(job["config"], fh)  # JSON is valid YAML
        return dict(job, config_path=stem + ".yaml", csv_path=stem + ".csv")

    def run(self, job: dict):
        """Execute one job (the timed part) and return its raw outcome."""
        if self.workload == "accumulate-exact":
            w = self.wgherald
            return w.run_accumulation(job["N"], job["m_target"], job["p1d"],
                                      w.HPMode.EXACT, refine_T=job["refine_T"])
        if self.workload == "bandgap-transfer":
            w = self.wgherald
            return w.run_transfer(w.BandgapParams(job["N"], job["xi"],
                                                  gamma_star=1.0 / job["p1d"]))
        main = self.cli.main
        sweep_rc = main(["sweep", "--config", job["config_path"], "--out", job["csv_path"],
                         "--jobs", str(job["jobs"])])
        fit_out = io.StringIO()
        with contextlib.redirect_stdout(fit_out):
            fit_rc = main(["fit", job["csv_path"], "--x", "N", "--y", "p_success"])
        return {"sweep_rc": sweep_rc, "fit_rc": fit_rc, "fit": fit_out.getvalue()}

    def summarize(self, job: dict, outcome) -> tuple[dict, list[str]]:
        """Reference values of one outcome and the identity checks it fails.

        Also deletes the job's sweep files, which nothing reads afterwards.
        """
        if self.workload == "accumulate-exact":
            return _summarize_accumulation(job, outcome)
        if self.workload == "bandgap-transfer":
            return _summarize_transfer(outcome)
        summary, problems = _summarize_sweep(job, outcome)
        with contextlib.suppress(FileNotFoundError):
            os.remove(job["csv_path"])
        os.remove(job["config_path"])
        return summary, problems


def _summarize_accumulation(job, acc):
    problems = []
    if len(acc.steps) != job["m_target"]:
        problems.append(f"{len(acc.steps)} steps for m_target={job['m_target']}")
    for k, step in enumerate(acc.steps, start=1):
        d = step.diagnostics
        total = step.p_success + sum(d.channel_losses.values()) + d.unheralded_residual
        if not abs(total - 1.0) <= IDENTITY_TOL:
            problems.append(f"step {k}: p + losses + residual = {total!r}")
    last = acc.steps[-1]
    summary = {"infidelity": acc.infidelity, "repetitions": acc.repetitions,
               "p_success": last.p_success, "T": last.T_used}
    if not all(math.isfinite(v) for v in summary.values()):
        problems.append(f"non-finite result {summary}")
    return summary, problems


def _summarize_transfer(rec):
    problems = []
    total = float(np.sum(rec.intensity)) + rec.source_population_at_opt
    if not abs(total - 1.0) <= IDENTITY_TOL:
        problems.append(f"sum intensity + source population = {total!r}")
    lo, hi = rec.window
    if not lo <= rec.optimal_time <= hi:
        problems.append(f"optimal_time {rec.optimal_time!r} outside window {rec.window}")
    summary = {"T": rec.optimal_time, "infidelity": rec.infidelity,
               "p_success": rec.survival_probability,
               "source_population_at_opt": rec.source_population_at_opt}
    return summary, problems


def _summarize_sweep(job, out):
    problems = []
    if out["sweep_rc"] != 0:
        problems.append(f"sweep exit code {out['sweep_rc']}")
    if out["fit_rc"] != 0:
        problems.append(f"fit exit code {out['fit_rc']}")
    try:
        with open(job["csv_path"], encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        return {}, problems + ["sweep wrote no CSV"]
    rows = list(csv.DictReader(io.StringIO(text)))
    for i, row in enumerate(rows):
        if row["error"]:
            problems.append(f"row {i}: {row['error']}")
    fit = {line.split(",")[0]: line.split(",")[1]
           for line in out["fit"].splitlines()[1:] if "," in line}
    summary = {
        "rows_without_wall_time": _drop_column(text, "wall_time_s"),
        "p_success": [row["p_success"] for row in rows],
        "T": [row["T"] for row in rows],
        "fit_exponent": fit.get("exponent[N]", ""),
        "fit_prefactor": fit.get("prefactor", ""),
    }
    return summary, problems


def _drop_column(csv_text: str, column: str) -> str:
    lines = csv_text.splitlines()
    idx = lines[0].split(",").index(column)
    return "\n".join(",".join(c for j, c in enumerate(line.split(",")) if j != idx)
                     for line in lines)


def pair_problems(first: dict, second: dict) -> list[str]:
    """A --jobs 2 sweep must reproduce its --jobs 1 rows byte for byte."""
    if first.get("rows_without_wall_time") != second.get("rows_without_wall_time"):
        return ["--jobs 2 rows differ from --jobs 1 rows"]
    return []


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= REF_ATOL + rtol * abs(b)


def reference_problems(job: dict, summary: dict, ref: dict) -> list[str]:
    """Compare one job's summary with its recorded reference entry."""
    if ref["job"] != json.loads(json.dumps(job)):
        return ["reference inputs differ from generated inputs"]
    problems = []
    for key, want in ref["values"].items():
        got = summary.get(key)
        rtol = REF_RTOL_TIME if key == "T" else REF_RTOL
        wants = want if isinstance(want, list) else [want]
        gots = got if isinstance(got, list) else [got]
        if len(wants) != len(gots):
            problems.append(f"{key}: {len(gots)} values, reference has {len(wants)}")
            continue
        for g, w in zip(gots, wants):
            try:
                ok = _close(float(g), float(w), rtol)
            except (TypeError, ValueError):
                ok = False
            if not ok:
                problems.append(f"{key}: {g!r} != reference {w!r}")
    return problems
