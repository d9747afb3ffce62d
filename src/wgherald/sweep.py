"""Declarative parameter sweeps over the protocol simulators.

A sweep is a list of axes (each a parameter name with a value list or a
log-range), a dict of fixed parameters, and a (protocol, variant, mode)
selector.  TABLE is the one place that says which (protocol, variant) pairs
exist, which parameters and modes each reads, how it runs and which closed
form its row reports; a spec that sets anything its entry ignores is
rejected.  Points are enumerated lexicographically over the axes in the order
given, evaluated independently, and written as CSV or JSON lines with one row
per point; both formats write a non-finite number as the string inf, -inf or
nan, so every JSON line parses under a strict parser.  Rows that fail are
recorded in the `error` column and the sweep continues.  `jobs` caps the
processes evaluating points, this one included: the others are forked only
if the points' predicted times, which depend on their parameters alone, show
that the forks pay (see `run_sweep`).

Everything evaluated here is deterministic, so identical specs produce
byte-identical outputs apart from the wall-time column.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import os
import pickle
import signal
import sys
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import bandgap as bg
from . import formulas
from .basis import HPMode
from .dissipative import DissipativeParams
from .protocol import (
    run_accumulation,
    run_step,
    run_step_continuous_drive,
    run_step_fixed_ratio,
    run_step_fresh_level,
)

COLUMNS = (
    "protocol", "variant", "mode", "N", "m", "p1d", "gamma_s_ratio", "omega",
    "xi", "T", "p_success", "repetitions", "overlap_goal", "infidelity",
    "formula_p", "formula_infidelity", "rel_deviation", "wall_time_s", "error",
)

_DEFAULTS = {
    "protocol": "step",
    "variant": "pi-pulse",
    "mode": None,            # None = the entry's first mode, its library default
    "N": 100,
    "m": 1,
    "p1d": 10.0,
    "gamma_s_ratio": None,   # gamma_s / gamma_g; None = transfer-optimal
    "omega": None,           # drive strength; None = optimal
    "xi": 100.0,
    "T": None,               # evolution time; None = optimal
}
_CHOICES = ("protocol", "variant", "mode")
PARAMETERS = tuple(k for k in _DEFAULTS if k not in _CHOICES)
_OPTIONS = {"out": None, "jobs": 1, "jsonl": False}

# Seconds one forked worker costs its sweep: the fork, the copy-on-write page
# faults it causes in both processes, and the reaping.  Measured as the wall
# time of a cheap 18-point `cli.main` sweep at --jobs 2, less that at --jobs 1,
# plus half its points' time, on a 2-vCPU machine: 11-13 ms at 34 MB resident
# (a fresh `import wgherald.cli`) and 14 ms at 56 MB.
FORK_COST_S = 0.015

# A point's predicted seconds, from its parameters alone (TABLE's `cost`):
# STEP_S + EIG_S * d**3 per protocol step on a propagator of dimension d, and
# TRANSFER_S + TRANSFER_N_S * N per bandgap transfer.  Fitted to single points
# of every entry (N 40-5000, m 1-160, one BLAS thread, 2-vCPU machine).
STEP_S, EIG_S = 4e-4, 1e-8
TRANSFER_S, TRANSFER_N_S = 1.5e-3, 6.5e-6


class SweepConfigError(ValueError):
    """Bad sweep specification."""


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def bandgap_params(point: dict) -> bg.BandgapParams:
    """The bandgap model of a point; P_1d = inf means no free-space decay."""
    p1d = float(point["p1d"])
    if not p1d > 0:
        raise ValueError(f"p1d must be positive, not {p1d!r}")
    return bg.BandgapParams(N=int(point["N"]), xi=float(point["xi"]), m=int(point["m"]),
                            gamma_star=0.0 if math.isinf(p1d) else 1.0 / p1d)


# Runners fill a row from a point whose values _evaluate has converted.  They
# look the protocol functions up as module globals at call time.
def _step_row(res) -> dict:
    no_goal = res.overlap_goal is None
    return dict(T=res.T_used, p_success=res.p_success,
                overlap_goal="" if no_goal else res.overlap_goal,
                infidelity="" if no_goal else 1.0 - math.sqrt(res.overlap_goal))


def _pi_pulse_row(pt: dict) -> dict:
    params = DissipativeParams.from_purcell(pt["N"], pt["m"], pt["p1d"],
                                            gamma_s=pt["gamma_s_ratio"])
    return _step_row(run_step(params, pt["mode"], T=pt["T"]))


def _accumulation_row(pt: dict) -> dict:
    acc = run_accumulation(pt["N"], pt["m"], pt["p1d"], pt["mode"])
    last = acc.steps[-1]
    return dict(T=last.T_used, p_success=last.p_success, repetitions=acc.repetitions,
                overlap_goal=last.overlap_goal, infidelity=acc.infidelity,
                formula_infidelity=formulas.accumulation_infidelity_prediction(pt["N"], pt["m"]))


def _bandgap_row(pt: dict) -> dict:
    rec = bg.run_transfer(bandgap_params(pt))
    return dict(T=rec.optimal_time, p_success=rec.survival_probability,
                overlap_goal=1.0 - rec.infidelity, infidelity=rec.infidelity)


def _step_s(pt: dict, dim: int | None = None) -> float:
    """One step: dimension 3 in hp-approx, 2m + 1 (a parity sector) in hp-exact."""
    if dim is None:
        dim = 3 if pt["mode"] is HPMode.APPROX else 2 * max(pt["m"], 0) + 1
    return STEP_S + EIG_S * dim ** 3


def _accumulation_s(pt: dict) -> float:
    """Steps k = 1..m, at dimension 2k + 1 in hp-exact: n = m + 1 odd cubes sum
    to n^2 (2n^2 - 1), the first of them 1."""
    m = max(pt["m"], 0)
    if pt["mode"] is HPMode.APPROX:
        return m * _step_s(pt)
    n = m + 1
    return m * STEP_S + EIG_S * (n * n * (2 * n * n - 1) - 1)


class Entry(NamedTuple):
    """One (protocol, variant): the parameters its model reads, the modes it
    has (the default first), the runner that fills its row, its closed-form
    step probability and its predicted seconds."""

    reads: frozenset
    modes: tuple
    run: Callable[[dict], dict]
    formula: Callable[[dict], float]
    cost: Callable[[dict], float]


_EXACT_FIRST = (HPMode.EXACT.value, HPMode.APPROX.value)
_APPROX_FIRST = _EXACT_FIRST[::-1]
_APPROX = (HPMode.APPROX.value,)

TABLE = {
    ("step", "pi-pulse"): Entry(
        frozenset({"N", "m", "p1d", "gamma_s_ratio", "T"}), _APPROX_FIRST, _pi_pulse_row,
        lambda pt: formulas.p_double_mirrors(pt["N"], pt["m"], pt["p1d"]), _step_s),
    ("step", "fixed-ratio"): Entry(
        frozenset({"N", "m", "p1d"}), _APPROX_FIRST,
        lambda pt: _step_row(run_step_fixed_ratio(pt["N"], pt["m"], pt["p1d"], mode=pt["mode"])),
        lambda pt: formulas.p_fixed_ratio(pt["N"], pt["m"], pt["p1d"]), _step_s),
    ("step", "continuous-drive"): Entry(
        frozenset({"N", "m", "p1d", "omega", "T"}), _APPROX,
        lambda pt: _step_row(run_step_continuous_drive(pt["N"], pt["m"], pt["p1d"],
                                                       omega=pt["omega"], T=pt["T"])),
        lambda pt: formulas.p_continuous_drive(pt["N"], pt["m"], pt["p1d"]),
        # off the optimal drive and without a T, the herald peak is scanned for
        lambda pt: (3 if pt["omega"] is not None and pt["T"] is None else 1) * _step_s(pt, 5)),
    ("step", "fresh-level"): Entry(
        frozenset({"N", "p1d"}), _APPROX,
        lambda pt: _step_row(run_step_fresh_level(pt["N"], pt["p1d"])),
        lambda pt: formulas.p_fresh_level(pt["N"], pt["p1d"]), _step_s),
    ("accumulate", "pi-pulse"): Entry(
        frozenset({"N", "m", "p1d"}), _EXACT_FIRST, _accumulation_row,
        lambda pt: formulas.p_double_mirrors(pt["N"], pt["m"], pt["p1d"]), _accumulation_s),
    # the transfer has no variants or representations; rows echo the defaults
    ("bandgap", "pi-pulse"): Entry(
        frozenset({"N", "m", "p1d", "xi"}), _APPROX, _bandgap_row,
        lambda pt: bg.ideal_step_probability(bandgap_params(pt)),
        lambda pt: TRANSFER_S + TRANSFER_N_S * max(pt["N"], 0)),
}


@dataclass(frozen=True)
class SweepSpec:
    """Axes, fixed parameters, and output options for one sweep; `given`
    names the parameters a config or override set (the rest are defaults)."""

    axes: tuple[tuple[str, tuple], ...]
    fixed: dict
    out: str | None = None
    jobs: int = 1
    jsonl: bool = False
    given: frozenset = frozenset()

    @classmethod
    def from_config(cls, cfg: dict, overrides: dict | None = None) -> "SweepSpec":
        """Build a spec from a nested config dict; overrides win over it.  Rejects
        what the TABLE entry would not use and any value set for a swept axis."""
        cfg = dict(cfg or {})
        overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
        unknown = set(cfg) - {"fixed", "axes", *_CHOICES, *_OPTIONS}
        if unknown:
            raise SweepConfigError(f"unknown config key(s): {sorted(unknown)}")
        for key, kind, noun in (("fixed", dict, "mapping"), ("axes", list, "list")):
            if cfg.get(key) is not None and not isinstance(cfg[key], kind):
                raise SweepConfigError(f"config {key!r} must be a {noun}")
        fixed = dict(_DEFAULTS)
        fixed.update(cfg.get("fixed") or {})
        fixed.update({k: cfg[k] for k in _CHOICES if k in cfg})
        fixed.update({k: v for k, v in overrides.items() if k in _DEFAULTS})
        unknown = set(fixed) - set(_DEFAULTS)
        if unknown:
            raise SweepConfigError(f"unknown parameter(s): {sorted(unknown)}")
        pair = (fixed["protocol"], fixed["variant"])
        if pair not in TABLE:
            raise SweepConfigError(f"no (protocol, variant) pair {pair}; "
                                   f"choose from {list(TABLE)}")
        entry = TABLE[pair]
        if fixed["mode"] is None:
            fixed["mode"] = entry.modes[0]
        if fixed["mode"] not in entry.modes:
            raise SweepConfigError(f"{pair[0]} {pair[1]} has mode(s) {list(entry.modes)}, "
                                   f"not {fixed['mode']!r}")

        axes = []
        for ax in cfg.get("axes") or []:
            if not isinstance(ax, dict) or "name" not in ax:
                raise SweepConfigError("every axis needs a name")
            name = ax["name"]
            if name not in PARAMETERS:
                raise SweepConfigError(f"cannot sweep over {name!r}")
            keys = set(ax) - {"name"}
            if keys not in ({"values"}, {"logspace"}, {"logspace", "num"}):
                raise SweepConfigError(f"axis {name!r} takes 'values', or 'logspace' with an "
                                       f"optional 'num', not {sorted(map(str, keys))}")
            if "values" in ax:
                if not isinstance(ax["values"], (list, tuple)):
                    raise SweepConfigError(f"axis {name!r} values must be a list")
                values = list(ax["values"])
            else:
                bounds, num = ax["logspace"], ax.get("num", 5)
                if not (isinstance(bounds, (list, tuple)) and len(bounds) == 2
                        and all(map(_is_number, bounds)) and _is_int(num)):
                    raise SweepConfigError(f"axis {name!r} needs logspace: [lo, hi] and an "
                                           f"integer num")
                lo, hi = bounds
                if lo <= 0 or hi <= 0 or num < 1:
                    raise SweepConfigError("logspace needs positive bounds and num >= 1")
                values = list(np.geomspace(lo, hi, num))
                if name in ("N", "m"):
                    values = sorted(dict.fromkeys(int(round(v)) for v in values))
            if not values:
                raise SweepConfigError(f"axis {name!r} has no values")
            axes.append((name, tuple(values)))
        for name, values in (("N", (fixed["N"],)), ("m", (fixed["m"],)), *axes):
            if name in ("N", "m") and not all(map(_is_int, values)):
                raise SweepConfigError(f"{name} takes integers, not {list(values)}")
        names = [name for name, _ in axes]
        given = (set(cfg.get("fixed") or {}) | set(names) | set(overrides)) & set(PARAMETERS)
        unused = given - entry.reads
        if unused:
            raise SweepConfigError(f"{pair[0]} {pair[1]} does not read {sorted(unused)}")
        doubled = {n for n in names if names.count(n) > 1}
        doubled |= set(names) & (set(overrides) | set(cfg.get("fixed") or {}))
        if doubled:
            raise SweepConfigError(f"{sorted(doubled)} swept by an axis and also set")
        out, jobs, jsonl = (overrides.get(k, cfg.get(k, d)) for k, d in _OPTIONS.items())
        if not (_is_int(jobs) and jobs >= 1):
            raise SweepConfigError(f"jobs must be a positive integer, not {jobs!r}")
        if jobs > 1 and not hasattr(os, "fork"):
            raise SweepConfigError("jobs > 1 needs os.fork, which this platform lacks")
        if not (out is None or isinstance(out, str)):
            raise SweepConfigError(f"out must be a path, not {out!r}")
        if not isinstance(jsonl, bool):
            raise SweepConfigError(f"jsonl must be true or false, not {jsonl!r}")
        return cls(tuple(axes), fixed, out, int(jobs), jsonl, frozenset(given))

    def points(self) -> list[dict]:
        names = [name for name, _ in self.axes]
        return [{**self.fixed, **dict(zip(names, combo))}
                for combo in itertools.product(*(vals for _, vals in self.axes))]


def evaluate_point(point: dict) -> dict:
    """Run one sweep point; exceptions land in the error column."""
    return _evaluate(point, record_errors=True)


def run_point(point: dict) -> dict:
    """Run one point like evaluate_point, but let exceptions propagate."""
    return _evaluate(point, record_errors=False)


def _converted(point: dict) -> dict:
    """The point with its numbers and mode as the runners take them."""
    return dict(point, N=int(point["N"]), m=int(point["m"]), p1d=float(point["p1d"]),
                xi=float(point["xi"]), mode=HPMode(point["mode"]),
                **{k: None if point[k] is None else float(point[k])
                   for k in ("gamma_s_ratio", "omega", "T")})


def predicted_s(point: dict) -> float:
    """Seconds evaluate_point(point) is predicted to take, from the point's
    parameters alone (see STEP_S); 0 for a point that fails before it runs."""
    try:
        return TABLE[(point["protocol"], point["variant"])].cost(_converted(point))
    except (TypeError, ValueError, OverflowError):  # evaluate_point records it at once
        return 0.0


def _evaluate(point: dict, record_errors: bool) -> dict:
    """A row echoes the point's protocol, variant and mode and the parameters
    its TABLE entry reads; the other parameter cells stay empty."""
    row = dict.fromkeys(COLUMNS, "")
    row.update((key, point.get(key, "")) for key in _CHOICES)
    start = time.perf_counter()
    try:
        entry = TABLE[(point["protocol"], point["variant"])]
        row.update((key, point[key]) for key in entry.reads)
        pt = _converted(point)
        row.update(entry.run(pt))
        row["formula_p"] = fp = entry.formula(pt)
        if fp > 0:
            row["rel_deviation"] = abs(row["p_success"] - fp) / fp
    except Exception as exc:  # noqa: BLE001 - per-row failure is data
        if not record_errors:
            raise
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["wall_time_s"] = time.perf_counter() - start
    return row


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate all points on at most jobs = min(spec.jobs, points) processes
    and return the rows in axis order.

    Point i runs in process i mod jobs: process 0 is this one, and each other
    is an `os.fork` child that pickles its rows to a pipe.  Forked, the sweep
    lasts about its largest share of the points plus (jobs - 1) FORK_COST_S;
    if that, from the points' `predicted_s`, is no shorter than all points in
    a row, this process evaluates every point itself.  The choice depends on
    the spec alone, and the rows do not depend on it.  A child that dies or
    sends unreadable rows raises RuntimeError; on any exception the children
    still running are killed and reaped."""
    points = spec.points()
    jobs = min(spec.jobs, len(points))
    if jobs > 1:
        cost = [predicted_s(pt) for pt in points]
        if max(sum(cost[k::jobs]) for k in range(jobs)) + (jobs - 1) * FORK_COST_S >= sum(cost):
            jobs = 1
    rows = [None] * len(points)
    workers = []  # (index, pid, read end) of each child not yet reaped
    try:
        for k in range(1, jobs):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(points[k::jobs], write, [read, *(p.fileno() for _, _, p in workers)])
            os.close(write)
            workers.append((k, pid, os.fdopen(read, "rb")))
        rows[0::jobs] = [evaluate_point(pt) for pt in points[0::jobs]]
        while workers:
            k, pid, pipe = workers[0]
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[0]
            name = f"sweep worker {k} (pid {pid})"
            if code:
                raise RuntimeError(f"{name} " + (f"was killed by signal {-code}" if code < 0
                                                 else f"exited with status {code}"))
            try:
                rows[k::jobs] = pickle.loads(data)
            except (pickle.UnpicklingError, EOFError, ValueError) as exc:  # truncated, or short
                raise RuntimeError(f"{name} sent unreadable rows: {exc!r}") from exc
    finally:
        for _, pid, pipe in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return rows


def _worker(points: list[dict], write: int, read_ends: list[int]) -> None:
    """Body of a forked child: close the pipes' read ends, send the rows of
    `points` through `write` and leave by `os._exit`, so that the parent's
    stdio buffers are not flushed and its atexit handlers not run twice."""
    code = 1
    try:
        for fd in read_ends:
            os.close(fd)
        with os.fdopen(write, "wb") as fh:
            pickle.dump([evaluate_point(pt) for pt in points], fh)
        code = 0
    finally:
        os._exit(code)


def _cell(value):
    """A non-finite float as the string inf, -inf or nan, the rule both
    writers share; any other value as it is."""
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


def _format_cell(value) -> str:
    value = _cell(value)
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(COLUMNS)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(c, "")) for c in COLUMNS))
    return "\n".join(lines) + "\n"


def rows_to_jsonl(rows: list[dict]) -> str:
    return "\n".join(json.dumps({c: _cell(row.get(c, "")) for c in COLUMNS}, sort_keys=True)
                     for row in rows) + "\n"


def write_text(text: str, path: str | None) -> None:
    """Write text to path, or to stdout when path is None or empty."""
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_rows(rows: list[dict], path: str | None, jsonl: bool = False) -> None:
    """Write rows as CSV or JSON lines to path, or to stdout without one."""
    write_text(rows_to_jsonl(rows) if jsonl else rows_to_csv(rows), path)
