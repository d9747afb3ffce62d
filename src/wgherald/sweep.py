"""Declarative parameter sweeps over the protocol simulators.

A sweep is a list of axes (each a parameter name with a value list or a
log-range), a dict of fixed parameters, and a protocol selector.  Points are
enumerated lexicographically over the axes in the order given, evaluated
independently (optionally on a process pool), and written as CSV or JSON
lines with one row per point.  Rows that fail are recorded in the `error`
column and the sweep continues.

Everything evaluated here is deterministic, so identical specs produce
byte-identical outputs apart from the wall-time column.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass
from multiprocessing import Pool

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

PROTOCOLS = ("step", "accumulate", "bandgap")
VARIANTS = ("pi-pulse", "fixed-ratio", "continuous-drive", "fresh-level")
# variants modeled on the linearized chain only
_APPROX_ONLY = ("continuous-drive", "fresh-level")

COLUMNS = (
    "protocol", "variant", "mode", "N", "m", "p1d", "gamma_s_ratio", "omega",
    "xi", "T", "p_success", "repetitions", "overlap_goal", "infidelity",
    "formula_p", "formula_infidelity", "rel_deviation", "wall_time_s", "error",
)

_DEFAULTS = {
    "protocol": "step",
    "variant": "pi-pulse",
    "mode": "hp-approx",
    "N": 100,
    "m": 1,
    "p1d": 10.0,
    "gamma_s_ratio": None,   # gamma_s / gamma_g; None = transfer-optimal
    "omega": None,           # drive strength; None = optimal
    "xi": 100.0,
    "T": None,               # evolution time; None = optimal
}


class SweepConfigError(ValueError):
    """Bad sweep specification."""


@dataclass(frozen=True)
class SweepSpec:
    """Axes, fixed parameters, and output options for one sweep."""

    axes: tuple[tuple[str, tuple], ...]
    fixed: dict
    out: str | None = None
    jobs: int = 1
    jsonl: bool = False

    @classmethod
    def from_config(cls, cfg: dict, overrides: dict | None = None) -> "SweepSpec":
        """Build a spec from a nested config dict; overrides win over it."""
        cfg = dict(cfg or {})
        fixed = dict(_DEFAULTS)
        fixed.update(cfg.get("fixed", {}))
        for key in ("protocol", "variant", "mode"):
            if key in cfg:
                fixed[key] = cfg[key]
        if overrides:
            fixed.update({k: v for k, v in overrides.items()
                          if k in _DEFAULTS and v is not None})
        unknown = set(fixed) - set(_DEFAULTS)
        if unknown:
            raise SweepConfigError(f"unknown parameter(s): {sorted(unknown)}")
        if fixed["protocol"] not in PROTOCOLS:
            raise SweepConfigError(f"unknown protocol {fixed['protocol']!r}")
        if fixed["variant"] not in VARIANTS:
            raise SweepConfigError(f"unknown variant {fixed['variant']!r}")
        if fixed["mode"] not in (m.value for m in HPMode):
            raise SweepConfigError(f"unknown mode {fixed['mode']!r}")
        if fixed["mode"] == HPMode.EXACT.value and fixed["variant"] in _APPROX_ONLY:
            raise SweepConfigError(
                f"variant {fixed['variant']!r} has no hp-exact model; use mode hp-approx"
            )

        axes = []
        for ax in cfg.get("axes", []) or []:
            if "name" not in ax:
                raise SweepConfigError("every axis needs a name")
            name = ax["name"]
            if name not in _DEFAULTS or name in ("protocol", "variant", "mode"):
                raise SweepConfigError(f"cannot sweep over {name!r}")
            if "values" in ax:
                values = list(ax["values"])
            elif "logspace" in ax:
                lo, hi = ax["logspace"]
                num = int(ax.get("num", 5))
                if lo <= 0 or hi <= 0 or num < 1:
                    raise SweepConfigError("logspace needs positive bounds and num >= 1")
                values = list(np.geomspace(lo, hi, num))
                if name in ("N", "m"):
                    values = sorted(dict.fromkeys(int(round(v)) for v in values))
            else:
                raise SweepConfigError(f"axis {name!r} needs 'values' or 'logspace'")
            if not values:
                raise SweepConfigError(f"axis {name!r} has no values")
            axes.append((name, tuple(values)))
        jobs = int(cfg.get("jobs", 1))
        if overrides and overrides.get("jobs") is not None:
            jobs = int(overrides["jobs"])
        out = cfg.get("out")
        if overrides and overrides.get("out") is not None:
            out = overrides["out"]
        jsonl = bool(cfg.get("jsonl", False))
        if overrides and overrides.get("jsonl"):
            jsonl = True
        return cls(tuple(axes), fixed, out, max(jobs, 1), jsonl)

    def points(self) -> list[dict]:
        names = [name for name, _ in self.axes]
        value_lists = [vals for _, vals in self.axes]
        pts = []
        for combo in itertools.product(*value_lists) if names else [()]:
            point = dict(self.fixed)
            point.update(dict(zip(names, combo)))
            pts.append(point)
        return pts


def _formula_probability(point: dict) -> float | None:
    N, m, p1d = point["N"], point["m"], point["p1d"]
    variant = point["variant"]
    if point["protocol"] == "bandgap":
        return formulas.p_bandgap(N, m, point["xi"], p1d)
    if variant == "pi-pulse":
        return formulas.p_double_mirrors(N, m, p1d)
    if variant == "fixed-ratio":
        return formulas.p_fixed_ratio(N, m, p1d)
    if variant == "continuous-drive":
        return formulas.p_continuous_drive(N, m, p1d)
    if variant == "fresh-level":
        return formulas.p_fresh_level(N, p1d)
    return None


def evaluate_point(point: dict) -> dict:
    """Run one sweep point; exceptions land in the error column."""
    return _evaluate(point, record_errors=True)


def run_point(point: dict) -> dict:
    """Run one point like evaluate_point, but let exceptions propagate."""
    return _evaluate(point, record_errors=False)


def _evaluate(point: dict, record_errors: bool) -> dict:
    row = {c: "" for c in COLUMNS}
    for key in ("protocol", "variant", "mode", "N", "m", "p1d",
                "gamma_s_ratio", "omega", "xi", "T"):
        row[key] = point.get(key, "")
    start = time.perf_counter()
    try:
        N, m, p1d = int(point["N"]), int(point["m"]), float(point["p1d"])
        mode = HPMode(point["mode"])
        variant = point["variant"]
        ratio = point.get("gamma_s_ratio")
        gamma_s = None if ratio is None else float(ratio)
        T = point.get("T")
        T = None if T is None else float(T)

        if point["protocol"] == "bandgap":
            params = bg.BandgapParams(
                N=N, xi=float(point["xi"]), m=m,
                gamma_star=0.0 if math.isinf(p1d) else 1.0 / p1d,
            )
            rec = bg.run_transfer(params)
            row.update(
                T=rec.optimal_time,
                p_success=rec.survival_probability,
                overlap_goal=1.0 - rec.infidelity,
                infidelity=rec.infidelity,
            )
        elif point["protocol"] == "accumulate":
            acc = run_accumulation(N, m, p1d, mode)
            row.update(
                T=acc.steps[-1].T_used,
                p_success=acc.steps[-1].p_success,
                repetitions=acc.repetitions,
                overlap_goal=acc.steps[-1].overlap_goal,
                infidelity=acc.infidelity,
            )
            row["formula_infidelity"] = formulas.accumulation_infidelity_prediction(N, m)
        else:
            if variant == "fixed-ratio":
                res = run_step_fixed_ratio(N, m, p1d, mode=mode)
            elif variant == "continuous-drive":
                omega = point.get("omega")
                res = run_step_continuous_drive(
                    N, m, p1d, omega=None if omega is None else float(omega), T=T
                )
            elif variant == "fresh-level":
                res = run_step_fresh_level(N, p1d)
            else:
                params = DissipativeParams.from_purcell(N, m, p1d, gamma_s=gamma_s)
                res = run_step(params, mode, T=T)
            row.update(
                T=res.T_used,
                p_success=res.p_success,
                overlap_goal="" if res.overlap_goal is None else res.overlap_goal,
                infidelity="" if res.overlap_goal is None
                else 1.0 - math.sqrt(res.overlap_goal),
            )
        fp = _formula_probability(point)
        if fp is not None:
            row["formula_p"] = fp
            if fp > 0 and row["p_success"] != "":
                row["rel_deviation"] = abs(row["p_success"] - fp) / fp
    except Exception as exc:  # noqa: BLE001 - per-row failure is data
        if not record_errors:
            raise
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["wall_time_s"] = time.perf_counter() - start
    return row


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate all points, serially or on a process pool, in axis order."""
    points = spec.points()
    if spec.jobs > 1 and len(points) > 1:
        with Pool(spec.jobs) as pool:
            rows = pool.map(evaluate_point, points)
    else:
        rows = [evaluate_point(pt) for pt in points]
    return rows


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return format(value, ".12g")
    return str(value)


def rows_to_csv(rows: list[dict]) -> str:
    lines = [",".join(COLUMNS)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(c, "")) for c in COLUMNS))
    return "\n".join(lines) + "\n"


def rows_to_jsonl(rows: list[dict]) -> str:
    out = []
    for row in rows:
        clean = {}
        for c in COLUMNS:
            v = row.get(c, "")
            if isinstance(v, float) and math.isinf(v):
                v = "inf"
            clean[c] = v
        out.append(json.dumps(clean, sort_keys=True))
    return "\n".join(out) + "\n"


def write_rows(rows: list[dict], path: str, jsonl: bool = False) -> None:
    text = rows_to_jsonl(rows) if jsonl else rows_to_csv(rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
