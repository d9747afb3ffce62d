"""Span tracing of wgherald's layers from outside the package.

`Tracer.install()` replaces each traced function with a wrapper under every
name a caller can look it up by: the defining module, every wgherald module
that imported it with `from ... import`, and the package namespace.  Methods
and the classmethod are wrapped on their class.  `uninstall()` puts the
originals back, so untraced runs execute the unmodified program.

A span records its name, start, end, parent span, the job it belongs to and
a few facts the wrapper can read cheaply (matrix dimension, propagator
method, objective evaluations, exit code, sweep rows).  Spans stay in memory
until the run ends.  Sweep pool workers are forked from the traced process
and inherit the wrappers; the wrappers record nothing outside the process
that installed them.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time

# (span name, module, attribute, wrapper kind); "Class.attr" attributes are
# patched on the class.
TRACED = (
    ("basis.build_basis", "basis", "build_basis", "plain"),
    ("basis.matrix_from_action", "basis", "matrix_from_action", "plain"),
    ("dissipative.build_H_nh", "dissipative", "build_H_nh", "plain"),
    ("dissipative.build_H_coherent", "dissipative", "build_H_coherent", "plain"),
    ("dissipative.build_jump_operators", "dissipative", "build_jump_operators", "plain"),
    ("linalg.Propagator.init", "linalg", "Propagator.__init__", "propagator_init"),
    ("linalg.Propagator.apply", "linalg", "Propagator.apply", "propagator_apply"),
    ("linalg.Propagator.integrated_expectation", "linalg",
     "Propagator.integrated_expectation", "plain"),
    ("linalg.golden_section_max", "linalg", "golden_section_max", "golden"),
    ("protocol.run_step", "protocol", "run_step", "plain"),
    ("protocol.run_step_continuous_drive", "protocol", "run_step_continuous_drive", "plain"),
    ("protocol.run_accumulation", "protocol", "run_accumulation", "plain"),
    ("bandgap.run_transfer", "bandgap", "run_transfer", "plain"),
    ("bandgap.build_H_bandgap", "bandgap", "build_H_bandgap", "plain"),
    ("bandgap.compensate", "bandgap", "compensate", "plain"),
    ("sweep.SweepSpec.from_config", "sweep", "SweepSpec.from_config", "classmethod"),
    ("sweep.run_sweep", "sweep", "run_sweep", "run_sweep"),
    ("sweep.rows_to_csv", "sweep", "rows_to_csv", "plain"),
    ("sweep.write_rows", "sweep", "write_rows", "plain"),
    ("cli.main", "cli", "main", "exit_code"),
    ("fitting.fit_loglog", "fitting", "fit_loglog", "plain"),
)

# Per-layer metrics: name -> (unit, better).  Counts in COMPUTED are derived
# from array shapes, not timed, and repeat exactly for a seed.
_CALLS_AND_SELF = (
    "basis.build_basis", "basis.matrix_from_action",
    "dissipative.build_H_nh", "dissipative.build_H_coherent",
    "dissipative.build_jump_operators",
    "linalg.Propagator.init", "linalg.Propagator.apply",
    "linalg.Propagator.integrated_expectation",
    "protocol.run_step", "protocol.run_step_continuous_drive", "protocol.run_accumulation",
    "bandgap.run_transfer", "sweep.run_sweep", "cli.main", "fitting.fit_loglog",
)
_SELF_ONLY = ("bandgap.build_H_bandgap", "bandgap.compensate", "sweep.SweepSpec.from_config",
              "sweep.rows_to_csv", "sweep.write_rows")
LAYER_METRICS = {}
for _name in _CALLS_AND_SELF:
    LAYER_METRICS[f"{_name}.calls"] = ("count", "lower")
    LAYER_METRICS[f"{_name}.self_s"] = ("s", "lower")
for _name in _SELF_ONLY:
    LAYER_METRICS[f"{_name}.self_s"] = ("s", "lower")
LAYER_METRICS.update({
    "linalg.Propagator.init.expm_fallbacks": ("count", "lower"),
    "linalg.Propagator.init.dim3_sum": ("count", "lower"),
    "linalg.Propagator.apply.dim2_sum": ("count", "lower"),
    "linalg.golden_section_max.calls": ("count", "lower"),
    "linalg.golden_section_max.evals": ("count", "lower"),
    "protocol.steps_per_run_step": ("ratio", "higher"),
    "sweep.evaluate_point.points": ("count", "lower"),
    "sweep.evaluate_point.busy_s": ("s", "lower"),
    "sweep.pool_overhead_s": ("s", "lower"),
    "cli.main.nonzero_exits": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
})
COMPUTED = {"linalg.Propagator.init.dim3_sum", "linalg.Propagator.apply.dim2_sum"}

_NAME, _START, _END, _PARENT, _JOB, _INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.job, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[_START] = time.perf_counter()
        return span

    def _exit(self, span: list) -> None:
        span[_END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, kind: str):
        tracer = self

        if kind == "golden":
            @functools.wraps(fn)
            def wrapper(f, *args, **kwargs):
                if os.getpid() != tracer._pid:
                    return fn(f, *args, **kwargs)
                evals = [0]

                def counted(x):
                    evals[0] += 1
                    return f(x)

                span = tracer._enter(name)
                try:
                    return fn(counted, *args, **kwargs)
                finally:
                    tracer._exit(span)
                    span[_INFO] = evals[0]
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            span = tracer._enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._exit(span)
                if kind == "propagator_init":
                    span[_INFO] = (args[0].dim, args[0].method)
                elif kind == "propagator_apply":
                    span[_INFO] = args[0].dim
                elif kind == "exit_code":
                    span[_INFO] = result
                elif kind == "run_sweep":
                    span[_INFO] = (args[0].jobs, result)
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        import wgherald  # noqa: F401 - loads every submodule

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "wgherald" or n.startswith("wgherald."))]
        for name, modname, attr, kind in TRACED:
            module = sys.modules[f"wgherald.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if kind == "classmethod":
                    new = classmethod(self._wrap(name, raw.__func__, "plain"))
                else:
                    new = self._wrap(name, raw, kind)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, kind)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- reduction -----------------------------------------------------------

    def layer_metrics(self, first: int, last: int) -> dict[str, float]:
        """Per-layer totals over spans[first:last] (one pass over a job list)."""
        spans = self.spans[first:last]
        child_time = [0.0] * len(spans)
        for span in spans:
            parent = span[_PARENT] - first
            if parent >= 0:
                child_time[parent] += span[_END] - span[_START]
        out = {name: 0.0 for name in LAYER_METRICS}
        in_golden = [False] * len(spans)
        kept_steps = 0
        for i, span in enumerate(spans):
            name, info = span[_NAME], span[_INFO]
            parent = span[_PARENT] - first
            in_golden[i] = name == "linalg.golden_section_max" or (
                parent >= 0 and in_golden[parent])
            if f"{name}.calls" in out:
                out[f"{name}.calls"] += 1
            if f"{name}.self_s" in out:
                out[f"{name}.self_s"] += span[_END] - span[_START] - child_time[i]
            if name == "linalg.Propagator.init" and info is not None:
                dim, method = info
                out["linalg.Propagator.init.dim3_sum"] += dim ** 3
                out["linalg.Propagator.init.expm_fallbacks"] += method != "eig"
            elif name == "linalg.Propagator.apply" and info is not None:
                out["linalg.Propagator.apply.dim2_sum"] += info ** 2
            elif name == "linalg.golden_section_max" and info is not None:
                out["linalg.golden_section_max.evals"] += info
            elif name == "protocol.run_step" and not in_golden[i]:
                kept_steps += 1
            elif name == "cli.main" and info not in (0, None):
                out["cli.main.nonzero_exits"] += 1
            elif name == "sweep.run_sweep" and info is not None and info[1] is not None:
                jobs, rows = info
                busy = sum(float(r["wall_time_s"]) for r in rows)
                out["sweep.evaluate_point.points"] += len(rows)
                out["sweep.evaluate_point.busy_s"] += busy
                if jobs > 1 and len(rows) > 1:
                    wall = span[_END] - span[_START]
                    out["sweep.pool_overhead_s"] += wall - busy / jobs
        calls = out["protocol.run_step.calls"]
        out["protocol.steps_per_run_step"] = kept_steps / calls if calls else 0.0
        return out


def combine(passes: list[dict[str, float]], overhead_s: float) -> dict[str, float]:
    """Median over traced passes of the same job list; counts must agree."""
    out = {}
    for name, (unit, _) in LAYER_METRICS.items():
        values = [p[name] for p in passes]
        if unit == "s":
            out[name] = statistics.median(values)
        else:
            out[name] = int(values[0]) if unit == "count" else values[0]
    out["trace.overhead_s"] = overhead_s
    return out


def count_mismatches(passes: list[dict[str, float]]) -> list[str]:
    """Counts from repeated passes over one job list must repeat exactly."""
    bad = []
    for name, (unit, _) in LAYER_METRICS.items():
        if unit != "s" and any(p[name] != passes[0][name] for p in passes):
            bad.append(name)
    return bad
