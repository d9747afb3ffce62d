"""Command-line front end: step, accumulate, sweep, bandgap, fit, compare.

All physical rates are in units of the first guided-mode decay rate and times
in its inverse.  Configuration files are YAML (nested keys); command-line
flags override config values but may not name a swept axis.  Every command
but fit and compare goes through `wgherald.sweep.TABLE`, which rejects what
the selected (protocol, variant) does not read; step, accumulate and bandgap
run exactly one point.  Every table is CSV in `wgherald.sweep.write_table`'s
format (or JSON lines with --jsonl), written to --out or to stdout when it is
not given or empty.  Exit codes, mapped in `main` alone: 0 success, 1 usage
or configuration error (including an output path that cannot be written and
a parameter the model rejects), 2 numeric failure or any other error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import warnings

import numpy as np

from . import bandgap as bg
from . import formulas
from .basis import HPMode
from .fitting import fit_loglog
from .sweep import (
    PARAMETERS,
    TABLE,
    SweepConfigError,
    SweepSpec,
    bandgap_params,
    run_point,
    run_sweep,
    write_rows,
    write_table,
)


class UsageError(Exception):
    """Raised for bad flags or bad configuration (exit code 1)."""


# Exit code 2.  LinAlgError subclasses ValueError, so main catches it before
# the ValueError that marks a parameter error.
_NUMERIC_ERRORS = (ArithmeticError, np.linalg.LinAlgError, bg.TransferWindowError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wgherald",
                     description="Heralded collective-excitation protocol simulator")
    subs = parser.add_subparsers(dest="command", required=True)

    # the flags of the four commands that run sweep points: one per model
    # parameter, None unless given, so that the config or the default applies
    common = argparse.ArgumentParser(add_help=False)
    for name, (kind, _, text) in PARAMETERS.items():
        common.add_argument("--" + name.replace("_", "-"), type=kind, help=text)
    common.add_argument("--mode", choices=[m.value for m in HPMode],
                        help="target-ensemble representation (default: hp-exact for "
                             "accumulate, hp-approx otherwise)")
    common.add_argument("--variant", choices=list(dict.fromkeys(v for _, v in TABLE)),
                        help="protocol variant")
    common.add_argument("--config", help="YAML config file (flags override)")
    common.add_argument("--out", help="output path (default: stdout)")
    for name, helptext in (
        ("step", "run one heralded step"),
        ("accumulate", "chain heralded steps up to --m quanta"),
        ("sweep", "run a parameter sweep from a config file"),
        ("bandgap", "simulate the finite-range collective transfer"),
    ):
        sub = subs.add_parser(name, help=helptext, parents=[common])
        sub.set_defaults(run=_cmd_sweep if name == "sweep" else _cmd_point)
        if name != "bandgap":
            sub.add_argument("--jsonl", action="store_true",
                             help="emit JSON lines instead of CSV")
    subs.choices["sweep"].add_argument(
        "--jobs", type=int, default=None,
        help="at most this many processes evaluating points, this one included; the others "
             "are forked only if the points' predicted times show that the forks pay")
    subs.choices["bandgap"].add_argument(
        "--profile-out", default=None,
        help="write the per-atom intensity/phase profile at the optimum here")

    fit = subs.add_parser("fit", help="fit a scaling law to CSV data")
    fit.add_argument("input", help="CSV file with a header row")
    fit.add_argument("--x", action="append", required=True,
                     help="regressor column (repeat for multiple)")
    fit.add_argument("--y", required=True, help="dependent column")
    fit.add_argument("--model", choices=("power_law", "exp_sqrt"), default="power_law")
    fit.add_argument("--out", default=None)
    fit.set_defaults(run=_cmd_fit)

    comp = subs.add_parser("compare", help="protocol comparison table")
    for name in ("N", "m", "p1d", "xi"):  # the sweep's types and defaults
        kind, default, _ = PARAMETERS[name]
        comp.add_argument("--" + name, type=kind, default=default)
    comp.add_argument("--eta", type=float, default=1.0)
    comp.add_argument("--x", type=float, default=0.1)
    comp.add_argument("--out", default=None)
    comp.set_defaults(run=_cmd_compare)
    return parser


def _load_spec(args) -> SweepSpec:
    """The spec of a command's config file and flags."""
    cfg = {}
    if args.config is not None:
        import yaml

        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = yaml.safe_load(fh) or {}
        except OSError as exc:
            raise UsageError(f"cannot read config {args.config}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise UsageError(f"config {args.config} is not valid YAML: {exc}") from exc
        if not isinstance(cfg, dict):
            raise UsageError(f"config {args.config} must be a mapping at top level")
    unread = [k for k in ("jobs", "jsonl") if k in cfg and not hasattr(args, k)]
    if unread:
        raise UsageError(f"{args.command} does not read config key(s) {unread}")
    over = {k: getattr(args, k, None)
            for k in (*PARAMETERS, "mode", "variant", "out", "jobs", "jsonl")}
    if args.command != "sweep":
        if cfg.get("protocol", args.command) != args.command:
            raise UsageError(f"config protocol {cfg['protocol']!r} is not {args.command}")
        over["protocol"] = args.command
    over["jsonl"] = over["jsonl"] or None
    return SweepSpec.from_config(cfg, over)


def _cmd_point(args) -> int:
    """step, accumulate and bandgap: one point of the sweep table."""
    spec = _load_spec(args)
    points = spec.points()
    if len(points) != 1:
        raise UsageError(f"{args.command} runs one point; the config gives {len(points)}")
    point = points[0]
    required = () if args.command == "bandgap" else ("N", "m", "p1d")
    reads = TABLE[(point["protocol"], point["variant"])].reads
    missing = [k for k in required if k in reads and k not in spec.given]
    if missing:
        raise UsageError("missing required flag(s): " + " ".join(f"--{k}" for k in missing))
    if args.command == "bandgap" and "p1d" not in spec.given:
        point["p1d"] = math.inf  # the bandgap command defaults to no free-space decay
    if args.command != "bandgap":
        write_rows([run_point(point)], spec.out, spec.jsonl)
        return 0

    params = bandgap_params(point)
    rec = bg.run_transfer(params)
    write_table(("t", "source_population", "target_population"),
                zip(rec.times, rec.source_population, rec.target_population), spec.out)
    if args.profile_out:
        n = range(1, params.N + 1)  # target n sits at site z = n
        write_table(("n", "z", "intensity", "phase"), zip(n, n, rec.intensity, rec.phase),
                    args.profile_out)

    sys.stderr.write(
        f"optimal_time={rec.optimal_time:.12g} "
        f"infidelity={rec.infidelity:.6e} "
        f"source_population_at_opt={rec.source_population_at_opt:.6e} "
        f"survival_probability={rec.survival_probability:.12g}\n"
    )
    return 0


def _cmd_sweep(args) -> int:
    spec = _load_spec(args)
    rows = run_sweep(spec)
    write_rows(rows, spec.out, spec.jsonl)
    failures = sum(1 for r in rows if r["error"])
    if failures:
        sys.stderr.write(f"{failures}/{len(rows)} sweep points failed (see error column)\n")
    return 0


def _cmd_fit(args) -> int:
    with open(args.input, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise UsageError(f"{args.input} has no data rows")
    for col in args.x + [args.y]:
        if col not in rows[0]:
            raise UsageError(f"column {col!r} not in {args.input}")

    def column(name):
        vals = []
        for r in rows:
            cell = r.get(name, "")
            if cell in ("", None):
                vals.append(math.nan)
                continue
            try:
                vals.append(float(cell))
            except ValueError as exc:
                raise UsageError(f"column {name!r} is not numeric: {cell!r}") from exc
        return np.array(vals)

    y = column(args.y)
    xs = [column(name) for name in args.x]
    # empty cells are nan, so fit_loglog's screen drops and counts them; its
    # warnings become one stderr line each, also when the fit then fails
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            report = fit_loglog(xs, y, model=args.model, x_names=tuple(args.x))
        finally:
            for w in caught:
                sys.stderr.write(f"warning: {w.message}\n")
    exponents = zip(report.x_names, report.exponents, report.exponent_stderrs)
    write_table(("quantity", "value", "stderr"),
                [("prefactor", report.prefactor, report.prefactor_stderr),
                 *((f"exponent[{name}]", expo, err) for name, expo, err in exponents),
                 ("n_used", report.n_used, ""), ("residual_rms", report.residual_rms, "")],
                args.out)
    return 0


def _cmd_compare(args) -> int:
    entries = formulas.table1_compare(args.m, args.N, args.p1d, args.xi,
                                      eta=args.eta, x=args.x)
    header = ("protocol", "error_scaling", "p_m", "requirement", "requirement_satisfied")
    write_table(header, [[getattr(e, name) for name in header] for e in entries], args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except (UsageError, SweepConfigError, OSError) as exc:  # OSError: unwritable output
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except _NUMERIC_ERRORS as exc:
        sys.stderr.write(f"numeric failure: {type(exc).__name__}: {exc}\n")
        return 2
    except ValueError as exc:  # BasisError, ProtocolError and bad parameter values
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    except Exception as exc:  # noqa: BLE001 - any other failure of a command
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
