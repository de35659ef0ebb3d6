"""Command-line front end: runs, studies, and partition tables.

Subcommands: solve, band, rate, coverage, partition, cases.  Results go
to stdout as JSON; except for cases, which takes no flags, ``--out PREFIX``
also writes ``PREFIX.json`` and, for solve and band, a per-point
``PREFIX.csv``.  Identical arguments and seed give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import InvalidSpecError, UnknownCaseError
from .inference import (
    _det_solve,
    _final_table,
    _iteration_bound,
    _table_points,
    confidence_band,
    coverage_study,
    estimate_covariance,
    estimate_covariance_volterra,
    limit_covariance,
    rate_study,
    tail_log_asymptote,
)
from .problems import ManufacturedCase, list_cases, manufactured_case
from .sampling import _SCHEDULES, RandomStream, _make_schedule, allocation_objective

__all__ = ["RunConfig", "parse_config", "run", "main"]

_SCHEDULE_KINDS = tuple(_SCHEDULES)


def _budgets(value) -> "tuple[int, ...] | None":
    if isinstance(value, int):
        value = [value]
    elif isinstance(value, str):
        try:
            value = [int(part) for part in value.split(",")]
        except ValueError:
            return None
    if not isinstance(value, (list, tuple)) or not value:
        return None
    if any(isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in value):
        return None
    return tuple(value)


def _int_from(low: int):
    return lambda v: v if isinstance(v, int) and v >= low else None


# Config field -> (RunConfig attribute, converter, requirement).  A
# converter returns the attribute value, or None for an invalid one;
# booleans are invalid for every field.  Fields are checked in this order.
_CONFIG_FIELDS = {
    "case": ("case", lambda v: v if isinstance(v, str) else None, "a case id string"),
    "N": ("budgets", _budgets, "a positive integer or list of positive integers"),
    "m": ("stages", _int_from(1), "a positive integer"),
    "schedule": (
        "schedule",
        lambda v: v if v in _SCHEDULE_KINDS else None,
        f"one of {', '.join(_SCHEDULE_KINDS)}",
    ),
    "seed": ("seed", _int_from(0), "a non-negative integer"),
    "level": (
        "level",
        lambda v: float(v) if isinstance(v, (int, float)) and 0 < v < 1 else None,
        "a number strictly between 0 and 1",
    ),
    "reps": ("reps", _int_from(1), "a positive integer"),
    "grid": ("grid_n", _int_from(2), "an integer of at least 2"),
    "tau_grid": ("tau_n", _int_from(2), "an integer of at least 2"),
    "out": (
        "out",
        lambda v: v if isinstance(v, str) and v else None,
        "an output path prefix string",
    ),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated union of config-file values and command-line flags."""

    case: "str | None" = None
    budgets: "tuple[int, ...]" = (10000,)
    stages: int = 3
    schedule: str = "budget-consistent"
    seed: int = 0
    level: float = 0.95
    reps: int = 1
    grid_n: "int | None" = None
    tau_n: "int | None" = None
    out: "str | None" = None

    @property
    def budget(self) -> int:
        if len(self.budgets) > 1:
            raise InvalidSpecError(
                f"N lists {len(self.budgets)} budgets; only 'rate' takes more than one"
            )
        return self.budgets[0]

    def case_and_stream(self) -> "tuple[ManufacturedCase, RandomStream]":
        """The configured case, built at the configured resolutions, and the seeded stream."""
        if self.case is None:
            raise InvalidSpecError("config field 'case' is required for this command")
        return manufactured_case(self.case, self.grid_n, self.tau_n), RandomStream(self.seed)


def _validated(raw: dict) -> dict:
    for key in raw:
        if key not in _CONFIG_FIELDS:
            raise InvalidSpecError(f"unknown config field '{key}'")
    out: dict = {}
    for key, (attr, convert, requirement) in _CONFIG_FIELDS.items():
        if key in raw:
            value = None if isinstance(raw[key], bool) else convert(raw[key])
            if value is None:
                raise InvalidSpecError(f"config field '{key}' must be {requirement}")
            out[attr] = value
    return out


def parse_config(path: str, overrides: "dict | None" = None) -> RunConfig:
    """Load a JSON config file; explicit flag values override file values."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InvalidSpecError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidSpecError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InvalidSpecError("config file must hold a JSON object")
    merged = _validated(raw)
    if overrides:
        merged.update(_validated(overrides))
    return RunConfig(**merged)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise InvalidSpecError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mcie", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def add_common(p: _Parser, with_case: bool = True) -> None:
        if with_case:
            p.add_argument("--case", help="registered case id (see 'cases')")
            p.add_argument("--grid", type=int, help="grid resolution override")
            p.add_argument("--tau-grid", dest="tau_grid", type=int,
                           help="check-time resolution override (Volterra cases)")
        p.add_argument("--N", dest="N", help="draw budget (comma list for 'rate')")
        p.add_argument("--m", type=int, help="iteration stage count")
        p.add_argument("--schedule", choices=_SCHEDULE_KINDS, help="stage size rule")
        p.add_argument("--seed", type=int, help="stream seed (echoed into outputs)")
        p.add_argument("--level", type=float, help="confidence level in (0, 1)")
        p.add_argument("--reps", type=int, help="replication count")
        p.add_argument("--out", help="output path prefix")
        p.add_argument("--config", help="JSON config file; flags override it")

    for name, descr in (
        ("solve", "run the staged solver and tabulate the result"),
        ("band", "run the solver with a limit-covariance confidence band"),
        ("rate", "median-error decay against a list of budgets"),
        ("coverage", "empirical band coverage over replications"),
    ):
        add_common(sub.add_parser(name, help=descr, description=descr))
    p_part = sub.add_parser("partition", help="print a stage-size table",
                            description="print a stage-size table")
    add_common(p_part, with_case=False)
    sub.add_parser("cases", help="list registered cases",
                   description="list registered cases")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    # Every flag's destination is named after its config field.
    overrides: dict = {}
    for key in _CONFIG_FIELDS:
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    config_path = getattr(args, "config", None)
    if config_path:
        return parse_config(config_path, overrides)
    return RunConfig(**_validated(overrides))


def _check_out_prefix(prefix: "str | None") -> None:
    if prefix is None:
        return
    parent = os.path.dirname(os.path.abspath(prefix))
    if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
        raise InvalidSpecError(f"output path prefix {prefix!r} is not writable")


def _emit(summary: "dict | list", out: "str | None", csv_text: "str | None" = None) -> None:
    text = json.dumps(summary, indent=2) + "\n"
    sys.stdout.write(text)
    if out is not None:
        with open(out + ".json", "w", encoding="utf-8") as fh:
            fh.write(text)
        if csv_text is not None:
            with open(out + ".csv", "w", encoding="utf-8") as fh:
                fh.write(csv_text)


def _csv_table(coords: np.ndarray, mc: np.ndarray, det: np.ndarray, halfwidth: float) -> str:
    dim = coords.shape[1]
    header = ["point_index"] + [f"coord_{d}" for d in range(dim)]
    header += ["mc_value", "det_value", "halfwidth"]
    lines = [",".join(header)]
    for i in range(coords.shape[0]):
        row = [str(i)]
        row += [repr(float(c)) for c in coords[i]]
        row += [repr(float(mc[i])), repr(float(det[i])), repr(float(halfwidth))]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _cmd_run(command: str, config: RunConfig) -> int:
    """solve (estimated covariance) and band (limit covariance, bound widening)."""
    case, stream = config.case_and_stream()
    problem = case.problem
    schedule, warning = _make_schedule(config.schedule, config.budget, config.stages)
    run_rec, mc = _final_table(problem, schedule, stream)
    det = _det_solve(problem, config.stages)
    det_last = det[-1].values.ravel()
    if command == "solve":
        fredholm = case.kind == "fredholm"
        cov = (estimate_covariance if fredholm else estimate_covariance_volterra)(problem, run_rec)
    else:
        cov = limit_covariance(problem, det[-2])
    band = confidence_band(mc, cov, schedule.sizes[-1], config.level, stream)
    summary = {
        "command": command,
        "case": case.case_id,
        "kind": case.kind,
        "budget": config.budget,
        "stages": config.stages,
        "schedule": config.schedule,
        "sizes": list(schedule.sizes),
        "effective_budget": schedule.budget,
        "seed": config.seed,
        "level": config.level,
        "cov_source": cov.source,
        "cov_rank": cov.rank,
        "cov_heavy_clip": cov.heavy_clip,
        "quantile": band.quantile,
        "halfwidth": band.halfwidth,
    }
    if command == "solve":
        summary["sup_mc_minus_det"] = float(np.max(np.abs(mc - det_last)))
    else:
        widen = _iteration_bound(problem, det)
        # A positive quantile needs rank >= 1, so the peak variance is positive.
        tail = tail_log_asymptote(band.quantile, cov) if band.quantile > 0 else None
        summary.update(
            halfwidth_widened=band.halfwidth + widen,
            iteration_bound=widen,
            tail_log_asymptote=tail,
            covers_det_iterate=band.covers(det_last),
        )
    if warning:
        summary["warning"] = warning
    csv_text = None
    if config.out is not None:
        csv_text = _csv_table(_table_points(problem), mc, det_last, band.halfwidth)
    _emit(summary, config.out, csv_text)
    return 0


def _cmd_rate(config: RunConfig) -> int:
    case, stream = config.case_and_stream()
    if len(config.budgets) < 2:
        raise InvalidSpecError("rate needs --N with at least two comma-separated budgets")
    result = rate_study(
        case.problem,
        config.stages,
        list(config.budgets),
        stream,
        replications=config.reps,
        schedule_kind=config.schedule,
    )
    summary = {
        "command": "rate",
        "case": case.case_id,
        "kind": case.kind,
        "budgets": list(result.budgets),
        "stages": config.stages,
        "schedule": config.schedule,
        "seed": config.seed,
        "replications": result.replications,
        "median_errors": list(result.median_errors),
        "slope": result.slope,
        "undefined_reason": result.undefined_reason,
    }
    _emit(summary, config.out)
    return 0


def _cmd_coverage(config: RunConfig) -> int:
    case, stream = config.case_and_stream()
    problem = case.problem
    reference = np.asarray(case.reference(*_table_points(problem).T), dtype=float)
    result = coverage_study(
        problem,
        config.stages,
        config.budget,
        config.level,
        stream,
        replications=config.reps,
        schedule_kind=config.schedule,
        reference=reference,
    )
    summary = {
        "command": "coverage",
        "case": case.case_id,
        "kind": case.kind,
        "budget": config.budget,
        "stages": config.stages,
        "schedule": config.schedule,
        "seed": config.seed,
        "level": result.level,
        "replications": result.replications,
        "coverage": result.coverage,
        "coverage_reference": result.coverage_reference,
        "halfwidth": result.halfwidth,
        "quantile": result.quantile,
        "iteration_bound": result.widen,
    }
    _emit(summary, config.out)
    return 0


def _cmd_partition(config: RunConfig) -> int:
    schedule, warning = _make_schedule(config.schedule, config.budget, config.stages)
    summary = {
        "q": list(schedule.sizes),
        "sum": sum(schedule.sizes),
        "budget": config.budget,
    }
    if config.schedule == "asymptotic":
        if warning:
            summary["warning"] = "sum != budget"
    else:
        summary["objective"] = allocation_objective(schedule.sizes)
    summary["seed"] = config.seed
    _emit(summary, config.out)
    return 0


def _cmd_cases(config: RunConfig) -> int:
    listing = [
        {"case": cid, "kind": kind, "description": descr}
        for cid, kind, descr in list_cases()
    ]
    _emit(listing, None)
    return 0


_COMMANDS = {
    "solve": partial(_cmd_run, "solve"),
    "band": partial(_cmd_run, "band"),
    "rate": _cmd_rate,
    "coverage": _cmd_coverage,
    "partition": _cmd_partition,
    "cases": _cmd_cases,
}


def run(argv: "list[str] | None" = None) -> int:
    """Parse arguments, dispatch, and map failures to exit codes.

    Returns 0 on success, 1 for validation problems (bad flags, bad
    config, unknown case, unwritable output), 2 for runtime failures.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # -h/--help
        return int(exc.code or 0)
    except InvalidSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        config = _config_from_args(args)
        _check_out_prefix(config.out)
        return _COMMANDS[args.command](config)
    except (InvalidSpecError, UnknownCaseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - surface anything else as code 2
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


main = run


if __name__ == "__main__":
    sys.exit(main())
