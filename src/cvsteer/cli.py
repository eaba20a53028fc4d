"""Command-line front end: evaluate criteria, sweep theta grids, locate critical
angles, and emit the criteria-coverage report.

Each option is declared once in ``_OPTIONS`` with the commands that read it; a command
accepts exactly those, as flags and as the keys of its ``--config`` file, which the flags
override. ``report`` always writes JSON, with spans located at the default root_tol.

Exit codes: 0 ok; 2 invalid configuration (message names the field); 3 a quadrature
tolerance was not met and --allow-flagged was absent; 4 unwritable output path;
5 a requested criterion has no crossing-type critical angle.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import Callable, NamedTuple

from .criteria import CRITERIA, CriterionResult
from .quadrature import DEFAULT_SPEC, QuadratureSpec
from .sweep import (
    NoRootInRange,
    STATE_BUILDERS,
    _ROOT_TOL,
    _criterion,
    _family,
    find_critical_angles,
    hierarchy_report,
    sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TOLERANCE = 3
EXIT_IO = 4
EXIT_NO_ROOT = 5

# Fixed flat schema for criterion records: five fixed columns, then every criterion's
# components in table order. Component cells are empty when a component does not belong
# to the criterion. Column order never depends on the request.
_EVAL_COLUMNS = ("criterion", "theta", "value", "violated", "converged") + tuple(
    name for entry in CRITERIA.values() for name in entry.components)


class ConfigError(ValueError):
    """Invalid configuration; the message starts with the offending field name."""


def _names(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _boolean(text: str) -> bool:
    low = text.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


class _Option(NamedTuple):
    """An option of the command line and of the config file. ``key`` is its config key
    and the attribute the commands read; a flag after the first is an alias, and also a
    config key without its dashes. ``type`` reads the text of a flag or a config value;
    a ``_boolean`` option is a flag that takes no value."""

    key: str
    flags: tuple[str, ...]
    type: Callable[[str], object]
    default: object
    commands: str  # the commands that read it, space-separated
    help: str


_ALL = "eval sweep critical report"
_OPTIONS = (
    _Option("state", ("--state",), str, "psi", _ALL,
            f"built-in state family: {' or '.join(STATE_BUILDERS)} (any case, '_' for '-')"),
    _Option("criteria", ("--criteria",), _names, tuple(CRITERIA), "eval sweep critical",
            "comma-separated subset of the criteria"),
    _Option("theta", ("--theta",), float, None, "eval", "angle in [0, pi]; required"),
    _Option("steps", ("--steps",), int, 315, "sweep", "number of grid points"),
    _Option("theta_min", ("--theta-min",), float, 0.0, "sweep", "first grid angle"),
    _Option("theta_max", ("--theta-max",), float, math.pi, "sweep", "last grid angle"),
    _Option("half_width", ("--half-width", "--L"), float, DEFAULT_SPEC.half_width, _ALL,
            "truncation half-width L of panel integrals"),
    _Option("panel_tol", ("--panel-tol",), float, DEFAULT_SPEC.panel_tol, _ALL,
            "absolute adaptive-panel tolerance"),
    _Option("root_tol", ("--root-tol",), float, _ROOT_TOL, "critical",
            "bracket width for critical angles"),
    _Option("output_path", ("--output",), str, None, _ALL,
            "output file (default: critical-<state>.<format> for critical, else stdout)"),
    _Option("format", ("--format",), str, "csv", "eval sweep critical",
            "output format: csv or json"),
    _Option("allow_flagged", ("--allow-flagged",), _boolean, False, _ALL,
            "accept results whose quadrature tolerance was not met"),
)


def _options_of(command: str) -> list[_Option]:
    return [opt for opt in _OPTIONS if command in opt.commands.split()]


def _read_config_file(path: str, command: str) -> dict[str, object]:
    """The values a flat 'key = value' file gives the options of ``command``."""
    options = {flag.lstrip("-"): opt for opt in _options_of(command) for flag in opt.flags[1:]}
    options.update((opt.key, opt) for opt in _options_of(command))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path!r}: {exc}") from exc
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config: line {lineno} is not 'key = value'")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in options:
            raise ConfigError(f"config: {command} has no option {key!r} (line {lineno})")
        try:
            values[options[key].key] = options[key].type(value)
        except ValueError as exc:
            raise ConfigError(f"{options[key].key}: {exc}") from exc
    return values


def _validate(config: argparse.Namespace) -> None:
    try:
        config.state = _family(config.state)
    except ValueError as exc:
        raise ConfigError(f"state: {exc}") from exc
    if "criteria" in config and not config.criteria:
        raise ConfigError("criteria: at least one criterion is required")
    for c in getattr(config, "criteria", ()):
        try:
            _criterion(c)
        except ValueError as exc:
            raise ConfigError(f"criteria: {exc}") from exc
    if "theta" in config and not (config.theta is not None and 0.0 <= config.theta <= math.pi):
        raise ConfigError(f"theta: eval needs a value in [0, pi], got {config.theta!r}")
    if "theta_min" in config and not 0.0 <= config.theta_min < config.theta_max <= math.pi:
        raise ConfigError("theta_min/theta_max: need 0 <= theta_min < theta_max <= pi")
    if "steps" in config and config.steps < 2:
        raise ConfigError(f"steps: {config.steps} is below the minimum of 2")
    try:
        config.spec = QuadratureSpec(half_width=config.half_width, panel_tol=config.panel_tol)
    except ValueError as exc:  # the message starts with the field name
        raise ConfigError(str(exc)) from exc
    if "root_tol" in config and not config.root_tol > 0:
        raise ConfigError(f"root_tol: {config.root_tol!r} must be positive")
    if "format" in config and config.format not in ("csv", "json"):
        raise ConfigError(f"format: {config.format!r} is not 'csv' or 'json'")


def _fmt(x: float) -> str:
    """Shortest decimal with 10 significant digits; stable across runs."""
    return f"{x:.10g}"


def _finish(config: argparse.Namespace, text: str, path: str | None, unmet: str = "",
            rootless: tuple[str, ...] = ()) -> int:
    """Write text to path (standard output when None), warn on stderr that ``unmet``
    missed its quadrature tolerance, and return the exit code: EXIT_IO when the output
    could not be written, EXIT_NO_ROOT when a criterion in ``rootless`` has no crossing,
    EXIT_TOLERANCE when a tolerance was missed and --allow-flagged is absent."""
    try:
        if path is None:
            sys.stdout.write(text)
        else:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"output error: cannot write {path!r}: {exc}", file=sys.stderr)
        return EXIT_IO
    if unmet:
        print(f"warning: {unmet} did not meet the quadrature tolerance", file=sys.stderr)
    if rootless:
        print(f"no crossing found for: {', '.join(rootless)}", file=sys.stderr)
        return EXIT_NO_ROOT
    if unmet and not config.allow_flagged:
        print("tolerance not met; rerun with --allow-flagged to accept", file=sys.stderr)
        return EXIT_TOLERANCE
    return EXIT_OK


def _ordered(criteria: tuple[str, ...]) -> list[str]:
    wanted = set(criteria)
    return [c for c in CRITERIA if c in wanted]


def _eval_csv(results: list[CriterionResult]) -> str:
    lines = [",".join(_EVAL_COLUMNS)]
    for res in results:
        cells = [res.criterion, _fmt(res.theta), _fmt(res.value),
                 str(res.violated).lower(), str(res.converged).lower()]
        for col in _EVAL_COLUMNS[5:]:
            cells.append(_fmt(res.components[col]) if col in res.components else "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_eval(config: argparse.Namespace) -> int:
    state = STATE_BUILDERS[config.state](config.theta)
    results = [CRITERIA[c].evaluate(state, config.spec, config.theta)
               for c in _ordered(config.criteria)]
    if config.format == "json":
        payload = {"state": config.state,
                   "results": [dataclasses.asdict(r) for r in results]}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = _eval_csv(results)
    unmet = [r.criterion for r in results if not r.converged]
    return _finish(config, text, config.output_path,
                   f"the evaluation of {', '.join(unmet)}" if unmet else "")


def cmd_sweep(config: argparse.Namespace) -> int:
    result = sweep(config.state, config.criteria, config.steps, config.spec,
                   config.theta_min, config.theta_max)
    wanted = _ordered(config.criteria)
    if config.format == "json":
        payload = {"state": config.state, "theta": list(result.thetas)}
        for c in wanted:
            payload[CRITERIA[c].column] = list(result.values[c])
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        header = ["theta"] + [CRITERIA[c].column for c in wanted]
        lines = [",".join(header)]
        for i, theta in enumerate(result.thetas):
            row = [_fmt(theta)] + [_fmt(result.values[c][i]) for c in wanted]
            lines.append(",".join(row))
        text = "\n".join(lines) + "\n"
    return _finish(config, text, config.output_path,
                   f"{len(result.flagged)} grid point(s)" if result.flagged else "")


def cmd_critical(config: argparse.Namespace) -> int:
    records = []
    rootless = []
    unmet = []
    for criterion in _ordered(config.criteria):
        try:
            roots = find_critical_angles(config.state, criterion, config.spec, config.root_tol)
            converged = all(r.converged for r in roots)
        except NoRootInRange as exc:
            roots, converged = (), exc.converged
        if not any(r.kind == "crossing" for r in roots):
            rootless.append(criterion)
        if not converged:
            unmet.append(criterion)
        records.extend(roots)
    records.sort(key=lambda r: (r.angle, r.criterion))

    for r in records:
        print(f"{r.criterion} {r.kind} {r.angle:.4f} (residual {r.residual:.2e})")

    path = config.output_path or f"critical-{config.state}.{config.format}"
    if config.format == "json":
        payload = {"state": config.state, "root_tol": config.root_tol, "criticals": [
            {"criterion": r.criterion, "kind": r.kind, "angle": r.angle,
             "bracket": list(r.bracket), "residual": r.residual} for r in records]}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = ["criterion,kind,angle,bracket_lo,bracket_hi,residual"]
        for r in records:
            lines.append(",".join([r.criterion, r.kind, repr(r.angle),
                                   repr(r.bracket[0]), repr(r.bracket[1]), repr(r.residual)]))
        text = "\n".join(lines) + "\n"
    what = f"the critical-angle searches for {', '.join(unmet)}" if unmet else ""
    return _finish(config, text, path, what, tuple(rootless))


def cmd_report(config: argparse.Namespace) -> int:
    report = hierarchy_report(config.state, config.spec)
    payload = {
        "state": report.state_id,
        "chsh_violation_region": [list(span) for span in report.chsh_violation_region],
        "reid_detected": [list(span) for span in report.reid_detected],
        "entropic_detected": [list(span) for span in report.entropic_detected],
        "undetected_steering": [list(span) for span in report.undetected_steering],
        "criteria_incomplete": report.criteria_incomplete,
    }
    what = f"the critical-angle searches for {', '.join(report.flagged)}" if report.flagged else ""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return _finish(config, text, config.output_path, what)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvsteer",
        description="Steering and Bell criteria for two-mode oscillator Fock superpositions.",
        epilog="exit codes: 0 ok, 2 invalid config, 3 tolerance not met, "
               "4 unwritable output, 5 no crossing for a criterion",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, func in (
            ("eval", "evaluate criteria at a single theta", cmd_eval),
            ("sweep", "evaluate criteria on a uniform theta grid", cmd_sweep),
            ("critical", "locate angles where criteria meet their bounds", cmd_critical),
            ("report", "criteria-coverage report (always JSON)", cmd_report)):
        # Only the flags given reach the namespace: main lays them over the config file.
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        for opt in _options_of(name):
            shown = ",".join(opt.default) if isinstance(opt.default, tuple) else opt.default
            text = opt.help if shown is None or shown is False else f"{opt.help} (default {shown})"
            reads = {"action": "store_true"} if opt.type is _boolean else {"type": opt.type}
            p.add_argument(*opt.flags, dest=opt.key, help=text, **reads)
        p.add_argument("--config", metavar="PATH",
                       help="flat 'key = value' file of this command's options; flags override it")
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Defaults, overridden by the config file, overridden by the flags given.
    config = argparse.Namespace(**{opt.key: opt.default for opt in _options_of(args.command)})
    try:
        if "config" in args:
            vars(config).update(_read_config_file(args.config, args.command))
        vars(config).update(vars(args))
        _validate(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return args.func(config)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
