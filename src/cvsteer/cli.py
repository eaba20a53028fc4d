"""Command-line front end: evaluate criteria, sweep theta grids, locate critical
angles, and emit the criteria-coverage report.

Exit codes: 0 ok; 2 invalid configuration (message names the field); 3 a quadrature
tolerance was not met and --allow-flagged was absent; 4 unwritable output path;
5 a requested criterion has no crossing-type critical angle.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields

from .criteria import CriterionResult
from .quadrature import QuadratureSpec
from .sweep import (
    CRITERIA,
    NoRootInRange,
    STATE_BUILDERS,
    _evaluate,
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

# Fixed flat schema for criterion records; component cells are empty when a component
# does not belong to the criterion. Column order never depends on the request.
_EVAL_COLUMNS = (
    "criterion", "theta", "value", "violated", "converged",
    "delta2_min_x2", "delta2_min_p2", "h_x2_given_x1", "h_p2_given_p1",
    "t_singular_1", "t_singular_2", "t_singular_3",
)

_SWEEP_COLUMN_OF = {"reid": "i_reid", "entropic": "i_ent", "chsh": "i_chsh"}


class ConfigError(ValueError):
    """Invalid configuration; the message starts with the offending field name."""


@dataclass
class RunConfig:
    state: str = "psi"
    criteria: tuple[str, ...] = ("reid", "entropic", "chsh")
    theta: float | None = None
    theta_min: float = 0.0
    theta_max: float = math.pi
    steps: int = 315
    half_width: float = 8.0
    panel_tol: float = 1e-10
    root_tol: float = 1e-6
    output_path: str | None = None
    format: str = "csv"
    allow_flagged: bool = False

    def spec(self) -> QuadratureSpec:
        return QuadratureSpec(half_width=self.half_width, panel_tol=self.panel_tol)


_CONFIG_KEYS = {f.name for f in fields(RunConfig)} | {"L"}
_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _parse_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path!r}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config: line {lineno} is not 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"config: unknown key {key!r} on line {lineno}")
        values["half_width" if key == "L" else key] = value.strip()
    return values


def _coerce(field: str, raw: str):
    if field == "steps":
        return int(raw)
    if field in ("theta", "theta_min", "theta_max", "half_width", "panel_tol", "root_tol"):
        return float(raw)
    if field == "allow_flagged":
        low = raw.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if field == "criteria":
        return tuple(part.strip() for part in raw.split(",") if part.strip())
    return raw


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overridden by the config file, overridden by explicit CLI flags."""
    config = RunConfig()
    if getattr(args, "config", None):
        for key, raw in _parse_config_file(args.config).items():
            try:
                setattr(config, key, _coerce(key, raw))
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
    for field in (f.name for f in fields(RunConfig)):
        value = getattr(args, field, None)
        if value is not None:
            setattr(config, field, value)
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    try:
        config.state = _family(config.state)
    except ValueError as exc:
        raise ConfigError(f"state: {exc}") from exc
    if not config.criteria:
        raise ConfigError("criteria: at least one criterion is required")
    for c in config.criteria:
        if c not in CRITERIA:
            raise ConfigError(f"criteria: {c!r} is not one of {CRITERIA}")
    if config.theta is not None and not 0.0 <= config.theta <= math.pi:
        raise ConfigError(f"theta: {config.theta!r} outside [0, pi]")
    if not 0.0 <= config.theta_min < config.theta_max <= math.pi:
        raise ConfigError("theta_min/theta_max: need 0 <= theta_min < theta_max <= pi")
    if config.steps < 2:
        raise ConfigError(f"steps: {config.steps} is below the minimum of 2")
    try:
        config.spec()
    except ValueError as exc:  # the message starts with the field name
        raise ConfigError(str(exc)) from exc
    if not config.root_tol > 0:
        raise ConfigError(f"root_tol: {config.root_tol!r} must be positive")
    if config.format not in ("csv", "json"):
        raise ConfigError(f"format: {config.format!r} is not 'csv' or 'json'")


def _fmt(x: float) -> str:
    """Shortest decimal with 10 significant digits; stable across runs."""
    return f"{x:.10g}"


def _finish(config: RunConfig, text: str, path: str | None, unmet: str = "",
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


def _eval_record(res: CriterionResult) -> dict:
    return {
        "criterion": res.criterion,
        "theta": res.theta,
        "value": res.value,
        "violated": res.violated,
        "converged": res.converged,
        "components": dict(res.components),
    }


def _eval_csv(results: list[CriterionResult]) -> str:
    lines = [",".join(_EVAL_COLUMNS)]
    for res in results:
        cells = [res.criterion, _fmt(res.theta), _fmt(res.value),
                 str(res.violated).lower(), str(res.converged).lower()]
        for col in _EVAL_COLUMNS[5:]:
            cells.append(_fmt(res.components[col]) if col in res.components else "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def cmd_eval(config: RunConfig) -> int:
    if config.theta is None:
        print("config error: theta: required for eval", file=sys.stderr)
        return EXIT_CONFIG
    state = STATE_BUILDERS[config.state](config.theta)
    spec = config.spec()
    results = [_evaluate(c, state, spec, config.theta) for c in _ordered(config.criteria)]
    if config.format == "json":
        payload = {"state": config.state,
                   "results": [_eval_record(r) for r in results]}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = _eval_csv(results)
    unmet = [r.criterion for r in results if not r.converged]
    return _finish(config, text, config.output_path,
                   f"the evaluation of {', '.join(unmet)}" if unmet else "")


def cmd_sweep(config: RunConfig) -> int:
    result = sweep(config.state, config.criteria, config.steps, config.spec(),
                   config.theta_min, config.theta_max)
    wanted = _ordered(config.criteria)
    if config.format == "json":
        payload = {"state": config.state, "theta": list(result.thetas)}
        for c in wanted:
            payload[_SWEEP_COLUMN_OF[c]] = list(result.values[c])
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        header = ["theta"] + [_SWEEP_COLUMN_OF[c] for c in wanted]
        lines = [",".join(header)]
        for i, theta in enumerate(result.thetas):
            row = [_fmt(theta)] + [_fmt(result.values[c][i]) for c in wanted]
            lines.append(",".join(row))
        text = "\n".join(lines) + "\n"
    return _finish(config, text, config.output_path,
                   f"{len(result.flagged)} grid point(s)" if result.flagged else "")


def cmd_critical(config: RunConfig) -> int:
    spec = config.spec()
    records = []
    rootless = []
    unmet = []
    for criterion in _ordered(config.criteria):
        try:
            roots = find_critical_angles(config.state, criterion, spec, config.root_tol)
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


def cmd_report(config: RunConfig) -> int:
    report = hierarchy_report(config.state, config.spec())
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

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--state", choices=STATE_BUILDERS, default=None,
                       help="built-in state family (default psi)")
        p.add_argument("--criteria", type=lambda s: _coerce("criteria", s), default=None,
                       metavar="LIST", help="comma-separated subset of reid,entropic,chsh")
        p.add_argument("--config", default=None, metavar="PATH",
                       help="flat 'key = value' config file; CLI flags override it")
        p.add_argument("--output", dest="output_path", default=None, metavar="PATH",
                       help="output file (default: standard output)")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--half-width", "--L", dest="half_width", type=float, default=None,
                       help="truncation half-width L for panel integrals (default 8)")
        p.add_argument("--panel-tol", dest="panel_tol", type=float, default=None,
                       help="absolute adaptive-panel tolerance (default 1e-10)")
        p.add_argument("--root-tol", dest="root_tol", type=float, default=None,
                       help="bracket width for critical angles (default 1e-6)")
        p.add_argument("--allow-flagged", dest="allow_flagged", action="store_true", default=None,
                       help="accept results whose quadrature tolerance was not met")

    p_eval = sub.add_parser("eval", help="evaluate criteria at a single theta")
    p_eval.add_argument("--theta", type=float, default=None, required=False)
    add_common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="evaluate criteria on a uniform theta grid")
    p_sweep.add_argument("--steps", type=int, default=None)
    p_sweep.add_argument("--theta-min", dest="theta_min", type=float, default=None)
    p_sweep.add_argument("--theta-max", dest="theta_max", type=float, default=None)
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_crit = sub.add_parser("critical", help="locate angles where criteria meet their bounds")
    add_common(p_crit)
    p_crit.set_defaults(func=cmd_critical)

    p_rep = sub.add_parser("report", help="criteria-coverage report (always JSON)")
    add_common(p_rep)
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return args.func(config)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
