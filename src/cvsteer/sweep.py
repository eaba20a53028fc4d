"""Parameter sweeps over the built-in state families, critical-angle location, and the
criteria-coverage report.

Critical angles come from one uniform sweep of the criterion over [0, pi]: sign changes
of value - bound between samples are bisected (kind ``crossing``), and samples where
the value equals the bound exactly with no sign change are touch-points (kind
``touch``, zero-width bracket). The bound is met exactly only where the evaluators are
exact, at product states; for every family cos(theta)|A> + sin(theta)|B> those sit at
0, pi/2 and pi, which an odd sample count places on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping

import numpy as np

from .criteria import CHSH_CLASSICAL_BOUND, chsh_max, entropic_value, reid_value
from .fock import FockState, make_psi, make_psi_prime
from .quadrature import DEFAULT_SPEC, QuadratureSpec

__all__ = [
    "CRITERIA",
    "STATE_BUILDERS",
    "CriticalAngle",
    "SweepResult",
    "HierarchyReport",
    "NoRootInRange",
    "sweep",
    "find_critical_angles",
    "hierarchy_report",
]

CRITERIA = ("reid", "entropic", "chsh")

STATE_BUILDERS: Mapping[str, Callable[[float], FockState]] = {
    "psi": make_psi,
    "psi-prime": make_psi_prime,
}

_SCAN_POINTS = 315  # odd, so the uniform grid on [0, pi] holds 0, pi/2 and pi exactly
_ROOT_TOL = 1e-6  # default bisection width; hierarchy_report reads its scans at it


class NoRootInRange(LookupError):
    """No sign change and no touch-point of the criterion over [0, pi]."""


@dataclass(frozen=True)
class CriticalAngle:
    criterion: str
    angle: float
    bracket: tuple[float, float]
    residual: float
    kind: str  # "crossing" | "touch"


@dataclass(frozen=True)
class SweepResult:
    state_id: str
    thetas: tuple[float, ...]
    values: Mapping[str, tuple[float, ...]]
    flagged: tuple[tuple[str, float], ...] = ()  # (criterion, theta) with unmet tolerance


@dataclass(frozen=True)
class HierarchyReport:
    """Where each detector fires, as unions of open intervals (lo, hi).

    Spans never merge across a bound-touching angle, so an isolated excluded point
    (e.g. pi/2) appears as a zero-width gap between two spans. ``undetected_steering``
    is the CHSH-violating region minus both detected regions: Bell nonlocality there
    guarantees steering that neither criterion sees, hence ``criteria_incomplete``.
    """

    state_id: str
    chsh_violation_region: tuple[tuple[float, float], ...]
    reid_detected: tuple[tuple[float, float], ...]
    entropic_detected: tuple[tuple[float, float], ...]
    undetected_steering: tuple[tuple[float, float], ...]
    criteria_incomplete: bool


def _builder(state_id: str) -> Callable[[float], FockState]:
    key = state_id.replace("_", "-").lower()
    if key not in STATE_BUILDERS:
        raise ValueError(f"unknown state id {state_id!r}; expected one of {sorted(STATE_BUILDERS)}")
    return STATE_BUILDERS[key]


def _evaluate(criterion: str, state: FockState, spec: QuadratureSpec, theta: float):
    if criterion == "reid":
        return reid_value(state, spec=spec, theta=theta)
    if criterion == "entropic":
        return entropic_value(state, spec=spec, theta=theta)
    if criterion == "chsh":
        return chsh_max(state, theta=theta)
    raise ValueError(f"unknown criterion {criterion!r}; expected one of {CRITERIA}")


def sweep(state_id: str, criteria_set: Iterable[str], n_points: int,
          spec: QuadratureSpec = DEFAULT_SPEC, theta_min: float = 0.0,
          theta_max: float = math.pi) -> SweepResult:
    """Evaluate the requested criteria on a uniform theta grid.

    Results are emitted in grid order; the per-theta evaluations are independent, so
    the output does not depend on any execution interleaving. Unmet quadrature
    tolerances are collected in ``flagged`` without aborting the sweep.
    """
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    if not theta_min < theta_max:
        raise ValueError("theta_min must be < theta_max")
    build = _builder(state_id)
    requested = set(criteria_set)
    if not requested:
        raise ValueError("criteria_set must name at least one criterion")
    unknown = sorted(requested.difference(CRITERIA))
    if unknown:
        raise ValueError(f"unknown criteria {unknown}; expected names from {CRITERIA}")
    wanted = [c for c in CRITERIA if c in requested]
    thetas = np.linspace(theta_min, theta_max, n_points)
    columns: dict[str, list[float]] = {c: [] for c in wanted}
    flagged: list[tuple[str, float]] = []
    for theta in thetas.tolist():
        state = build(theta)
        for c in wanted:
            res = _evaluate(c, state, spec, theta)
            columns[c].append(res.value)
            if not res.converged:
                flagged.append((c, theta))
    return SweepResult(
        state_id=state_id,
        thetas=tuple(thetas.tolist()),
        values={c: tuple(col) for c, col in columns.items()},
        flagged=tuple(flagged),
    )


def _bisect(f: Callable[[float], float], lo: float, hi: float, f_lo: float,
            root_tol: float) -> tuple[float, tuple[float, float], float]:
    while hi - lo > root_tol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid, (mid, mid), 0.0
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    angle = 0.5 * (lo + hi)
    return angle, (lo, hi), abs(f(angle))


def find_critical_angles(state_id: str, criterion: str,
                         spec: QuadratureSpec = DEFAULT_SPEC,
                         root_tol: float = _ROOT_TOL) -> tuple[CriticalAngle, ...]:
    """Locate every angle in [0, pi] where the criterion meets its classical bound.

    A sweep on 315 uniform angles (0, pi/2 and pi among them) finds the sign changes
    of value - bound, each bisected to width <= root_tol (kind="crossing"). Samples
    where the value equals the bound exactly without a sign change are reported with
    kind="touch", a zero-width bracket and residual 0. Raises NoRootInRange when
    neither kind exists. Results are memoized: the location is a pure deterministic
    function of its arguments, and the report layer re-requests the same scans.
    """
    if root_tol <= 0:
        raise ValueError("root_tol must be positive")
    _builder(state_id)  # validate before normalizing the cache key
    found, _values = _find_critical_angles_cached(state_id.replace("_", "-").lower(),
                                                  criterion, spec, root_tol)
    if not found:
        raise NoRootInRange(f"{criterion} never meets its bound for state {state_id!r}")
    return found


@lru_cache(maxsize=128)
def _find_critical_angles_cached(state_id: str, criterion: str, spec: QuadratureSpec,
                                 root_tol: float) -> tuple[tuple[CriticalAngle, ...], np.ndarray]:
    """The sorted bound-meeting angles (possibly none) and the scan's value - bound."""
    build = _builder(state_id)
    bound = CHSH_CLASSICAL_BOUND if criterion == "chsh" else 0.0

    def f(theta: float) -> float:
        return _evaluate(criterion, build(theta), spec, theta).value - bound

    scan = sweep(state_id, (criterion,), _SCAN_POINTS, spec)
    grid = scan.thetas
    values = np.array(scan.values[criterion]) - bound
    values.setflags(write=False)

    found: list[CriticalAngle] = []
    for i in range(len(grid) - 1):
        f0, f1 = values[i], values[i + 1]
        if f0 == 0.0 or f1 == 0.0:
            continue  # exact grid zeros are classified below
        if (f0 > 0.0) != (f1 > 0.0):
            angle, bracket, residual = _bisect(f, grid[i], grid[i + 1], float(f0), root_tol)
            found.append(CriticalAngle(criterion, angle, bracket, residual, "crossing"))

    for i in np.flatnonzero(values == 0.0):
        left = values[i - 1] if i > 0 else None
        right = values[i + 1] if i + 1 < values.size else None
        if left is not None and right is not None and (left > 0.0) != (right > 0.0):
            kind = "crossing"
        else:
            kind = "touch"
        angle = grid[i]
        found.append(CriticalAngle(criterion, angle, (angle, angle), 0.0, kind))

    return tuple(sorted(found, key=lambda r: r.angle)), values


def _violation_spans(state_id: str, criterion: str,
                     spec: QuadratureSpec) -> tuple[tuple[float, float], ...]:
    """Open intervals between consecutive bound-meeting angles where the criterion is
    strictly violated, read from the samples of the scan that located the angles.

    A sign change between two samples always puts an angle between them, so the
    nonzero samples inside one interval share a sign: the interval is violated when
    any of them exceeds the bound. No criterion is evaluated again.
    """
    roots = find_critical_angles(state_id, criterion, spec)
    values = _find_critical_angles_cached(state_id.replace("_", "-").lower(),
                                          criterion, spec, _ROOT_TOL)[1]
    grid = np.linspace(0.0, math.pi, _SCAN_POINTS)
    cuts = [0.0]
    for r in roots:
        if cuts[-1] < r.angle < math.pi:
            cuts.append(r.angle)
    cuts.append(math.pi)
    return tuple((lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])
                 if np.any(values[(grid >= lo) & (grid <= hi)] > 0.0))


def _subtract_spans(spans, minus):
    out = []
    for lo, hi in spans:
        pieces = [(lo, hi)]
        for m_lo, m_hi in minus:
            trimmed = []
            for p_lo, p_hi in pieces:
                if m_hi <= p_lo or m_lo >= p_hi:
                    trimmed.append((p_lo, p_hi))
                    continue
                if m_lo > p_lo:
                    trimmed.append((p_lo, m_lo))
                if m_hi < p_hi:
                    trimmed.append((m_hi, p_hi))
            pieces = trimmed
        out.extend(p for p in pieces if p[1] - p[0] > 1e-12)
    return tuple(sorted(out))


def hierarchy_report(state_id: str, spec: QuadratureSpec = DEFAULT_SPEC) -> HierarchyReport:
    """Compose critical angles into the detector-coverage report.

    undetected_steering = (CHSH-violating region) minus (Reid region) minus (entropic
    region). Nonempty for both built-in families: in that set the state is Bell
    nonlocal, hence steerable, yet neither steering criterion fires.
    """
    reid_spans = _violation_spans(state_id, "reid", spec)
    ent_spans = _violation_spans(state_id, "entropic", spec)
    chsh_spans = _violation_spans(state_id, "chsh", spec)
    undetected = _subtract_spans(_subtract_spans(chsh_spans, reid_spans), ent_spans)
    return HierarchyReport(
        state_id=state_id,
        chsh_violation_region=chsh_spans,
        reid_detected=reid_spans,
        entropic_detected=ent_spans,
        undetected_steering=undetected,
        criteria_incomplete=any(hi - lo > 0.0 for lo, hi in undetected),
    )
