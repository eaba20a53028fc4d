"""Parameter sweeps over the built-in state families, critical-angle location, and the
criteria-coverage report.

Critical angles come from a Chebyshev proxy of value - bound on each half of [0, pi]
(Boyd, SIAM J. Numer. Anal. 40 (2002) 1666; Trefethen, Approximation Theory and
Approximation Practice, ch. 18). A half is sampled, each point once through the
search's memo, at nested Chebyshev-Lobatto points whose degree doubles from 16 until the
trailing coefficients fall below 10 * panel_tol, the accuracy the quadrature itself is
asked for. The real roots of the chopped interpolants, eigenvalues of the colleague
matrix that ``fock._series_roots`` builds from the Chebyshev recurrence
(``_chebyshev_position``), are probed on the true criterion; each sign change between
neighbouring evaluations is polished by Illinois steps (kind ``crossing``). Samples
where the value equals the bound exactly with no sign change are touch-points (kind
``touch``, zero-width bracket). The bound is met exactly only at product states, and by
Reid and entropic only where mode 2 is in its ground level (any other product's
entropic value is a 1-D integral). For every family cos(theta)|A> + sin(theta)|B> the
products sit at 0, pi/2 and pi, the ends of the two halves.

When a local mode parity separates A and B (``fock._parities``), every criterion takes
the same value at theta and pi - theta. Only [pi/2, pi] is then sampled, probed and
polished; its points and angles are reflected onto [0, pi/2], and the touch at pi gives
the touch at 0. The reflection pi - theta is exact for theta >= pi/2 (Sterbenz), so a
reflected bracket keeps its width. Both built-in families have this mirror.

Each (family, criterion, spec, root_tol) is searched once per process (``_search``), and
``find_critical_angles``, ``hierarchy_report`` and ``sweep`` share that cache. The report
and the sweep read the search at ``_ROOT_TOL`` (1e-6) and evaluate no criterion of their
own: the report takes every span's sign from its samples and probes, and the sweep
interpolates each half's final Lobatto samples at its grid angles.
"""

from __future__ import annotations

import bisect
import math
from functools import lru_cache
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from .criteria import CRITERIA
from .fock import (Domain, FockState, _amplitudes, _parities, _series_roots, make_psi,
                   make_psi_prime)
from .quadrature import DEFAULT_SPEC, QuadratureSpec

__all__ = [
    "CRITERIA",
    "STATE_BUILDERS",
    "CriticalAngle",
    "CriticalSearch",
    "SweepResult",
    "HierarchyReport",
    "sweep",
    "find_critical_angles",
    "hierarchy_report",
]

STATE_BUILDERS: Mapping[str, Callable[[float], FockState]] = {
    "psi": make_psi,
    "psi-prime": make_psi_prime,
}

_DEGREE_START = 16  # first Chebyshev degree on each half of [0, pi]
_DEGREE_MAX = 256  # a half whose coefficients have not decayed by this degree is flagged
_ROOT_TOL = 1e-6  # default polish width; hierarchy_report reads its searches at it


class CriticalAngle(NamedTuple):
    criterion: str
    angle: float
    bracket: tuple[float, float]
    residual: float
    kind: str  # "crossing" | "touch"


class SweepResult(NamedTuple):
    state_id: str
    thetas: tuple[float, ...]
    values: Mapping[str, tuple[float, ...]]
    flagged: tuple[str, ...] = ()  # the criteria whose search missed a tolerance


class HierarchyReport(NamedTuple):
    """Where each detector fires, as unions of open intervals (lo, hi).

    Spans never merge across a bound-touching angle, so an isolated excluded point
    (e.g. pi/2) appears as a zero-width gap between two spans. ``undetected_steering``
    is the CHSH-violating region minus both detected regions: Bell nonlocality there
    guarantees steering that neither criterion sees, hence ``criteria_incomplete``.
    ``flagged`` names the criteria whose critical-angle search had an evaluation that
    missed its quadrature tolerance.
    """

    state_id: str
    chsh_violation_region: tuple[tuple[float, float], ...]
    reid_detected: tuple[tuple[float, float], ...]
    entropic_detected: tuple[tuple[float, float], ...]
    undetected_steering: tuple[tuple[float, float], ...]
    criteria_incomplete: bool
    flagged: tuple[str, ...] = ()


def _family(state_id: str) -> str:
    """The STATE_BUILDERS key of a family name; case and '_' for '-' do not matter."""
    key = state_id.replace("_", "-").lower()
    if key not in STATE_BUILDERS:
        raise ValueError(f"unknown state id {state_id!r}; expected one of {sorted(STATE_BUILDERS)}")
    return key


def _mirrored(a: FockState, b: FockState) -> bool:
    """Whether cos(theta) a + sin(theta) b meets every criterion at pi - theta as at
    theta: the terms of a share one parity in a mode and those of b the other."""
    pa, pb = (_parities(_amplitudes(state, Domain.POSITION))[1:] for state in (a, b))
    return any({p, q} == {0, 1} for p, q in zip(pa, pb))


def _criteria(names: Iterable[str]) -> list[str]:
    """The named criteria in CRITERIA order. Raises ValueError when none is named, or
    names the first unknown one in the order given."""
    names = tuple(names)
    if not names:
        raise ValueError("at least one criterion is required")
    for name in names:
        if name not in CRITERIA:
            raise ValueError(f"unknown criterion {name!r}; expected one of {tuple(CRITERIA)}")
    return [c for c in CRITERIA if c in names]


def sweep(state_id: str, criteria_set: Iterable[str], n_points: int,
          spec: QuadratureSpec = DEFAULT_SPEC, theta_min: float = 0.0,
          theta_max: float = math.pi) -> SweepResult:
    """The requested criteria on a uniform grid in [0, pi], in grid order, interpolated from
    the final Lobatto samples of their searches at _ROOT_TOL (a sample keeps its value). On
    a mirrored family an angle below pi/2 is read at pi - theta. ``flagged`` names the
    criteria whose search missed a tolerance, in CRITERIA order."""
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    if not 0.0 <= theta_min < theta_max <= math.pi:  # NaN fails too
        raise ValueError(f"theta_min/theta_max: need 0 <= theta_min < theta_max <= pi, "
                         f"got {theta_min!r} and {theta_max!r}")
    family, wanted = _family(state_id), _criteria(criteria_set)
    grid = np.linspace(theta_min, theta_max, n_points)
    values, flagged = {}, []
    for c in wanted:
        search = _search(family, c, spec, _ROOT_TOL)
        x = np.where(grid < search.halves[0][0], math.pi - grid, grid)  # mirrored: pi - theta
        column = np.empty(n_points)
        for lo, hi, points, gaps in search.halves:
            inside = (lo <= x) & (x <= hi)
            column[inside] = _barycentric(x[inside], points, gaps) + CRITERIA[c].bound
        values[c] = tuple(column.tolist())
        flagged += [] if search.converged else [c]
    return SweepResult(family, tuple(grid.tolist()), values, tuple(flagged))


def _barycentric(x: np.ndarray, points: tuple, values: tuple) -> np.ndarray:
    """values at Chebyshev-Lobatto points interpolated at x by the second barycentric formula
    (Berrut & Trefethen, SIAM Rev. 46 (2004) 501), summed node by node; a point is exact."""
    weights = (-1.0) ** np.arange(len(points))
    weights[[0, -1]] *= 0.5
    num, den = np.zeros_like(x), np.zeros_like(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        for t, f, w in zip(points, values, weights.tolist()):
            d = w / (x - t)
            num += d * f
            den += d
        out = num / den
    for t, f in zip(points, values):
        out[x == t] = f
    return out


def _chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """Coefficients c_k of sum_k c_k T_k(x), the degree-n interpolant of values sampled
    at the Chebyshev-Lobatto points x_j = cos(pi j / n): a DCT-I as one cosine-matrix
    product, with the first and last sample and coefficient halved."""
    n = values.size - 1
    k = np.arange(n + 1)
    halved = np.ones(n + 1)
    halved[[0, n]] = 0.5
    # j k mod 2n keeps every cosine argument in [0, 2 pi)
    cosines = np.cos(np.pi / n * (np.outer(k, k) % (2 * n)))
    return (2.0 / n) * halved * (cosines @ (halved * values))


def _chebyshev_position(n: int) -> np.ndarray:
    """The (n + 1) x (n + 1) Jacobi matrix of x in the Chebyshev basis, from the
    recurrence x T_0 = T_1, x T_k = (T_(k-1) + T_(k+1)) / 2."""
    jacobi = np.diag(np.full(n, 0.5), 1) + np.diag(np.full(n, 0.5), -1)
    jacobi[0, 1:2] = 1.0
    return jacobi


def _chebyshev_half(sample: Callable[[float], float], lo: float, hi: float,
                    tol: float) -> tuple[np.ndarray, bool, tuple]:
    """Interpolate sample on [lo, hi] at the Chebyshev-Lobatto points of degree 16, 32,
    ..., until the trailing max(5, n/8) coefficients are below tol (Chebfun's classic
    chop test). lo and hi are sampled exactly. Each degree samples the last one's points
    again, bit for bit, so ``sample`` must memoize. Returns the real roots in (lo, hi) of
    the interpolant chopped after its last coefficient >= tol (fock._series_roots over
    _chebyshev_position, which also drops a leading coefficient below 1e-14 of the
    largest; an empty or constant interpolant has none), whether the tail fell below tol
    by degree _DEGREE_MAX, and (lo, hi, final points, their values).
    """
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    n = _DEGREE_START
    while True:
        thetas = mid + half * np.cos(np.pi / n * np.arange(n + 1))
        thetas[[0, n]] = hi, lo
        values = np.array([sample(t) for t in thetas.tolist()])
        coeffs = _chebyshev_coefficients(values)
        chopped = bool(np.all(np.abs(coeffs[-max(5, n // 8):]) < tol))
        if chopped or n >= _DEGREE_MAX:
            break
        n *= 2
    big = np.flatnonzero(np.abs(coeffs) >= tol)
    kept = coeffs[:big[-1] + 1 if big.size else 1]  # a constant has no roots
    roots = _series_roots(kept[:, None], _chebyshev_position(kept.size - 1))[0]
    return (mid + half * roots[np.abs(roots) < 1.0], chopped,  # NaN fails too
            (lo, hi, tuple(thetas.tolist()), tuple(values.tolist())))


class CriticalSearch(NamedTuple):
    """One critical-angle search: its bound-meeting angles, ascending and empty when the
    criterion never meets its bound, and what located them. ``converged`` is False when
    an evaluation missed its quadrature tolerance or a half was not resolved by degree
    _DEGREE_MAX; ``sweep`` and ``hierarchy_report`` flag the criterion then."""

    roots: tuple[CriticalAngle, ...]
    points: tuple[tuple[float, float], ...]  # samples and probes (reflected), ascending
    converged: bool
    halves: tuple[tuple, ...]  # (lo, hi, points, value - bound) per half sampled, ascending


def _illinois(f: Callable[[float], float], lo: float, hi: float, f_lo: float, f_hi: float,
              root_tol: float) -> tuple[float, tuple[float, float], float]:
    """Shrink a sign-change bracket to width <= root_tol by modified regula falsi (the
    Illinois rule: an end kept twice in a row has its value halved; Dowell & Jarratt,
    BIT 11 (1971) 168). Returns the final secant point, the bracket and |f| there."""
    kept = 0  # -1: lo was kept by the last step, +1: hi was
    while hi - lo > root_tol:
        # A step at least root_tol/2 in from both ends can close the bracket (Brent 1973)
        x = min(max(lo - f_lo * (hi - lo) / (f_hi - f_lo), lo + 0.5 * root_tol),
                hi - 0.5 * root_tol)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break  # the bracket is two adjacent floats
        fx = f(x)
        if fx == 0.0:
            return x, (x, x), 0.0
        if (fx > 0.0) == (f_lo > 0.0):
            lo, f_lo = x, fx
            f_hi *= 0.5 if kept == 1 else 1.0
            kept = 1
        else:
            hi, f_hi = x, fx
            f_lo *= 0.5 if kept == -1 else 1.0
            kept = -1
    x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    return x, (lo, hi), abs(f(x))


def find_critical_angles(state_id: str, criterion: str,
                         spec: QuadratureSpec = DEFAULT_SPEC,
                         root_tol: float = _ROOT_TOL) -> CriticalSearch:
    """Locate every angle in [0, pi] where the criterion meets its classical bound.

    value - bound is sampled on [pi/2, pi] and, unless the family is mirrored (see the
    module docstring), on [0, pi/2], at nested Chebyshev-Lobatto points until its
    Chebyshev coefficients decay below 10 * spec.panel_tol; the real roots of the chopped
    interpolants are the candidate crossings. Each is probed on either side at
    10 * spec.panel_tol / |slope|, slope of the samples around it, kept in
    [root_tol/4, root_tol/2], then cut to half its distance to them, so that both
    probes stay between those samples; every sign change between neighbouring samples
    and probes is shrunk by Illinois steps to a bracket no wider than root_tol
    (kind="crossing"), so proxy roots where the true criterion keeps its sign are
    dropped. Samples where the value equals the bound exactly without a sign change are
    reported with kind="touch", a zero-width bracket and residual 0. On a mirrored
    family each angle above pi/2 also gives pi - angle, bracket reflected.

    Returns the search: ``roots`` holds the angles, empty when neither kind exists, and
    ``converged`` is False when any evaluation missed its quadrature tolerance or a half
    was not resolved by degree _DEGREE_MAX. The search is memoized by (family, criterion,
    spec, root_tol), and this is the object that ``sweep`` and ``hierarchy_report`` read
    at the default root_tol.
    """
    if not root_tol > 0:  # NaN fails too
        raise ValueError("root_tol must be positive")
    _criteria((criterion,))
    return _search(_family(state_id), criterion, spec, root_tol)


@lru_cache(maxsize=128)
def _search(family: str, criterion: str, spec: QuadratureSpec, root_tol: float) -> CriticalSearch:
    """The sorted bound-meeting angles (possibly none) of one family and criterion, with
    the samples and probes that located them (see find_critical_angles)."""
    build = STATE_BUILDERS[family]
    entry = CRITERIA[criterion]
    missed: list[float] = []

    def gap(theta: float) -> float:
        res = entry.evaluate(build(theta), spec)
        if not res.converged:
            missed.append(theta)
        return res.value - entry.bound

    points: dict[float, float] = {}  # samples and probes; the Illinois steps stay out

    def sample(theta: float) -> float:
        if theta not in points:  # each degree holds the last; the halves share pi/2
            points[theta] = gap(theta)
        return points[theta]

    mirrored = _mirrored(build(0.0), build(0.5 * math.pi))
    tol = 10.0 * spec.panel_tol
    ends = ([] if mirrored else [(0.0, 0.5 * math.pi)]) + [(0.5 * math.pi, math.pi)]
    halves = [_chebyshev_half(sample, lo, hi, tol) for lo, hi in ends]
    samples = sorted(points.items())
    for r in np.concatenate([roots for roots, _, _ in halves]).tolist():
        # The proxy's error is its chop tolerance over the slope; probes <= root_tol apart,
        # between the samples around r
        i = bisect.bisect(samples, (r,))
        (t0, f0), (t1, f1) = samples[i - 1], samples[i]
        error = tol * (t1 - t0) / max(abs(f1 - f0), 1e-300)
        width = min(max(0.25 * root_tol, min(error, 0.5 * root_tol)),
                    0.5 * (r - t0), 0.5 * (t1 - r))
        sample(r - width)
        sample(r + width)
    grid = sorted(points.items())

    found = [_illinois(gap, t0, t1, f0, f1, root_tol) + ("crossing",)
             for (t0, f0), (t1, f1) in zip(grid, grid[1:])
             if f0 < 0.0 < f1 or f1 < 0.0 < f0]
    for i, (theta, value) in enumerate(grid):
        if value == 0.0:
            between = 0 < i < len(grid) - 1 and (grid[i - 1][1] > 0.0) != (grid[i + 1][1] > 0.0)
            found.append((theta, (theta, theta), 0.0, "crossing" if between else "touch"))
    if mirrored:
        found += [(math.pi - angle, (math.pi - hi, math.pi - lo), residual, kind)
                  for angle, (lo, hi), residual, kind in found if angle > 0.5 * math.pi]
        grid = sorted(dict(grid + [(math.pi - theta, value) for theta, value in grid]).items())

    converged = not missed and all(chopped for _, chopped, _ in halves)
    roots = tuple(CriticalAngle(criterion, *root) for root in sorted(found))
    return CriticalSearch(roots, tuple(grid), converged, tuple(h for _, _, h in halves))


def _violation_spans(family: str, criterion: str,
                     spec: QuadratureSpec) -> tuple[tuple[tuple[float, float], ...], bool]:
    """Open intervals between consecutive bound-meeting angles where the criterion is
    strictly violated, read from the samples and probes of the search that located the
    angles, and whether that search met every tolerance.

    A sign change between two neighbouring samples always puts an angle between them,
    so the nonzero samples inside one interval share a sign: the interval is violated
    when any of them exceeds the bound. No criterion is evaluated again.
    """
    search = _search(family, criterion, spec, _ROOT_TOL)
    cuts = [0.0]
    for r in search.roots:
        if cuts[-1] < r.angle < math.pi:
            cuts.append(r.angle)
    cuts.append(math.pi)
    spans = tuple((lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])
                  if any(value > 0.0 for theta, value in search.points if lo <= theta <= hi))
    return spans, search.converged


def _subtract_spans(spans, minus):
    out = []
    for lo, hi in spans:
        pieces = [(lo, hi)]
        for m_lo, m_hi in minus:
            pieces = [p for a, b in pieces
                      for p in ((a, min(b, m_lo)), (max(a, m_hi), b)) if p[1] > p[0]]
        out.extend(p for p in pieces if p[1] - p[0] > 1e-12)
    return tuple(sorted(out))


def hierarchy_report(state_id: str, spec: QuadratureSpec = DEFAULT_SPEC) -> HierarchyReport:
    """Compose critical angles into the detector-coverage report.

    undetected_steering = (CHSH-violating region) minus (Reid region) minus (entropic
    region). Nonempty for both built-in families: in that set the state is Bell
    nonlocal, hence steerable, yet neither steering criterion fires.
    """
    family = _family(state_id)
    spans, met = {}, {}
    for c in CRITERIA:
        spans[c], met[c] = _violation_spans(family, c, spec)
    undetected = _subtract_spans(_subtract_spans(spans["chsh"], spans["reid"]),
                                 spans["entropic"])
    return HierarchyReport(
        state_id=family,
        chsh_violation_region=spans["chsh"],
        reid_detected=spans["reid"],
        entropic_detected=spans["entropic"],
        undetected_steering=undetected,
        criteria_incomplete=any(hi - lo > 0.0 for lo, hi in undetected),
        flagged=tuple(c for c in CRITERIA if not met[c]),
    )
