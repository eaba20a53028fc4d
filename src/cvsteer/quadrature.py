"""Adaptive Gauss-Kronrod panel integration.

Serves the differential-entropy integrands ``-g ln g``, whose integrable logarithmic
zeros rule out fixed polynomial rules, and the rational correction integrand of the
inference-variance criterion. Moments of the Fock states need no quadrature: they are
exact finite ladder-operator sums (see ``fock``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadratureSpec",
    "DEFAULT_SPEC",
    "IntegralResult",
    "integrate_entropy_1d",
    "integrate_entropy_2d",
    "adaptive_panels",
    "ENTROPY_FLOOR",
]

# Densities below this floor contribute exactly 0 to entropy integrands (0*ln 0 = 0).
ENTROPY_FLOOR = 1e-300


@dataclass(frozen=True)
class QuadratureSpec:
    """Precision budget shared by all integration routines.

    half_width  truncation L of panel integrals to [-L, L]
    panel_tol   absolute tolerance for one adaptive panel integral
    max_depth   bisection depth limit per panel
    """

    half_width: float = 8.0
    panel_tol: float = 1e-10
    max_depth: int = 40

    def __post_init__(self):
        if not self.half_width > 0:
            raise ValueError("half_width must be positive")
        if not 0.0 < self.panel_tol < 1.0:
            raise ValueError("panel_tol must lie in (0, 1)")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


DEFAULT_SPEC = QuadratureSpec()


@dataclass(frozen=True)
class IntegralResult:
    """Value plus error estimate; ``converged=False`` means the tolerance was not met
    within max_depth (the value is still the best available estimate)."""

    value: float
    error: float
    converged: bool


# 15-point Kronrod nodes with embedded 7-point Gauss weights (zero where the node is
# Kronrod-only). Standard tabulated values, accurate to double precision.
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769, -0.741531185599394,
    -0.586087235467691, -0.405845151377397, -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691, 0.741531185599394,
    0.864864423359769, 0.949107912342759, 0.991455371120813,
])
_GK_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
    0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_G7_WEIGHTS = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0, 0.381830050505119, 0.0,
    0.417959183673469, 0.0, 0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
])


def _segments(lo: float, hi: float,
              cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Initial panels of [lo, hi] for each row of ``cuts``, pre-split at its entries.

    ``cuts`` has shape (rows, r); NaN entries, entries outside (lo, hi) and entries
    within 1e-14 (hi - lo) of the previous one split nothing. Returns (row, seg_lo,
    seg_hi), rows in order and each row's panels ascending.
    """
    edges = np.full((cuts.shape[0], cuts.shape[1] + 2), float(hi))
    edges[:, 0] = lo
    edges[:, 1:-1] = np.sort(np.where((cuts > lo) & (cuts < hi), cuts, hi), axis=1)
    close = np.diff(edges[:, :-1], axis=1) <= 1e-14 * (hi - lo)
    edges[:, 1:-1][close] = hi
    edges.sort(axis=1)
    row, pos = np.nonzero(edges[:, 1:] > edges[:, :-1])
    return row, edges[row, pos], edges[row, pos + 1]


def _adaptive_many(f, task_of_seg, seg_lo, seg_hi, tol_per_task, max_depth, n_tasks):
    """Shared worklist refinement for a batch of independent panel integrals.

    ``f(task_ids, x)`` evaluates, elementwise, the integrand of task ``task_ids[i]`` at
    ``x[i]``. Every panel must meet the width-proportional share of its task's absolute
    tolerance; all pending panels of all tasks are evaluated in one vectorized call per
    sweep. Deterministic: panel ordering, splitting and accumulation are data-driven.
    """
    task = np.asarray(task_of_seg, dtype=np.intp)
    lo = np.asarray(seg_lo, dtype=float)
    hi = np.asarray(seg_hi, dtype=float)
    total_width = np.bincount(task, weights=hi - lo, minlength=n_tasks)
    depth = np.zeros(task.size, dtype=np.intp)

    values = np.zeros(n_tasks)
    errors = np.zeros(n_tasks)
    failed = np.zeros(n_tasks, dtype=bool)

    while task.size:
        half = 0.5 * (hi - lo)
        mid = lo + half
        pts = (mid[:, None] + half[:, None] * _GK_NODES).ravel()
        fv = f(np.repeat(task, _GK_NODES.size), pts).reshape(-1, _GK_NODES.size)
        ik = (fv @ _GK_WEIGHTS) * half
        ig = (fv @ _G7_WEIGHTS) * half
        perr = np.abs(ik - ig)
        share = tol_per_task[task] * (hi - lo) / total_width[task]
        ok = perr <= share
        # Roundoff floor of the panel sum: refining below it cannot reduce the error
        # estimate, so a tolerance under the floor would otherwise split forever.
        noise = 100.0 * np.finfo(float).eps * (np.abs(fv) @ _GK_WEIGHTS) * half
        stop = ok | (perr <= noise) | (depth >= max_depth)
        if np.any(stop):
            values += np.bincount(task[stop], weights=ik[stop], minlength=n_tasks)
            errors += np.bincount(task[stop], weights=perr[stop], minlength=n_tasks)
            exhausted = stop & ~ok
            if np.any(exhausted):
                failed[np.unique(task[exhausted])] = True
        keep = ~stop
        if not np.any(keep):
            break
        n_keep = int(keep.sum())
        task = np.repeat(task[keep], 2)
        new_lo = np.empty(2 * n_keep)
        new_hi = np.empty(2 * n_keep)
        new_lo[0::2] = lo[keep]
        new_lo[1::2] = mid[keep]
        new_hi[0::2] = mid[keep]
        new_hi[1::2] = hi[keep]
        lo, hi = new_lo, new_hi
        depth = np.repeat(depth[keep] + 1, 2)

    return values, errors, ~failed


def adaptive_panels(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                    tol: float, max_depth: int,
                    breakpoints: Sequence[float] = ()) -> IntegralResult:
    """Adaptively integrate a vectorized integrand over [lo, hi] to absolute ``tol``."""
    row, seg_lo, seg_hi = _segments(lo, hi, np.reshape(breakpoints, (1, -1)))
    vals, errs, ok = _adaptive_many(
        lambda _t, x: np.asarray(f(x), dtype=float),
        row, seg_lo, seg_hi, np.array([tol]), max_depth, 1,
    )
    return IntegralResult(value=float(vals[0]), error=float(errs[0]), converged=bool(ok[0]))


def _neg_plogp(v: np.ndarray) -> np.ndarray:
    """Entropy integrand -v ln v with the 0*ln0 = 0 convention below ENTROPY_FLOOR.

    Never returns NaN or -inf: values at or below the floor (including any negative
    rounding noise of a nonnegative density) contribute exactly 0.
    """
    out = np.log(v, out=np.zeros_like(v), where=v > ENTROPY_FLOOR)
    out *= v
    return np.negative(out, out=out)


def integrate_entropy_1d(g: Callable[[np.ndarray], np.ndarray], spec: QuadratureSpec,
                         breakpoints: Sequence[float] = ()) -> IntegralResult:
    """-int g ln g over [-L, L] by adaptive bisected panels.

    ``g`` must be vectorized and nonnegative with tail mass beyond +-L below 1e-12.
    Known zero locations of g should be passed as ``breakpoints``: panels are pre-split
    there, which restores fast convergence around the integrable log singularities.
    """
    L = spec.half_width
    return adaptive_panels(
        lambda x: _neg_plogp(np.asarray(g(x), dtype=float)),
        -L, L, spec.panel_tol, spec.max_depth, breakpoints,
    )


def integrate_entropy_2d(g: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
                         spec: QuadratureSpec,
                         inner_breakpoints: Callable[[np.ndarray], np.ndarray | None] | None = None,
                         outer_breakpoints: Sequence[float] = ()) -> IntegralResult:
    """-int int g ln g over [-L, L]^2 by iterated adaptive panels.

    The inner (b) integrals for all pending outer abscissae are refined together in
    shared vectorized sweeps, each calling ``g(a, row, b)`` once with ``a`` the outer
    abscissae: it returns the density at (a[row[i]], b[i]), so what depends on a alone
    is computed once per abscissa. ``inner_breakpoints(a_values)`` may return an (n, r)
    NaN-padded array whose row i holds known zeros of b -> g(a_values[i], b), or None;
    ``_segments`` turns it into the pre-split inner panels of every abscissa in one
    batch. The error adds 2L times the largest inner estimate to the outer one.
    """
    L = spec.half_width
    inner_tol = spec.panel_tol / (8.0 * L)
    inner_ok = True
    inner_err = 0.0

    def outer_f(avals: np.ndarray) -> np.ndarray:
        nonlocal inner_ok, inner_err
        hints = inner_breakpoints(avals) if inner_breakpoints is not None else None
        cuts = np.empty((avals.size, 0)) if hints is None else np.reshape(hints, (avals.size, -1))
        seg_task, seg_lo, seg_hi = _segments(-L, L, cuts)
        vals, errs, ok = _adaptive_many(
            lambda tid, b: _neg_plogp(np.asarray(g(avals, tid, b), dtype=float)),
            seg_task, seg_lo, seg_hi,
            np.full(avals.size, inner_tol), spec.max_depth, avals.size,
        )
        inner_ok = inner_ok and bool(ok.all())
        inner_err = max(inner_err, float(errs.max()))
        return vals

    outer = adaptive_panels(outer_f, -L, L, spec.panel_tol, spec.max_depth, outer_breakpoints)
    return IntegralResult(
        value=outer.value,
        error=outer.error + 2.0 * L * inner_err,
        converged=outer.converged and inner_ok,
    )
