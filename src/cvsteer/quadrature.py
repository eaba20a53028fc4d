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

    half_width  truncation L of panel integrals to [-L, L] in oscillator units; the
                criteria keep it 4.2 to 28 past the outermost level's turning point
    panel_tol   absolute tolerance for one adaptive panel integral, in oscillator units
    """

    half_width: float = 8.0
    panel_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.half_width < np.inf:
            raise ValueError("half_width must be positive and finite")
        if not 0.0 < self.panel_tol < 1.0:
            raise ValueError("panel_tol must lie in (0, 1)")


DEFAULT_SPEC = QuadratureSpec()


@dataclass(frozen=True)
class IntegralResult:
    """Value plus error estimate. ``converged`` is True exactly when the error estimate
    is at most the tolerance (a NaN estimate never is), whatever stopped the panels;
    ``integrate_entropy_2d`` applies this to its outer and inner estimates apiece. The
    value is still the best available estimate (NaN when a panel's sum was not finite)."""

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


# Most points of one call of the integrand, and of one sweep of _adaptive_many: a sweep
# holds at most _BLOCK_POINTS // 15 panels (4,095 points), unless a single task holds
# more, which is then swept alone in blocks of _BLOCK_POINTS. So a sweep's arrays
# (points, task ids and values, 24 bytes per point) and an integrand's block temporaries
# stay a few tens of KB, which glibc serves from its free lists without faulting pages in.
_BLOCK_POINTS = 4_096

# Bisections of a panel before its task is given up as unconverged: what stops an
# integrand that never meets its tolerance
_MAX_DEPTH = 40

# Roundoff floor of a panel sum, per unit of its absolute Kronrod sum
_NOISE = 100.0 * np.finfo(float).eps


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


def _push_halves(stack: tuple, top: int, task: np.ndarray, left: np.ndarray,
                 mid: np.ndarray, right: np.ndarray) -> tuple[tuple, int]:
    """Push the halves [left, mid] and [mid, right] of the panels of ``task``, in order,
    onto ``stack``, the pending panels (task, left, right) from ``top`` to the arrays'
    end; returns the stack and its new top. A full stack moves to the end of arrays
    twice as large. The arguments must not be views of the stack."""
    size = 2 * task.size
    if size > top:
        rest = stack[0].size - top
        grown = max(rest + size, 2 * stack[0].size)
        old, stack = stack, tuple(np.empty(grown, p.dtype) for p in stack)
        for buf, kept in zip(stack, old):
            buf[grown - rest:] = kept[top:]
        top = grown - rest
    top -= size
    for buf, first, second in zip(stack, (task, left, mid), (task, mid, right)):
        buf[top:top + size:2] = first
        buf[top + 1:top + size:2] = second
    return stack, top


def _gk_sums(f, t, half, mid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kronrod sum, error estimate |Kronrod - Gauss| and roundoff floor of each panel of
    half-width ``half`` about ``mid`` of the tasks ``t``, calling f on blocks of at most
    _BLOCK_POINTS points. The points, task ids and values are freed on return, before
    the caller grows its worklist: a stack allocated above them would leave them, once
    freed, in a top of the heap large enough for glibc to hand back to the kernel."""
    nodes = _GK_NODES.size
    pts = np.multiply.outer(half, _GK_NODES)
    pts += mid[:, None]
    pts, tids, fv = pts.ravel(), np.repeat(t, nodes), np.empty(pts.size)
    for k in range(0, fv.size, _BLOCK_POINTS):
        block = slice(k, k + _BLOCK_POINTS)
        fv[block] = f(tids[block], pts[block])
    fv = fv.reshape(-1, nodes)
    ik = (fv @ _GK_WEIGHTS) * half
    ig = (fv @ _G7_WEIGHTS) * half
    noise = _NOISE * (np.abs(fv, out=fv) @ _GK_WEIGHTS) * half
    return ik, np.abs(ik - ig), noise


def _adaptive_many(f, lo, hi, cuts, tol):
    """Integrals over [lo, hi] of a batch of tasks, one per row of ``cuts``, each to the
    absolute tolerance ``tol``, by shared worklist refinement.

    Task r's initial panels are [lo, hi] pre-split at the entries of ``cuts[r]`` (see
    _segments), and every panel [a, b] must meet its share tol (b - a) / (hi - lo).
    ``f(task_ids, x)`` evaluates, elementwise, the integrand of task ``task_ids[i]`` at
    ``x[i]``; the array f returns is only read. Each sweep evaluates the pending panels
    of the longest prefix of whole tasks that fits one call of f, at most _BLOCK_POINTS
    points, or else of the first task alone, calling f on consecutive blocks of at most
    _BLOCK_POINTS of them; the children of its split panels go back to the front of the
    worklist, a stack local to the call, which keeps each task's panels contiguous and
    the tasks ascending. A task's pending panels are thus of one generation, so depth is
    kept per task, and they are evaluated, summed and split together. A sweep's size only
    decides which panels share one BLAS product in _gk_sums; a panel's sum there can move
    by an ulp with the row count (x^16 on [0.5, 1]), and so can a tolerance-edge flag. A
    panel whose sums are not finite (a NaN integrand, say) stops at once, and its task's
    value is NaN. Every array is the call's own; nothing is kept for the next call.

    Returns the values, error estimates and convergence flags of the tasks: a task
    converges exactly when its summed error estimate is at most ``tol``, never when it
    is NaN, however its panels stopped (panels that all met their shares sum to at most
    ``tol``). Deterministic: panel ordering, splitting and accumulation are data-driven.
    """
    n_tasks = cuts.shape[0]
    depth = np.zeros(n_tasks, dtype=np.intp)
    values = np.zeros(n_tasks)
    errors = np.zeros(n_tasks)
    cap = _BLOCK_POINTS // _GK_NODES.size
    span = hi - lo

    stack, top = _segments(lo, hi, cuts), 0
    while top < stack[0].size:
        task, left, right = stack
        # Sweep the tasks before the one holding panel number ``cap``, or the first task
        # alone when it holds more than ``cap`` panels
        end = task.size
        if end - top > cap:
            first = task[top:top + cap + 1]
            end = top + (int(first.searchsorted(first[cap])) or int(
                task[top:].searchsorted(first[0], side="right")))
        t, a, b = task[top:end], left[top:end], right[top:end]
        top = end
        width = b - a
        half = 0.5 * width
        mid = a + half
        ik, perr, noise = _gk_sums(f, t, half, mid)
        ok = perr <= tol * width / span
        # A sum that is not finite stops its panel, NaN: the halves of a panel where the
        # integrand is NaN are NaN too, so splitting would double it every generation.
        bad = ~np.isfinite(perr)
        ik[bad] = np.nan
        # Refining below the roundoff floor cannot reduce the error estimate, so a
        # tolerance under the floor would otherwise split forever.
        stop = ok | bad | (perr <= noise) | (depth[t] >= _MAX_DEPTH)
        t0, t1 = int(t[0]), int(t[-1]) + 1
        done = t[stop] - t0
        values[t0:t1] += np.bincount(done, weights=ik[stop], minlength=t1 - t0)
        errors[t0:t1] += np.bincount(done, weights=perr[stop], minlength=t1 - t0)
        depth[t0:t1] += 1
        keep = ~stop
        if keep.any():
            # Masking copies the split panels out of the stack their halves may overwrite
            stack, top = _push_halves(stack, top, t[keep], a[keep], mid[keep], b[keep])
    return values, errors, errors <= tol


def adaptive_panels(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, tol: float,
                    breakpoints: Sequence[float] = (), fold: bool = False) -> IntegralResult:
    """Adaptively integrate a vectorized integrand over [lo, hi] to absolute ``tol``.

    One task of ``_adaptive_many``, its panels pre-split at ``breakpoints``. ``f`` is
    called on blocks of at most _BLOCK_POINTS points, and the array it returns is only
    read.
    ``fold=True`` declares f symmetric about the midpoint c: only [c, hi] is integrated,
    at tol/2, and the value and error are doubled. With c among the breakpoints the
    folded panels mirror the dropped ones, so each keeps its share of ``tol``.
    """
    if fold:
        lo, tol = 0.5 * (lo + hi), 0.5 * tol
    vals, errs, ok = _adaptive_many(lambda _t, x: f(x), lo, hi,
                                    np.reshape(breakpoints, (1, -1)), tol)
    copies = 2.0 if fold else 1.0
    return IntegralResult(value=copies * float(vals[0]), error=copies * float(errs[0]),
                          converged=bool(ok[0]))


def _neg_plogp(v: np.ndarray) -> np.ndarray:
    """Entropy integrand -v ln v with the 0*ln0 = 0 convention below ENTROPY_FLOOR, as a
    new array.

    Never returns NaN or -inf: values at or below the floor (including any negative
    rounding noise of a nonnegative density) contribute exactly 0.
    """
    out = np.zeros(v.shape)  # for the entries at or below the floor
    np.log(v, out=out, where=v > ENTROPY_FLOOR)
    out *= v
    return np.negative(out, out=out)


def integrate_entropy_1d(g: Callable[[np.ndarray], np.ndarray], spec: QuadratureSpec,
                         breakpoints: Sequence[float] = (), fold: bool = False) -> IntegralResult:
    """-int g ln g over [-L, L]: ``adaptive_panels`` of the integrand -g ln g.

    ``g`` must be vectorized and nonnegative with tail mass beyond +-L below 1e-12.
    Known zero locations of g should be passed as ``breakpoints``: panels are pre-split
    there, which costs points but buys accuracy (measured in the README's Numerics).
    ``fold=True`` declares g even: [0, L] is integrated at half the tolerance and
    doubled (0 should be a breakpoint, see ``adaptive_panels``).
    """
    L = spec.half_width
    return adaptive_panels(lambda x: _neg_plogp(g(x)), -L, L, spec.panel_tol, breakpoints, fold)


def integrate_entropy_2d(g: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
                         spec: QuadratureSpec,
                         inner_breakpoints: Callable[[np.ndarray], np.ndarray | None] | None = None,
                         outer_breakpoints: Sequence[float] = (),
                         fold: bool = False) -> IntegralResult:
    """-int int g ln g over [-L, L]^2 by iterated adaptive panels.

    The inner (b) integrals of -g ln g at all pending outer abscissae form one batch of
    ``_adaptive_many``, one task per abscissa at the absolute tolerance
    panel_tol / (8L), refined in vectorized sweeps over consecutive abscissae, each one
    call of g of at most _BLOCK_POINTS points unless one abscissa's integral outgrows
    it. Each sweep calls ``g(a, row, b)`` on blocks of at most _BLOCK_POINTS points,
    with ``a`` all the batch's outer abscissae, the same array object for every block of
    one batch: it returns the density at (a[row[i]], b[i]), so what depends on a alone
    can be computed once per batch. The array g returns is only read.
    ``inner_breakpoints(a_values)`` may return an (n, r) NaN-padded array whose row i
    holds known zeros of b -> g(a_values[i], b), or None; it is the batch's ``cuts``.
    The error adds 2L times the largest inner estimate to the outer one. The result is
    converged exactly when the outer estimate is at most panel_tol and the largest inner
    one at most the inner tolerance: a NaN inner value makes the outer sum NaN.
    ``fold=True`` declares g(-a, -b) = g(a, b): the inner integral is then even in a,
    and the outer one runs over [0, L] at half the tolerance and is doubled, value and
    error (0 should be an outer breakpoint); the inner b-range stays [-L, L].
    """
    L = spec.half_width
    inner_tol = spec.panel_tol / (8.0 * L)
    inner_err = 0.0

    def outer_f(avals: np.ndarray) -> np.ndarray:
        nonlocal inner_err
        hints = inner_breakpoints(avals) if inner_breakpoints is not None else None
        cuts = np.empty((avals.size, 0)) if hints is None else np.reshape(hints, (avals.size, -1))
        vals, errs, _ = _adaptive_many(lambda tid, b: _neg_plogp(g(avals, tid, b)), -L, L,
                                       cuts, inner_tol)
        inner_err = max(inner_err, float(errs.max()))
        return vals

    outer = adaptive_panels(outer_f, -L, L, spec.panel_tol, outer_breakpoints, fold)
    return IntegralResult(
        value=outer.value,
        error=outer.error + 2.0 * L * inner_err,
        converged=outer.converged and inner_err <= inner_tol,
    )
