import dataclasses
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvsteer.quadrature import (
    DEFAULT_SPEC,
    QuadratureSpec,
    adaptive_panels,
    integrate_entropy_1d,
    integrate_entropy_2d,
)
from cvsteer.fock import _density_rows
from cvsteer.quadrature import ENTROPY_FLOOR, _neg_plogp, _segments

quadrature_mod = importlib.import_module("cvsteer.quadrature")

SQPI = math.sqrt(math.pi)


class TestQuadratureSpec:
    def test_defaults(self):
        assert DEFAULT_SPEC == QuadratureSpec(half_width=8.0, panel_tol=1e-10)
        assert [f.name for f in dataclasses.fields(QuadratureSpec)] == ["half_width", "panel_tol"]
        assert quadrature_mod._MAX_DEPTH == 40

    @pytest.mark.parametrize("kwargs", [
        {"half_width": float("nan")},
        {"half_width": 0.0},
        {"panel_tol": 0.0},
        {"panel_tol": 1.5},
        {"panel_tol": float("nan")},
        {"half_width": float("inf")},
    ])
    def test_validation(self, kwargs):
        # The message starts with the field's name, which the CLI reports as is
        with pytest.raises(ValueError, match=f"^{next(iter(kwargs))}"):
            QuadratureSpec(**kwargs)


class TestAdaptivePanels:
    def test_polynomial_exact(self):
        res = adaptive_panels(lambda x: x * x, 0.0, 1.0, 1e-12)
        assert res.converged
        assert res.value == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_breakpoints_recover_kink(self):
        # NaN padding, duplicates and cuts outside (lo, hi) split nothing
        for breakpoints in [(0.0,), (0.0, 0.0), (math.nan, 0.0), (-3.0, 1.0, 0.0, 5.0)]:
            res = adaptive_panels(np.abs, -1.0, 1.0, 1e-13, breakpoints=breakpoints)
            assert res.converged
            assert res.value == pytest.approx(1.0, rel=1e-14)

    def test_fold_integrates_the_upper_half(self):
        # |x| on [-1, 1] folded about 0: [0, 1] at half the tolerance, doubled
        res = adaptive_panels(np.abs, -1.0, 1.0, 1e-13, breakpoints=(0.0,), fold=True)
        assert res.converged
        assert res.value == pytest.approx(1.0, rel=1e-14)
        half = adaptive_panels(np.abs, 0.0, 1.0, 0.5e-13)
        assert (res.value, res.error) == (2.0 * half.value, 2.0 * half.error)

    def test_depth_exhaustion_flags(self, monkeypatch):
        # Tolerance far below the roundoff floor of the sum cannot be met
        monkeypatch.setattr(quadrature_mod, "_MAX_DEPTH", 3)
        res = adaptive_panels(lambda x: np.exp(-x * x), -8.0, 8.0, 1e-15)
        assert not res.converged
        assert res.value == pytest.approx(SQPI, rel=1e-10)

    def test_capped_task_within_tolerance_converged(self, monkeypatch):
        # Cut before any bisection, x^16 on [0, 1] split at 0.5: the right panel misses
        # its share, half the tolerance, but the task's summed error estimate meets it
        monkeypatch.setattr(quadrature_mod, "_MAX_DEPTH", 0)
        f = lambda x: x ** 16
        left = adaptive_panels(f, 0.0, 0.5, 1.0).error
        right = adaptive_panels(f, 0.5, 1.0, 1.0).error
        assert 0.0 < left < 0.5 * right
        res = adaptive_panels(f, 0.0, 1.0, 1.5 * right, breakpoints=(0.5,))
        assert res.error == pytest.approx(left + right, rel=1e-4)  # BLAS rounding
        assert res.converged
        assert res.value == pytest.approx(1.0 / 17.0, rel=1e-6)
        # Summed errors over the tolerance stay flagged
        assert not adaptive_panels(f, 0.0, 1.0, 0.9 * (left + right), breakpoints=(0.5,)).converged

    @pytest.mark.parametrize("breakpoints", [(), (0.3,)])
    def test_nan_integrand_stops_at_once(self, breakpoints):
        # A panel whose sums are NaN stops, unconverged, instead of splitting: its halves
        # would be NaN too, and the panels doubled every generation up to _MAX_DEPTH
        # (2,805 points at depth 8, 43,185 at 12). The integrand refuses to run away.
        seen = 0

        def f(x):
            nonlocal seen
            seen += x.size
            if seen > 10_000:
                raise AssertionError("the panels of a NaN integrand kept splitting")
            return np.where(x > 0.3, np.nan, 1.0)

        res = adaptive_panels(f, -1.0, 1.0, 1e-10, breakpoints=breakpoints)
        assert math.isnan(res.value)
        assert not res.converged
        assert seen <= 2 * 15

    def test_nan_task_flagged_alone(self):
        # In a batch, only the task whose integrand is NaN is NaN and flagged
        seen = 0

        def f(tid, x):
            nonlocal seen
            seen += x.size
            if seen > 10_000:
                raise AssertionError("the panels of a NaN integrand kept splitting")
            return np.where(tid == 1, np.nan, np.exp(-x * x))

        vals, _errs, ok = quadrature_mod._adaptive_many(f, -8.0, 8.0, np.empty((3, 0)), 1e-12)
        assert ok.tolist() == [True, False, True]
        assert math.isnan(vals[1])
        assert vals[[0, 2]] == pytest.approx(SQPI, rel=1e-12)


# One even integrand per way a panel stops, for adaptive_panels (integrand, half-width,
# tolerance, flag) and then integrate_entropy_1d (density, panel_tol, flag): every panel
# meets its share of the tolerance; panels reach the roundoff floor of their sums; panels
# at the kinks +-1/3, which no bisection lands on, reach _MAX_DEPTH; a panel's sum is NaN.
# The capped panels of the entropy leave its summed error estimate within the tolerance.
_GAUSS = lambda x: np.exp(-x * x) / SQPI
_KINKS = lambda x: np.abs(np.abs(x) - 1.0 / 3.0)
_HALF_NAN = lambda x: np.where(np.abs(x) > 0.5, np.nan, 1.0)
STOPS = {
    "share": ((_GAUSS, 8.0, 1e-12, True), (_GAUSS, 1e-10, True)),
    "roundoff_floor": ((_GAUSS, 8.0, 1e-22, False), (_GAUSS, 1e-22, False)),
    "depth_cap": ((_KINKS, 1.0, 1e-15, False),
                  (lambda x: _KINKS(x) * _GAUSS(x), 1e-13, True)),
    "nan": ((_HALF_NAN, 1.0, 1e-10, False), (lambda x: _HALF_NAN(x) * _GAUSS(x), 1e-10, False)),
}


@pytest.mark.parametrize("fold", [False, True])
@pytest.mark.parametrize("stop", list(STOPS))
def test_converged_exactly_when_error_within_tol(stop, fold):
    (f, half_width, tol, flag), (g, panel_tol, entropy_flag) = STOPS[stop]
    res = adaptive_panels(f, -half_width, half_width, tol, breakpoints=(0.0,), fold=fold)
    assert res.converged == (res.error <= tol) == flag
    res = integrate_entropy_1d(g, QuadratureSpec(panel_tol=panel_tol), breakpoints=(0.0,),
                               fold=fold)
    assert res.converged == (res.error <= panel_tol) == entropy_flag
    assert math.isnan(res.error) == (stop == "nan")


class TestSegments:
    def test_rows_in_order_with_padding_duplicates_and_outside_cuts(self):
        nan = math.nan
        cuts = np.array([
            [0.5, nan, -0.25, nan],         # unsorted, NaN-padded
            [nan, nan, nan, nan],           # no cut
            [2.0, 0.0, 0.0, 1.0],           # outside (lo, hi), exact duplicate, at hi
            [-1.0, 0.3, 0.3 + 1e-16, nan],  # at lo, a duplicate within 1e-14 (hi - lo)
        ])
        row, seg_lo, seg_hi = _segments(-1.0, 1.0, cuts)
        assert row.tolist() == [0, 0, 0, 1, 2, 2, 3, 3]
        assert seg_lo.tolist() == [-1.0, -0.25, 0.5, -1.0, -1.0, 0.0, -1.0, 0.3]
        assert seg_hi.tolist() == [-0.25, 0.5, 1.0, 1.0, 0.0, 1.0, 0.3, 1.0]

    def test_no_cuts(self):
        row, seg_lo, seg_hi = _segments(-2.0, 3.0, np.empty((2, 0)))
        assert (row.tolist(), seg_lo.tolist(), seg_hi.tolist()) == ([0, 1], [-2.0, -2.0], [3.0, 3.0])


class TestEntropy1d:
    def test_unit_gaussian_entropy(self):
        # Differential entropy of N(0, 1/2): (1/2) ln(2 pi e sigma^2) = (1/2) ln(pi e)
        g = lambda x: np.exp(-x * x) / SQPI
        res = integrate_entropy_1d(g, DEFAULT_SPEC)
        assert res.converged
        assert res.value == pytest.approx(0.5 * (1 + math.log(math.pi)), abs=1e-12)

    def test_first_level_density_entropy(self):
        # (2/sqrt(pi)) x^2 e^{-x^2}: entropy gamma + ln 2 + (1/2) ln pi - 1/2, from the
        # digamma identity psi(3/2) = 2 - gamma - ln 4 applied to the Gamma(3/2) integral
        g = lambda x: 2.0 / SQPI * x * x * np.exp(-x * x)
        expected = np.euler_gamma + math.log(2) + 0.5 * math.log(math.pi) - 0.5
        res = integrate_entropy_1d(g, DEFAULT_SPEC, breakpoints=(0.0,))
        assert res.converged
        assert res.value == pytest.approx(expected, abs=1e-12)

    def test_fold_of_even_density(self):
        g = lambda x: 2.0 / SQPI * x * x * np.exp(-x * x)
        expected = np.euler_gamma + math.log(2) + 0.5 * math.log(math.pi) - 0.5
        res = integrate_entropy_1d(g, DEFAULT_SPEC, breakpoints=(0.0,), fold=True)
        assert res.converged
        assert res.value == pytest.approx(expected, abs=1e-12)

    def test_zero_handling_never_nan(self):
        g = lambda x: np.zeros_like(x)
        res = integrate_entropy_1d(g, DEFAULT_SPEC)
        assert res.value == 0.0
        assert math.isfinite(res.error)

    @given(st.floats(min_value=0.2, max_value=5.0))
    @settings(max_examples=15, deadline=None)
    def test_scaling_law(self, lam):
        # Stretching x by lambda shifts differential entropy by +ln lambda
        g = lambda x: np.exp(-x * x) / SQPI
        g_scaled = lambda x: g(x / lam) / lam
        spec = QuadratureSpec(half_width=8.0 * max(1.0, lam))
        h0 = integrate_entropy_1d(g, spec).value
        h1 = integrate_entropy_1d(g_scaled, spec).value
        assert h1 - h0 == pytest.approx(math.log(lam), abs=1e-10)

    def test_unmet_tolerance_flagged_value_returned(self, monkeypatch):
        g = lambda x: np.exp(-x * x) / SQPI
        monkeypatch.setattr(quadrature_mod, "_MAX_DEPTH", 4)
        res = integrate_entropy_1d(g, QuadratureSpec(panel_tol=1e-15))
        assert not res.converged
        assert res.value == pytest.approx(0.5 * (1 + math.log(math.pi)), abs=1e-8)


class TestEntropy2d:
    def test_product_of_gaussians(self):
        g = lambda a, row, b: np.exp(-(a[row] ** 2 + b * b)) / math.pi
        res = integrate_entropy_2d(g, DEFAULT_SPEC)
        assert res.converged
        assert res.value == pytest.approx(1 + math.log(math.pi), abs=1e-10)

    def test_tail_truncation_insensitive(self):
        g = self._bracket_density(math.cos(0.7), math.sin(0.7))
        r8 = integrate_entropy_2d(g, QuadratureSpec(half_width=8.0))
        r16 = integrate_entropy_2d(g, QuadratureSpec(half_width=16.0))
        assert abs(r8.value - r16.value) < 1e-10

    @staticmethod
    def _bracket_density(c, s):
        # (c + 2 a b s)^2 e^{-(a^2 + b^2)} / pi at (a[row[i]], b[i]), the integrand contract
        def g(a, row, b):
            ar = a[row]
            return (c + 2 * ar * b * s) ** 2 / math.pi * np.exp(-(ar * ar + b * b))
        return g

    @staticmethod
    def _bracket_zero_hints(c, s):
        def hints(av):
            safe = np.where(np.abs(av) > 1e-12, av, 1.0)
            return np.where(np.abs(av) > 1e-12, -c / (2 * s * safe), np.nan)[:, None]
        return hints

    def test_deterministic(self):
        c, s = math.cos(1.1), math.sin(1.1)
        g = self._bracket_density(c, s)
        hints = self._bracket_zero_hints(c, s)
        r1 = integrate_entropy_2d(g, DEFAULT_SPEC, inner_breakpoints=hints)
        r2 = integrate_entropy_2d(g, DEFAULT_SPEC, inner_breakpoints=hints)
        assert r1.value == r2.value  # bitwise
        assert r1 == r2

    def test_inner_breakpoints_match_free_refinement(self):
        # The zero-curve pre-split is an efficiency hint, not a correctness requirement
        c, s = math.cos(1.1), math.sin(1.1)
        g = self._bracket_density(c, s)
        with_hints = integrate_entropy_2d(g, DEFAULT_SPEC,
                                          inner_breakpoints=self._bracket_zero_hints(c, s))
        without = integrate_entropy_2d(g, DEFAULT_SPEC)
        assert with_hints.value == pytest.approx(without.value, abs=5e-10)

    def test_unconverged_inner_integrals_reach_error(self, monkeypatch):
        # |b| e^{-b^2} has a kink at b = 0 and no pre-split: cut at depth 4, the inner
        # integrals miss their tolerance by far more than the outer estimate shows. Its
        # entropy is 1 + gamma/2, since int_0^inf b e^{-b^2} ln b db = -gamma/4.
        g = lambda a, row, b: np.exp(-a[row] ** 2) / SQPI * np.abs(b) * np.exp(-b * b)
        exact = 0.5 * (1 + math.log(math.pi)) + 1.0 + 0.5 * np.euler_gamma
        with monkeypatch.context() as patch:
            patch.setattr(quadrature_mod, "_MAX_DEPTH", 4)
            cut = integrate_entropy_2d(g, DEFAULT_SPEC)
        assert not cut.converged
        assert abs(cut.value - exact) > 1e-8
        assert cut.error >= abs(cut.value - exact)
        full = integrate_entropy_2d(g, DEFAULT_SPEC)
        assert full.converged
        assert abs(full.value - exact) <= full.error <= 1e-9

    def test_nan_inner_value_flags_the_result(self):
        # The inner flags are not read: an inner integral that is NaN makes its outer
        # panel's sum NaN, and that flags the result
        def g(a, row, b):
            dens = np.exp(-a[row] ** 2 - b * b) / math.pi
            return np.where((a[row] > 1.0) & (b > 0.5), np.nan, dens)

        res = integrate_entropy_2d(g, DEFAULT_SPEC)
        assert math.isnan(res.value) and math.isnan(res.error)
        assert not res.converged

    def test_folded_error_and_flag(self, monkeypatch):
        # The same even integrand, g(-a, -b) = g(a, b), folded onto a >= 0 and cut at
        # depth 4: the outer sweep covers [0, L] at half the tolerance, and the result
        # carries twice its value and error plus 2L times the largest inner estimate
        g = lambda a, row, b: np.exp(-a[row] ** 2) / SQPI * np.abs(b) * np.exp(-b * b)
        monkeypatch.setattr(quadrature_mod, "_MAX_DEPTH", 4)
        spec = DEFAULT_SPEC
        L = spec.half_width
        calls = []
        adaptive_many = quadrature_mod._adaptive_many

        def recorded(f, lo, hi, cuts, tol):
            out = adaptive_many(f, lo, hi, cuts, tol)
            calls.append(((lo, hi, cuts.shape[0], tol), out))
            return out

        monkeypatch.setattr(quadrature_mod, "_adaptive_many", recorded)
        folded = integrate_entropy_2d(g, spec, outer_breakpoints=(0.0,), fold=True)
        (outer_args, (outer_val, outer_err, _ok)), inner = calls[-1], calls[:-1]
        assert outer_args == (0.0, L, 1, 0.5 * spec.panel_tol)
        assert all(args[:2] == (-L, L) for args, _out in inner)
        inner_err = max(float(errs.max()) for _args, (_vals, errs, _ok) in inner)
        assert folded.value == 2.0 * outer_val[0]
        assert folded.error == 2.0 * outer_err[0] + 2.0 * L * inner_err
        assert not folded.converged
        full = integrate_entropy_2d(g, spec, outer_breakpoints=(0.0,))
        assert folded.value == pytest.approx(full.value, rel=1e-14)
        assert folded.error == pytest.approx(full.error, rel=1e-12)

    @pytest.mark.parametrize("fold", [False, True])
    def test_result_independent_of_sweep_cap(self, monkeypatch, fold):
        # The even integrand above, cut at depth 4, under caps of 64, 8 and 1 panel per
        # batched sweep: a task then exceeds the cap alone, and tasks whose inner
        # integrals fail share sweeps with tasks that converge
        g = lambda a, row, b: np.exp(-a[row] ** 2) / SQPI * np.abs(b) * np.exp(-b * b)
        monkeypatch.setattr(quadrature_mod, "_MAX_DEPTH", 4)
        spec = DEFAULT_SPEC
        results = []
        for points in (10 ** 12, 64 * 15, 8 * 15, 15):
            monkeypatch.setattr(quadrature_mod, "_BLOCK_POINTS", points)
            results.append(integrate_entropy_2d(g, spec, outer_breakpoints=(0.0,), fold=fold))
        assert not results[0].converged
        assert all(res == results[0] for res in results[1:])


def test_neg_plogp_matches_masked_formula():
    rng = np.random.default_rng(5)
    v = np.concatenate([rng.uniform(0.0, 3.0, 500), 10.0 ** rng.uniform(-320, -290, 200),
                        -10.0 ** rng.uniform(-18, -14, 50), [0.0, ENTROPY_FLOOR, 1.0]])
    want = np.zeros_like(v)
    keep = v > ENTROPY_FLOOR
    want[keep] = -v[keep] * np.log(v[keep])
    # The argument is an integrand's return value, which the engine only reads
    v_before = v.copy()
    assert np.array_equal(_neg_plogp(v), want)
    assert np.array_equal(v, v_before)


def test_engine_results_do_not_alias():
    # Each call returns an array of its own, which no later call touches: two branch
    # densities, or their entropy integrands, can be held and summed
    rng = np.random.default_rng(11)
    v, w = rng.uniform(0.0, 2.0, (2, 300))
    first = _neg_plogp(v)
    kept = first.copy()
    second = _neg_plogp(w)
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, kept)
    assert np.array_equal(second, _neg_plogp(w.copy()))
    a, b = rng.uniform(-3.0, 3.0, 5), rng.uniform(-3.0, 3.0, 300)
    row = rng.integers(0, a.size, b.size)
    live = [True] * 4
    dens = [_density_rows(rng.standard_normal((4, a.size)), live, row, b) for _ in range(2)]
    kept = dens[0].copy()
    dens.append(_density_rows(rng.standard_normal((4, a.size)) + 1j, live, row, b))
    assert not any(np.shares_memory(x, y) for i, x in enumerate(dens) for y in dens[i + 1:])
    assert np.array_equal(dens[0], kept)


def record_integrand_calls(monkeypatch) -> list:
    """Wrap quadrature._adaptive_many; each integrand call appends (its nesting level, 1
    for an outermost integral and 2 for the inner batches of a 2-D one, its first task
    id, points). The points are kept as the engine passed them: a view that later
    sweeps overwrite."""
    calls = []
    level = 0
    adaptive_many = quadrature_mod._adaptive_many

    def recorded(f, lo, hi, cuts, tol):
        nonlocal level
        here = level = level + 1

        def integrand(tid, x):
            calls.append((here, int(tid[0]), x))
            return f(tid, x)
        try:
            return adaptive_many(integrand, lo, hi, cuts, tol)
        finally:
            level -= 1

    monkeypatch.setattr(quadrature_mod, "_adaptive_many", recorded)
    return calls


class TestSweepWorkspace:
    """The engine's sweeps fill arrays local to each call, so nothing passes from one
    integral to the next; the integrand is called on blocks of at most
    quadrature._BLOCK_POINTS points."""

    def test_blocks_at_most_4096_points(self, monkeypatch):
        calls = record_integrand_calls(monkeypatch)
        # About 760 periods need over a thousand panels: a single task's sweep, which
        # the cap does not split, grows past 4096 points and is evaluated in blocks
        res = adaptive_panels(lambda x: np.cos(300.0 * x), -8.0, 8.0, 1e-12)
        assert res.value == pytest.approx(2.0 * math.sin(2400.0) / 300.0, abs=1e-12)
        sizes = [x.size for _level, _tid, x in calls]
        assert quadrature_mod._BLOCK_POINTS == 4096
        assert max(sizes) == 4096 and sum(sizes) > 10 * 4096
        calls.clear()
        # A sweep of a batch is one call of at most 4096 // 15 whole panels
        c, s = math.cos(1.1), math.sin(1.1)
        integrate_entropy_2d(TestEntropy2d._bracket_density(c, s), DEFAULT_SPEC,
                             inner_breakpoints=TestEntropy2d._bracket_zero_hints(c, s))
        assert all(x.size <= quadrature_mod._BLOCK_POINTS for _level, _tid, x in calls)
        sizes = [x.size for level, _tid, x in calls if level == 2]
        assert 4000 < max(sizes) <= 4095 and len(sizes) > 100

    def test_several_inner_batches_start_at_task_0(self, monkeypatch):
        calls = record_integrand_calls(monkeypatch)
        # 79 outer panels: the first inner sweep already fills the sweep cap
        c, s = math.cos(1.1), math.sin(1.1)
        spec = DEFAULT_SPEC
        cuts = np.linspace(-spec.half_width, spec.half_width, 80)
        integrate_entropy_2d(TestEntropy2d._bracket_density(c, s), spec,
                             inner_breakpoints=TestEntropy2d._bracket_zero_hints(c, s),
                             outer_breakpoints=cuts)
        inner = [tid for level, tid, _x in calls if level == 2]
        assert inner.count(0) > 1

    def test_outer_abscissae_unchanged_and_reruns_equal(self, monkeypatch):
        calls = record_integrand_calls(monkeypatch)
        c, s = math.cos(1.1), math.sin(1.1)
        density = TestEntropy2d._bracket_density(c, s)
        seen = {}

        def g(a, row, b):
            # Every block of a batch sees the outer abscissae the batch began with: no
            # inner sweep writes where they lie. Holding a keeps its id from reuse.
            kept = seen.setdefault(id(a), (a, a.copy()))[1]
            assert np.array_equal(a, kept)
            return density(a, row, b)

        run = lambda: integrate_entropy_2d(
            g, DEFAULT_SPEC, inner_breakpoints=TestEntropy2d._bracket_zero_hints(c, s))
        first = run()
        n_first = len(calls)
        assert run() == first
        assert {level for level, _tid, _x in calls} == {1, 2}
        assert len(calls) == 2 * n_first

    def test_worklist_never_concatenated(self, monkeypatch):
        # The pending panels are a stack: a sweep pops its panels and pushes their
        # children, and no sweep concatenates the remaining worklist
        def refuse(*args, **kwargs):
            raise AssertionError("np.concatenate called")

        monkeypatch.setattr(np, "concatenate", refuse)
        sweeps = []

        def f(x):
            sweeps.append(x.size)
            return np.cos(300.0 * x)

        run = lambda: adaptive_panels(f, -8.0, 8.0, 1e-12)
        first = run()
        n_first = len(sweeps)
        assert run() == first
        assert len(sweeps) == 2 * n_first > 20
        c, s = math.cos(1.1), math.sin(1.1)
        integrate_entropy_2d(TestEntropy2d._bracket_density(c, s), DEFAULT_SPEC,
                             inner_breakpoints=TestEntropy2d._bracket_zero_hints(c, s))

    def test_integral_after_a_raise_unchanged(self):
        c, s = math.cos(1.1), math.sin(1.1)
        density = TestEntropy2d._bracket_density(c, s)
        hints = TestEntropy2d._bracket_zero_hints(c, s)
        before = integrate_entropy_2d(density, DEFAULT_SPEC, inner_breakpoints=hints)
        blocks = 0

        def g(a, row, b):
            # Raises in the middle of an inner batch, its worklist half refined
            nonlocal blocks
            blocks += 1
            if blocks == 5:
                raise FloatingPointError
            return density(a, row, b)

        with pytest.raises(FloatingPointError):
            integrate_entropy_2d(g, DEFAULT_SPEC, inner_breakpoints=hints)
        assert integrate_entropy_2d(density, DEFAULT_SPEC, inner_breakpoints=hints) == before

    def test_returned_arrays_only_read(self):
        stored = np.full(4096, -0.25)
        keep = stored.copy()
        res = adaptive_panels(lambda x: stored[:x.size], -1.0, 1.0, 1e-12)
        assert res.value == pytest.approx(-0.5, rel=1e-14)
        assert np.array_equal(stored, keep)
        stored = np.full(4096, 0.25)
        keep = stored.copy()
        want = -0.25 * math.log(0.25)
        res = integrate_entropy_1d(lambda x: stored[:x.size], QuadratureSpec(half_width=1.0))
        assert res.value == pytest.approx(2.0 * want, rel=1e-14)
        res = integrate_entropy_2d(lambda a, row, b: stored[:b.size],
                                   QuadratureSpec(half_width=1.0))
        assert res.value == pytest.approx(4.0 * want, rel=1e-13)
        assert np.array_equal(stored, keep)
