import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as C

from cvsteer.cli import EXIT_NO_ROOT, EXIT_OK, EXIT_TOLERANCE, main
from cvsteer.criteria import (
    CRITERIA,
    CriterionResult,
    chsh_max,
    entropic_value,
    reid_value,
)
from cvsteer.fock import FockState
from cvsteer.quadrature import DEFAULT_SPEC, QuadratureSpec
from cvsteer.sweep import (
    NoRootInRange,
    find_critical_angles,
    hierarchy_report,
    sweep,
)

sweep_mod = importlib.import_module("cvsteer.sweep")
criteria_mod = importlib.import_module("cvsteer.criteria")

# The evaluator that each CRITERIA entry calls by its name in cvsteer.criteria
EVALUATORS = {"reid": "reid_value", "entropic": "entropic_value", "chsh": "chsh_max"}

# Crossing angles computed before the build with independent integrators: the
# inference-variance ones from the closed-form erfc expression (brentq, 1e-15), the
# entropic ones from scipy iterated adaptive quadrature (brentq, 1e-11).
CROSSINGS = {
    ("psi", "reid"): (0.5980031208297235, 2.543589532760069),
    ("psi", "entropic"): (0.866676024910518, 2.274916628677258),
    ("psi-prime", "reid"): (1.0215976750984175, 2.1199949784913756),
    ("psi-prime", "entropic"): (0.6669521870667777, 2.474640466523016),
}

FAST_SPEC = QuadratureSpec(panel_tol=1e-8)


# Two crossings 0.005 apart, both inside one cell (pi*100/314, pi*101/314) of the
# 315-point sweep grid, whose ends see the same sign: signs read off that grid alone
# miss both.
CLOSE_PAIR = (1.001, 1.006)


def mirrored(theta):
    """The built-in families take every criterion's value at pi - theta as at theta, and
    the search reads only [pi/2, pi]: a stand-in evaluator must share the mirror."""
    return min(theta, math.pi - theta)


def with_reflections(angles):
    return sorted(list(angles) + [math.pi - a for a in angles])


def stand_in(monkeypatch, evaluate, criteria=tuple(EVALUATORS)):
    """Replace the evaluators of the named criteria in cvsteer.criteria, where the
    CRITERIA table looks them up at call time, by evaluate(criterion, state, spec, theta)."""
    for criterion in criteria:
        def evaluator(state, spec=DEFAULT_SPEC, theta=None, criterion=criterion):
            return evaluate(criterion, state, spec, theta)
        monkeypatch.setattr(criteria_mod, EVALUATORS[criterion], evaluator)


def count_evaluations(monkeypatch) -> list:
    """Wrap the three evaluators in cvsteer.criteria; each call appends its criterion to
    the list returned."""
    calls = []

    def counted(criterion, original):
        def evaluator(*args, **kwargs):
            calls.append(criterion)
            return original(*args, **kwargs)
        return evaluator

    for criterion, name in EVALUATORS.items():
        monkeypatch.setattr(criteria_mod, name, counted(criterion, getattr(criteria_mod, name)))
    return calls


def close_pair_evaluate(converged=True, at=mirrored):
    """A smooth stand-in evaluator, value - bound = e^-t (t - r1)(t - r2) at
    t = at(theta)."""
    def evaluate(criterion, state, spec, theta):
        t = at(theta)
        gap = math.exp(-t) * (t - CLOSE_PAIR[0]) * (t - CLOSE_PAIR[1])
        return CriterionResult(criterion=criterion, theta=theta,
                               value=CRITERIA[criterion].bound + gap, components={},
                               violated=gap > 0.0, converged=converged)
    return evaluate


@pytest.fixture
def fresh_searches():
    sweep_mod._search.cache_clear()
    yield
    sweep_mod._search.cache_clear()


def crossings_of(roots):
    return [r for r in roots if r.kind == "crossing"]


def touches_of(roots):
    return [r for r in roots if r.kind == "touch"]


class TestSweep:
    def test_chsh_five_point_values(self):
        res = sweep("psi", {"chsh"}, 5)
        expected = [2.0, 2 * math.sqrt(2), 2.0, 2 * math.sqrt(2), 2.0]
        assert res.values["chsh"] == pytest.approx(expected, abs=1e-10)
        assert res.thetas[0] == 0.0 and res.thetas[-1] == math.pi

    def test_two_point_grid(self):
        res = sweep("psi", {"reid", "chsh"}, 2)
        assert len(res.thetas) == 2
        assert res.thetas == (0.0, math.pi)

    def test_grid_strictly_increasing(self):
        res = sweep("psi-prime", {"chsh"}, 17)
        assert all(a < b for a, b in zip(res.thetas, res.thetas[1:]))

    def test_reid_sign_pattern(self):
        # Positive (violated) outside the central crossing window, negative inside;
        # exact zeros at the product endpoints are excluded from the pattern
        res = sweep("psi", {"reid"}, 63, spec=FAST_SPEC)
        lo, hi = CROSSINGS[("psi", "reid")]
        for theta, value in zip(res.thetas, res.values["reid"]):
            if value == 0.0:
                continue
            assert (value > 0) == (theta < lo or theta > hi), (theta, value)

    def test_psi_prime_entropic_touchpoint_on_grid(self):
        # A 15-point grid hits pi/2 exactly at index 7; the value there is exactly the
        # boundary 0 and positive on both sides
        res = sweep("psi-prime", {"entropic"}, 15)
        assert res.thetas[7] == math.pi / 2
        vals = res.values["entropic"]
        assert vals[7] == 0.0
        assert vals[6] > 0 and vals[8] > 0

    def test_deterministic(self):
        a = sweep("psi", {"reid", "chsh"}, 9, spec=FAST_SPEC)
        b = sweep("psi", {"reid", "chsh"}, 9, spec=FAST_SPEC)
        assert a == b

    def test_mirrored_grid_reuses_reflections(self, monkeypatch):
        # On a mirrored family grid angle i below pi/2 takes the value and flag of its
        # reflection n - 1 - i, evaluated once; flags stay in grid order
        seen = []

        def evaluate(criterion, state, spec, theta):
            seen.append(theta)
            return CriterionResult(criterion=criterion, theta=theta, value=theta,
                                   components={}, violated=False, converged=theta < 2.0)

        stand_in(monkeypatch, evaluate, ("chsh",))
        res = sweep("psi", {"chsh"}, 5)
        t = res.thetas
        assert sorted(seen) == list(t[2:])
        assert res.values["chsh"] == (t[4], t[3], t[2], t[3], t[4])
        assert res.flagged == tuple(("chsh", t[i]) for i in (0, 1, 3, 4))
        # |00> against |22> has no mirror: every angle is evaluated
        seen.clear()
        a, b = FockState.from_terms([(0, 0, 1.0)]), FockState.from_terms([(2, 2, 1.0)])
        monkeypatch.setitem(sweep_mod.STATE_BUILDERS, "psi", lambda theta: family(a, b, theta))
        assert sweep("psi", {"chsh"}, 5).values["chsh"] == t
        assert seen == list(t)

    @pytest.mark.parametrize("state_id", ["psi", "psi-prime"])
    def test_mirrored_default_grid_evaluates_its_upper_half(self, monkeypatch, state_id):
        # Grid angle i < 157 of the 315-point grid takes the results of grid angle 314 - i.
        # Reuse keyed by the float pi - theta_i missed the 37 reflections that linspace
        # puts an ulp off, and evaluated 195 angles
        calls = count_evaluations(monkeypatch)
        sweep(state_id, {"chsh"}, 315)
        assert len(calls) == 158

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            sweep("psi", {"reid"}, 1)
        with pytest.raises(ValueError):
            sweep("psi", {"reid"}, 5, theta_min=2.0, theta_max=1.0)
        with pytest.raises(ValueError):
            sweep("psi", set(), 5)
        with pytest.raises(ValueError):
            sweep("nope", {"reid"}, 5)
        with pytest.raises(ValueError, match="entropc"):
            sweep("psi", {"chsh", "entropc"}, 3)


class TestChebyshevProxy:
    """The proxy's DCT-I and colleague-matrix roots against numpy.polynomial.chebyshev."""

    @pytest.mark.parametrize("degree", [1, 2, 5, 16, 64])
    def test_coefficients_and_roots_match_numpy(self, degree):
        rng = np.random.default_rng(degree)
        coeffs = rng.standard_normal(degree + 1)
        x = np.cos(np.pi * np.arange(degree + 1) / degree)
        got = sweep_mod._chebyshev_coefficients(C.chebval(x, coeffs))
        assert np.max(np.abs(got - coeffs)) <= 1e-12 * np.max(np.abs(coeffs))
        want = C.chebroots(coeffs)
        want = np.sort(want[(np.abs(want.imag) < 1e-9) & (np.abs(want.real) < 1.0)].real)
        roots = sweep_mod._chebyshev_roots(coeffs)
        assert roots.shape == want.shape
        assert np.max(np.abs(roots - want), initial=0.0) <= 1e-9


class TestFindCriticalAngles:
    @pytest.mark.parametrize("state_id,criterion", list(CROSSINGS))
    def test_crossings_match_independent_roots(self, state_id, criterion):
        roots = find_critical_angles(state_id, criterion)
        got = [r.angle for r in crossings_of(roots)]
        expected = CROSSINGS[(state_id, criterion)]
        assert len(got) == len(expected)
        for angle, ref in zip(got, expected):
            assert angle == pytest.approx(ref, abs=5e-4)

    def test_angles_inside_brackets(self):
        for r in find_critical_angles("psi", "reid"):
            assert r.bracket[0] <= r.angle <= r.bracket[1]
            if r.kind == "crossing":
                assert r.bracket[1] - r.bracket[0] <= 1e-6

    def test_pairing_sums_to_pi(self):
        for key in CROSSINGS:
            roots = crossings_of(find_critical_angles(*key))
            assert roots[0].angle + roots[-1].angle == pytest.approx(math.pi, abs=1e-3)

    def test_product_endpoint_touches_for_psi(self):
        for criterion in ("reid", "entropic"):
            touch_angles = [r.angle for r in touches_of(find_critical_angles("psi", criterion))]
            assert 0.0 in touch_angles
            assert math.pi in touch_angles

    def test_psi_prime_half_pi_touch(self):
        for criterion in ("reid", "entropic"):
            roots = find_critical_angles("psi-prime", criterion)
            touch = touches_of(roots)
            assert any(r.angle == math.pi / 2 for r in touch), roots
            for r in touch:
                assert r.bracket == (r.angle, r.angle)
                assert r.residual == 0.0

    def test_chsh_touches_only(self):
        roots = find_critical_angles("psi", "chsh")
        assert not crossings_of(roots)
        angles = [r.angle for r in touches_of(roots)]
        assert angles[0] == 0.0 and angles[-1] == math.pi
        assert math.pi / 2 in angles
        assert all(r.residual == 0.0 for r in touches_of(roots))

    @pytest.mark.parametrize("state_id", ["psi", "psi-prime"])
    @pytest.mark.parametrize("criterion", ["reid", "entropic", "chsh"])
    def test_touches_exact_at_product_points(self, state_id, criterion):
        # The bound is met exactly only at product states, which for both families sit
        # at 0, pi/2 and pi: every touch is one of those angles, with the evaluated
        # value there equal to the bound
        entry = CRITERIA[criterion]
        build = sweep_mod.STATE_BUILDERS[state_id]
        touches = touches_of(find_critical_angles(state_id, criterion))
        assert touches
        for r in touches:
            assert r.angle in (0.0, math.pi / 2, math.pi), r
            assert r.residual == 0.0 and r.bracket == (r.angle, r.angle)
            value = entry.evaluate(build(r.angle), DEFAULT_SPEC, r.angle).value
            assert value == entry.bound, (r, value)

    def test_monotone_refinement(self):
        coarse = crossings_of(find_critical_angles("psi", "reid", root_tol=1e-4))
        fine = crossings_of(find_critical_angles("psi", "reid", root_tol=5e-5))
        for c, f in zip(coarse, fine):
            assert abs(c.angle - f.angle) <= 1e-4

    def test_residuals_small_at_crossings(self):
        for r in crossings_of(find_critical_angles("psi", "reid")):
            assert r.residual < 1e-5

    def test_no_root_in_range(self, monkeypatch):
        # A criterion pinned strictly above its bound has neither crossing nor touch
        def constant(criterion, state, spec, theta):
            return CriterionResult(criterion=criterion, theta=theta, value=1.0,
                                   components={}, violated=True)
        stand_in(monkeypatch, constant)
        sweep_mod._search.cache_clear()
        try:
            with pytest.raises(NoRootInRange):
                find_critical_angles("psi", "reid")
        finally:
            sweep_mod._search.cache_clear()

    def test_crossings_closer_than_sweep_grid_spacing(self, monkeypatch, fresh_searches):
        # The pair and its reflection about pi/2, each bracketed to root_tol
        stand_in(monkeypatch, close_pair_evaluate())
        roots = find_critical_angles("psi", "reid")
        assert [r.kind for r in roots] == ["crossing"] * 4
        for r, root in zip(roots, with_reflections(CLOSE_PAIR)):
            assert r.bracket[0] <= root <= r.bracket[1]
            assert r.bracket[0] <= r.angle <= r.bracket[1]
            assert r.bracket[1] - r.bracket[0] <= 1e-6
            assert r.converged

    def test_unmirrored_family_searches_both_halves(self, monkeypatch, fresh_searches):
        # |00> against |22> fails the mirror rule: [0, pi/2] is searched too, and a
        # stand-in with crossings only there yields them without reflections
        a, b = FockState.from_terms([(0, 0, 1.0)]), FockState.from_terms([(2, 2, 1.0)])
        monkeypatch.setitem(sweep_mod.STATE_BUILDERS, "psi", lambda t: family(a, b, t))
        stand_in(monkeypatch, close_pair_evaluate(at=lambda t: t))
        roots = find_critical_angles("psi", "reid")
        assert [r.kind for r in roots] == ["crossing", "crossing"]
        for r, root in zip(roots, CLOSE_PAIR):
            assert r.bracket[0] <= root <= r.bracket[1]
            assert r.bracket[1] - r.bracket[0] <= 1e-6

    def test_flag_of_rootless_search(self, capsys, tmp_path, monkeypatch, fresh_searches):
        # A search that finds nothing still reports that its evaluations missed their
        # tolerance, on the exception and as the critical command's warning
        def flagged_constant(criterion, state, spec, theta):
            return CriterionResult(criterion=criterion, theta=theta, value=1.0,
                                   components={}, violated=True, converged=False)
        stand_in(monkeypatch, flagged_constant)
        with pytest.raises(NoRootInRange) as info:
            find_critical_angles("psi", "reid")
        assert info.value.converged is False
        code = main(["critical", "--state", "psi", "--criteria", "reid",
                     "--output", str(tmp_path / "critical.csv")])
        err = capsys.readouterr().err
        assert code == EXIT_NO_ROOT
        assert "critical-angle searches for reid did not meet the quadrature tolerance" in err

    def test_unresolved_proxy_is_flagged(self, monkeypatch, fresh_searches):
        # A kink at theta = 1 (and pi - 1) keeps the Chebyshev coefficients above
        # 10 * panel_tol at every degree: the crossings are still found, but not as
        # converged
        def kinked(criterion, state, spec, theta):
            gap = abs(mirrored(theta) - 1.0) - 0.1
            return CriterionResult(criterion=criterion, theta=theta, value=gap,
                                   components={}, violated=gap > 0.0)
        stand_in(monkeypatch, kinked)
        roots = find_critical_angles("psi", "reid")
        assert [r.angle for r in roots] == pytest.approx(with_reflections([0.9, 1.1]), abs=1e-6)
        assert not any(r.converged for r in roots)

    def test_rejects_bad_inputs(self, monkeypatch):
        # An unknown criterion is rejected by name before any evaluation runs
        calls = count_evaluations(monkeypatch)
        with pytest.raises(ValueError):
            find_critical_angles("psi", "reid", root_tol=0.0)
        with pytest.raises(ValueError, match="root_tol"):
            find_critical_angles("psi", "reid", root_tol=math.nan)
        with pytest.raises(ValueError, match="unknown criterion 'nope'"):
            find_critical_angles("psi", "nope")
        with pytest.raises(ValueError):
            find_critical_angles("nope", "reid")
        assert calls == []

    # Both built-in families are mirrored, so only [pi/2, pi] is searched. Searching
    # both halves took 75 (Reid), 139 / 71 (psi / psi-prime entropic) and 65 (CHSH)
    # evaluations; a 315-point uniform scan plus bisection took 345.
    MOST_EVALUATIONS = {("psi", "reid"): 38, ("psi", "entropic"): 70, ("psi", "chsh"): 33,
                        ("psi-prime", "reid"): 38, ("psi-prime", "entropic"): 36,
                        ("psi-prime", "chsh"): 33}

    def test_evaluations_per_search(self, monkeypatch):
        # The cache is left warm, with the real values, for the reports fixture below.
        sweep_mod._search.cache_clear()
        calls = count_evaluations(monkeypatch)
        for state_id in ("psi", "psi-prime"):
            for criterion in ("reid", "entropic", "chsh"):
                calls.clear()
                find_critical_angles(state_id, criterion)
                most = self.MOST_EVALUATIONS[(state_id, criterion)]
                assert 0 < len(calls) <= most, (state_id, criterion, len(calls))

    @pytest.mark.parametrize("state_id,criterion,most", [
        ("psi", "reid", 39), ("psi-prime", "reid", 39), ("psi-prime", "entropic", 37)])
    def test_probe_width_at_coarse_tolerance(self, monkeypatch, state_id, criterion, most):
        # At panel_tol 1e-7 the proxy's crossings are 3-6e-7 off the true ones, beyond
        # probes at +-root_tol/4. With probes at the proxy's accuracy (at most
        # root_tol/2) and Illinois steps at least root_tol/2 in from the bracket's ends,
        # the 33 samples of [pi/2, pi] and two probes per candidate need at most two more
        # evaluations per crossing, and the crossing below pi/2 is its reflection. Both
        # halves took 77 (Reid) and 72 (entropic), and with probes fixed at
        # +-root_tol/4 81 and 77. The cache is bypassed, not cleared.
        spec = QuadratureSpec(panel_tol=1e-7, half_width=6)
        calls = count_evaluations(monkeypatch)
        search = sweep_mod._search.__wrapped__(state_id, criterion, spec, 1e-6)
        assert len(calls) <= most
        got = [r for r in search.roots if r.kind == "crossing" and r.bracket[0] < r.bracket[1]]
        for r, ref in zip(got, CROSSINGS[(state_id, criterion)]):
            assert r.bracket[1] - r.bracket[0] <= 1e-6
            assert r.angle == pytest.approx(ref, abs=5e-4)
        assert len(got) == 2


def family(a, b, theta):
    """cos(theta) a + sin(theta) b for states a and b with no Fock pair in common."""
    return FockState.from_terms([(n1, n2, math.cos(theta) * c) for n1, n2, c in a.terms] +
                                [(n1, n2, math.sin(theta) * c) for n1, n2, c in b.terms])


@st.composite
def mirrored_families(draw):
    """(a, b) whose terms have one parity of the Fock index in one mode for a and the
    other for b: one or two terms each, indices <= 8, complex amplitudes."""
    mode = draw(st.integers(0, 1))
    parity = draw(st.integers(0, 1))

    def state(p):
        pair = st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(lambda t: t[mode] % 2 == p)
        pairs = draw(st.lists(pair, min_size=1, max_size=2, unique=True))
        phases = draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=len(pairs),
                               max_size=len(pairs)))
        amps = np.exp(1j * np.array(phases)) / math.sqrt(len(pairs))
        return FockState.from_terms([(n1, n2, complex(c)) for (n1, n2), c in zip(pairs, amps)])

    return state(parity), state(1 - parity)


class TestMirrorRule:
    """The family's theta <-> pi - theta mirror, read from the Fock indices alone."""

    def test_builtin_families(self):
        for build in sweep_mod.STATE_BUILDERS.values():
            assert sweep_mod._mirrored(build(0.0), build(0.5 * math.pi))

    @given(mirrored_families(), st.floats(0.05, 0.5 * math.pi - 0.05))
    @settings(max_examples=6, deadline=None)
    def test_values_agree_where_the_rule_holds(self, pair, theta):
        # The two evaluations integrate mirror images of one density, so they agree far
        # below the quadrature tolerance; panel_tol 1e-8 keeps the n <= 8 cases cheap
        a, b = pair
        assert sweep_mod._mirrored(a, b)
        here, there = family(a, b, theta), family(a, b, math.pi - theta)
        for evaluate in (reid_value, entropic_value):
            assert evaluate(here, FAST_SPEC).value == pytest.approx(
                evaluate(there, FAST_SPEC).value, abs=1e-10)
        assert chsh_max(here).value == pytest.approx(chsh_max(there).value, abs=1e-10)

    @pytest.mark.parametrize("b_terms,asymmetry", [
        ([(2, 2, 1.0)], 0.47),
        ([(1, 1, math.sqrt(0.5)), (2, 2, math.sqrt(0.5))], 0.61),
    ])
    def test_rejected_families_are_asymmetric(self, b_terms, asymmetry):
        # |00> against |22> or (|11> + |22>)/sqrt(2): no mode parity separates them, and
        # the entropic values at 0.7 and pi - 0.7 differ by 0.47 and 0.61
        a, b = FockState.from_terms([(0, 0, 1.0)]), FockState.from_terms(b_terms)
        assert not sweep_mod._mirrored(a, b)
        here, there = family(a, b, 0.7), family(a, b, math.pi - 0.7)
        gap = entropic_value(here).value - entropic_value(there).value
        assert abs(gap) == pytest.approx(asymmetry, abs=0.01)

    def test_one_symmetric_criterion_does_not_make_a_mirror(self):
        # Reid takes equal values on |00>/|22> at theta and pi - theta, since
        # <0|x|2> = 0, while the entropic criterion does not (test above)
        a, b = FockState.from_terms([(0, 0, 1.0)]), FockState.from_terms([(2, 2, 1.0)])
        here, there = family(a, b, 0.7), family(a, b, math.pi - 0.7)
        assert reid_value(here).value == pytest.approx(reid_value(there).value, abs=1e-10)


@pytest.fixture(scope="module")
def reports():
    return {sid: hierarchy_report(sid) for sid in ("psi", "psi-prime")}


class TestHierarchyReport:
    def test_chsh_region_excludes_half_pi(self, reports):
        for rep in reports.values():
            assert rep.chsh_violation_region == ((0.0, math.pi / 2), (math.pi / 2, math.pi))

    def test_psi_detected_regions(self, reports):
        rep = reports["psi"]
        (r_lo, r_hi), (r_lo2, r_hi2) = rep.reid_detected
        assert (r_lo, r_hi2) == (0.0, math.pi)
        assert r_hi == pytest.approx(0.5980031208297235, abs=5e-4)
        assert r_lo2 == pytest.approx(2.543589532760069, abs=5e-4)
        (e_lo, e_hi), (e_lo2, e_hi2) = rep.entropic_detected
        assert e_hi == pytest.approx(0.866676024910518, abs=5e-4)
        assert e_lo2 == pytest.approx(2.274916628677258, abs=5e-4)

    def test_psi_reid_region_inside_entropic(self, reports):
        rep = reports["psi"]
        for (r_lo, r_hi) in rep.reid_detected:
            assert any(e_lo <= r_lo and r_hi <= e_hi + 1e-9
                       for e_lo, e_hi in rep.entropic_detected)

    def test_psi_prime_reid_region_inside_entropic(self, reports):
        rep = reports["psi-prime"]
        for (r_lo, r_hi) in rep.reid_detected:
            assert any(e_lo <= r_lo + 1e-9 and r_hi <= e_hi + 1e-9
                       for e_lo, e_hi in rep.entropic_detected)

    def test_psi_undetected_central_window(self, reports):
        rep = reports["psi"]
        spans = rep.undetected_steering
        assert len(spans) == 2
        assert spans[0][0] == pytest.approx(0.866676, abs=5e-4)
        assert spans[0][1] == math.pi / 2
        assert spans[1][0] == math.pi / 2
        assert spans[1][1] == pytest.approx(2.274917, abs=5e-4)

    def test_psi_prime_undetected_adjoins_endpoints(self, reports):
        rep = reports["psi-prime"]
        spans = rep.undetected_steering
        assert spans[0][0] == 0.0
        assert spans[0][1] == pytest.approx(0.6669521870667777, abs=5e-4)
        assert spans[-1][0] == pytest.approx(2.474640466523016, abs=5e-4)
        assert spans[-1][1] == math.pi

    def test_spans_read_from_cached_scans(self, reports, monkeypatch):
        # With the scans cached, span signs come from their samples: no evaluation
        calls = count_evaluations(monkeypatch)
        for state_id, rep in reports.items():
            assert hierarchy_report(state_id) == rep
        assert calls == []

    def test_underscore_and_upper_case_names(self, reports):
        # One family lookup normalizes the name for the report, the search and the sweep,
        # and the results carry the canonical family key, not the caller's spelling
        assert hierarchy_report("PSI_PRIME") == reports["psi-prime"]
        assert reports["psi-prime"].state_id == "psi-prime"
        assert find_critical_angles("Psi_Prime", "chsh") == find_critical_angles("psi-prime", "chsh")
        assert sweep("PSI_PRIME", {"chsh"}, 5) == sweep("psi-prime", {"chsh"}, 5)
        assert sweep("PSI_PRIME", {"chsh"}, 5).state_id == "psi-prime"
        with pytest.raises(ValueError, match="unknown state id"):
            hierarchy_report("psi prime")

    @pytest.mark.parametrize("gap,detected", [(0.1, ((0.0, math.pi),)), (-0.1, ())])
    def test_criterion_that_never_meets_its_bound(self, monkeypatch, fresh_searches, gap,
                                                  detected):
        # Reid pinned strictly above (below) its bound has no angle: the whole range is
        # one violated (unviolated) span, where NoRootInRange used to escape the report
        def pinned_reid(criterion, state, spec, theta):
            return CriterionResult(criterion=criterion, theta=theta, value=gap,
                                   components={}, violated=gap > 0.0)

        stand_in(monkeypatch, pinned_reid, criteria=("reid",))
        rep = hierarchy_report("psi-prime", QuadratureSpec(panel_tol=1e-7, half_width=6))
        assert rep.reid_detected == detected
        assert rep.flagged == ()
        with pytest.raises(NoRootInRange):
            find_critical_angles("psi-prime", "reid", QuadratureSpec(panel_tol=1e-7, half_width=6))

    def test_flags_reach_critical_and_report(self, capsys, tmp_path, monkeypatch,
                                             fresh_searches):
        # Evaluations that miss their tolerance make sweep, critical and report warn on
        # stderr and exit 3, as eval does, unless --allow-flagged is given
        output = str(tmp_path / "out.csv")
        for converged in (True, False):
            sweep_mod._search.cache_clear()
            stand_in(monkeypatch, close_pair_evaluate(converged))
            rep = hierarchy_report("psi")
            assert rep.flagged == (() if converged else ("reid", "entropic", "chsh"))
            for argv in (["sweep", "--criteria", "reid", "--steps", "5", "--output", output],
                         ["critical", "--criteria", "reid", "--output", output], ["report"]):
                for allow in ([], ["--allow-flagged"]):
                    code = main(argv + ["--state", "psi"] + allow)
                    err = capsys.readouterr().err
                    assert code == (EXIT_OK if converged or allow else EXIT_TOLERANCE), argv
                    assert ("did not meet the quadrature tolerance" in err) == (not converged), err
        assert "reid, entropic, chsh" in err

    def test_criteria_incomplete_for_both(self, reports):
        assert all(rep.criteria_incomplete for rep in reports.values())

    def test_psi_prime_detected_regions_split_at_half_pi(self, reports):
        rep = reports["psi-prime"]
        assert len(rep.reid_detected) == 2
        assert rep.reid_detected[0][1] == math.pi / 2
        assert rep.reid_detected[1][0] == math.pi / 2
