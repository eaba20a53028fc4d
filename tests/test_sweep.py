import importlib
import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as C

from cvsteer.cli import EXIT_NO_ROOT, EXIT_OK, main
from cvsteer.criteria import CHSH_CLASSICAL_BOUND, CriterionResult
from cvsteer.quadrature import DEFAULT_SPEC, QuadratureSpec
from cvsteer.sweep import (
    NoRootInRange,
    find_critical_angles,
    hierarchy_report,
    sweep,
)

sweep_mod = importlib.import_module("cvsteer.sweep")

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


def close_pair_evaluate(converged=True):
    """A smooth stand-in for sweep._evaluate, value - bound = e^-t (t - r1)(t - r2)."""
    def evaluate(criterion, state, spec, theta):
        gap = math.exp(-theta) * (theta - CLOSE_PAIR[0]) * (theta - CLOSE_PAIR[1])
        bound = CHSH_CLASSICAL_BOUND if criterion == "chsh" else 0.0
        return CriterionResult(criterion=criterion, theta=theta, value=bound + gap,
                               components={}, violated=gap > 0.0, converged=converged)
    return evaluate


@pytest.fixture
def fresh_searches():
    sweep_mod._find_critical_angles_cached.cache_clear()
    yield
    sweep_mod._find_critical_angles_cached.cache_clear()


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
        bound = CHSH_CLASSICAL_BOUND if criterion == "chsh" else 0.0
        build = sweep_mod.STATE_BUILDERS[state_id]
        touches = touches_of(find_critical_angles(state_id, criterion))
        assert touches
        for r in touches:
            assert r.angle in (0.0, math.pi / 2, math.pi), r
            assert r.residual == 0.0 and r.bracket == (r.angle, r.angle)
            value = sweep_mod._evaluate(criterion, build(r.angle), DEFAULT_SPEC, r.angle).value
            assert value == bound, (r, value)

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
        monkeypatch.setattr(sweep_mod, "_evaluate", constant)
        sweep_mod._find_critical_angles_cached.cache_clear()
        try:
            with pytest.raises(NoRootInRange):
                find_critical_angles("psi", "reid")
        finally:
            sweep_mod._find_critical_angles_cached.cache_clear()

    def test_crossings_closer_than_sweep_grid_spacing(self, monkeypatch, fresh_searches):
        monkeypatch.setattr(sweep_mod, "_evaluate", close_pair_evaluate())
        roots = find_critical_angles("psi", "reid")
        assert [r.kind for r in roots] == ["crossing", "crossing"]
        for r, root in zip(roots, CLOSE_PAIR):
            assert r.bracket[0] <= root <= r.bracket[1]
            assert r.bracket[0] <= r.angle <= r.bracket[1]
            assert r.bracket[1] - r.bracket[0] <= 1e-6
            assert r.converged

    def test_flag_of_rootless_search(self, capsys, tmp_path, monkeypatch, fresh_searches):
        # A search that finds nothing still reports that its evaluations missed their
        # tolerance, on the exception and as the critical command's warning
        def flagged_constant(criterion, state, spec, theta):
            return CriterionResult(criterion=criterion, theta=theta, value=1.0,
                                   components={}, violated=True, converged=False)
        monkeypatch.setattr(sweep_mod, "_evaluate", flagged_constant)
        with pytest.raises(NoRootInRange) as info:
            find_critical_angles("psi", "reid")
        assert info.value.converged is False
        code = main(["critical", "--state", "psi", "--criteria", "reid",
                     "--output", str(tmp_path / "critical.csv")])
        err = capsys.readouterr().err
        assert code == EXIT_NO_ROOT
        assert "critical-angle searches for reid did not meet the quadrature tolerance" in err

    def test_unresolved_proxy_is_flagged(self, monkeypatch, fresh_searches):
        # A kink at theta = 1 keeps the Chebyshev coefficients above 10 * panel_tol at
        # every degree: the crossings are still found, but not as converged
        def kinked(criterion, state, spec, theta):
            return CriterionResult(criterion=criterion, theta=theta,
                                   value=abs(theta - 1.0) - 0.1, components={},
                                   violated=abs(theta - 1.0) > 0.1)
        monkeypatch.setattr(sweep_mod, "_evaluate", kinked)
        roots = find_critical_angles("psi", "reid")
        assert [r.angle for r in roots] == pytest.approx([0.9, 1.1], abs=1e-6)
        assert not any(r.converged for r in roots)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            find_critical_angles("psi", "reid", root_tol=0.0)
        with pytest.raises(ValueError):
            find_critical_angles("psi", "nope")
        with pytest.raises(ValueError):
            find_critical_angles("nope", "reid")

    def test_evaluations_per_search(self, monkeypatch):
        # A 315-point uniform scan plus bisection takes 345 evaluations per (family,
        # criterion). The cache is left warm, with the real values, for the reports
        # fixture below.
        sweep_mod._find_critical_angles_cached.cache_clear()
        evaluate = sweep_mod._evaluate
        calls = []

        def counted(*args):
            calls.append(args[0])
            return evaluate(*args)

        monkeypatch.setattr(sweep_mod, "_evaluate", counted)
        for state_id in ("psi", "psi-prime"):
            for criterion in ("reid", "entropic", "chsh"):
                calls.clear()
                find_critical_angles(state_id, criterion)
                assert 0 < len(calls) <= 170, (state_id, criterion, len(calls))


    @pytest.mark.parametrize("state_id,criterion,most", [
        ("psi", "reid", 77), ("psi-prime", "reid", 77), ("psi-prime", "entropic", 72)])
    def test_probe_width_at_coarse_tolerance(self, monkeypatch, state_id, criterion, most):
        # At panel_tol 1e-7 the proxy's crossings are 3-6e-7 off the true ones, beyond
        # probes at +-root_tol/4. With probes at the proxy's accuracy (at most
        # root_tol/2) and Illinois steps at least root_tol/2 in from the bracket's ends,
        # the 65 samples and two probes per candidate need at most two more evaluations
        # per crossing; probes fixed at +-root_tol/4 took 77 and 81 (Reid) and 77
        # (entropic). The caches are bypassed, not cleared.
        spec = QuadratureSpec(panel_tol=1e-7, half_width=6)
        evaluate = sweep_mod._evaluate
        calls = []

        def counted(*args):
            calls.append(args[0])
            return evaluate(*args)

        monkeypatch.setattr(sweep_mod, "_evaluate", counted)
        proxy = sweep_mod._find_critical_angles_cached.__wrapped__(state_id, criterion, spec)
        search = sweep_mod._polish.__wrapped__(proxy, 1e-6)
        assert len(calls) <= most
        got = [r for r in search.roots if r.kind == "crossing" and r.bracket[0] < r.bracket[1]]
        for r, ref in zip(got, CROSSINGS[(state_id, criterion)]):
            assert r.bracket[1] - r.bracket[0] <= 1e-6
            assert r.angle == pytest.approx(ref, abs=5e-4)
        assert len(got) == 2


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
        calls = []
        evaluate = sweep_mod._evaluate

        def counted(*args):
            calls.append(args[:1])
            return evaluate(*args)

        monkeypatch.setattr(sweep_mod, "_evaluate", counted)
        for state_id, rep in reports.items():
            assert hierarchy_report(state_id) == rep
        assert calls == []

    def test_flags_reach_critical_and_report(self, capsys, tmp_path, monkeypatch,
                                             fresh_searches):
        # Evaluations that miss their tolerance make critical and report warn on stderr,
        # as sweep does; the exit code stays 0
        output = str(tmp_path / "critical.csv")
        for converged in (True, False):
            sweep_mod._find_critical_angles_cached.cache_clear()
            monkeypatch.setattr(sweep_mod, "_evaluate", close_pair_evaluate(converged))
            rep = hierarchy_report("psi")
            assert rep.flagged == (() if converged else ("reid", "entropic", "chsh"))
            for argv in (["critical", "--criteria", "reid", "--output", output], ["report"]):
                code = main(argv + ["--state", "psi"])
                err = capsys.readouterr().err
                assert code == EXIT_OK
                assert ("did not meet the quadrature tolerance" in err) == (not converged), err
        assert "reid, entropic, chsh" in err

    def test_criteria_incomplete_for_both(self, reports):
        assert all(rep.criteria_incomplete for rep in reports.values())

    def test_psi_prime_detected_regions_split_at_half_pi(self, reports):
        rep = reports["psi-prime"]
        assert len(rep.reid_detected) == 2
        assert rep.reid_detected[0][1] == math.pi / 2
        assert rep.reid_detected[1][0] == math.pi / 2
