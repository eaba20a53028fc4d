import importlib
import math

import pytest

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

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            find_critical_angles("psi", "reid", root_tol=0.0)
        with pytest.raises(ValueError):
            find_critical_angles("psi", "nope")
        with pytest.raises(ValueError):
            find_critical_angles("nope", "reid")


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

    def test_criteria_incomplete_for_both(self, reports):
        assert all(rep.criteria_incomplete for rep in reports.values())

    def test_psi_prime_detected_regions_split_at_half_pi(self, reports):
        rep = reports["psi-prime"]
        assert len(rep.reid_detected) == 2
        assert rep.reid_detected[0][1] == math.pi / 2
        assert rep.reid_detected[1][0] == math.pi / 2
