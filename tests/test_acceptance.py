"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Reference angles and values were computed before the build with independent tools:
closed-form erfc expressions (scipy.special.erfcx + brentq) for the inference-variance
criterion and iterated scipy.integrate.quad for the entropic one. Run with ``-s`` (or
read the -v test listing) for the per-criterion lines.
"""

import math
import time
from functools import lru_cache

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from cvsteer.criteria import chsh_max, entropic_value, reid_value
from cvsteer.fock import Domain, UnitSystem, joint_density, make_psi, make_psi_prime, marginal_density
from cvsteer.quadrature import DEFAULT_SPEC, QuadratureSpec, integrate_entropy_1d
from cvsteer.sweep import find_critical_angles, hierarchy_report, sweep

BUILDERS = {"psi": make_psi, "psi-prime": make_psi_prime}

# Independently computed crossing angles (see module docstring).
REF_CROSSINGS = {
    ("psi", "reid"): (0.5980031208297235, 2.543589532760069),
    ("psi", "entropic"): (0.866676024910518, 2.274916628677258),
    ("psi-prime", "reid"): (1.0215976750984175, 2.1199949784913756),
    ("psi-prime", "entropic"): (0.6669521870667777, 2.474640466523016),
}

ANGLE_TOL = 5e-4
PROBE_THETAS = (0.2, 0.3, 0.6, 0.8667, 1.1, 1.52, 2.0, 2.4, 2.9)


@lru_cache(maxsize=None)
def crossings(state_id: str, criterion: str) -> tuple[float, ...]:
    roots = find_critical_angles(state_id, criterion).roots
    return tuple(r.angle for r in roots if r.kind == "crossing")


@lru_cache(maxsize=None)
def grid_sweep(state_id: str):
    return sweep(state_id, {"reid", "entropic", "chsh"}, 315)


def _report(line: str) -> None:
    print(line, flush=True)


def test_criterion_1_psi_critical_angles_within_tolerance_and_time():
    start = time.monotonic()
    got = crossings("psi", "reid") + crossings("psi", "entropic")
    elapsed = time.monotonic() - start
    expected = REF_CROSSINGS[("psi", "reid")] + REF_CROSSINGS[("psi", "entropic")]
    assert len(got) == 4
    for angle, ref in zip(got, expected):
        assert angle == pytest.approx(ref, abs=ANGLE_TOL), (angle, ref)
    assert elapsed < 60.0, f"critical-angle location took {elapsed:.1f}s"
    _report(f"[PASS] criterion 1: psi critical angles within +-5e-4 ({elapsed:.1f}s)")


def test_criterion_2_psi_prime_critical_angles_and_pairing():
    got = crossings("psi-prime", "reid") + crossings("psi-prime", "entropic")
    expected = REF_CROSSINGS[("psi-prime", "reid")] + REF_CROSSINGS[("psi-prime", "entropic")]
    assert len(got) == 4
    for angle, ref in zip(got, expected):
        assert angle == pytest.approx(ref, abs=ANGLE_TOL), (angle, ref)
    for pair in (crossings("psi-prime", "reid"), crossings("psi-prime", "entropic")):
        assert pair[0] + pair[1] == pytest.approx(math.pi, abs=1e-3)
    _report("[PASS] criterion 2: psi-prime critical angles within +-5e-4, partners sum to pi")


def test_criterion_3_chsh_closed_form_on_grid():
    start = time.monotonic()
    worst = 0.0
    for builder in BUILDERS.values():
        for theta in np.linspace(0.0, math.pi, 181):
            value = chsh_max(builder(theta)).value
            closed = 2.0 * math.sqrt(1.0 + math.sin(2.0 * theta) ** 2)
            worst = max(worst, abs(value - closed))
    elapsed = time.monotonic() - start
    assert worst < 1e-10
    assert elapsed < 1.0, f"CHSH grid took {elapsed:.2f}s"
    _report(f"[PASS] criterion 3: CHSH closed form, worst |diff| = {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_4_product_point_exactness():
    psi0 = make_psi(0.0)
    assert abs(reid_value(psi0).value) < 1e-8
    assert abs(entropic_value(psi0).value) < 1e-8
    psi_half = make_psi(math.pi / 2)
    assert reid_value(psi_half).value == pytest.approx(-2.0, abs=1e-6)
    ent = entropic_value(psi_half).value
    assert ent == pytest.approx(-0.5407, abs=1e-4)
    # sharper digamma-identity value: 2 - 2*gamma - 2*ln 2
    assert ent == pytest.approx(2.0 - 2.0 * np.euler_gamma - 2.0 * math.log(2.0), abs=1e-10)
    _report("[PASS] criterion 4: product points exact (0, 0, -2, -0.54073)")


def _expected_violated(state_id: str, criterion: str, theta: float) -> bool:
    lo, hi = REF_CROSSINGS[(state_id, criterion)]
    if state_id == "psi":
        return theta < lo or theta > hi
    return lo < theta < hi


def test_criterion_5_violation_region_sign_pattern():
    half_pi = math.pi / 2
    for state_id in BUILDERS:
        result = grid_sweep(state_id)
        for criterion in ("reid", "entropic"):
            for theta, value in zip(result.thetas, result.values[criterion]):
                if value == 0.0:
                    # exact boundary zeros: product endpoints and the pi/2 touch-point
                    assert theta in (0.0, half_pi, math.pi), (state_id, criterion, theta)
                    continue
                assert (value > 0.0) == _expected_violated(state_id, criterion, theta), \
                    (state_id, criterion, theta, value)
        # the pi/2 grid point of the second family touches the bound exactly
        if state_id == "psi-prime":
            idx = result.thetas.index(half_pi)
            assert result.values["entropic"][idx] == 0.0
            assert result.values["reid"][idx] == 0.0
    _report("[PASS] criterion 5: 315-point sign patterns match the crossing intervals")


def test_criterion_6_hierarchy_gap_nonempty():
    for state_id in BUILDERS:
        report = hierarchy_report(state_id)
        assert report.criteria_incomplete
        assert report.undetected_steering
        build = BUILDERS[state_id]
        for lo, hi in report.undetected_steering:
            mid = 0.5 * (lo + hi)
            state = build(mid)
            assert chsh_max(state).value > 2.0
            assert reid_value(state).value <= 0.0
            assert entropic_value(state).value <= 0.0
    _report("[PASS] criterion 6: undetected steering nonempty for both families "
            "(Bell-violating, both criteria silent)")


def test_criterion_7_numerical_robustness():
    tight = QuadratureSpec(panel_tol=1e-11)
    worst_precision = 0.0
    worst_units = 0.0
    for state_id, build in BUILDERS.items():
        for theta in PROBE_THETAS:
            state = build(theta)
            for evaluate in (reid_value, entropic_value):
                base = evaluate(state, spec=DEFAULT_SPEC).value
                worst_precision = max(worst_precision, abs(evaluate(state, spec=tight).value - base))
                for m_omega in (0.5, 2.0):
                    units = UnitSystem(m_omega=m_omega)
                    worst_units = max(worst_units, abs(evaluate(state, units=units).value - base))
            base = chsh_max(state).value
            worst_precision = max(worst_precision, abs(chsh_max(state).value - base))
    assert worst_precision < 1e-8, worst_precision
    assert worst_units < 1e-8, worst_units
    _report(f"[PASS] criterion 7: robustness (precision doubling {worst_precision:.1e}, "
            f"m_omega invariance {worst_units:.1e})")


def test_criterion_8_property_suite():
    # normalization on a 101-point grid, both domains, both states, by numpy's 64-point
    # tensor Gauss-Hermite rule (exact for these polynomial x Gaussian densities)
    nodes, weights = hermgauss(64)
    modified = weights * np.exp(nodes ** 2)
    worst_norm = 0.0
    for build in BUILDERS.values():
        for theta in np.linspace(0.0, math.pi, 101):
            state = build(theta)
            for dom in Domain:
                total = float(modified @ joint_density(state, nodes[:, None], nodes[None, :], dom)
                              @ modified)
                worst_norm = max(worst_norm, abs(total - 1.0))
    assert worst_norm < 1e-9, worst_norm

    # theta <-> pi - theta symmetry
    worst_sym = 0.0
    for build in BUILDERS.values():
        for theta in (0.25, 0.7, 1.2, 1.5):
            a, b = build(theta), build(math.pi - theta)
            worst_sym = max(worst_sym, abs(reid_value(a).value - reid_value(b).value),
                            abs(chsh_max(a).value - chsh_max(b).value))
        for theta in (0.4, 1.3):
            a, b = build(theta), build(math.pi - theta)
            worst_sym = max(worst_sym, abs(entropic_value(a).value - entropic_value(b).value))
    assert worst_sym < 1e-8, worst_sym

    # conditioning can only lower the entropy
    for build in BUILDERS.values():
        for theta in (0.3, 0.8, 1.2, 2.1):
            state = build(theta)
            components = entropic_value(state).components
            for dom, name in zip(Domain, ("h_x2_given_x1", "h_p2_given_p1")):
                h_cond = components[name]
                h_marg = integrate_entropy_1d(
                    lambda x: marginal_density(state, x, dom, mode=2),
                    DEFAULT_SPEC, breakpoints=(0.0,)).value
                assert h_cond <= h_marg + 1e-10, (theta, dom)

    # correlation-matrix entries stay inside the unit box
    from cvsteer.criteria import correlation_matrix
    for build in BUILDERS.values():
        for theta in np.linspace(0.0, math.pi, 181):
            assert np.all(np.abs(correlation_matrix(build(theta))) <= 1.0 + 1e-10)

    _report(f"[PASS] criterion 8: properties (norm {worst_norm:.1e}, symmetry {worst_sym:.1e}, "
            "conditioning/entropy and correlation bounds hold)")
