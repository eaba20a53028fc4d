"""Steering and Bell criteria as pure evaluators.

Three detectors over a two-mode Fock superposition:

* Reid: I = 1/4 - Delta2_min(X2) * Delta2_min(P2), violated (steering) when I > 0.
* Entropic: I = ln(pi e) - h(X2|X1) - h(P2|P1), violated when I > 0.
* CHSH under pseudo-Pauli observables: I = 2 sqrt(u1 + u2) with u1 >= u2 the largest
  eigenvalues of T^T T, violated (Bell nonlocality) when I > 2.

Position and momentum enter symmetrically: the momentum evaluation reuses the same
machinery on the scale-inverted domain view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .fock import (
    DENSITY_FLOOR,
    Domain,
    FockState,
    NATURAL_UNITS,
    UnitSystem,
    _b_zero_hints,
    _density_coefficients,
    _density_rows,
    _is_uncorrelated,
    _ladder_position,
    _marginal_zero_hints,
    _moments,
    _parities,
    _second_moment,
    _view,
    marginal_density,
)
from .quadrature import (
    DEFAULT_SPEC,
    QuadratureSpec,
    adaptive_panels,
    integrate_entropy_1d,
    integrate_entropy_2d,
)

__all__ = [
    "CriterionResult",
    "CorrelationMatrix",
    "LN_PI_E",
    "REID_BOUND",
    "CHSH_CLASSICAL_BOUND",
    "conditional_variance_min",
    "reid_value",
    "conditional_entropy",
    "entropic_value",
    "correlation_matrix",
    "chsh_max",
]

LN_PI_E = 1.0 + math.log(math.pi)
REID_BOUND = 0.25
CHSH_CLASSICAL_BOUND = 2.0

# Differential entropy of the n=1 oscillator level's 1-d density at unit scale,
# h = gamma + ln 2 + (1/2) ln pi - 1/2 (from the digamma identity psi(3/2) = 2 - gamma - ln 4).
_H_LEVEL1 = float(np.euler_gamma) + math.log(2.0) + 0.5 * math.log(math.pi) - 0.5


@dataclass(frozen=True)
class CriterionResult:
    """One criterion evaluation: value, named intermediates, and the violation verdict.

    ``violated`` uses strict inequality (value > 0, or > 2 for CHSH): boundary values
    are not violations. ``converged=False`` marks a quadrature tolerance that was not
    met (the value is still the best estimate). ``theta`` is a label supplied by the
    caller; NaN when the state was built directly.
    """

    criterion: str
    theta: float
    value: float
    components: Mapping[str, float]
    violated: bool
    converged: bool = True


@dataclass(frozen=True)
class CorrelationMatrix:
    """t[i][j] = <sigma_i x sigma_j> under the pseudo-Pauli pairing of Fock levels
    (2n, 2n+1); entries are exact coefficient-space sums, no quadrature."""

    t: np.ndarray

    def singular_values(self) -> np.ndarray:
        return np.linalg.svd(self.t, compute_uv=False)


def _effective_width(spec: QuadratureSpec, view) -> float:
    # A domain with scale < 1 has densities wider than natural, and level n reaches its
    # turning point sqrt(2n+1) in y = sqrt(scale) x: stretch the window past both so the
    # truncated tail stays below 1e-12 (a margin of 4.2 in y leaves two-sided tails of
    # |u_n|^2 below 2e-13 for every n <= 40).
    turning = math.sqrt(2 * max(view.max_n1, view.max_n2) + 1)
    return max(spec.half_width * max(1.0, view.scale ** -0.5),
               (turning + 4.2) / math.sqrt(view.scale))


def _variance_uncorrelated(view) -> float:
    """Factorized state: mode 2's conditional variance equals its marginal variance,
    evaluated exactly with ladder matrix elements."""
    x1 = _ladder_position(view.max_n2, view.scale)[np.ix_(view.n2, view.n2)]
    mean = float(np.real(view.amps.conj() @ x1 @ view.amps))
    return _second_moment(view) - mean * mean


def _conditional_variance(state: FockState, dom: Domain, spec: QuadratureSpec,
                          units: UnitSystem) -> tuple[float, bool]:
    view = _view(state, dom, units)
    if _is_uncorrelated(view):
        return _variance_uncorrelated(view), True

    def ratio(a: np.ndarray) -> np.ndarray:
        m, n = _moments(view, a)
        good = m > DENSITY_FLOOR
        return np.where(good, n * n / np.where(good, m, 1.0), 0.0)

    width = _effective_width(spec, view)
    cuts = _marginal_zero_hints(view, 1, width) + (0.0,)
    # N^2 / M is even under central parity
    correction = adaptive_panels(ratio, -width, width, spec.panel_tol, spec.max_depth, cuts,
                                 fold=_parities(state)[0] is not None)
    return max(_second_moment(view) - correction.value, 0.0), correction.converged


def conditional_variance_min(state: FockState, dom: Domain,
                             spec: QuadratureSpec = DEFAULT_SPEC,
                             units: UnitSystem = NATURAL_UNITS) -> float:
    """Minimal average conditional variance of mode 2 inferred from mode 1.

    Delta2_min = <b^2> - int N(a)^2 / M(a) da with N(a) = int b P(a,b) db and M the
    marginal: the cross term of the squared deviation from the conditional mean
    collapses onto the correction integral. <b^2>, N(a) and M(a) are exact finite
    ladder-operator sums over the Fock terms; only the correction integrand, which is
    rational in a, goes through the adaptive panel integrator. Points with M(a) at or
    below the density floor contribute zero.
    """
    value, _converged = _conditional_variance(state, dom, spec, units)
    return value


def reid_value(state: FockState, spec: QuadratureSpec = DEFAULT_SPEC,
               units: UnitSystem = NATURAL_UNITS, theta: float | None = None) -> CriterionResult:
    """Inference-variance product criterion: 1/4 - Delta2_min(X2) * Delta2_min(P2)."""
    d2x, ok_x = _conditional_variance(state, Domain.POSITION, spec, units)
    d2p, ok_p = _conditional_variance(state, Domain.MOMENTUM, spec, units)
    value = REID_BOUND - d2x * d2p
    return CriterionResult(
        criterion="reid",
        theta=math.nan if theta is None else float(theta),
        value=value,
        components={"delta2_min_x2": d2x, "delta2_min_p2": d2p},
        violated=value > 0.0,
        converged=ok_x and ok_p,
    )


def _entropy_uncorrelated(state: FockState, dom: Domain, spec: QuadratureSpec,
                          units: UnitSystem) -> tuple[float, bool]:
    """Factorized state: h(B2|B1) = h(B2). Exact for pure levels n <= 1; otherwise the
    1-d marginal entropy is integrated numerically."""
    view = _view(state, dom, units)
    if view.n2.size == 1 and view.max_n2 <= 1:
        if view.max_n2 == 0:
            return 0.5 * math.log(math.pi * math.e / view.scale), True
        return _H_LEVEL1 - 0.5 * math.log(view.scale), True
    width = _effective_width(spec, view)
    cuts = _marginal_zero_hints(view, 2, width) + (0.0,)
    res = integrate_entropy_1d(lambda b: marginal_density(state, b, dom, units, mode=2),
                               replace(spec, half_width=width), breakpoints=cuts,
                               fold=_parities(state)[0] is not None)
    return res.value, res.converged


def _conditional_entropy(state: FockState, dom: Domain, spec: QuadratureSpec,
                         units: UnitSystem) -> tuple[float, bool]:
    view = _view(state, dom, units)
    if _is_uncorrelated(view):
        return _entropy_uncorrelated(state, dom, spec, units)
    width = _effective_width(spec, view)
    espec = replace(spec, half_width=width)
    marg_cuts = _marginal_zero_hints(view, 1, width) + (0.0,)
    fold = _parities(state)[0] is not None
    held = [None, None]

    def density(a, row, b):
        # Every block of one outer batch passes the same array a: its mode-2
        # coefficients are built once per batch. Holding a keeps its id from reuse.
        if held[0] is not a:
            held[:] = a, _density_coefficients(view, a)
        return _density_rows(view, held[1], row, b)

    joint_res = integrate_entropy_2d(
        density, espec,
        inner_breakpoints=lambda av: _b_zero_hints(view, av, width),
        outer_breakpoints=marg_cuts, fold=fold,
    )
    marg_res = integrate_entropy_1d(lambda a: marginal_density(state, a, dom, units),
                                    espec, breakpoints=marg_cuts, fold=fold)
    return joint_res.value - marg_res.value, joint_res.converged and marg_res.converged


def conditional_entropy(state: FockState, dom: Domain,
                        spec: QuadratureSpec = DEFAULT_SPEC,
                        units: UnitSystem = NATURAL_UNITS) -> float:
    """Average conditional differential entropy h(B2|B1) = H(B1,B2) - H(B1)."""
    value, _converged = _conditional_entropy(state, dom, spec, units)
    return value


def entropic_value(state: FockState, spec: QuadratureSpec = DEFAULT_SPEC,
                   units: UnitSystem = NATURAL_UNITS, theta: float | None = None) -> CriterionResult:
    """Conditional-entropy criterion: ln(pi e) - h(X2|X1) - h(P2|P1)."""
    h_x, ok_x = _conditional_entropy(state, Domain.POSITION, spec, units)
    h_p, ok_p = _conditional_entropy(state, Domain.MOMENTUM, spec, units)
    value = LN_PI_E - h_x - h_p
    return CriterionResult(
        criterion="entropic",
        theta=math.nan if theta is None else float(theta),
        value=value,
        components={"h_x2_given_x1": h_x, "h_p2_given_p1": h_p},
        violated=value > 0.0,
        converged=ok_x and ok_p,
    )


def _pauli_step(axis: int, n: int) -> tuple[int, complex]:
    """Action of the pseudo-Pauli on level n within its (2k, 2k+1) pair.

    sigma_x swaps the pair, sigma_y swaps with +-i, sigma_z signs by parity. Every
    level belongs to exactly one complete pair, so the action is total.
    """
    even = n % 2 == 0
    if axis == 0:
        return (n + 1, 1.0 + 0.0j) if even else (n - 1, 1.0 + 0.0j)
    if axis == 1:
        return (n + 1, 1.0j) if even else (n - 1, -1.0j)
    return (n, 1.0 + 0.0j) if even else (n, -1.0 + 0.0j)


def correlation_matrix(state: FockState) -> CorrelationMatrix:
    """t[i][j] = <Psi| sigma_i x sigma_j |Psi> in the Fock coefficient space.

    Applying the operators maps each term to a single image term; images outside the
    state's support contribute nothing to the inner product, so no truncation occurs.
    The operators are Hermitian, so only rounding lives in the imaginary part.
    """
    amp_map = {(n1, n2): amp for n1, n2, amp in state.terms}
    t = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            acc = 0.0j
            for n1, n2, amp in state.terms:
                m1, c1 = _pauli_step(i, n1)
                m2, c2 = _pauli_step(j, n2)
                bra = amp_map.get((m1, m2))
                if bra is not None:
                    acc += bra.conjugate() * c1 * c2 * amp
            t[i, j] = acc.real
    t.setflags(write=False)
    return CorrelationMatrix(t=t)


def chsh_max(state: FockState, theta: float | None = None) -> CriterionResult:
    """Maximal CHSH value over measurement directions, in closed form.

    For two parties measuring unit-vector combinations of an su(2) triple, the optimum
    over all settings is 2 sqrt(u1 + u2) with u1 >= u2 the two largest eigenvalues of
    T^T T, i.e. the squared leading singular values of T.
    """
    cm = correlation_matrix(state)
    sv = cm.singular_values()
    value = 2.0 * math.sqrt(sv[0] ** 2 + sv[1] ** 2)
    return CriterionResult(
        criterion="chsh",
        theta=math.nan if theta is None else float(theta),
        value=value,
        components={"t_singular_1": float(sv[0]), "t_singular_2": float(sv[1]),
                    "t_singular_3": float(sv[2])},
        violated=value > CHSH_CLASSICAL_BOUND,
        converged=True,
    )
