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
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

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
    _ladder_position_sq,
    _marginal_zero_hints,
    _mode2_moment,
    _moments,
    _parities,
    _view,
    marginal_density,
)
from .quadrature import (
    DEFAULT_SPEC,
    QuadratureSpec,
    _scratch,
    adaptive_panels,
    integrate_entropy_1d,
    integrate_entropy_2d,
)

__all__ = [
    "CRITERIA",
    "Criterion",
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

    ``violated`` is strict, value > bound with the bound from ``CRITERIA`` (0, or 2 for
    CHSH): boundary values are not violations. ``converged=False`` marks a quadrature
    tolerance that was not met (the value is still the best estimate). ``theta`` is a
    label supplied by the caller; NaN when the state was built directly.
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
    # The window is set in oscillator units y = sqrt(scale) x, where level n reaches its
    # turning point sqrt(2n+1), and mapped back to x. It reaches 4.2 past the turning
    # point, which leaves two-sided tails of |u_n|^2 below 2e-13 for every n <= 40, and
    # stops 28 past it: there every term's density underflows to 0.0, and a wider window
    # would only put the first Gauss-Kronrod nodes where the density is not.
    turning = math.sqrt(2 * max(view.c.shape) - 1)
    return min(max(spec.half_width, turning + 4.2), turning + 28.0) / math.sqrt(view.scale)


def _variance_uncorrelated(view) -> float:
    """Factorized state: mode 2's conditional variance equals its marginal variance,
    evaluated exactly with ladder matrix elements."""
    mean = _mode2_moment(view, _ladder_position)
    return _mode2_moment(view, _ladder_position_sq) - mean * mean


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
    # N^2 / M is even under central parity. The integral scales as 1 / view.scale, and
    # so does its tolerance: the same relative accuracy under any m_omega
    correction = adaptive_panels(ratio, -width, width, spec.panel_tol / view.scale,
                                 spec.max_depth, (0.0,), fold=_parities(state)[0] is not None)
    second = _mode2_moment(view, _ladder_position_sq)
    return max(second - correction.value, 0.0), correction.converged


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
    return _result("reid", REID_BOUND - d2x * d2p, (d2x, d2p), ok_x and ok_p, theta)


def _entropy_uncorrelated(state: FockState, dom: Domain, spec: QuadratureSpec,
                          units: UnitSystem) -> tuple[float, bool]:
    """Factorized state: h(B2|B1) = h(B2). Exact when mode 2 occupies one level n <= 1;
    otherwise the 1-d marginal entropy is integrated numerically."""
    view = _view(state, dom, units)
    levels = np.flatnonzero(view.c.any(axis=0))
    if levels.size == 1 and levels[0] <= 1:
        if levels[0] == 0:
            return 0.5 * math.log(math.pi * math.e / view.scale), True
        return _H_LEVEL1 - 0.5 * math.log(view.scale), True
    width = _effective_width(spec, view)
    cuts = _marginal_zero_hints(view, width) + (0.0,)
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
    fold = _parities(state)[0] is not None
    held = [None, None]

    def density(a, row, b):
        # Every block of one outer batch passes the same array a: its mode-2
        # coefficients are built once per batch. Holding a keeps its id from reuse.
        if held[0] is not a:
            held[:] = a, _density_coefficients(view, a)
        return _density_rows(view, held[1], row, b, _scratch)

    joint_res = integrate_entropy_2d(
        density, espec,
        inner_breakpoints=lambda av: _b_zero_hints(view, av, width),
        outer_breakpoints=(0.0,), fold=fold,
    )
    marg_res = integrate_entropy_1d(lambda a: marginal_density(state, a, dom, units),
                                    espec, breakpoints=(0.0,), fold=fold)
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
    return _result("entropic", LN_PI_E - h_x - h_p, (h_x, h_p), ok_x and ok_p, theta)


def _pauli(c: np.ndarray) -> np.ndarray:
    """sigma_x c, sigma_y c and sigma_z c stacked, the pseudo-Paulis acting on the first
    index of c within its level pairs (2k, 2k+1); that index has even length, so every
    level has its partner. sigma_x swaps a pair, sigma_y swaps it with the phases -i
    (onto 2k) and +i (onto 2k+1), sigma_z negates level 2k+1."""
    even, odd = c[0::2], c[1::2]
    out = np.empty((3,) + c.shape, dtype=complex)
    out[0, 0::2], out[0, 1::2] = odd, even
    out[1, 0::2], out[1, 1::2] = -1j * odd, 1j * even
    out[2, 0::2], out[2, 1::2] = even, -odd
    return out


def correlation_matrix(state: FockState) -> CorrelationMatrix:
    """t[i][j] = <Psi| sigma_i x sigma_j |Psi> in the Fock coefficient space.

    With C the amplitude matrix, zero-padded to even sizes so that no level loses its
    partner, t[i][j] = Re sum conj(sigma_i C) (C sigma_j^T): the operators are
    Hermitian, and images outside C's support meet zeros, so no truncation occurs.
    """
    c = _view(state, Domain.POSITION, NATURAL_UNITS).c
    padded = np.pad(c, ((0, c.shape[0] % 2), (0, c.shape[1] % 2)))
    left = _pauli(padded).conj()
    right = _pauli(padded.T).transpose(0, 2, 1)
    t = np.real(np.sum(left[:, None] * right[None, :], axis=(2, 3)))
    t.setflags(write=False)
    return CorrelationMatrix(t=t)


def chsh_max(state: FockState, theta: float | None = None) -> CriterionResult:
    """Maximal CHSH value over measurement directions, in closed form.

    For two parties measuring unit-vector combinations of an su(2) triple, the optimum
    over all settings is 2 sqrt(u1 + u2) with u1 >= u2 the two largest eigenvalues of
    T^T T, i.e. the squared leading singular values of T.
    """
    sv = correlation_matrix(state).singular_values()
    return _result("chsh", 2.0 * math.sqrt(sv[0] ** 2 + sv[1] ** 2), sv.tolist(), True, theta)


class Criterion(NamedTuple):
    """One detector: the value it is violated above, its sweep column, the names of its
    result components in order, and evaluate(state, spec, theta)."""

    bound: float
    column: str
    components: tuple[str, ...]
    evaluate: Callable[[FockState, QuadratureSpec, float | None], CriterionResult]


# The evaluators are looked up by name at call time, so a replaced module attribute (a
# tracer's wrapper, a test's stand-in) is what the table calls.
CRITERIA: Mapping[str, Criterion] = MappingProxyType({
    "reid": Criterion(0.0, "i_reid", ("delta2_min_x2", "delta2_min_p2"),
                      lambda state, spec, theta: reid_value(state, spec=spec, theta=theta)),
    "entropic": Criterion(0.0, "i_ent", ("h_x2_given_x1", "h_p2_given_p1"),
                          lambda state, spec, theta: entropic_value(state, spec=spec, theta=theta)),
    "chsh": Criterion(CHSH_CLASSICAL_BOUND, "i_chsh",
                      ("t_singular_1", "t_singular_2", "t_singular_3"),
                      lambda state, spec, theta: chsh_max(state, theta=theta)),
})


def _result(criterion: str, value: float, components, converged: bool,
            theta: float | None) -> CriterionResult:
    """The result of one evaluation, its verdict and component names from ``CRITERIA``."""
    entry = CRITERIA[criterion]
    return CriterionResult(
        criterion=criterion,
        theta=math.nan if theta is None else float(theta),
        value=value,
        components=dict(zip(entry.components, components)),
        violated=value > entry.bound,
        converged=converged,
    )
