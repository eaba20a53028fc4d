"""Steering and Bell criteria as pure evaluators.

Three detectors over a two-mode Fock superposition:

* Reid: I = 1/4 - Delta2_min(X2) * Delta2_min(P2), violated (steering) when I > 0.
* Entropic: I = ln(pi e) - h(X2|X1) - h(P2|P1), violated when I > 0.
* CHSH under pseudo-Pauli observables: I = 2 sqrt(u1 + u2) with u1 >= u2 the largest
  eigenvalues of T^T T, violated (Bell nonlocality) when I > 2.

Position and momentum enter symmetrically, in oscillator units, where both share one
basis: m*omega only shifts the components (Delta2 / s and h - (1/2) ln s, with s the
domain's oscillator scale), never a value. Below the public evaluators every function
reads one domain's amplitude matrix c (fock._amplitudes), never the state.
"""

from __future__ import annotations

import math
from dataclasses import replace
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .fock import (
    DENSITY_FLOOR,
    Domain,
    FockState,
    NATURAL_UNITS,
    UnitSystem,
    _amplitudes,
    _is_uncorrelated,
    _joint,
    _marginal,
    _marginal_zero_hints,
    _mode2_moments,
    _moments,
    _parities,
)
from .quadrature import (
    DEFAULT_SPEC,
    QuadratureSpec,
    adaptive_panels,
    integrate_entropy_1d,
    integrate_entropy_2d,
)

__all__ = [
    "CRITERIA",
    "Criterion",
    "CriterionResult",
    "LN_PI_E",
    "REID_BOUND",
    "CHSH_CLASSICAL_BOUND",
    "reid_value",
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


class CriterionResult(NamedTuple):
    """One criterion evaluation: value, named intermediates, and the violation verdict.

    ``violated`` is strict, value > bound with the bound from ``CRITERIA`` (0, or 2 for
    CHSH): boundary values are not violations. ``converged`` means that each integral
    behind the value met its tolerance (``IntegralResult``), not that the value did:
    Reid multiplies two components, so its value can be off by about
    (Delta2_x + Delta2_p) * panel_tol. Unconverged values are still the best estimate.
    """

    criterion: str
    value: float
    components: Mapping[str, float]
    violated: bool
    converged: bool = True


def _effective_width(spec: QuadratureSpec, c: np.ndarray) -> float:
    # Level n reaches its turning point sqrt(2n+1). The window reaches 4.2 past the
    # turning point, which leaves two-sided tails of |u_n|^2 below 2e-13 for every
    # n <= 40, and stops 28 past it: there every term's density underflows to 0.0, and a
    # wider window would only put the first Gauss-Kronrod nodes where the density is not.
    turning = math.sqrt(2 * max(c.shape) - 1)
    return min(max(spec.half_width, turning + 4.2), turning + 28.0)


def _conditional_variance(c: np.ndarray, spec: QuadratureSpec,
                          fold: bool) -> tuple[float, bool]:
    """Minimal average conditional variance Delta2_min of mode 2 inferred from mode 1,
    in oscillator units, and whether the tolerance was met.

    Delta2_min = <b^2> - int N(a)^2 / M(a) da with N(a) = int b P(a,b) db and M the
    marginal: the cross term of the squared deviation from the conditional mean
    collapses onto the correction integral. <b^2>, N and M are exact ladder-operator
    sums; only N^2 / M, rational in a, is integrated (over a >= 0 when ``fold``), and
    points with M at or below the density floor contribute zero. A factorized state's
    conditional variance is its marginal one.
    """
    mean, second = _mode2_moments(c)
    if _is_uncorrelated(c):
        return second - mean * mean, True

    def ratio(a: np.ndarray) -> np.ndarray:
        m, n = _moments(c, a)
        good = m > DENSITY_FLOOR
        return np.where(good, n * n / np.where(good, m, 1.0), 0.0)

    width = _effective_width(spec, c)
    correction = adaptive_panels(ratio, -width, width, spec.panel_tol, (0.0,), fold=fold)
    return max(second - correction.value, 0.0), correction.converged


def reid_value(state: FockState, spec: QuadratureSpec = DEFAULT_SPEC,
               units: UnitSystem = NATURAL_UNITS) -> CriterionResult:
    """Inference-variance product criterion: 1/4 - Delta2_min(X2) * Delta2_min(P2)."""
    cs = [_amplitudes(state, dom) for dom in Domain]
    fold = _parities(cs[0])[0] is not None  # central parity: the integrals fold
    (d2x, ok_x), (d2p, ok_p) = (_conditional_variance(c, spec, fold) for c in cs)
    s = units.m_omega
    return _result("reid", REID_BOUND - d2x * d2p, (d2x / s, d2p * s), ok_x and ok_p)


def _entropy_uncorrelated(c: np.ndarray, spec: QuadratureSpec,
                          fold: bool) -> tuple[float, bool]:
    """Factorized state: h(B2|B1) = h(B2). Exact when mode 2 occupies one level n <= 1;
    otherwise the 1-d marginal entropy is integrated numerically."""
    levels = np.flatnonzero(c.any(axis=0))
    if levels.size == 1 and levels[0] <= 1:
        return (0.5 * LN_PI_E if levels[0] == 0 else _H_LEVEL1), True
    width = _effective_width(spec, c)
    res = integrate_entropy_1d(lambda b: _marginal(c, 2, b), replace(spec, half_width=width),
                               breakpoints=_marginal_zero_hints(c) + (0.0,), fold=fold)
    return res.value, res.converged


def _conditional_entropy(c: np.ndarray, spec: QuadratureSpec,
                         fold: bool) -> tuple[float, bool]:
    """h(B2|B1) = H(B1,B2) - H(B1) in oscillator units, and whether both met the
    tolerance; every integral over a runs over a >= 0 when ``fold``."""
    if _is_uncorrelated(c):
        return _entropy_uncorrelated(c, spec, fold)
    width = _effective_width(spec, c)
    espec = replace(spec, half_width=width)
    density, zeros = _joint(c)
    joint_res = integrate_entropy_2d(density, espec, inner_breakpoints=zeros,
                                     outer_breakpoints=(0.0,), fold=fold)
    marg_res = integrate_entropy_1d(lambda a: _marginal(c, 1, a), espec,
                                    breakpoints=(0.0,), fold=fold)
    return joint_res.value - marg_res.value, joint_res.converged and marg_res.converged


def entropic_value(state: FockState, spec: QuadratureSpec = DEFAULT_SPEC,
                   units: UnitSystem = NATURAL_UNITS) -> CriterionResult:
    """Conditional-entropy criterion: ln(pi e) - h(X2|X1) - h(P2|P1)."""
    cs = [_amplitudes(state, dom) for dom in Domain]
    fold = _parities(cs[0])[0] is not None  # central parity: the integrals fold
    (h_x, ok_x), (h_p, ok_p) = (_conditional_entropy(c, spec, fold) for c in cs)
    shift = 0.5 * math.log(units.m_omega)
    return _result("entropic", LN_PI_E - h_x - h_p, (h_x - shift, h_p + shift), ok_x and ok_p)


# sigma_x, sigma_y and sigma_z: the pseudo-Paulis act within each level pair (2k, 2k+1)
_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def correlation_matrix(state: FockState) -> np.ndarray:
    """The read-only 3 x 3 array t[i][j] = <Psi| sigma_i x sigma_j |Psi>.

    C, the amplitude matrix zero-padded to even sizes so that every level has its
    partner, is read as blocks C[k, a, l, b] of level pairs (2k + a, 2l + b), and
    t[i][j] = Re sum conj(C[k, a, l, b]) sigma_i[a, c] sigma_j[b, d] C[k, c, l, d].
    """
    c = _amplitudes(state, Domain.POSITION)
    p, q = (c.shape[0] + 1) // 2, (c.shape[1] + 1) // 2
    blocks = np.pad(c, ((0, 2 * p - c.shape[0]), (0, 2 * q - c.shape[1]))).reshape(p, 2, q, 2)
    t = np.einsum("kalb,iac,jbd,kcld->ij", blocks.conj(), _PAULI, _PAULI, blocks).real
    t.setflags(write=False)
    return t


def chsh_max(state: FockState) -> CriterionResult:
    """Maximal CHSH value over measurement directions, in closed form.

    For two parties measuring unit-vector combinations of an su(2) triple, the optimum
    over all settings is 2 sqrt(u1 + u2) with u1 >= u2 the two largest eigenvalues of
    T^T T, i.e. the squared leading singular values of T.
    """
    sv = np.linalg.svd(correlation_matrix(state), compute_uv=False)
    return _result("chsh", 2.0 * math.sqrt(sv[0] ** 2 + sv[1] ** 2), sv.tolist(), True)


class Criterion(NamedTuple):
    """One detector: the value it is violated above, its sweep column, the names of its
    result components in order, and evaluate(state, spec)."""

    bound: float
    column: str
    components: tuple[str, ...]
    evaluate: Callable[[FockState, QuadratureSpec], CriterionResult]


# The evaluators are looked up by name at call time, so a replaced module attribute (a
# tracer's wrapper, a test's stand-in) is what the table calls.
CRITERIA: Mapping[str, Criterion] = MappingProxyType({
    "reid": Criterion(0.0, "i_reid", ("delta2_min_x2", "delta2_min_p2"),
                      lambda state, spec: reid_value(state, spec=spec)),
    "entropic": Criterion(0.0, "i_ent", ("h_x2_given_x1", "h_p2_given_p1"),
                          lambda state, spec: entropic_value(state, spec=spec)),
    "chsh": Criterion(CHSH_CLASSICAL_BOUND, "i_chsh",
                      ("t_singular_1", "t_singular_2", "t_singular_3"),
                      lambda state, spec: chsh_max(state)),
})


def _result(criterion: str, value: float, components, converged: bool) -> CriterionResult:
    """The result of one evaluation, its verdict and component names from ``CRITERIA``."""
    entry = CRITERIA[criterion]
    return CriterionResult(
        criterion=criterion,
        value=value,
        components=dict(zip(entry.components, components)),
        violated=value > entry.bound,
        converged=converged,
    )
