"""Reference values computed apart from the program under test.

Nothing here imports ``cvsteer``. States are plain lists of ``(n1, n2, amplitude)``
terms in natural units (hbar = m*omega = 1). Oscillator functions come from
numpy's Hermite series, Fock-space moments from ladder-operator matrix elements, and
integrals from ``scipy.integrate.quad``:

* Reid's criterion for the built-in families in closed form (``erfcx``), and its
  crossing angles by ``brentq``;
* Reid's criterion for any state: exact ladder moments plus one 1-D ``quad``;
* the entropic criterion for any state by iterated ``quad`` (a slow reference, run
  by ``make_reference.py``, never inside a timed run);
* the maximal CHSH value from explicit pseudo-Pauli matrices;
* joint and marginal densities and conditional means at given points.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import hermite as H
from scipy import integrate, optimize, special

LN_PI_E = 1.0 + math.log(math.pi)
# Integrals run over [-B, B]; for Fock index <= 8 the density beyond is below 1e-50.
_B = 11.0


# --------------------------------------------------------------------------- families

def family_terms(family: str, theta: float) -> list[tuple[int, int, complex]]:
    """Terms of psi = cos|00> + sin|11> or psi-prime = cos|01> + sin|10>; amplitudes
    below 1e-15 are dropped, so pi/2 gives an exact product state."""
    c, s = math.cos(theta), math.sin(theta)
    if family == "psi":
        terms = [(0, 0, c), (1, 1, s)]
    elif family == "psi-prime":
        terms = [(0, 1, c), (1, 0, s)]
    else:
        raise ValueError(family)
    return [t for t in terms if abs(t[2]) >= 1e-15]


def detected_spans(value, crossings) -> list[list[float]]:
    """Open intervals of (0, pi) where ``value(theta) > 0``, cut at the crossings and at
    pi/2 when the value vanishes there (an isolated excluded point)."""
    cuts = sorted(crossings)
    if abs(value(0.5 * math.pi)) <= 1e-12:
        cuts = sorted(cuts + [0.5 * math.pi])
    cuts = [0.0] + cuts + [math.pi]
    return [[lo, hi] for lo, hi in zip(cuts[:-1], cuts[1:]) if value(0.5 * (lo + hi)) > 0.0]


def family_delta2(family: str, theta: float) -> float:
    """Minimal inferred variance of x2 (equal to that of p2) for the built-in families.

    With psi = phi0(a) phi0(b) (c + 2 s a b) (or sqrt2 (c b + s a) for psi-prime), the
    marginal is M = phi0(a)^2 (c^2 + 2 s^2 a^2) and N = int b P db = 2 c s a phi0(a)^2,
    so Delta2 = <b^2> - 4 c^2 s^2 J with J = pi^-1/2 int e^-a^2 a^2 / (c^2 + 2 s^2 a^2),
    which reduces to erfcx.
    """
    c, s = math.cos(theta), math.sin(theta)
    second = 0.5 * c * c + 1.5 * s * s if family == "psi" else 1.5 * c * c + 0.5 * s * s
    if abs(c) < 1e-300 or abs(s) < 1e-300:
        return second
    alpha, beta = c * c, 2.0 * s * s
    k = math.sqrt(alpha / beta)
    # int e^-a^2 / (alpha + beta a^2) da = pi / (beta k) erfcx(k)
    inv = math.pi / (beta * k) * float(special.erfcx(k))
    j = (math.sqrt(math.pi) - alpha * inv) / (beta * math.sqrt(math.pi))
    return second - 4.0 * alpha * s * s * j


def family_reid(family: str, theta: float) -> float:
    d2 = family_delta2(family, theta)
    return 0.25 - d2 * d2


def family_chsh(theta: float) -> float:
    return 2.0 * math.sqrt(1.0 + math.sin(2.0 * theta) ** 2)


# Brackets of the sign changes of Reid's value on (0, pi), each holding one root.
_REID_BRACKETS = {
    "psi": ((0.4, 0.8), (2.3, 2.75)),
    "psi-prime": ((0.85, 1.2), (1.95, 2.3)),
}


def reid_crossings(family: str) -> list[float]:
    return [optimize.brentq(lambda t: family_reid(family, t), lo, hi, xtol=1e-13)
            for lo, hi in _REID_BRACKETS[family]]


# --------------------------------------------------------------------------- general states

def _hermite_norm(n: int) -> float:
    return 1.0 / math.sqrt(2.0 ** n * math.factorial(n))


def osc(n: int, x) -> np.ndarray:
    """Normalized oscillator function phi_n(x), unit scale."""
    x = np.asarray(x, dtype=float)
    coef = np.zeros(n + 1)
    coef[n] = _hermite_norm(n)
    return math.pi ** -0.25 * H.hermval(x, coef) * np.exp(-0.5 * x * x)


def domain_terms(terms, domain: str):
    """Momentum amplitudes carry (-i)^(n1+n2); the basis functions are unchanged at
    unit scale."""
    if domain == "position":
        return [(n1, n2, complex(a)) for n1, n2, a in terms]
    return [(n1, n2, complex(a) * (-1j) ** (n1 + n2)) for n1, n2, a in terms]


def joint_density(terms, a, b, domain: str = "position") -> np.ndarray:
    a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    amp = np.zeros(a.shape, dtype=complex)
    for n1, n2, c in domain_terms(terms, domain):
        amp += c * osc(n1, a) * osc(n2, b)
    return np.abs(amp) ** 2


def _groups(terms, keep: int):
    groups: dict[int, list[tuple[int, complex]]] = {}
    for n1, n2, c in terms:
        kept, other = (n1, n2) if keep == 1 else (n2, n1)
        groups.setdefault(other, []).append((kept, c))
    return groups


def marginal_density(terms, a, domain: str = "position", mode: int = 1) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    out = np.zeros(a.shape)
    for members in _groups(domain_terms(terms, domain), mode).values():
        amp = np.zeros(a.shape, dtype=complex)
        for n, c in members:
            amp += c * osc(n, a)
        out += np.abs(amp) ** 2
    return out


def _x_matrix(n_max: int) -> np.ndarray:
    m = np.zeros((n_max + 1, n_max + 1))
    for n in range(n_max):
        m[n, n + 1] = m[n + 1, n] = math.sqrt((n + 1) / 2.0)
    return m


def _moments(terms, a):
    """M(a) = int P(a, b) db and N(a) = int b P(a, b) db from Fock orthonormality."""
    n_max = max(max(n1, n2) for n1, n2, _ in terms) + 1
    x = _x_matrix(n_max)
    a = np.asarray(a, dtype=float)
    m = np.zeros(a.shape, dtype=complex)
    nn = np.zeros(a.shape, dtype=complex)
    for k1, k2, ck in terms:
        for l1, l2, cl in terms:
            w = np.conj(ck) * cl * osc(k1, a) * osc(l1, a)
            m += w * (1.0 if k2 == l2 else 0.0)
            nn += w * x[k2, l2]
    return m.real, nn.real


def conditional_mean(terms, a, domain: str = "position") -> np.ndarray:
    m, nn = _moments(domain_terms(terms, domain), a)
    return nn / m


def _delta2(terms) -> float:
    n_max = max(max(n1, n2) for n1, n2, _ in terms) + 1
    x = _x_matrix(n_max + 1)
    x2 = x @ x
    second = sum((np.conj(ck) * cl * x2[k2, l2]).real
                 for k1, k2, ck in terms for l1, l2, cl in terms if k1 == l1)

    def ratio(a: float) -> float:
        m, nn = _moments(terms, a)
        return float(nn * nn / m) if m > 1e-300 else 0.0

    corr = integrate.quad(ratio, -_B, _B, epsabs=1e-14, epsrel=1e-13, limit=400,
                          points=(0.0,))[0]
    return second - corr


def reid(terms) -> float:
    dx = _delta2(domain_terms(terms, "position"))
    dp = _delta2(domain_terms(terms, "momentum"))
    return 0.25 - dx * dp


def _neg_plogp(p: float) -> float:
    return -p * math.log(p) if p > 1e-300 else 0.0


def _real_roots(coef: np.ndarray) -> list[float]:
    """Real roots of a Hermite series with complex coefficients."""
    coef = np.trim_zeros(np.asarray(coef, dtype=complex), "b")
    if coef.size < 2:
        return []
    roots = H.hermroots(coef)
    return sorted(float(r.real) for r in roots
                  if abs(r.imag) <= 1e-7 * (1.0 + abs(r)) and abs(r.real) < _B)


def _conditional_entropy(terms) -> float:
    """h(B2|B1) = H(B1, B2) - H(B1) by iterated quad, split at the real zeros."""
    n2_max = max(n2 for _, n2, _ in terms)

    def inner_coef(a: float) -> np.ndarray:
        coef = np.zeros(n2_max + 1, dtype=complex)
        for n1, n2, c in terms:
            coef[n2] += c * float(osc(n1, a)) * _hermite_norm(n2)
        return coef

    def inner(a: float) -> float:
        coef = inner_coef(a)
        # Power-basis coefficients, highest first, for a scalar Horner loop.
        power = H.herm2poly(coef)[::-1].tolist()
        if all(c.imag == 0.0 for c in power):
            power = [c.real for c in power]
        pre = math.pi ** -0.5

        def f(b: float) -> float:
            p = 0.0
            for c in power:
                p = p * b + c
            return _neg_plogp(pre * abs(p) ** 2 * math.exp(-b * b))

        pts = _real_roots(coef)
        return integrate.quad(f, -_B, _B, epsabs=1e-13, epsrel=1e-11, limit=400,
                              points=pts or None)[0]

    outer_pts = _marginal_zeros(terms) + [0.0]
    h_joint = integrate.quad(inner, -_B, _B, epsabs=1e-11, epsrel=1e-11, limit=400,
                             points=outer_pts)[0]
    h_marg = integrate.quad(lambda a: _neg_plogp(float(marginal_density(terms, a))),
                            -_B, _B, epsabs=1e-14, epsrel=1e-13, limit=400,
                            points=outer_pts)[0]
    return h_joint - h_marg


def _marginal_zeros(terms) -> list[float]:
    groups = _groups(terms, 1)
    if len(groups) != 1:
        return []
    (members,) = groups.values()
    coef = np.zeros(max(n for n, _ in members) + 1, dtype=complex)
    for n, c in members:
        coef[n] += c * _hermite_norm(n)
    return _real_roots(coef)


def entropic(terms) -> float:
    return (LN_PI_E - _conditional_entropy(domain_terms(terms, "position"))
            - _conditional_entropy(domain_terms(terms, "momentum")))


def entropic_crossings(family: str, brackets) -> list[float]:
    return [optimize.brentq(lambda t: entropic(family_terms(family, t)), lo, hi, xtol=1e-9)
            for lo, hi in brackets]


def _pauli(axis: int, n_levels: int) -> np.ndarray:
    """Pseudo-Pauli matrices pairing Fock levels (2k, 2k+1)."""
    blocks = (np.array([[0, 1], [1, 0]], dtype=complex),
              np.array([[0, -1j], [1j, 0]], dtype=complex),
              np.array([[1, 0], [0, -1]], dtype=complex))
    return np.kron(np.eye(n_levels // 2), blocks[axis])


def chsh(terms) -> float:
    n_levels = 2 * (max(max(n1, n2) for n1, n2, _ in terms) // 2 + 1)
    psi = np.zeros((n_levels, n_levels), dtype=complex)
    for n1, n2, c in terms:
        psi[n1, n2] = c
    vec = psi.ravel()
    t = np.array([[np.vdot(vec, np.kron(_pauli(i, n_levels), _pauli(j, n_levels)) @ vec).real
                   for j in range(3)] for i in range(3)])
    sv = np.linalg.svd(t, compute_uv=False)
    return 2.0 * math.sqrt(sv[0] ** 2 + sv[1] ** 2)
