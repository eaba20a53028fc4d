"""Two-mode harmonic-oscillator Fock superpositions and their densities.

Natural units throughout: hbar = 1, with the product m*omega kept as one configurable
positive scale. Position-domain eigenfunctions use the oscillator scale s = m*omega;
the momentum representation of the same state is the scale-inverted oscillator basis
(s -> 1/s) with an extra phase (-i)^n per excitation, fixed by the Fourier kernel
(2*pi)^(-1/2) exp(-i p x) applied per mode.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Domain",
    "UnitSystem",
    "NATURAL_UNITS",
    "FockState",
    "DegenerateMarginal",
    "make_psi",
    "make_psi_prime",
    "eigenfunction_x",
    "eigenfunction_p",
    "wavefunction",
    "joint_density",
    "marginal_density",
    "conditional_mean",
    "DENSITY_FLOOR",
]

# Marginals at or below this floor are degenerate: conditioning there is ill-defined and
# such points contribute zero to any weighted average (their weight is the marginal).
DENSITY_FLOOR = 1e-300

# Amplitudes below this are dropped by the constructors (exact product points survive
# the rounding of cos/sin at multiples of pi/2).
_AMP_DROP = 1e-15

_NORM_TOL = 1e-12
_PI_QUARTER = math.pi ** -0.25
_PHASE_MINUS_I = (1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j)  # (-i)^n, exact


class Domain(enum.Enum):
    POSITION = "position"
    MOMENTUM = "momentum"


class DegenerateMarginal(ValueError):
    """Raised when a conditional is requested where the marginal is below the floor."""


@dataclass(frozen=True)
class UnitSystem:
    """m_omega is the product m*omega, kept configurable for scale-invariance checks;
    hbar is 1 (the criteria constants 1/4 and ln(pi e) presuppose it)."""

    m_omega: float = 1.0

    def __post_init__(self):
        if not self.m_omega > 0:
            raise ValueError("m_omega must be positive")


NATURAL_UNITS = UnitSystem()


@dataclass(frozen=True)
class FockState:
    """Two-mode wavefunction as a finite list of (n1, n2, amplitude) Fock terms.

    Terms are unique in (n1, n2), sorted, and normalized: sum |amp|^2 = 1 within 1e-12
    (Fock products are orthonormal, so this is the norm). Build via ``from_terms``.
    """

    terms: tuple[tuple[int, int, complex], ...]
    max_n: int

    def __post_init__(self):
        seen = set()
        top = 0
        for n1, n2, _amp in self.terms:
            if n1 < 0 or n2 < 0 or n1 != int(n1) or n2 != int(n2):
                raise ValueError("Fock indices must be nonnegative integers")
            if (n1, n2) in seen:
                raise ValueError(f"duplicate Fock pair ({n1}, {n2})")
            seen.add((n1, n2))
            top = max(top, n1, n2)
        if not self.terms:
            raise ValueError("state must have at least one term")
        if abs(self.norm_sq() - 1.0) > _NORM_TOL:
            raise ValueError(f"state not normalized: sum |amp|^2 = {self.norm_sq()!r}")
        if self.max_n != top:
            raise ValueError("max_n does not match the largest Fock index")

    @classmethod
    def from_terms(cls, terms) -> "FockState":
        kept = [(int(n1), int(n2), complex(amp)) for n1, n2, amp in terms
                if abs(complex(amp)) >= _AMP_DROP]
        kept.sort(key=lambda t: (t[0], t[1]))
        top = max((max(n1, n2) for n1, n2, _ in kept), default=0)
        return cls(terms=tuple(kept), max_n=top)

    def norm_sq(self) -> float:
        return float(sum(abs(a) ** 2 for _, _, a in self.terms))


def make_psi(theta: float) -> FockState:
    """cos(theta)|0,0> + sin(theta)|1,1>."""
    return FockState.from_terms([(0, 0, math.cos(theta)), (1, 1, math.sin(theta))])


def make_psi_prime(theta: float) -> FockState:
    """cos(theta)|0,1> + sin(theta)|1,0>."""
    return FockState.from_terms([(0, 1, math.cos(theta)), (1, 0, math.sin(theta))])


def _maybe_scalar(arr, scalar_in: bool):
    if scalar_in:
        return arr[()].item() if isinstance(arr, np.ndarray) else arr
    return arr


def _osc_table(n_max: int, y: np.ndarray, include_gaussian: bool = True) -> np.ndarray:
    """Normalized oscillator functions u_n(y) for n = 0..n_max, co-evaluated with the
    Gaussian so the recurrence never overflows at large n.

    u_n(y) = pi^(-1/4) (2^n n!)^(-1/2) H_n(y) exp(-y^2/2); with include_gaussian=False
    the exp factor is dropped (polynomial part only, used where only zeros matter).
    """
    y = np.asarray(y, dtype=float)
    out = np.empty((n_max + 1,) + y.shape)
    out[0] = _PI_QUARTER * (np.exp(-0.5 * y * y) if include_gaussian else np.ones_like(y))
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * y * out[0]
    for n in range(2, n_max + 1):
        out[n] = math.sqrt(2.0 / n) * y * out[n - 1] - math.sqrt((n - 1.0) / n) * out[n - 2]
    return out


def eigenfunction_x(n: int, x, units: UnitSystem = NATURAL_UNITS):
    """phi(n, x): n-th oscillator eigenfunction, position representation (real)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    scalar_in = np.ndim(x) == 0
    s = units.m_omega
    y = math.sqrt(s) * np.asarray(x, dtype=float)
    return _maybe_scalar(s ** 0.25 * _osc_table(n, y)[n], scalar_in)


def eigenfunction_p(n: int, p, units: UnitSystem = NATURAL_UNITS):
    """Momentum representation of phi(n, .): (-i)^n times the scale-inverted
    eigenfunction, under the Fourier kernel (2*pi)^(-1/2) exp(-i p x)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    scalar_in = np.ndim(p) == 0
    inv = 1.0 / units.m_omega
    y = math.sqrt(inv) * np.asarray(p, dtype=float)
    val = _PHASE_MINUS_I[n % 4] * (inv ** 0.25 * _osc_table(n, y)[n])
    return _maybe_scalar(val, scalar_in)


@dataclass(frozen=True)
class _DomainView:
    """A state's term data expressed in one domain's oscillator basis.

    ``scale`` is the oscillator scale of that domain (s for position, 1/s for
    momentum); momentum amplitudes already include the (-i)^(n1+n2) phases.
    """

    scale: float
    n1: np.ndarray
    n2: np.ndarray
    amps: np.ndarray
    max_n1: int
    max_n2: int


@lru_cache(maxsize=4096)
def _view(state: FockState, dom: Domain, units: UnitSystem) -> _DomainView:
    n1 = np.array([t[0] for t in state.terms], dtype=np.intp)
    n2 = np.array([t[1] for t in state.terms], dtype=np.intp)
    amps = np.array([t[2] for t in state.terms], dtype=complex)
    if dom is Domain.MOMENTUM:
        scale = 1.0 / units.m_omega
        amps = amps * np.array([_PHASE_MINUS_I[int(k) % 4] for k in (n1 + n2)])
    else:
        scale = units.m_omega
    for arr in (n1, n2, amps):
        arr.setflags(write=False)
    return _DomainView(scale=scale, n1=n1, n2=n2, amps=amps,
                       max_n1=int(n1.max()), max_n2=int(n2.max()))


def _amplitude_sum(v: _DomainView, a, b) -> np.ndarray:
    """sum_k amp_k u_{n1_k}(sqrt(s) a) u_{n2_k}(sqrt(s) b): the amplitude without its
    sqrt(s) normalization, so the density is s |sum|^2 with no complex temporary."""
    root = math.sqrt(v.scale)
    ya, yb = np.broadcast_arrays(root * np.asarray(a, float), root * np.asarray(b, float))
    u1 = _osc_table(v.max_n1, ya)
    u2 = _osc_table(v.max_n2, yb)
    out = np.zeros(ya.shape, dtype=complex)
    for n1, n2, amp in zip(v.n1, v.n2, v.amps):
        out += amp * u1[n1] * u2[n2]
    return out


def wavefunction(state: FockState, a, b, dom: Domain = Domain.POSITION,
                 units: UnitSystem = NATURAL_UNITS):
    """Complex amplitude at (a, b) in the requested domain; broadcasts over a, b."""
    v = _view(state, dom, units)
    out = math.sqrt(v.scale) * _amplitude_sum(v, a, b)
    return _maybe_scalar(out, np.ndim(a) == 0 and np.ndim(b) == 0)


def joint_density(state: FockState, a, b, dom: Domain = Domain.POSITION,
                  units: UnitSystem = NATURAL_UNITS):
    """|Psi(a, b)|^2 in the requested domain; nonnegative."""
    v = _view(state, dom, units)
    out = v.scale * np.abs(_amplitude_sum(v, a, b)) ** 2
    return _maybe_scalar(out, np.ndim(a) == 0 and np.ndim(b) == 0)


def _group_indices(view: _DomainView, mode: int) -> dict[int, list[int]]:
    """Term indices grouped by the *other* mode's Fock index (the one integrated out)."""
    other = view.n2 if mode == 1 else view.n1
    groups: dict[int, list[int]] = {}
    for idx, g in enumerate(other.tolist()):
        groups.setdefault(g, []).append(idx)
    return groups


def _term_rows(v: _DomainView, mode: int, y: np.ndarray) -> np.ndarray:
    """amp_k u_{n_k}(y) for every term k, n_k its index in ``mode``: (terms,) + y.shape."""
    kept = v.n1 if mode == 1 else v.n2
    table = _osc_table(int(kept.max()), y)
    return v.amps.reshape((-1,) + (1,) * y.ndim) * table[kept]


def _grouped_marginal(v: _DomainView, mode: int, rows: np.ndarray) -> np.ndarray:
    """sum_g |sum_{k in g} rows_k|^2 over the groups of _group_indices (no sqrt(s))."""
    out = np.zeros(rows.shape[1:])
    for idxs in _group_indices(v, mode).values():
        out += np.abs(rows[idxs].sum(axis=0)) ** 2
    return out


def marginal_density(state: FockState, a, dom: Domain = Domain.POSITION,
                     units: UnitSystem = NATURAL_UNITS, mode: int = 1):
    """Closed-form marginal of the requested mode, via Fock orthonormality.

    Integrating out the other mode collapses its cross terms: grouping terms by the
    integrated-out index g, the marginal is sum_g |sum_{k in g} amp_k phi(n_k, a)|^2.
    """
    if mode not in (1, 2):
        raise ValueError("mode must be 1 or 2")
    v = _view(state, dom, units)
    root = math.sqrt(v.scale)
    rows = _term_rows(v, mode, root * np.asarray(a, dtype=float))
    return _maybe_scalar(root * _grouped_marginal(v, mode, rows), np.ndim(a) == 0)


def _ladder_position(n_max: int, scale: float) -> np.ndarray:
    """Matrix elements <m| x |n> in the scale-s oscillator basis, x = (a+a^+)/sqrt(2s)."""
    m = np.zeros((n_max + 1, n_max + 1))
    for n in range(n_max):
        m[n + 1, n] = m[n, n + 1] = math.sqrt((n + 1) / (2.0 * scale))
    return m


def _ladder_position_sq(n_max: int, scale: float) -> np.ndarray:
    """Matrix elements <m| x^2 |n> in the scale-s oscillator basis."""
    m = np.zeros((n_max + 1, n_max + 1))
    for n in range(n_max + 1):
        m[n, n] = (2 * n + 1) / (2.0 * scale)
        if n + 2 <= n_max:
            m[n + 2, n] = m[n, n + 2] = math.sqrt((n + 1) * (n + 2)) / (2.0 * scale)
    return m


def _moments(view: _DomainView, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M(a), N(a)) = (int P(a, b) db, int b P(a, b) db), exact finite Fock sums.

    With rows F_k = amp_k u_{n1_k}(sqrt(s) a), integrating b out leaves mode-2 matrix
    elements: M = sqrt(s) sum_kl conj(F_k) F_l delta(n2_k, n2_l) is the mode-1 marginal
    (its grouped sum), and N = sqrt(s) sum_kl conj(F_k) F_l <n2_k| x |n2_l>.
    """
    root = math.sqrt(view.scale)
    rows = _term_rows(view, 1, root * np.asarray(a, dtype=float))
    x = _ladder_position(view.max_n2, view.scale)[np.ix_(view.n2, view.n2)]
    m = root * _grouped_marginal(view, 1, rows)
    n = root * np.real(np.sum(rows.conj() * (x @ rows), axis=0))
    return m, n


def _second_moment(view: _DomainView) -> float:
    """<b^2> = sum_kl conj(c_k) c_l delta(n1_k, n1_l) <n2_k| x^2 |n2_l>, exact."""
    x2 = _ladder_position_sq(view.max_n2, view.scale)[np.ix_(view.n2, view.n2)]
    same = view.n1[:, None] == view.n1[None, :]
    return float(np.real(view.amps.conj() @ np.where(same, x2, 0.0) @ view.amps))


def conditional_mean(state: FockState, a: float, dom: Domain = Domain.POSITION,
                     units: UnitSystem = NATURAL_UNITS) -> float:
    """E[b | a] = int b P(a, b) db / marginal(a): the estimator minimizing the
    conditional variance.

    Raises DegenerateMarginal when the marginal at ``a`` is at or below the density
    floor; callers forming weighted averages must treat such points as contributing
    zero (their weight is the marginal itself).
    """
    m, n = _moments(_view(state, dom, units), np.array([float(a)]))
    if not m[0] > DENSITY_FLOOR:
        raise DegenerateMarginal(f"marginal at {a!r} is {m[0]!r}")
    return float(n[0] / m[0])


def _oscillator_roots(coeff: np.ndarray) -> np.ndarray:
    """Real roots of sum_j coeff[j, i] u_j(y) e^(y^2/2) for every column i at once.

    Returns shape (columns, rows - 1), each row sorted ascending and NaN-padded. The
    roots are the eigenvalues of the Jacobi matrix of y u_j = sqrt(j/2) u_{j-1} +
    sqrt((j+1)/2) u_{j+1}, its last row closed by -sqrt(d/2) c[:d] / c[d] (numpy's
    hermcompanion in the oscillator basis; Golub & Welsch 1969, Barnett 1975). A
    column's degree d is the index of its last coefficient above 1e-14 of its largest,
    so columns whose leading coefficients vanish are solved at their lower degree.
    """
    mag = np.abs(coeff)
    big = mag > 1e-14 * mag.max(axis=0)
    degree = np.where(big.any(axis=0), coeff.shape[0] - 1 - np.argmax(big[::-1], axis=0), 0)
    out = np.full((coeff.shape[1], coeff.shape[0] - 1), np.nan)
    for d in np.unique(degree[degree > 0]).tolist():
        cols = np.flatnonzero(degree == d)
        c = coeff[:d + 1, cols].T
        off = np.sqrt(np.arange(1, d) / 2.0)
        mats = np.broadcast_to(np.diag(off, 1) + np.diag(off, -1), (cols.size, d, d)).copy()
        mats[:, -1, :] -= math.sqrt(d / 2.0) * c[:, :d] / c[:, d:]
        # A 1x1 matrix is its own eigenvalue
        roots = mats[:, :, 0] if d == 1 else np.linalg.eigvals(mats)
        real = np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots))
        out[cols, :d] = np.sort(np.where(real, roots.real, np.nan), axis=1)
    return out


def _real_aligned(amps: np.ndarray) -> np.ndarray | None:
    """Strip a global phase; return real amplitudes, or None if genuinely complex."""
    pivot = amps[np.argmax(np.abs(amps))]
    aligned = amps * (abs(pivot) / pivot)
    if np.max(np.abs(aligned.imag)) > 1e-12 * np.max(np.abs(aligned)):
        return None
    return aligned.real


def _b_zero_hints(view: _DomainView, a: np.ndarray, limit: float) -> np.ndarray | None:
    """Zeros in b of the amplitude at fixed first coordinates, for panel pre-splits.

    Zero *curves* of the density exist only when the wavefunction is real up to a
    global phase; then b -> psi(a, b) is a degree-max_n2 oscillator series whose real
    roots inside (-limit, limit) are returned, NaN-padded to shape (len(a), max_n2).
    """
    amps = _real_aligned(view.amps)
    if amps is None:
        return None
    root_scale = math.sqrt(view.scale)
    u1 = _osc_table(view.max_n1, root_scale * np.asarray(a, dtype=float), include_gaussian=False)
    coeff = np.zeros((view.max_n2 + 1, u1.shape[1]))
    np.add.at(coeff, view.n2, amps[:, None] * u1[view.n1])
    out = _oscillator_roots(coeff) / root_scale
    out[np.abs(out) >= limit] = np.nan
    return out


def _marginal_zero_hints(view: _DomainView, mode: int, limit: float) -> tuple[float, ...]:
    """Real zeros of the mode's marginal inside (-limit, limit). Nonempty only when a
    single orthogonality group survives (the marginal is then |series|^2 x Gaussian)."""
    groups = _group_indices(view, mode)
    if len(groups) != 1:
        return ()
    (idxs,) = groups.values()
    amps = _real_aligned(view.amps[idxs])
    if amps is None:
        return ()
    kept = (view.n1 if mode == 1 else view.n2)[idxs]
    coeff = np.zeros((int(kept.max()) + 1, 1))
    coeff[kept, 0] = amps
    zeros = _oscillator_roots(coeff)[0] / math.sqrt(view.scale)
    return tuple(zeros[np.abs(zeros) < limit].tolist())


def _is_uncorrelated(view: _DomainView) -> bool:
    """True when every term shares the same first-mode index: the state factorizes and
    mode 2's conditional statistics equal its marginal statistics."""
    return bool(np.all(view.n1 == view.n1[0]))
