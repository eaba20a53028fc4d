"""Two-mode harmonic-oscillator Fock superpositions and their densities.

Natural units throughout: hbar = 1, with the product m*omega kept as one configurable
positive scale. Position-domain eigenfunctions use the oscillator scale s = m*omega,
momentum ones the inverted scale s = 1/(m*omega) and an extra phase (-i)^n per
excitation, fixed by the Fourier kernel (2*pi)^(-1/2) exp(-i p x) applied per mode.
Below the public functions everything is in oscillator units y = sqrt(s) x, where both
domains share one basis; the public densities map coordinates in and values out.
"""

from __future__ import annotations

import cmath
import enum
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Domain",
    "UnitSystem",
    "NATURAL_UNITS",
    "FockState",
    "DegenerateMarginal",
    "make_psi",
    "make_psi_prime",
    "joint_density",
    "marginal_density",
    "conditional_mean",
    "DENSITY_FLOOR",
]

# Marginals at or below this floor are degenerate: conditioning there is ill-defined and
# such points contribute zero to any weighted average (their weight is the marginal).
DENSITY_FLOOR = 1e-300

# Public coordinates enter oscillator units capped at this |y|: there every oscillator
# function is exactly 0.0 (exp(-y^2/2) underflows), and y^2 is still finite.
_Y_CAP = 1e150

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
    """m_omega is the product m*omega; hbar is 1 (the criteria constants 1/4 and ln(pi e)
    presuppose it). It enters the public densities and the criteria's components, never
    a criterion value: below them the code works in oscillator units (_oscillator_units)."""

    m_omega: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.m_omega < math.inf:
            raise ValueError("m_omega must be positive and finite")


NATURAL_UNITS = UnitSystem()


@dataclass(frozen=True)
class FockState:
    """Two-mode state as a finite list of (n1, n2, amplitude) Fock terms.

    Terms are strictly increasing in (n1, n2) and normalized: sum |amp|^2 = 1 within 1e-12
    (Fock products are orthonormal, so this is the norm). Build via ``from_terms``.
    """

    terms: tuple[tuple[int, int, complex], ...]

    def __post_init__(self):
        if not isinstance(self.terms, tuple):  # a list would not hash, a generator is read once
            raise ValueError(f"terms must be a tuple of (n1, n2, amplitude), "
                             f"got {type(self.terms).__name__!r}")
        last = None
        for n1, n2, _amp in _read_terms(self.terms, converting=False):
            if last is not None and (n1, n2) <= last:
                raise ValueError(f"duplicate Fock pair ({n1}, {n2})" if (n1, n2) == last
                                 else "terms must be sorted by (n1, n2)")
            last = (n1, n2)
        if not self.terms:
            raise ValueError("state must have at least one term")
        if not abs(self.norm_sq() - 1.0) <= _NORM_TOL:  # NaN fails too
            raise ValueError(f"state not normalized: sum |amp|^2 = {self.norm_sq()!r}")

    @classmethod
    def from_terms(cls, terms) -> "FockState":
        """Terms (n1, n2, amplitude) in any order. Indices must be nonnegative integers
        (2.0 counts as 2) and amplitudes finite numbers, not strings, else ValueError
        naming the term; terms whose amplitude is below _AMP_DROP in modulus are then
        dropped."""
        kept = [t for t in _read_terms(terms, converting=True) if abs(t[2]) >= _AMP_DROP]
        return cls(terms=tuple(sorted(kept, key=lambda t: t[:2])))

    def norm_sq(self) -> float:
        return float(sum(abs(a) ** 2 for _, _, a in self.terms))


def _read_terms(terms, converting: bool) -> list[tuple[int, int, complex]]:
    """Each term as (n1, n2, complex amplitude). A term has three parts, nonnegative
    integer indices and a numeric amplitude that is no string, else a ValueError names it
    (or names terms that cannot be iterated). ``converting`` is from_terms' reading: 2.0
    is the index 2, and the amplitude must be finite, as a NaN would pass the drop
    threshold. A state built directly needs integer indices, which the engine indexes
    with, and its norm rejects a NaN."""
    try:
        terms = list(terms)
    except TypeError:  # None, a number
        raise ValueError(f"terms must be an iterable of (n1, n2, amplitude), "
                         f"got {terms!r}") from None
    out = []
    for term in terms:
        try:
            n1, n2, amp = term
        except (TypeError, ValueError):  # not iterable, or not three parts
            raise ValueError(f"a term must be (n1, n2, amplitude), got {term!r}") from None
        n1, n2 = _fock_index(n1, converting), _fock_index(n2, converting)
        try:
            amp = None if isinstance(amp, (str, bytes)) else complex(amp)
        except TypeError:  # None, a list
            amp = None
        if n1 is None or n2 is None:
            raise ValueError(f"Fock indices must be nonnegative integers, got {term!r}")
        if amp is None or converting and not cmath.isfinite(amp):
            raise ValueError(f"amplitude of {term!r} is not finite or not a number")
        out.append((n1, n2, amp))
    return out


def _fock_index(n, converting: bool) -> int | None:
    """n as a nonnegative int, else None. Only ``converting`` takes a number that is no
    integer but has an integral value, such as 2.0."""
    try:
        k = int(n) if converting else operator.index(n)
    except (OverflowError, TypeError, ValueError):  # inf, NaN, None, a list
        return None
    return k if k >= 0 and k == n else None


def make_psi(theta: float) -> FockState:
    """cos(theta)|0,0> + sin(theta)|1,1>."""
    return FockState.from_terms([(0, 0, math.cos(theta)), (1, 1, math.sin(theta))])


def make_psi_prime(theta: float) -> FockState:
    """cos(theta)|0,1> + sin(theta)|1,0>."""
    return FockState.from_terms([(0, 1, math.cos(theta)), (1, 0, math.sin(theta))])


def _oscillator_units(units: UnitSystem, dom: Domain, **coordinates):
    """(s, y, ...): the oscillator scale s of the domain (m*omega in position, 1/(m*omega)
    in momentum) and each coordinate x, in turn, as a new float array y = sqrt(s) x capped
    at |y| <= _Y_CAP. A coordinate not finite is a ValueError naming it and its first such
    value (the oscillator recurrence would turn inf into NaN, and pass NaN on silently)."""
    s = units.m_omega if dom is Domain.POSITION else 1.0 / units.m_omega
    ys = [np.array(x, dtype=float) for x in coordinates.values()]
    for name, y in zip(coordinates, ys):
        if not np.isfinite(y).all():
            raise ValueError(f"{name} must be finite, got {float(y[~np.isfinite(y)][0])!r}")
        with np.errstate(over="ignore"):
            np.clip(y * math.sqrt(s), -_Y_CAP, _Y_CAP, out=y)
    return s, *ys


def _osc_rows(n_max: int, y: np.ndarray):
    """Yield the normalized oscillator functions u_0(y), ..., u_{n_max}(y) in turn,
    u_n(y) = pi^(-1/4) (2^n n!)^(-1/2) H_n(y) exp(-y^2/2), co-evaluated with the Gaussian
    so the recurrence never overflows at large n. Only the last two rows are kept: a
    yielded row is overwritten two steps later.
    """
    y = np.asarray(y, dtype=float)
    prev, cur, step = np.zeros_like(y), np.full_like(y, _PI_QUARTER), np.empty_like(y)
    np.multiply(np.multiply(y, -0.5, out=step), y, out=step)  # -0.5 * y * y
    cur *= np.exp(step, out=step)
    yield cur
    for n in range(1, n_max + 1):
        np.multiply(math.sqrt(2.0 / n), y, out=step)
        step *= cur
        prev *= math.sqrt((n - 1.0) / n)
        np.subtract(step, prev, out=prev)
        prev, cur = cur, prev
        yield cur


def _real_up_to_phase(amps: np.ndarray) -> np.ndarray | None:
    """The amplitudes made real by stripping a global phase, or None when they are
    genuinely complex."""
    pivot = amps.flat[np.argmax(np.abs(amps))]
    aligned = amps * (abs(pivot) / pivot)
    if np.max(np.abs(aligned.imag)) > 1e-12 * np.max(np.abs(aligned)):
        return None
    return aligned.real


def _amplitudes(state: FockState, dom: Domain) -> np.ndarray:
    """The state's amplitude matrix C[n1, n2] in one domain's oscillator basis, of shape
    (max n1 + 1, max n2 + 1); momentum amplitudes include the (-i)^(n1+n2) phases."""
    n1, n2, amps = zip(*state.terms)
    c = np.zeros((max(n1) + 1, max(n2) + 1), dtype=complex)
    c[n1, n2] = amps
    if dom is Domain.MOMENTUM:
        c *= np.array(_PHASE_MINUS_I)[np.add.outer(*map(np.arange, c.shape)) % 4]
    return c


def _coefficients(c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """c_g(y) = sum_n c[n, g] u_n(y), shape (c.shape[1],) + y.shape: the amplitude is
    sum_g c_g(y) u_g(y2), the marginal of mode 1 is sum_g |c_g(y)|^2 (of mode 2 on c.T),
    and the zeros in y2 at fixed y are those of the series in column y (_series_roots
    over _ladder_position). Only nonzero entries are added, term by term in row order."""
    coeff = np.zeros((c.shape[1],) + y.shape, dtype=c.dtype)
    for row, u in zip(c, _osc_rows(c.shape[0] - 1, y)):
        for g in np.flatnonzero(row).tolist():
            coeff[g] += row[g] * u
    return coeff


def _density_rows(coeff: np.ndarray, row, b) -> np.ndarray:
    """|Psi(a[row[i]], b[i])|^2 for every i, as a new array, from coeff = _coefficients(c,
    a), the table _joint keeps. ``row`` holds valid column indices of coeff, as np.intp
    (any other integer type is converted on every take). The series sum_g coeff[g,
    row[i]] u_g(b[i]) consumes the rows of _osc_rows as they come, so no (degree + 1) x
    len(b) table is built. It skips the levels g whose coefficients are zero over all of
    a (every level without a term, and those whose terms underflow there): adding a zero
    is exact up to its sign, which |.| drops. A complex series is summed as its real and
    imaginary parts, with a float term."""
    series = np.zeros(b.shape, coeff.dtype)
    parts = [(coeff, series)] if coeff.dtype == float else [
        (coeff.real, series.real), (coeff.imag, series.imag)]
    term = np.empty(b.shape)
    live = coeff.any(axis=1).tolist()
    for g, u in enumerate(_osc_rows(coeff.shape[0] - 1, b)):
        for part, s in parts if live[g] else ():
            part[g].take(row, out=term, mode="clip")
            term *= u
            s += term
    out = np.abs(series)
    out *= out
    return out


def joint_density(state: FockState, a, b, dom: Domain = Domain.POSITION,
                  units: UnitSystem = NATURAL_UNITS):
    """|Psi(a, b)|^2 in the requested domain; nonnegative. Raises ValueError, before any
    evaluation, when an element of ``a`` or ``b`` is not finite."""
    s, a, b = _oscillator_units(units, dom, a=a, b=b)
    a, b = np.broadcast_arrays(a, b)
    out = s * _joint(_amplitudes(state, dom))[0](a.ravel(), np.arange(a.size), b.ravel())
    return out.reshape(a.shape) if a.ndim else out.item()


def _joint(c: np.ndarray):
    """(density, zeros) over one coefficient table per batch of outer abscissae a: the
    mode-2 series coefficients _coefficients(C, a), in real arithmetic when C is real
    up to a phase. The table is built by whichever function first sees the array object
    a, which is held so that no later array takes its id.

    density(a, row, b) is |Psi(a[row[i]], b[i])|^2 of _density_rows. zeros(a) is, when C
    is real up to a phase, the real zeros in b of the amplitude at each a[i], NaN-padded
    to (len(a), max n2): _series_roots of the table in the oscillator basis, whose
    Gaussian factor scales a whole column and so moves a root only by rounding. Else it
    is None: a genuinely complex density has no zero curves.
    """
    real = _real_up_to_phase(c)
    series = c if real is None else real
    jacobi = _ladder_position(c.shape[1] - 1)
    held = [None, None]

    def table(a):
        if held[0] is not a:
            held[:] = a, _coefficients(series, a)
        return held[1]

    def density(a, row, b):
        return _density_rows(table(a), row, b)

    def zeros(a):
        return None if real is None else _series_roots(table(a), jacobi)

    return density, zeros


def marginal_density(state: FockState, a, dom: Domain = Domain.POSITION,
                     units: UnitSystem = NATURAL_UNITS, mode: int = 1):
    """Closed-form marginal of the requested mode, via Fock orthonormality.

    Integrating out the other mode collapses its cross terms: the marginal is
    sum_g |sum_n c[n, g] phi(n, a)|^2, g the integrated-out index (mode 1 shown).
    Raises ValueError, before any evaluation, when an element of ``a`` is not finite.
    """
    if mode not in (1, 2):
        raise ValueError("mode must be 1 or 2")
    s, y = _oscillator_units(units, dom, a=a)
    c = _amplitudes(state, dom)
    out = math.sqrt(s) * _marginal(c if mode == 1 else c.T, y)
    return out if y.ndim else out.item()


def _marginal(c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mode 1's marginal at oscillator coordinates y, sum_g |c_g(y)|^2 (mode 2's on c.T)."""
    return np.sum(np.abs(_coefficients(c, y)) ** 2, axis=0)


def _ladder_position(n_max: int) -> np.ndarray:
    """Matrix elements <m| y |n> in the oscillator basis, y = (a+a^+)/sqrt(2): the
    Jacobi matrix of the recurrence y u_n = sqrt(n/2) u_{n-1} + sqrt((n+1)/2) u_{n+1}."""
    off = np.sqrt(np.arange(1, n_max + 1) / 2.0)
    return np.diag(off, 1) + np.diag(off, -1)


def _ladder_position_sq(n_max: int) -> np.ndarray:
    """Matrix elements <m| y^2 |n> in the oscillator basis; n_max < 2 has no off-diagonal."""
    m = np.diag(np.arange(n_max + 1) + 0.5)
    n = np.arange(n_max - 1)
    m[n, n + 2] = m[n + 2, n] = np.sqrt((n + 1.0) * (n + 2.0)) / 2.0
    return m


def _moments(c: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M(a), N(a)) = (int P(a, b) db, int b P(a, b) db), exact finite Fock sums.

    With the mode-2 series coefficients c_g of _coefficients, integrating b out leaves
    mode-2 matrix elements: M = sum_g |c_g|^2 is the mode-1 marginal, and
    N = sum_gh conj(c_g) c_h <g| y |h>.
    """
    coeff = _coefficients(c, np.asarray(a, dtype=float))
    m = np.sum(np.abs(coeff) ** 2, axis=0)
    n = np.real(np.sum(coeff.conj() * (_ladder_position(len(coeff) - 1) @ coeff), axis=0))
    return m, n


def _mode2_moments(c: np.ndarray) -> tuple[float, float]:
    """(<y>, <y^2>) of mode 2, exact: Re sum conj(C) (C Y), Y its ladder matrix of y or y^2.
    The BLAS dot of vdot keeps psi and psi-prime on their pinned bits; an elementwise sum
    moves about one value in seven by an ulp."""
    return tuple(float(np.real(np.vdot(c, c @ ladder(c.shape[1] - 1))))
                 for ladder in (_ladder_position, _ladder_position_sq))


def conditional_mean(state: FockState, a: float, dom: Domain = Domain.POSITION,
                     units: UnitSystem = NATURAL_UNITS) -> float:
    """E[b | a] = int b P(a, b) db / marginal(a): the estimator minimizing the
    conditional variance.

    Raises ValueError for an ``a`` that is not one finite number, before any evaluation,
    and DegenerateMarginal when the marginal at ``a`` is at or below the density floor;
    callers forming weighted averages must treat such points as contributing zero
    (their weight is the marginal itself).
    """
    s, y = _oscillator_units(units, dom, a=a)
    if y.size != 1:
        raise ValueError(f"a must be one number, got shape {y.shape}")
    root = math.sqrt(s)
    m, n = _moments(_amplitudes(state, dom), y.reshape(1))
    marginal = float(root * m[0])
    if not marginal > DENSITY_FLOOR:
        raise DegenerateMarginal(f"marginal at {float(np.ravel(a)[0])!r} is {marginal!r}")
    return float(n[0] / m[0] / root)


def _series_roots(coeff: np.ndarray, jacobi: np.ndarray) -> np.ndarray:
    """Real roots of the series sum_j coeff[j, i] p_j(y) for every column i at once, where
    y p_j = sum_k jacobi[j, k] p_k is the three-term recurrence of the basis p_j.

    Returns shape (columns, rows - 1), each row sorted ascending and NaN-padded. A
    column's degree d is the index of its last coefficient above 1e-14 of its largest,
    so columns whose leading coefficients vanish are solved at their lower degree. The
    roots are the eigenvalues of jacobi[:d, :d], its last row closed by
    -jacobi[d-1, d] c[:d] / c[d] (Good 1961, Barnett 1975; numpy's chebcompanion and
    hermcompanion), that are real within 1e-9 (1 + |z|); a 1x1 matrix is its own.
    ``coeff`` has at least one row.
    """
    mag = np.abs(coeff)
    big = mag > 1e-14 * mag.max(axis=0)
    degree = np.where(big.any(axis=0), coeff.shape[0] - 1 - np.argmax(big[::-1], axis=0), 0)
    out = np.full((coeff.shape[1], coeff.shape[0] - 1), np.nan)
    for d in sorted(set(degree[degree > 0].tolist())):  # np.unique imports numpy.ma
        cols = np.flatnonzero(degree == d)
        c = coeff[:d + 1, cols].T
        mats = np.broadcast_to(jacobi[:d, :d], (cols.size, d, d)).copy()
        mats[:, -1, :] -= jacobi[d - 1, d] * c[:, :d] / c[:, d:]
        roots = mats[..., 0] if d == 1 else np.linalg.eigvals(mats)
        real = np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots))
        out[cols, :d] = np.sort(np.where(real, roots.real, np.nan), axis=-1)
    return out


def _marginal_zero_hints(c: np.ndarray) -> tuple[float, ...]:
    """Real zeros of mode 2's marginal for a rank-1 ``c``, NaN-padded: its marginal is
    |series|^2 x Gaussian, the series of c's largest row, and has real zeros only when
    that row is real up to a phase."""
    row = _real_up_to_phase(c[np.argmax(np.sum(np.abs(c) ** 2, axis=1))])
    if row is None:
        return ()
    return tuple(_series_roots(row[:, None], _ladder_position(row.size - 1))[0].tolist())


def _parities(c: np.ndarray) -> tuple[int | None, int | None, int | None]:
    """The parity that every nonzero entry c[n1, n2], a term, shares in n1 + n2, in n1 and
    in n2; None where the terms mix parities. Two symmetries follow from these alone:

    * central parity (first entry set): Psi(-a, -b) = +-Psi(a, b) in both domains and
      for any amplitudes, since (-i)^(n1 + n2) keeps the parity. The joint density and
      both marginals are even, the conditional mean is odd, and every integral of them
      over a folds onto a >= 0;
    * mirror: when the terms of A share one parity in a mode and those of B the other,
      that mode's local parity (-1)^n flips the relative sign of A and B, so
      cos(pi - t) A + sin(pi - t) B is a local unitary times cos(t) A + sin(t) B and
      every criterion takes the same value at t and pi - t.
    """
    n1, n2 = np.nonzero(c)
    parity = np.array([n1 + n2, n1, n2]) % 2
    return tuple(int(col[0]) if np.all(col == col[0]) else None for col in parity)


def _is_uncorrelated(c: np.ndarray) -> bool:
    """True when rank(c) = 1, so the state factorizes and mode 2's conditional statistics
    are its marginal ones: with c[p, q] the largest |entry|, each 2x2 minor c[i, j] c[p, q]
    - c[i, q] c[p, j] is within 1e-14 (c has unit norm; exact zeros mean rank 1)."""
    p, q = np.unravel_index(np.argmax(np.abs(c)), c.shape)
    return bool(np.max(np.abs(c * c[p, q] - np.outer(c[:, q], c[p]))) <= 1e-14)
