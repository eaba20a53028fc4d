import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite import hermgauss, hermroots, hermval

from cvsteer.fock import (
    DegenerateMarginal,
    Domain,
    FockState,
    NATURAL_UNITS,
    UnitSystem,
    conditional_mean,
    joint_density,
    make_psi,
    make_psi_prime,
    marginal_density,
)
from cvsteer.fock import (
    _amplitudes,
    _joint,
    _ladder_position,
    _ladder_position_sq,
    _mode2_moments,
    _osc_rows,
    _parities,
    _series_roots,
)

SQPI = math.sqrt(math.pi)

# numpy's 64-point Gauss-Hermite rule, weights times exp(node^2) so integrands carry
# their own Gaussian: exact for polynomial x Gaussian up to polynomial degree 127.
GH_NODES, GH_WEIGHTS = hermgauss(64)
GH_MODIFIED = GH_WEIGHTS * np.exp(GH_NODES ** 2)


def gh_1d(f, gaussian_scale=1.0):
    """int f over the real line, f = polynomial x exp(-gaussian_scale * x^2)."""
    root = math.sqrt(gaussian_scale)
    return float(GH_MODIFIED @ np.asarray(f(GH_NODES / root), dtype=float)) / root


def gh_2d(f, gaussian_scale=1.0):
    """Tensor-product version of gh_1d for f(a, b) = poly x exp(-scale (a^2 + b^2))."""
    x = GH_NODES / math.sqrt(gaussian_scale)
    values = np.asarray(f(x[:, None], x[None, :]), dtype=float)
    return float(GH_MODIFIED @ values @ GH_MODIFIED) / gaussian_scale


def adaptive_simpson(f, a, b, tol=1e-12, depth=30):
    """Independent oracle integrator (plain recursive Simpson), used to cross-check
    conditional moments computed by the ladder-operator sums."""

    def simpson(lo, hi):
        mid = 0.5 * (lo + hi)
        return (hi - lo) / 6.0 * (f(lo) + 4.0 * f(mid) + f(hi)), mid

    def recurse(lo, hi, whole, lvl):
        mid = 0.5 * (lo + hi)
        left, _ = simpson(lo, mid)
        right, _ = simpson(mid, hi)
        if lvl <= 0 or abs(left + right - whole) < 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, mid, left, lvl - 1) + recurse(mid, hi, right, lvl - 1)

    whole, _ = simpson(a, b)
    return recurse(a, b, whole, depth)


def osc_rows(n_max: int, y) -> np.ndarray:
    """The rows u_0(y), ..., u_{n_max}(y) of the engine's recurrence _osc_rows, each
    copied as it comes (the generator overwrites a row two steps later)."""
    rows = _osc_rows(n_max, np.asarray(y, dtype=float))
    return np.array([row.copy() for row in rows])


def hermite_from_rows(n: int, y):
    """Physicists' H_n(y) recovered from the normalized oscillator rows of _osc_rows,
    divided by their Gaussian factor exp(-y^2/2)."""
    norm = math.pi ** 0.25 * math.sqrt(2.0 ** n * math.factorial(n))
    return float(osc_rows(n, y)[n]) / math.exp(-0.5 * y * y) * norm


def hermval_oscillator(n: int, y):
    """u_n(y) = pi^(-1/4) (2^n n!)^(-1/2) H_n(y) exp(-y^2/2) from numpy's hermval."""
    norm = math.pi ** 0.25 * math.sqrt(2.0 ** n * math.factorial(n))
    return float(hermval(y, [0.0] * n + [1.0])) * math.exp(-0.5 * y * y) / norm


class TestHermite:
    """The oscillator recurrence against numpy's independent Hermite-series evaluator."""

    def test_h0_is_one(self):
        assert hermite_from_rows(0, 3.7) == pytest.approx(hermval(3.7, [1.0]), rel=1e-14)
        assert hermval(3.7, [1.0]) == 1.0

    def test_h1(self):
        assert hermite_from_rows(1, 0.5) == pytest.approx(hermval(0.5, [0.0, 1.0]), rel=1e-14)
        assert hermval(0.5, [0.0, 1.0]) == 1.0

    def test_h3_symbolic(self):
        # H_3(y) = 8 y^3 - 12 y by expanding the recurrence symbolically
        assert hermite_from_rows(3, 1.0) == pytest.approx(-4.0, abs=1e-14)
        y = 0.83
        assert hermite_from_rows(3, y) == pytest.approx(8 * y**3 - 12 * y, rel=1e-14)
        assert hermval(y, [0.0, 0.0, 0.0, 1.0]) == pytest.approx(8 * y**3 - 12 * y, rel=1e-14)

    @given(st.integers(min_value=1, max_value=25),
           st.floats(min_value=-6.0, max_value=6.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_recurrence_consistency(self, n, y):
        # _osc_rows runs the normalized recurrence; hermval runs Clenshaw on the
        # physicists' one. Both carry the Gaussian, so every value is O(1).
        table = osc_rows(n + 1, y)
        for k in (n - 1, n, n + 1):
            lhs, rhs = float(table[k]), hermval_oscillator(k, y)
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_rejects_negative_order(self):
        # A Fock level enters only through a state's terms, which reject negative ones
        with pytest.raises(ValueError):
            FockState.from_terms([(-1, 0, 1.0)])
        with pytest.raises(ValueError):
            FockState.from_terms([(0, -1, 1.0)])


def level(n: int) -> FockState:
    """|n, 0>: its mode-1 marginal is |phi_n|^2 in either domain."""
    return FockState.from_terms([(n, 0, 1.0)])


class TestEigenfunctions:
    """The single-mode eigenfunctions through the public densities of |n, 0>."""

    def test_odd_function_at_origin(self):
        assert marginal_density(level(1), 0.0) == 0.0
        assert joint_density(level(1), 0.0, 0.3) == 0.0

    def test_ground_state_at_origin(self):
        assert marginal_density(level(0), 0.0) == pytest.approx(math.pi**-0.5, rel=1e-14)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 12])
    def test_normalization(self, n):
        val = gh_1d(lambda x: marginal_density(level(n), x))
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_momentum_ground_state(self):
        assert marginal_density(level(0), 0.0, Domain.MOMENTUM) == pytest.approx(
            math.pi**-0.5, rel=1e-14)

    def test_momentum_unitarity(self):
        val = gh_1d(lambda p: marginal_density(level(1), p, Domain.MOMENTUM))
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_momentum_phase_convention(self):
        # Level n carries (-i)^n in momentum, so i|1,0> adds to |0,0> in phase there:
        # (u_0 + u_1)^2(p) u_0^2(b) / 2, against (u_0 - u_1)^2 under +i and u_0^2 + u_1^2
        # in position
        state = FockState.from_terms([(0, 0, math.sqrt(0.5)), (1, 0, 1j * math.sqrt(0.5))])
        p, b = 0.9, -0.4
        expected = (1.0 + math.sqrt(2.0) * p) ** 2 * math.exp(-p * p - b * b) / (2.0 * math.pi)
        assert joint_density(state, p, b, Domain.MOMENTUM) == pytest.approx(expected, rel=1e-14)
        # Cross terms whose n1 + n2 differ by 1, 2 and 3, against the term-by-term oracle
        state = FockState.from_terms(
            [(0, 0, 0.5), (1, 0, 0.5j), (1, 1, -0.5), (2, 1, 0.5 * cmath.exp(0.4j))])
        a, b = np.linspace(-3.0, 3.0, 13)[:, None], np.linspace(-2.5, 2.5, 11)[None, :]
        psi, mag = hermval_amplitude(state.terms, a, b, Domain.MOMENTUM, 1.0)
        got = joint_density(state, a, b, Domain.MOMENTUM)
        assert np.all(np.abs(got - np.abs(psi) ** 2) <= 1e-13 * mag ** 2)

    def test_scale_dependence(self):
        units = UnitSystem(m_omega=2.0)
        x = 0.7
        assert marginal_density(level(0), x, units=units) == pytest.approx(
            2.0**0.5 * math.pi**-0.5 * math.exp(-2.0 * x * x), rel=1e-14)


class TestStateConstructors:
    def test_psi_theta_zero_is_single_term(self):
        st0 = make_psi(0.0)
        assert st0.terms == ((0, 0, (1 + 0j)),)

    def test_psi_theta_quarter_pi(self):
        st0 = make_psi(math.pi / 4)
        amps = {(n1, n2): amp for n1, n2, amp in st0.terms}
        assert amps[(0, 0)].real == pytest.approx(math.sqrt(2) / 2, rel=1e-15)
        assert amps[(1, 1)].real == pytest.approx(math.sqrt(2) / 2, rel=1e-15)

    def test_psi_half_pi_drops_cos_term(self):
        st0 = make_psi(math.pi / 2)
        assert st0.terms == ((1, 1, (1 + 0j)),)

    def test_psi_prime_endpoints(self):
        assert make_psi_prime(0.0).terms == ((0, 1, (1 + 0j)),)
        assert make_psi_prime(math.pi / 2).terms == ((1, 0, (1 + 0j)),)

    @given(st.floats(min_value=0.0, max_value=math.pi, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_constructors_normalized(self, theta):
        assert abs(make_psi(theta).norm_sq() - 1.0) < 1e-12
        assert abs(make_psi_prime(theta).norm_sq() - 1.0) < 1e-12

    def test_duplicate_pairs_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FockState.from_terms([(0, 0, 0.8), (0, 0, 0.6)])

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            FockState.from_terms([(0, 0, 0.5)])

    @pytest.mark.parametrize("build", [
        lambda: FockState(terms=()),
        lambda: FockState.from_terms([(0, 0, 1e-16)]),  # its one amplitude is dropped
    ], ids=["empty", "all-dropped"])
    def test_state_without_terms_rejected(self, build):
        with pytest.raises(ValueError, match="^state must have at least one term$"):
            build()

    def test_nan_amplitude_rejected_when_built_directly(self):
        # abs(nan - 1) > tol is False: a plain comparison let this state through, and
        # chsh_max on it then failed inside the SVD
        with pytest.raises(ValueError, match="not normalized"):
            FockState(terms=((0, 0, math.nan), (1, 1, 1.0)))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            FockState.from_terms([(-1, 0, 1.0)])

    @pytest.mark.parametrize("terms", [
        [(1.9, 0, 1.0)],
        [(0, -0.5, 1.0)],
        [(0.5, 0, 0.6), (1, 1, 0.8)],
        [(float("nan"), 0, 1.0)],
        [(0, float("inf"), 1.0)],
        [(1.5, 0, 0.0), (0, 0, 1.0)],  # checked before its zero amplitude drops it
    ])
    def test_non_integral_index_rejected(self, terms):
        with pytest.raises(ValueError, match="^Fock indices"):
            FockState.from_terms(terms)

    @pytest.mark.parametrize("amp", [
        float("nan"), complex(0.0, float("nan")), float("inf"), complex(float("-inf"), 0.0),
    ])
    def test_non_finite_amplitude_rejected(self, amp):
        # A NaN amplitude is not below the drop threshold: it must not vanish
        with pytest.raises(ValueError, match="not finite"):
            FockState.from_terms([(0, 0, amp), (1, 1, 1.0)])

    @pytest.mark.parametrize("term, message", [
        ((None, 0, 1.0), "^Fock indices"),
        ((0, [1], 1.0), "^Fock indices"),
        ((0, "1", 1.0), "^Fock indices"),
        ((0, 0, None), "not finite"),
        ((0, 0, "1"), "not finite"),
        ((0, 0, b"1"), "not finite"),
    ])
    def test_non_numeric_term_rejected_by_name(self, term, message):
        # None and a list once raised TypeError, and the amplitude "1" built |0,0>
        with pytest.raises(ValueError, match=message) as caught:
            FockState.from_terms([term])
        assert repr(term) in str(caught.value)

    @pytest.mark.parametrize("terms, named", [
        ([(0, 0)], (0, 0)),
        ([(0, 0, 1.0, 2)], (0, 0, 1.0, 2)),
        ([5], 5),
        (None, None),
    ], ids=["two-parts", "four-parts", "not-a-term", "none"])
    def test_malformed_terms_rejected_by_name(self, terms, named):
        # Each once raised an unpacking ValueError without the term, or a TypeError
        with pytest.raises(ValueError) as caught:
            FockState.from_terms(terms)
        assert repr(named) in str(caught.value)

    @pytest.mark.parametrize("terms, named, message", [
        (((0, 0, "a"),), (0, 0, "a"), "not a number"),
        (((0, 0, None),), (0, 0, None), "not a number"),
        (((0, 0),), (0, 0), "n1, n2, amplitude"),
        (None, None, "n1, n2, amplitude"),
        ([(0, 0, 1.0)], "list", "must be a tuple"),
        ((term for term in [(0, 0, 1.0)]), "generator", "must be a tuple"),
    ], ids=["string-amplitude", "none-amplitude", "two-parts", "none", "list", "generator"])
    def test_malformed_terms_rejected_by_name_when_built_directly(self, terms, named, message):
        # The amplitudes once raised TypeError from norm_sq, and the others an unpacking
        # ValueError without the term or a TypeError. A list once built a state that did
        # not hash, and a generator was read up before the norm summed nothing
        with pytest.raises(ValueError, match=message) as caught:
            FockState(terms=terms)
        assert repr(named) in str(caught.value)

    def test_integral_indices_become_int(self):
        state = FockState.from_terms([(np.int64(1), 2.0, 0.6), (0, np.float64(0.0), 0.8)])
        assert state.terms == ((0, 0, 0.8 + 0j), (1, 2, 0.6 + 0j))
        assert all(type(n) is int for n1, n2, _amp in state.terms for n in (n1, n2))

    def test_non_integer_index_type_rejected_when_built_directly(self):
        # A float index of integral value once passed, hashed equal to its int-indexed
        # twin, and then raised TypeError in the engine; from_terms converts it, and numpy
        # integers are integers
        with pytest.raises(ValueError, match="^Fock indices"):
            FockState(terms=((0, 2.0, 1.0),))
        state = FockState(terms=((np.int64(0), np.uint8(2), 1.0),))
        assert state == FockState.from_terms([(0, 2.0, 1.0)])
        assert conditional_mean(state, 0.3, Domain.MOMENTUM) == 0.0

    def test_unsorted_terms_rejected_when_built_directly(self):
        # Reversed terms would compare and hash apart from the sorted state of the same
        # amplitudes, so caches keyed by the state would hold it twice
        with pytest.raises(ValueError, match="sorted"):
            FockState(terms=tuple(reversed(make_psi(0.7).terms)))


class TestDensities:
    def test_joint_product_point_closed_form(self):
        # theta=0: (1/pi) exp(-(x1^2+x2^2)) at unit scale
        st0 = make_psi(0.0)
        for x1, x2 in [(0.0, 0.0), (0.4, -1.1), (2.0, 0.3)]:
            expected = math.exp(-(x1**2 + x2**2)) / math.pi
            assert joint_density(st0, x1, x2, Domain.POSITION) == pytest.approx(expected, rel=1e-13)

    def test_joint_general_closed_form(self):
        theta = 0.77
        st0 = make_psi(theta)
        x1, x2 = 0.6, -0.9
        expected = (math.cos(theta) + 2 * x1 * x2 * math.sin(theta)) ** 2 \
            * math.exp(-(x1**2 + x2**2)) / math.pi
        assert joint_density(st0, x1, x2, Domain.POSITION) == pytest.approx(expected, rel=1e-13)

    def test_momentum_joint_sign_structure(self):
        # Momentum amplitude is cos(t) - 2 p1 p2 sin(t) (times the Gaussian): the
        # (-i)^2 phase of the doubly excited term flips its sign relative to position
        theta = 0.6
        st0 = make_psi(theta)
        p1, p2 = 0.8, 0.5
        expected = (math.cos(theta) - 2 * p1 * p2 * math.sin(theta)) ** 2 \
            * math.exp(-(p1**2 + p2**2)) / math.pi
        assert joint_density(st0, p1, p2, Domain.MOMENTUM) == pytest.approx(expected, rel=1e-13)

    @given(st.floats(min_value=0.0, max_value=math.pi),
           st.floats(min_value=-4, max_value=4), st.floats(min_value=-4, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_joint_nonnegative(self, theta, a, b):
        for dom in Domain:
            assert joint_density(make_psi_prime(theta), a, b, dom) >= 0.0

    def test_joint_normalization_quadrature_oracle(self):
        st0 = make_psi(0.9)
        for dom in Domain:
            val = gh_2d(lambda a, b: joint_density(st0, a, b, dom))
            assert val == pytest.approx(1.0, abs=1e-12)

    def test_marginal_closed_form(self):
        theta = 1.234
        st0 = make_psi(theta)
        for x in (0.0, 0.5, -1.7):
            expected = math.sqrt(1 / math.pi) * (math.cos(theta) ** 2
                                                 + 2 * x * x * math.sin(theta) ** 2) * math.exp(-x * x)
            assert marginal_density(st0, x, Domain.POSITION) == pytest.approx(expected, rel=1e-13)
            # Same functional form in momentum at unit scale
            assert marginal_density(st0, x, Domain.MOMENTUM) == pytest.approx(expected, rel=1e-13)

    def test_marginal_agrees_with_numeric_marginalization(self):
        theta = 0.83
        st0 = make_psi_prime(theta)
        for dom in Domain:
            for a in (0.0, 0.6, -1.2):
                numeric = gh_1d(lambda b: joint_density(st0, a, b, dom))
                assert marginal_density(st0, a, dom) == pytest.approx(numeric, abs=1e-10)

    def test_marginal_normalization(self):
        st0 = make_psi(1.1)
        val = gh_1d(lambda x: marginal_density(st0, x, Domain.POSITION))
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_mode2_marginal_of_psi_prime(self):
        # Swapping the mode swaps cos/sin in the excitation weights
        theta = 0.4
        st0 = make_psi_prime(theta)
        x = 0.9
        expected = math.sqrt(1 / math.pi) * (math.sin(theta) ** 2
                                             + 2 * x * x * math.cos(theta) ** 2) * math.exp(-x * x)
        assert marginal_density(st0, x, Domain.POSITION, mode=2) == pytest.approx(expected, rel=1e-13)


def hermval_amplitude(terms, a, b, dom, m_omega):
    """sum_k amp_k phi_{n1_k}(a) phi_{n2_k}(b) with every eigenfunction from numpy's
    hermval, and the scale of its rounding error: the same sum of moduli with each
    phi_n replaced by the envelope sqrt(sum_{m <= n} phi_m^2), which has no zeros."""
    s = m_omega if dom is Domain.POSITION else 1.0 / m_omega
    psi = np.zeros(np.broadcast(a, b).shape, dtype=complex)
    mag = np.zeros(psi.shape)
    for n1, n2, amp in terms:
        phase = (-1j) ** (n1 + n2) if dom is Domain.MOMENTUM else 1.0
        term, envelope = amp * phase, abs(amp)
        for n, x in ((n1, a), (n2, b)):
            y = math.sqrt(s) * np.asarray(x, dtype=float)
            rows = [s ** 0.25 * hermval(y, [0.0] * m + [1.0]) * np.exp(-0.5 * y * y)
                    / math.sqrt(2.0 ** m * math.factorial(m) * SQPI) for m in range(n + 1)]
            term = term * rows[-1]
            envelope = envelope * np.sqrt(sum(r * r for r in rows))
        psi += term
        mag += envelope
    return psi, mag


def random_state(rng, is_complex, n_max=12):
    """Two to four distinct Fock terms with indices <= n_max and random amplitudes."""
    size = int(rng.integers(2, 5))
    flat = rng.choice((n_max + 1) ** 2, size=size, replace=False)
    amps = rng.uniform(0.3, 1.0, size) * (np.exp(2j * math.pi * rng.uniform(size=size))
                                         if is_complex else rng.choice([-1.0, 1.0], size))
    amps = amps / np.linalg.norm(amps)
    return FockState.from_terms(
        [(int(k) // (n_max + 1), int(k) % (n_max + 1), complex(c)) for k, c in zip(flat, amps)])


class TestStreamedAmplitude:
    """The streamed mode-2 series against a term-by-term hermval oracle, to 1e-13 of
    the oracle's rounding scale, for random states with Fock indices up to 12."""

    CASES = [(mw, dom, cplx) for mw in (0.5, 1.0, 2.0) for dom in Domain
             for cplx in (False, True)]

    @pytest.mark.parametrize("m_omega,dom,is_complex", CASES)
    def test_public_densities(self, m_omega, dom, is_complex):
        rng = np.random.default_rng([int(4 * m_omega), dom is Domain.MOMENTUM, is_complex])
        units = UnitSystem(m_omega)
        scale = math.sqrt(m_omega if dom is Domain.POSITION else 1.0 / m_omega)
        for _ in range(3):
            state = random_state(rng, is_complex)
            a = rng.uniform(-4.0, 4.0, 40) / scale
            b = rng.uniform(-4.0, 4.0, 40) / scale
            for pa, pb in ((a, b), (a[:, None], b[None, :])):
                psi, mag = hermval_amplitude(state.terms, pa, pb, dom, m_omega)
                dens = joint_density(state, pa, pb, dom, units)
                assert dens.shape == psi.shape
                assert np.all(np.abs(dens - np.abs(psi) ** 2) <= 1e-13 * mag ** 2)

    @pytest.mark.parametrize("m_omega,dom,is_complex", CASES)
    def test_entropy_integrand(self, m_omega, dom, is_complex):
        # The 2-D entropy integrand's contract: the density at (a[row[i]], b[i]) in
        # oscillator units y = sqrt(s) x, which is 1/s times the density in x units at
        # (y / sqrt(s)) for every m_omega
        rng = np.random.default_rng([int(4 * m_omega), dom is Domain.MOMENTUM, is_complex, 1])
        s = m_omega if dom is Domain.POSITION else 1.0 / m_omega
        for _ in range(3):
            state = random_state(rng, is_complex)
            a = rng.uniform(-4.0, 4.0, 7)
            row = rng.integers(0, a.size, 60)
            b = rng.uniform(-4.0, 4.0, 60)
            psi, mag = hermval_amplitude(state.terms, a[row] / math.sqrt(s), b / math.sqrt(s),
                                         dom, m_omega)
            got = s * _joint(_amplitudes(state, dom))[0](a, row, b)
            assert np.all(np.abs(got - np.abs(psi) ** 2) <= 1e-13 * mag ** 2)


@st.composite
def central_parity_states(draw, parity):
    """One to three Fock terms with indices <= 8, each with n1 + n2 of the given parity,
    and complex amplitudes."""
    pair = st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(
        lambda p: (p[0] + p[1]) % 2 == parity)
    pairs = draw(st.lists(pair, min_size=1, max_size=3, unique=True))
    mags = draw(st.lists(st.floats(0.3, 1.0), min_size=len(pairs), max_size=len(pairs)))
    phases = draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=len(pairs),
                           max_size=len(pairs)))
    amps = np.array(mags) * np.exp(1j * np.array(phases))
    amps /= np.linalg.norm(amps)
    return FockState.from_terms([(n1, n2, complex(c)) for (n1, n2), c in zip(pairs, amps)])


class TestParities:
    def test_reads_term_list(self):
        # The terms are the nonzero entries of C, in either domain
        def parities(state):
            got = [_parities(_amplitudes(state, dom)) for dom in Domain]
            assert got[0] == got[1]
            return got[0]

        assert parities(make_psi(0.7)) == (0, None, None)
        assert parities(make_psi_prime(0.7)) == (1, None, None)
        assert parities(make_psi(0.0)) == (0, 0, 0)
        assert parities(FockState.from_terms([(1, 2, 0.6), (3, 4, 0.8)])) == (1, 1, 0)
        assert parities(FockState.from_terms([(0, 0, 0.6), (2, 3, 0.8)])) == (None, 0, None)
        # An explicit zero amplitude, which only the constructor keeps, is no term
        assert parities(FockState(terms=((0, 0, 0.6), (0, 1, 0j), (1, 1, 0.8)))) == (0, None, None)

    @given(st.integers(0, 1).flatmap(central_parity_states),
           st.sampled_from(list(Domain)), st.sampled_from([0.5, 1.0, 2.0]),
           st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_central_parity(self, state, dom, m_omega, a, b):
        # One parity of n1 + n2: the joint density and both marginals are even and the
        # conditional mean is odd, in both domains and for complex amplitudes
        assert _parities(_amplitudes(state, dom))[0] is not None
        units = UnitSystem(m_omega)
        rel = 1e-14

        def even(f, x, y):
            assert abs(f(-x, -y) - f(x, y)) <= rel * abs(f(x, y))

        even(lambda x, y: joint_density(state, x, y, dom, units), a, b)
        for mode in (1, 2):
            even(lambda x, _y: marginal_density(state, x, dom, units, mode), a, 0.0)
        try:
            mean = conditional_mean(state, a, dom, units)
        except DegenerateMarginal:
            return
        assert abs(conditional_mean(state, -a, dom, units) + mean) <= rel * abs(mean)


class TestConditionalMean:
    def test_product_state_zero_mean(self):
        assert conditional_mean(make_psi(0.0), 0.7) == 0.0

    def test_against_adaptive_simpson_oracle(self):
        theta = math.pi / 4
        st0 = make_psi(theta)
        for a in (0.35, 1.2, -0.8):
            num = adaptive_simpson(lambda b: b * joint_density(st0, a, b), -9, 9)
            den = adaptive_simpson(lambda b: joint_density(st0, a, b), -9, 9)
            assert conditional_mean(st0, a) == pytest.approx(num / den, abs=1e-10)

    def test_psi_prime_odd_integrand_at_origin(self):
        # At a = 0 the numerator integrand is odd in b
        assert conditional_mean(make_psi_prime(math.pi / 3), 0.0) == 0.0

    def test_momentum_domain_against_oracle(self):
        theta = 0.6
        st0 = make_psi(theta)
        a = 0.9
        num = adaptive_simpson(lambda b: b * joint_density(st0, a, b, Domain.MOMENTUM), -9, 9)
        den = adaptive_simpson(lambda b: joint_density(st0, a, b, Domain.MOMENTUM), -9, 9)
        assert conditional_mean(st0, a, Domain.MOMENTUM) == pytest.approx(num / den, abs=1e-10)

    def test_degenerate_marginal_raises(self):
        with pytest.raises(DegenerateMarginal):
            conditional_mean(make_psi(0.9), 40.0)

    @pytest.mark.parametrize("a", [0.0, np.float64(0.0), (0.0,), np.array([[0.0]])],
                             ids=["float", "float64", "tuple", "array-1x1"])
    def test_degenerate_marginal_message_prints_python_floats(self, a):
        # |1, 0>'s marginal vanishes at a = 0; the message printed np.float64(0.0)
        with pytest.raises(DegenerateMarginal, match=r"^marginal at 0\.0 is 0\.0$"):
            conditional_mean(FockState.from_terms([(1, 0, 1.0)]), a)

    @pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan])
    def test_non_finite_abscissa_rejected_before_evaluation(self, a):
        # A non-finite a went into the oscillator recurrence, which warned of an invalid
        # multiply, and came out as a DegenerateMarginal with a NaN marginal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^a must be finite") as info:
                conditional_mean(make_psi(0.9), a)
        assert info.type is ValueError

    @pytest.mark.parametrize("a, shape", [
        ([0.1, 0.2], (2,)), ([], (0,)), (np.zeros((2, 1)), (2, 1)), (np.zeros((1, 0)), (1, 0)),
    ], ids=["two", "empty", "column", "empty-row"])
    def test_abscissa_not_one_number_rejected_before_evaluation(self, a, shape, monkeypatch):
        # numpy's "cannot reshape array of size 2 into shape (1,)" came out of the
        # evaluation and did not name a
        monkeypatch.setattr("cvsteer.fock._moments", lambda *args: pytest.fail("evaluated"))
        message = re.escape(f"a must be one number, got shape {shape}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            conditional_mean(make_psi(0.7), a)

    @pytest.mark.parametrize("a", [(0.3,), [0.3], np.array([0.3]), np.array([[0.3]])],
                             ids=["tuple", "list", "array", "array-1x1"])
    def test_one_element_abscissa_keeps_its_value(self, a):
        state = make_psi(0.7)
        for dom in Domain:
            assert conditional_mean(state, a, dom).hex() == conditional_mean(state, 0.3, dom).hex()

    @pytest.mark.parametrize("density, coordinates, name", [
        (joint_density, (math.inf, 0.0), "a"),
        (joint_density, (0.3, -math.inf), "b"),
        (joint_density, (math.nan, 0.0), "a"),
        (joint_density, (np.array([0.1, math.nan]), 0.0), "a"),
        (joint_density, (0.0, np.array([[1.0], [math.inf]])), "b"),
        (marginal_density, (-math.inf,), "a"),
        (marginal_density, (math.nan,), "a"),
        (marginal_density, (np.array([0.2, math.inf]),), "a"),
        (marginal_density, ([math.nan, 0.0],), "a"),
    ], ids=["joint-a-inf", "joint-b-minus-inf", "joint-a-nan", "joint-a-nan-element",
            "joint-b-inf-element", "marginal-minus-inf", "marginal-nan",
            "marginal-inf-element", "marginal-nan-element"])
    def test_density_rejects_non_finite_coordinate(self, density, coordinates, name):
        # inf went into the oscillator recurrence, which warned of an invalid multiply
        # and returned nan; a NaN came back as nan without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{name} must be finite") as info:
                density(make_psi(0.7), *coordinates)
        assert info.type is ValueError

    @pytest.mark.parametrize("m_omega", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("x", [1e200, -1e200, 1e308, -1e308])
    def test_huge_coordinate_has_zero_density(self, x, m_omega):
        # The oscillator recurrence squared sqrt(s) x and warned of an overflow; where
        # sqrt(s) x itself overflowed, the densities were nan and the marginal under
        # conditional_mean too. Every oscillator function is exactly 0.0 there
        state, units = make_psi(0.7), UnitSystem(m_omega)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for dom in Domain:
                near = (joint_density(state, 0.3, -0.2, dom, units),
                        marginal_density(state, 0.3, dom, units))
                for mode in (1, 2):
                    assert marginal_density(state, x, dom, units, mode) == 0.0
                assert joint_density(state, x, -0.2, dom, units) == 0.0
                assert joint_density(state, 0.3, x, dom, units) == 0.0
                got = (joint_density(state, [0.3, x, 0.3], [-0.2, -0.2, x], dom, units),
                       marginal_density(state, np.array([x, 0.3]), dom, units))
                assert got[0].tolist() == [near[0], 0.0, 0.0]
                assert got[1].tolist() == [0.0, near[1]]
                message = re.escape(f"marginal at {x!r} is 0.0")
                with pytest.raises(DegenerateMarginal, match=f"^{message}$"):
                    conditional_mean(state, x, dom, units)

    def test_marginal_density_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="^mode must be 1 or 2$"):
            marginal_density(make_psi(0.7), 0.0, mode=3)


class TestInvariantsAndScaling:
    @pytest.mark.parametrize("builder", [make_psi, make_psi_prime])
    def test_normalization_theta_grid(self, builder):
        for theta in np.linspace(0.0, math.pi, 11):
            state = builder(theta)
            for dom in Domain:
                val = gh_2d(lambda a, b: joint_density(state, a, b, dom))
                assert abs(val - 1.0) < 1e-9

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_fock_level_variances(self, n):
        # Single level |n, n>: Delta^2 x = (n + 1/2)/s and Delta^2 p = (n + 1/2) s
        for m_omega in (0.5, 1.0, 2.0):
            units = UnitSystem(m_omega=m_omega)
            state = FockState.from_terms([(n, n, 1.0)])
            var_x = gh_2d(
                lambda a, b: b * b * joint_density(state, a, b, Domain.POSITION, units),
                m_omega)
            var_p = gh_2d(
                lambda a, b: b * b * joint_density(state, a, b, Domain.MOMENTUM, units),
                1.0 / m_omega)
            assert var_x == pytest.approx((n + 0.5) / m_omega, abs=1e-9)
            assert var_p == pytest.approx((n + 0.5) * m_omega, abs=1e-9)

    def test_scale_invariance_of_moments(self):
        # Doubling m*omega halves x second moments and doubles p second moments
        theta = 0.9
        state = make_psi(theta)
        u1, u2 = NATURAL_UNITS, UnitSystem(m_omega=2.0)
        m_x1 = gh_2d(lambda a, b: b * b * joint_density(state, a, b, Domain.POSITION, u1), 1.0)
        m_x2 = gh_2d(lambda a, b: b * b * joint_density(state, a, b, Domain.POSITION, u2), 2.0)
        assert m_x2 == pytest.approx(0.5 * m_x1, rel=1e-10)
        m_p1 = gh_2d(lambda a, b: b * b * joint_density(state, a, b, Domain.MOMENTUM, u1), 1.0)
        m_p2 = gh_2d(lambda a, b: b * b * joint_density(state, a, b, Domain.MOMENTUM, u2), 0.5)
        assert m_p2 == pytest.approx(2.0 * m_p1, rel=1e-10)

    @given(st.floats(min_value=0.05, max_value=math.pi - 0.05),
           st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_parity_symmetry(self, theta, a, b):
        state = make_psi(theta)
        assert joint_density(state, a, b) == pytest.approx(
            joint_density(state, -a, -b), rel=1e-12, abs=1e-300)

    @given(st.floats(min_value=0.05, max_value=math.pi - 0.05),
           st.floats(min_value=-3, max_value=3), st.floats(min_value=-3, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_theta_reflection_symmetry(self, theta, a, b):
        # Density at pi - theta equals the density at theta with x1 -> -x1
        assert joint_density(make_psi(math.pi - theta), a, b) == pytest.approx(
            joint_density(make_psi(theta), -a, b), rel=1e-11, abs=1e-300)

    def test_units_validation(self):
        # An infinite m_omega once passed and made reid_value divide by zero
        for m_omega in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="^m_omega"):
                UnitSystem(m_omega=m_omega)


class TestExactMoments:
    """Conditional means and <b^2> (exact ladder-operator sums) against an oracle built
    here from numpy's Hermite series and Gauss-Hermite rule, not the library's tables."""

    # Terms whose mode-2 indices differ by one couple in N(a), and the two n1 = 0 terms
    # (n2 = 2, 4) couple in <b^2>; generic phases keep both couplings nonzero in both
    # domains.
    STATE = FockState.from_terms([(0, 2, 0.5), (5, 3, 0.5 * cmath.exp(0.9j)), (6, 1, -0.5),
                                  (0, 4, 0.5 * cmath.exp(0.4j))])
    # The mode-1 marginal is a sum of |amp|^2 phi_n1(a)^2 over distinct mode-2 groups,
    # one with n1 = 0, so it has no zeros.
    ABSCISSAE = (-2.1, -1.4, -0.8, -0.3, 0.25, 0.7, 1.1, 1.6, 2.3)
    NODES, WEIGHTS = hermgauss(40)  # exact to polynomial degree 79; the density has 24

    @staticmethod
    def _phi(n, x, dom, scale):
        y = math.sqrt(scale) * np.asarray(x, dtype=float)
        norm = (scale / math.pi) ** 0.25 / math.sqrt(2.0 ** n * math.factorial(n))
        u = norm * hermval(y, [0.0] * n + [1.0]) * np.exp(-0.5 * y * y)
        return u if dom is Domain.POSITION else (-1j) ** n * u

    def _density(self, a, b, dom, scale):
        amp = sum(c * self._phi(n1, a, dom, scale) * self._phi(n2, b, dom, scale)
                  for n1, n2, c in self.STATE.terms)
        return np.abs(amp) ** 2

    @pytest.mark.parametrize("dom", list(Domain))
    @pytest.mark.parametrize("m_omega", [0.5, 1.0, 2.0])
    def test_against_hermgauss_oracle(self, m_omega, dom):
        units = UnitSystem(m_omega=m_omega)
        scale = m_omega if dom is Domain.POSITION else 1.0 / m_omega
        # int f(b) db = sum_i w_i exp(t_i^2) f(t_i / sqrt(s)) / sqrt(s) for f = poly x exp(-s b^2)
        b = self.NODES / math.sqrt(scale)
        w = self.WEIGHTS * np.exp(self.NODES ** 2) / math.sqrt(scale)
        for a in self.ABSCISSAE:
            p = self._density(a, b, dom, scale)
            expected = float(w @ (b * p)) / float(w @ p)
            got = conditional_mean(self.STATE, a, dom, units)
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
        p2 = self._density(b[:, None], b[None, :], dom, scale)
        expected_b2 = float(w @ p2 @ (w * b * b))
        # The ladder sum is <y^2> in oscillator units y = sqrt(s) b
        got_b2 = _mode2_moments(_amplitudes(self.STATE, dom))[1] / scale
        assert got_b2 == pytest.approx(expected_b2, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n_max", [0, 1, 2, 3, 12])
    def test_ladder_position_sq_is_the_square_of_y(self, n_max):
        # <m| y^2 |n> = sum_k <m| y |k><k| y |n>, and k reaches n_max + 1; at n_max 0 and 1
        # y^2 has no entry two off the diagonal
        y = _ladder_position(n_max + 1)
        got = _ladder_position_sq(n_max)
        assert got.shape == (n_max + 1, n_max + 1)
        np.testing.assert_allclose(got, (y @ y)[:n_max + 1, :n_max + 1], rtol=1e-15, atol=0.0)


class TestOscillatorRoots:
    """Real roots of oscillator-basis series (_series_roots over the oscillator Jacobi
    matrix) against numpy's hermroots on the same series rewritten in the physicists'
    Hermite basis."""

    @staticmethod
    def _oracle(c):
        # sum_j c_j u_j(y) e^(y^2/2) = sum_j h_j H_j(y), h_j = c_j pi^(-1/4) / sqrt(2^j j!)
        h = np.array([cj * math.pi ** -0.25 / math.sqrt(2.0 ** j * math.factorial(j))
                      for j, cj in enumerate(c)])
        roots = hermroots(h)
        return np.sort(roots[np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots))].real)

    def test_against_hermroots(self):
        rng = np.random.default_rng(5)
        columns = []
        for degree in range(1, 13):
            for _ in range(4):
                c = np.zeros(13)
                c[:degree + 1] = rng.normal(size=degree + 1)
                columns.append(c)
        lowered = rng.normal(size=13)
        lowered[12] = 1e-20  # negligible leading coefficient: solved at degree 11
        columns += [lowered, np.eye(13)[0]]  # and a constant series, which has no roots
        got = _series_roots(np.array(columns).T, _ladder_position(12))
        assert got.shape == (len(columns), 12)
        for c, row in zip(columns[:-2], got):
            expected = self._oracle(np.trim_zeros(c, "b"))
            assert np.all(np.isnan(row[expected.size:]))
            np.testing.assert_allclose(row[:expected.size], expected, rtol=1e-9, atol=1e-9)
        expected = self._oracle(lowered[:12])
        assert expected.size and np.all(np.isnan(got[-2, expected.size:]))
        np.testing.assert_allclose(got[-2, :expected.size], expected, rtol=1e-9, atol=1e-9)
        assert np.all(np.isnan(got[-1]))

    @pytest.mark.parametrize("terms", [
        [(0, 6, -0.6398923008816697), (6, 0, 0.7684646011836607)],
        [(0, 12, 1.0 / math.sqrt(2.0)), (12, 0, -1.0 / math.sqrt(2.0))],
        [(0, 0, 0.622912191748868), (2, 3, -0.4558467916209993),
         (4, 1, -0.6357547514092701)],
    ])
    def test_joint_zeros_against_hermroots(self, terms):
        # The zeros in b of the amplitude at fixed a, read from the density's own table,
        # against hermroots of sum_g c_g(a) u_g(b), rewritten in the physicists' basis as
        # sum_g c_g(a) (2^g g!)^(-1/2) H_g(b) (the factor pi^(-1/4) e^(-b^2/2) has no
        # zeros), with c_g(a) = sum_n C[n, g] u_n(a) evaluated by hermval
        state = FockState.from_terms(terms)
        a = np.linspace(-6.0, 6.0, 64)
        got = _joint(_amplitudes(state, Domain.POSITION))[1](a)
        levels = max(n2 for _, n2, _ in terms) + 1
        assert got.shape == (a.size, levels - 1) and not np.all(np.isnan(got))
        for ai, row in zip(a, got):
            h = np.zeros(levels)
            for n1, n2, amp in terms:
                h[n2] += amp.real * hermval_oscillator(n1, ai)
            h /= [math.sqrt(2.0 ** g * math.factorial(g)) for g in range(levels)]
            roots = hermroots(np.trim_zeros(h, "b"))
            expected = np.sort(roots[np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots))].real)
            assert np.all(np.isnan(row[expected.size:]))
            assert np.all(np.abs(row[:expected.size] - expected) <= 1e-9 * (1.0 + np.abs(expected)))

    def test_joint_zeros_none_when_complex(self):
        # A genuinely complex density has no zero curves to split at
        state = FockState.from_terms([(0, 0, 0.6), (1, 2, 0.48j), (3, 1, 0.64)])
        assert _joint(_amplitudes(state, Domain.POSITION))[1](np.linspace(-6.0, 6.0, 64)) is None
