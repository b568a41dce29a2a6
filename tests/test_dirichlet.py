"""Bohr transform, divisor convolution, evaluation, shifts, recovery."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    NON_DYADIC,
    assert_same_bits,
    built_term_by_term,
    contracted_by_mpmath,
    distance,
    random_power_series,
    series,
    small_indices,
    summed_norms,
    sums_of_products_by_mpmath,
    terms,
)
from polyhardy import (
    DirichletSeries,
    MultiIndex,
    PowerSeries,
    bohr,
    bohr_inverse,
    dirichlet_product,
    epsilon_shift,
    evaluate_dirichlet,
    recover_coefficient,
)
from polyhardy._linalg import _gamma
from polyhardy.dirichlet import (
    _EPSILON_SHIFT_ROUNDING,
    _evaluate_dirichlet_rounding,
    _recover_coefficient_rounding,
)
from polyhardy.multiindex import MAX_FREQUENCY, index_to_multiindex, multiindex_to_index
from polyhardy.series import _product_rounding


class TestBohrTransform:
    def test_single_term(self):
        x = np.array([1.0, 2.0])
        F = PowerSeries.vector(2, {MultiIndex([2, 1]): x})
        D = bohr(F)
        assert D.frequencies == (12,)
        np.testing.assert_allclose(D.coefficient(12), x)

    def test_constant_maps_to_frequency_one(self):
        F = PowerSeries.vector(1, {MultiIndex(): [5.0]})
        assert bohr(F).frequencies == (1,)

    def test_inverse_examples(self):
        D = DirichletSeries.vector(1, {6: [1.0]})
        assert bohr_inverse(D).support == (MultiIndex([1, 1]),)
        D1 = DirichletSeries.vector(1, {1: [2.0]})
        assert bohr_inverse(D1).support == (MultiIndex(),)

    def test_roundtrip_preserves_everything(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            F = random_power_series(rng, "vector", 3, 3, 4, 8)
            assert bohr_inverse(bohr(F)) == F
            assert bohr(F).num_terms == F.num_terms

    def test_operator_series_roundtrip(self):
        rng = np.random.default_rng(1)
        F = random_power_series(rng, "operator", 2, 2, 3, 5)
        assert bohr_inverse(bohr(F)) == F


class TestDirichletSeriesType:
    def test_validation(self):
        with pytest.raises(ValueError):
            DirichletSeries.vector(1, {0: [1.0]})
        with pytest.raises(ValueError):
            DirichletSeries.vector(1, {2: [1.0, 2.0]})
        with pytest.raises(OverflowError):
            DirichletSeries.vector(1, {2**63: [1.0]})
        with pytest.raises(ValueError):
            DirichletSeries.vector(1, {2: [np.nan]})

    def test_zero_pruning_and_accumulation(self):
        D = DirichletSeries.vector(1, [(3, [1.0]), (3, [-1.0]), (2, [1.0])])
        assert D.frequencies == (2,)

    def test_coefficient_validates_its_key(self):
        D = DirichletSeries.vector(1, {2: [1.0]})
        with pytest.raises(ValueError):
            D.coefficient(0)
        with pytest.raises(OverflowError):
            D.coefficient(2**63)
        np.testing.assert_array_equal(D.coefficient(3), [0.0])

    def test_never_equal_to_a_power_series(self):
        for F in (PowerSeries.vector(2), PowerSeries.vector(2, {MultiIndex(): [1.0, 2.0]})):
            D = bohr(F)
            assert D != F and F != D
            assert not D.allclose(F) and not F.allclose(D)


class TestDirichletProduct:
    def test_single_divisor_pair(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.array([1.0, 2.0])
        D = DirichletSeries.operator(2, {2: a})
        E = DirichletSeries.vector(2, {3: b})
        P = dirichlet_product(D, E, 100)
        assert P.frequencies == (6,)
        np.testing.assert_allclose(P.coefficient(6), a @ b)

    def test_identity_at_frequency_one(self):
        rng = np.random.default_rng(2)
        E = bohr(random_power_series(rng, "vector", 2, 2, 3, 5))
        D = DirichletSeries.operator(2, {1: np.eye(2)})
        P = dirichlet_product(D, E, max(E.frequencies))
        assert P == E

    def test_divisor_pair_enumeration_oracle(self):
        rng = np.random.default_rng(3)
        dvals = {n: rng.standard_normal((2, 2)) for n in range(1, 13)}
        evals = {n: rng.standard_normal(2) for n in range(1, 13)}
        D = DirichletSeries.operator(2, dvals)
        E = DirichletSeries.vector(2, evals)
        P = dirichlet_product(D, E, 144)
        expected = sum(
            dvals[k] @ evals[j]
            for k, j in [(1, 12), (2, 6), (3, 4), (4, 3), (6, 2), (12, 1)]
        )
        np.testing.assert_allclose(P.coefficient(12), expected, rtol=1e-13)

    def test_max_frequency_truncation(self):
        D = DirichletSeries.operator(1, {2: [[1.0]]})
        E = DirichletSeries.vector(1, {3: [1.0], 2: [1.0]})
        P = dirichlet_product(D, E, 5)
        assert P.frequencies == (4,)  # 6 exceeds the cutoff

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dirichlet_product(
                DirichletSeries.operator(2), DirichletSeries.vector(3), 10
            )

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            dirichlet_product(
                DirichletSeries.vector(2), DirichletSeries.vector(2), 10
            )


def divisor_pair_oracle(D, E, max_frequency):
    """Reference loop in Python ints: every pair (k, j) with k * j <= max_frequency."""
    out = {}
    for k, a in D.terms.items():
        for j, b in E.terms.items():
            if k * j <= max_frequency:
                out[k * j] = out.get(k * j, 0.0) + a @ b
    return out


#: Small frequencies that share divisors, and large ones whose products stay below 2^62.
frequencies = st.one_of(
    st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=2**31)
)


@st.composite
def dirichlet_operands(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    return (
        DirichletSeries("operator", dim, draw(terms(frequencies, "operator", dim))),
        DirichletSeries("vector", dim, draw(terms(frequencies, "vector", dim))),
    )


class TestDirichletProductAgainstOracle:
    """The array-form convolution against the divisor-pair loop:
    coefficientwise within gamma_{(T_D T_E + 1) d} sum|a| sum|b|."""

    @given(
        dirichlet_operands(),
        st.one_of(
            st.integers(min_value=1, max_value=4000),
            st.integers(min_value=1, max_value=2**70),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_divisor_pair_oracle(self, operands, max_frequency):
        D, E = operands
        P = dirichlet_product(D, E, max_frequency)
        expected = divisor_pair_oracle(D, E, max_frequency)
        assert all(n <= max_frequency for n in P.frequencies)
        tol = _gamma((D.num_terms * E.num_terms + 1) * D.dim) * summed_norms(D) * summed_norms(E)
        for n in set(P.frequencies) | set(expected):
            assert np.linalg.norm(P.coefficient(n) - expected.get(n, 0.0)) <= tol

    @given(dirichlet_operands(), st.integers(min_value=1, max_value=4000))
    @settings(max_examples=100, deadline=None)
    def test_within_the_stated_rounding_of_a_40_digit_sum(self, operands, max_frequency):
        """Against each coefficient's divisor sum in 40-digit arithmetic,
        within the bound ``dirichlet_product`` states: ``gamma_k`` times the
        sum of ``||a_k|| ||b_j||`` over the coefficient's pairs, k from
        ``series._product_rounding``.  Non-dyadic values, so products round."""
        D, E = operands
        P = dirichlet_product(D, E, max_frequency)
        exact, weight = sums_of_products_by_mpmath(D, E, lambda k, j: k * j)
        for n in exact:
            if n <= max_frequency:
                assert distance(P.coefficient(n), exact[n]) <= _gamma(_product_rounding(D, E)) * weight[n]

    def test_kept_product_past_64_bits_raises(self):
        D = DirichletSeries.operator(1, {1: [[1.0]], 3: [[1.0]]})
        E = DirichletSeries.vector(1, {2**62: [1.0]})
        with pytest.raises(OverflowError, match=str(3 * 2**62)):
            dirichlet_product(D, E, 2**64)
        # 3 * 2^62 lies outside these windows, so nothing overflows
        for max_frequency in (MAX_FREQUENCY, 2**63, 3 * 2**62 - 1):
            assert dirichlet_product(D, E, max_frequency).frequencies == (2**62,)

    def test_empty_window_gives_zero(self):
        D = DirichletSeries.operator(1, {2: [[2.0]], 3: [[1.0]]})
        E = DirichletSeries.vector(1, {1: [1.0]})
        P = dirichlet_product(D, E, 1)
        assert P.is_zero and P.kind == "vector"

    @pytest.mark.parametrize("max_frequency", [0, -1, -(2**70)], ids=["0", "-1", "-2**70"])
    def test_window_below_one_is_named(self, max_frequency):
        D = DirichletSeries.operator(1, {1: [[1.0]], 2: [[2.0]]})
        E = DirichletSeries.vector(1, {1: [1.0]})
        with pytest.raises(ValueError, match="max_frequency must be at least 1"):
            dirichlet_product(D, E, max_frequency)

    def test_float_window_is_a_type_error(self):
        D = DirichletSeries.operator(1, {1: [[1.0]]})
        E = DirichletSeries.vector(1, {1: [1.0]})
        with pytest.raises(TypeError, match="max_frequency"):
            dirichlet_product(D, E, 5.0)

    def test_empty_operands(self):
        D = DirichletSeries.operator(2, {2: np.eye(2)})
        E = DirichletSeries.vector(2, {3: [1.0, 1.0]})
        assert dirichlet_product(DirichletSeries.operator(2), E, 100).is_zero
        assert dirichlet_product(D, DirichletSeries.vector(2), 100).is_zero

    def test_overflowing_coefficients_raise(self):
        D = DirichletSeries.operator(1, {1: [[1e308]], 2: [[1e308]]})
        E = DirichletSeries.vector(1, {1: [1.0], 2: [1.0]})
        with pytest.raises(ValueError, match="finite"):  # 1e308 + 1e308 at n = 2
            dirichlet_product(D, E, 4)


class TestEvaluate:
    def test_frequency_one_is_constant(self):
        x = np.array([1.0, -1.0])
        D = DirichletSeries.vector(2, {1: x})
        for s in (0.0, 2.0, 3.0 - 5.0j):
            np.testing.assert_allclose(evaluate_dirichlet(D, s), x)

    def test_frequency_two_at_one(self):
        D = DirichletSeries.vector(1, {2: [1.0]})
        np.testing.assert_allclose(evaluate_dirichlet(D, 1.0), [0.5])

    def test_linearity(self):
        rng = np.random.default_rng(7)
        D = bohr(random_power_series(rng, "vector", 2, 2, 3, 5))
        terms = {n: 2.5j * c for n, c in D.terms.items()}
        np.testing.assert_allclose(
            evaluate_dirichlet(DirichletSeries.vector(2, terms), 1.3),
            2.5j * evaluate_dirichlet(D, 1.3),
        )

    @pytest.mark.parametrize("s", [math.nan, complex(0.5, math.nan), complex(math.inf, 0.0), -math.inf])
    def test_non_finite_s_rejected(self, s):
        D = DirichletSeries.vector(1, {2: [1.0]})
        with pytest.raises(ValueError, match="s must be finite"):
            evaluate_dirichlet(D, s)

    @pytest.mark.parametrize("s", [-2000.0, complex(1.0, 1.7e308)])
    def test_monomial_beyond_the_float_range_names_s(self, s):
        # Warnings are errors in this suite, so no overflow warning escapes either.
        D = DirichletSeries.vector(1, {2: [1.0], 3: [1.0]})
        with pytest.raises(ValueError, match=re.escape(f"s={complex(s)}")):
            evaluate_dirichlet(D, s)

    @given(
        series(DirichletSeries, st.integers(min_value=1, max_value=10**6), values=NON_DYADIC),
        st.floats(min_value=-20.0, max_value=20.0),
        st.floats(min_value=-1e8, max_value=1e8),
    )
    @settings(max_examples=200, deadline=None)
    def test_within_the_rounding_bound_of_a_40_digit_sum(self, D, sigma, t):
        """Against ``sum a_n exp(-s log n)`` in 40-digit arithmetic, within
        ``evaluate_dirichlet``'s bound ``sum ||a_n|| n^-sigma (gamma_{3T+4}
        + 2 gamma_3 |s| log n)``.  With |sigma| <= 20 and n <= 10^6 no
        ``n^(-s)`` leaves the normal range."""
        s = complex(sigma, t)
        want, _ = contracted_by_mpmath(D, lambda n: mpmath.exp(-mpmath.mpc(s) * mpmath.log(n)))
        factors = _evaluate_dirichlet_rounding(D, s)
        bound = sum(float(np.linalg.norm(a)) * n**-sigma * f for (n, a), f in zip(D.terms.items(), factors))
        assert distance(evaluate_dirichlet(D, s), want) <= bound


class TestEpsilonShift:
    def test_explicit_scaling(self):
        D = DirichletSeries.vector(1, {4: [3.0]})
        np.testing.assert_allclose(
            epsilon_shift(D, 0.5).coefficient(4), [1.5]
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            epsilon_shift(DirichletSeries.vector(1), -0.1)

    @given(st.floats(min_value=0.0, max_value=3.0), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_each_coefficient_within_its_stated_rounding(self, eps, seed):
        D = bohr(random_power_series(np.random.default_rng(seed), "operator", 2, 3, 4, 8))
        for n, got in epsilon_shift(D, eps).terms.items():
            a = D.coefficient(n)
            with mpmath.workdps(40):
                want = [mpmath.mpf(n) ** -mpmath.mpf(eps) * mpmath.mpc(c) for c in a.ravel()]
            assert distance(got, want) <= _gamma(_EPSILON_SHIFT_ROUNDING) * n**-eps * np.linalg.norm(a)


class TestRecoverCoefficient:
    def test_frequency_one_is_exact_for_any_window(self):
        x = np.array([2.0, -3.0])
        D = DirichletSeries.vector(2, {1: x})
        for R in (1.0, 10.0, 123.0):
            got = recover_coefficient(D, 1, sigma=2.0, R=R, grid_points=11)
            np.testing.assert_allclose(got, x, atol=1e-14)

    def test_matches_analytic_cross_term(self):
        # single cross term: a_m (n/m)^sigma sin(R log(n/m)) / (R log(n/m))
        D = DirichletSeries.vector(1, {2: [3.0], 3: [5.0]})
        sigma = 2.0
        for R in (100.0, 400.0):
            got = recover_coefficient(D, 2, sigma, R, grid_points=int(200 * R))
            c = math.log(2.0 / 3.0)
            expected = 3.0 + 5.0 * (2.0 / 3.0) ** sigma * math.sin(R * c) / (R * c)
            assert complex(got[0]) == pytest.approx(expected, abs=1e-7)

    def test_error_decays_towards_large_windows(self):
        D = DirichletSeries.vector(1, {2: [3.0], 3: [5.0]})
        sigma = 2.0
        err_small = abs(
            complex(recover_coefficient(D, 2, sigma, 100.0, 8001)[0]) - 3.0
        )
        err_large = abs(
            complex(recover_coefficient(D, 2, sigma, 10_000.0, 200_001)[0]) - 3.0
        )
        assert err_large < err_small / 10

    def test_absent_frequency_tends_to_zero(self):
        D = DirichletSeries.vector(1, {2: [3.0], 3: [5.0]})
        got_small = np.linalg.norm(recover_coefficient(D, 5, 2.0, 100.0, 8001))
        got_large = np.linalg.norm(recover_coefficient(D, 5, 2.0, 10_000.0, 200_001))
        assert got_large < got_small
        assert got_large < 5e-3

    @pytest.mark.parametrize("R, grid_points", [(1e308, 2), (1e20, 3)])
    def test_step_without_phase_bits_is_rejected(self, R, grid_points):
        # one step spans over 2^52 turns of h log(2/3), so the reduced
        # phase keeps no bit and every weight would come out as +-1
        D = DirichletSeries.vector(1, {2: [3.0], 3: [5.0]})
        with pytest.raises(ValueError, match="turns"):
            recover_coefficient(D, 2, 2.0, R, grid_points)

    def test_parameter_validation(self):
        D = DirichletSeries.vector(1, {2: [1.0]})
        with pytest.raises(ValueError):
            recover_coefficient(D, 2, 2.0, 0.0, 100)
        with pytest.raises(ValueError):
            recover_coefficient(D, 2, 2.0, -5.0, 100)
        with pytest.raises(ValueError):
            recover_coefficient(D, 2, 2.0, 10.0, 1)
        with pytest.raises(ValueError):
            recover_coefficient(D, 0, 2.0, 10.0, 100)

    def test_operator_series_supported(self):
        A = np.array([[1.0, 2.0], [0.0, 1.0]])
        D = DirichletSeries.operator(2, {2: A})
        got = recover_coefficient(D, 2, 2.0, 500.0, 20_001)
        np.testing.assert_allclose(got, A, atol=1e-12)


class TestTransportsReuseTheirInput:
    """The transports and the shift equal the term-by-term constructor path
    bit for bit (signed zeros and subnormals included), with read-only
    coefficients."""

    @given(series(PowerSeries, small_indices))
    @settings(max_examples=200, deadline=None)
    def test_bohr(self, F):
        D = bohr(F)
        assert_same_bits(
            D, built_term_by_term(DirichletSeries, F, lambda a, c: (multiindex_to_index(a), c))
        )
        assert all(np.shares_memory(D.terms[multiindex_to_index(a)], c) for a, c in F.terms.items())

    @given(series(PowerSeries, small_indices))
    @settings(max_examples=200, deadline=None)
    def test_bohr_inverse(self, F):
        D = DirichletSeries(F.kind, F.dim, {multiindex_to_index(a): c for a, c in F.terms.items()})
        assert_same_bits(
            bohr_inverse(D),
            built_term_by_term(PowerSeries, D, lambda n, c: (index_to_multiindex(n), c)),
        )

    @given(
        series(DirichletSeries, st.integers(min_value=1, max_value=MAX_FREQUENCY)),
        st.floats(min_value=0.0, max_value=60.0, exclude_min=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_epsilon_shift(self, D, eps):
        want = built_term_by_term(DirichletSeries, D, lambda n, c: (n, n ** (-eps) * c))
        assert_same_bits(epsilon_shift(D, eps), want)

    def test_underflowing_rows_are_dropped(self):
        D = DirichletSeries.vector(1, {1: [1.0], 10**15: [1e-300]})
        shifted = epsilon_shift(D, 5.0)
        assert shifted.frequencies == (1,)
        assert not shifted.coefficient(1).flags.writeable

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_epsilon_is_named(self, eps):
        with pytest.raises(ValueError, match="epsilon"):
            epsilon_shift(DirichletSeries.vector(1, {2: [1.0]}), eps)


def trapezoid_closed_form(D, n, sigma, R, grid_points):
    """What the trapezoid rule on ``grid_points`` uniform nodes gives exactly:
    ``a_n + sum_{m != n} a_m (n/m)^sigma sin(R L)/(R L) x cot x`` with
    ``L = log(n/m)`` and ``x = h L / 2``, and ``sum |a_m| (n/m)^sigma``."""
    h = 2 * R / (grid_points - 1)
    value = D.coefficient(n).astype(complex)
    scale = 0.0
    for m, a in D.terms.items():
        L = math.log(n / m)
        weight = (n / m) ** sigma
        scale += float(np.linalg.norm(a)) * weight
        if m != n:
            x = h * L / 2
            value = value + a * weight * math.sin(R * L) / (R * L) * x / math.tan(x)
    return value, scale


class TestRecoverAgainstClosedForm:
    """``recover_coefficient`` equals the trapezoid rule's closed form within
    gamma_{P + 4} sum |a_m| (n/m)^sigma, for vector and operator series."""

    @pytest.mark.parametrize("kind", ["vector", "operator"])
    @pytest.mark.parametrize(
        "sigma, R, grid_points", [(2.0, 200.0, 8001), (0.5, 37.5, 300), (3.0, 1000.0, 6000), (1.0, 5.0, 2)]
    )
    def test_within_rounding_of_the_closed_form(self, kind, sigma, R, grid_points):
        rng = np.random.default_rng(11)
        D = bohr(random_power_series(rng, kind, 2, 3, 4, 30))
        for n in [*rng.choice(D.frequencies, 3, replace=False).tolist(), 1, 4, 1000]:
            got = recover_coefficient(D, n, sigma, R, grid_points)
            want, scale = trapezoid_closed_form(D, n, sigma, R, grid_points)
            assert got.shape == want.shape and got.dtype == np.complex128
            assert np.linalg.norm(got - want) <= _gamma(grid_points + 4) * scale

    def test_empty_series_recovers_zero(self):
        got = recover_coefficient(DirichletSeries.operator(2), 3, 2.0, 10.0, 11)
        assert got.shape == (2, 2) and got.dtype == np.complex128 and not got.any()

    @pytest.mark.parametrize(
        "sigma, R, name",
        [
            (float("nan"), 100.0, "sigma"),
            (float("inf"), 100.0, "sigma"),
            (2.0, float("inf"), "R"),
            (2.0, float("nan"), "R"),
        ],
    )
    def test_non_finite_parameters_are_named(self, sigma, R, name):
        D = DirichletSeries.vector(1, {2: [3.0], 3: [5.0]})
        with pytest.raises(ValueError, match=name):
            recover_coefficient(D, 2, sigma, R, 4001)

    def test_non_integer_grid_points_is_named(self):
        D = DirichletSeries.vector(1, {2: [3.0], 3: [5.0]})
        with pytest.raises(TypeError, match="grid_points"):
            recover_coefficient(D, 2, 2.0, 100.0, grid_points=4001.0)

    def test_target_past_64_bits_rejected(self):
        with pytest.raises(OverflowError):
            recover_coefficient(DirichletSeries.vector(1, {2: [1.0]}), MAX_FREQUENCY + 1, 2.0, 10.0, 11)

    @pytest.mark.parametrize(
        "terms, n, sigma, ratio",
        [
            ({1: [1.0]}, 2**62, 20.0, f"{2**62}/1"),  # (n/m)^sigma = 2^1240
            ({1: [1.0], 6: [2.0]}, 3, -1100.0, "3/6"),  # 2^1100
            ({5: [1.0]}, 7, 1e308, "7/5"),  # sigma * log(n/m) itself overflows
        ],
    )
    def test_overflowing_scale_names_sigma_and_ratio(self, terms, n, sigma, ratio):
        # Warnings are errors in this suite, so this also shows that the
        # overflow is reported, not warned about.
        with pytest.raises(ValueError, match=rf"sigma={re.escape(str(sigma))}.*n/m = {ratio}"):
            recover_coefficient(DirichletSeries.vector(1, terms), n, sigma, 10.0, 11)


def recovery_bound(D, n, sigma, R):
    """``recover_coefficient``'s rounding bound from its docstring, the sum
    over the terms of ``|a_m| (n/m)^sigma`` times each term's factor."""
    factors = _recover_coefficient_rounding(D, n, sigma, R)
    return sum(float(np.linalg.norm(a)) * (n / m) ** sigma * f for (m, a), f in zip(D.terms.items(), factors))


def trapezoid_by_direct_sum(D, n, sigma, R, grid_points):
    """The trapezoid rule's window average node by node in 40-digit
    arithmetic, from the exact step and logarithms: ``sum_m a_m (n/m)^sigma
    sum_k c_k cos(t_k L) / (P - 1)`` with ``c_k = 1/2`` at the two ends,
    one entry per flattened coefficient entry."""
    P = grid_points
    with mpmath.workdps(40):
        h = 2 * mpmath.mpf(R) / (P - 1)
        ends = {0, P - 1}
        total = [mpmath.mpc(0)] * int(np.prod(D.coefficient(n).shape))
        for m, a in D.terms.items():
            L = mpmath.log(mpmath.mpf(n) / m)
            average = mpmath.fsum(
                mpmath.cos(h * (k - mpmath.mpf(P - 1) / 2) * L) / (2 if k in ends else 1)
                for k in range(P)
            ) / (P - 1)
            weight = (mpmath.mpf(n) / m) ** sigma * average
            total = [t + weight * mpmath.mpc(c) for t, c in zip(total, a.ravel())]
        return total


class TestRecoverAgainstDirectSum:
    """``recover_coefficient``'s Dirichlet-kernel form equals the node-by-node
    trapezoid sum in 40 digits within the rounding bound its docstring
    derives, on windows that wrap ``h L`` past 2 pi and on windows with
    ``h L`` within 1e-9 of ``2 pi j``, where ``y cot y`` is 0 times infinity."""

    @pytest.mark.parametrize("kind", ["vector", "operator"])
    @pytest.mark.parametrize(
        "sigma, R, grid_points", [(2.0, 5.0, 2), (1.0, 5.0, 3), (0.5, 3.0, 11), (2.0, 40.0, 8001)]
    )
    def test_random_series(self, kind, sigma, R, grid_points):
        rng = np.random.default_rng(5)
        D = bohr(random_power_series(rng, kind, 2, 2, 3, 4))
        for n in [D.frequencies[0], 10]:
            got = recover_coefficient(D, n, sigma, R, grid_points)
            want = trapezoid_by_direct_sum(D, n, sigma, R, grid_points)
            assert distance(got, want) <= recovery_bound(D, n, sigma, R)

    @pytest.mark.parametrize("grid_points", [11, 12])
    @pytest.mark.parametrize("turns", [1, 3])
    @pytest.mark.parametrize("offset", [-1e-9, 1e-9])
    def test_near_whole_turns(self, grid_points, turns, offset):
        # h L = 2 pi turns + offset with h = 2R / (P - 1); for even P the
        # kernel's sign is (-1)^turns
        D = DirichletSeries.vector(1, {2: [3.0], 3: [5.0 - 1.0j]})
        R = (2 * math.pi * turns + offset) * (grid_points - 1) / (2 * abs(math.log(2 / 3)))
        got = recover_coefficient(D, 2, 2.0, R, grid_points)
        want = trapezoid_by_direct_sum(D, 2, 2.0, R, grid_points)
        assert distance(got, want) <= recovery_bound(D, 2, 2.0, R)

    def test_cost_does_not_grow_with_the_grid(self):
        # a node array would hold 2^39 cosines; the closed form
        # sin(R L) / (R L) y cot y, y = h L / 2, needs none
        D = DirichletSeries.vector(1, {2: [3.0], 3: [5.0]})
        P, R = 2**40, 50.0
        with mpmath.workdps(40):
            L = mpmath.log(mpmath.mpf(2) / 3)
            y = R / (P - 1) * L
            cross = (mpmath.mpf(2) / 3) ** 2 * mpmath.sin(R * L) / (R * L) * y / mpmath.tan(y)
            want = [3 + 5 * cross]
        got = recover_coefficient(D, 2, 2.0, R, P)
        assert distance(got, want) <= recovery_bound(D, 2, 2.0, R)
