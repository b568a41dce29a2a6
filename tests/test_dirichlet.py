"""Bohr transform, divisor convolution, evaluation, shifts, recovery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gamma, random_power_series, summed_norms, terms
from polyhardy import (
    DirichletSeries,
    HalfPlanePoint,
    MultiIndex,
    PowerSeries,
    TruncationParams,
    bohr,
    bohr_inverse,
    dirichlet_product,
    epsilon_shift,
    evaluate_dirichlet,
    h2_norm,
    max_frequency_for_simplex,
    op_vec_product,
    recover_coefficient,
)
from polyhardy.multiindex import MAX_FREQUENCY


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
            st.integers(min_value=-3, max_value=4000),
            st.integers(min_value=-(2**70), max_value=2**70),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_divisor_pair_oracle(self, operands, max_frequency):
        D, E = operands
        P = dirichlet_product(D, E, max_frequency)
        expected = divisor_pair_oracle(D, E, max_frequency)
        assert all(n <= max_frequency for n in P.frequencies)
        tol = gamma((D.num_terms * E.num_terms + 1) * D.dim) * summed_norms(D) * summed_norms(E)
        for n in set(P.frequencies) | set(expected):
            assert np.linalg.norm(P.coefficient(n) - expected.get(n, 0.0)) <= tol

    def test_kept_product_past_64_bits_raises(self):
        D = DirichletSeries.operator(1, {1: [[1.0]], 3: [[1.0]]})
        E = DirichletSeries.vector(1, {2**62: [1.0]})
        with pytest.raises(OverflowError, match=str(3 * 2**62)):
            dirichlet_product(D, E, 2**64)
        # 3 * 2^62 lies outside these windows, so nothing overflows
        for max_frequency in (MAX_FREQUENCY, 2**63, 3 * 2**62 - 1):
            assert dirichlet_product(D, E, max_frequency).frequencies == (2**62,)

    @pytest.mark.parametrize("max_frequency", [0, -1, -(2**70)])
    def test_empty_window_gives_zero(self, max_frequency):
        D = DirichletSeries.operator(1, {1: [[1.0]], 2: [[2.0]]})
        E = DirichletSeries.vector(1, {1: [1.0]})
        P = dirichlet_product(D, E, max_frequency)
        assert P.is_zero and P.kind == "vector"

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


class TestIntertwining:
    def test_bohr_intertwines_products(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            nvars = int(rng.integers(1, 4))
            dim = int(rng.integers(1, 4))
            F = random_power_series(rng, "operator", dim, nvars, 3, 4)
            G = random_power_series(rng, "vector", dim, nvars, 3, 4)
            window = TruncationParams(
                nvars=nvars, max_degree=F.total_degree + G.total_degree, dim=dim
            )
            left = bohr(op_vec_product(F, G, window))
            right = dirichlet_product(
                bohr(F),
                bohr(G),
                max_frequency_for_simplex(nvars, window.max_degree),
            )
            assert left.frequencies == right.frequencies
            for n in left.frequencies:
                np.testing.assert_allclose(
                    left.coefficient(n), right.coefficient(n), atol=1e-12
                )


class TestEvaluate:
    def test_frequency_one_is_constant(self):
        x = np.array([1.0, -1.0])
        D = DirichletSeries.vector(2, {1: x})
        for s in (0.0, 2.0, HalfPlanePoint(3.0, -5.0)):
            np.testing.assert_allclose(evaluate_dirichlet(D, s), x)

    def test_frequency_two_at_one(self):
        D = DirichletSeries.vector(1, {2: [1.0]})
        np.testing.assert_allclose(evaluate_dirichlet(D, 1.0), [0.5])

    def test_halfplane_point_equals_complex(self):
        rng = np.random.default_rng(5)
        D = bohr(random_power_series(rng, "vector", 2, 2, 3, 5))
        np.testing.assert_allclose(
            evaluate_dirichlet(D, HalfPlanePoint(1.5, 2.0)),
            evaluate_dirichlet(D, 1.5 + 2.0j),
        )

    def test_product_evaluation_factorizes(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            dim = int(rng.integers(1, 4))
            D = bohr(random_power_series(rng, "operator", dim, 2, 2, 4))
            E = bohr(random_power_series(rng, "vector", dim, 2, 2, 4))
            P = dirichlet_product(D, E, max_frequency_for_simplex(2, 4))
            s = 2.0
            lhs = evaluate_dirichlet(P, s)
            rhs = evaluate_dirichlet(D, s) @ evaluate_dirichlet(E, s)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        D = bohr(random_power_series(rng, "vector", 2, 2, 3, 5))
        terms = {n: 2.5j * c for n, c in D.terms.items()}
        np.testing.assert_allclose(
            evaluate_dirichlet(DirichletSeries.vector(2, terms), 1.3),
            2.5j * evaluate_dirichlet(D, 1.3),
        )


class TestEpsilonShift:
    def test_zero_is_identity(self):
        rng = np.random.default_rng(8)
        D = bohr(random_power_series(rng, "vector", 2, 2, 3, 5))
        assert epsilon_shift(D, 0.0) == D

    def test_explicit_scaling(self):
        D = DirichletSeries.vector(1, {4: [3.0]})
        np.testing.assert_allclose(
            epsilon_shift(D, 0.5).coefficient(4), [1.5]
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            epsilon_shift(DirichletSeries.vector(1), -0.1)

    def test_norm_nonincreasing_in_eps(self):
        rng = np.random.default_rng(9)
        D = bohr(random_power_series(rng, "vector", 2, 3, 3, 8))
        norms = [h2_norm(epsilon_shift(D, 0.1 * k)) for k in range(11)]
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-15

    def test_semigroup_law(self):
        rng = np.random.default_rng(10)
        D = bohr(random_power_series(rng, "vector", 2, 2, 3, 6))
        twice = epsilon_shift(epsilon_shift(D, 0.3), 0.45)
        once = epsilon_shift(D, 0.75)
        assert twice.frequencies == once.frequencies
        assert twice.allclose(once, rtol=1e-13, atol=0.0)


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
