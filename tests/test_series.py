"""Power-series construction, convolution, dilation, evaluation, truncation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gamma, random_power_series, summed_norms, terms
from polyhardy import (
    MultiIndex,
    PowerSeries,
    TruncationParams,
    evaluate_power,
    h2_norm,
    op_vec_product,
    radial_dilate,
    truncate,
)


def dense_convolution_oracle(F, G, max_degree):
    """Brute-force oracle: pad both factors to dense arrays and run the
    double loop over all index pairs, keeping total degree <= max_degree."""
    nvars = max(F.nvars_used, G.nvars_used, 1)
    out = {}
    for beta in F.support:
        a = F.terms[beta]
        b_exps = tuple(beta[i] for i in range(nvars))
        for gamma in G.support:
            g_exps = tuple(gamma[i] for i in range(nvars))
            summed = tuple(x + y for x, y in zip(b_exps, g_exps))
            if sum(summed) > max_degree:
                continue
            key = MultiIndex(summed)
            out[key] = out.get(key, 0) + a @ G.terms[gamma]
    return {k: v for k, v in out.items() if np.linalg.norm(v) > 0}


class TestConstruction:
    def test_zero_coefficients_never_stored(self):
        F = PowerSeries.vector(2, {MultiIndex([1]): [0.0, 0.0]})
        assert F.is_zero
        assert F.num_terms == 0

    def test_duplicate_terms_accumulate(self):
        F = PowerSeries.vector(1, [(MultiIndex([1]), [1.0]), ((1,), [2.0])])
        assert F.coefficient(MultiIndex([1]))[0] == pytest.approx(3.0)

    def test_cancellation_prunes(self):
        F = PowerSeries.vector(1, [((1,), [1.0]), ((1,), [-1.0])])
        assert F.is_zero

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PowerSeries.vector(2, {MultiIndex(): [1.0, 2.0, 3.0]})
        with pytest.raises(ValueError):
            PowerSeries.operator(2, {MultiIndex(): [1.0, 2.0]})

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            PowerSeries.vector(1, {MultiIndex(): [np.nan]})
        with pytest.raises(ValueError):
            PowerSeries.vector(1, {MultiIndex(): [np.inf + 0j]})

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            PowerSeries("matrix", 2)

    def test_coefficients_are_read_only(self):
        F = PowerSeries.vector(1, {MultiIndex(): [1.0]})
        with pytest.raises(ValueError):
            F.coefficient(MultiIndex())[0] = 5.0

    def test_support_in_graded_lex_order(self):
        F = PowerSeries.vector(
            1, {MultiIndex([2]): [1.0], MultiIndex(): [1.0], MultiIndex([0, 1]): [1.0]}
        )
        assert [tuple(a.exponents) for a in F.support] == [(), (0, 1), (2,)]

    def test_constant_inference(self):
        assert PowerSeries.constant([1.0, 2.0]).kind == "vector"
        assert PowerSeries.constant(np.eye(3)).kind == "operator"

    def test_metadata(self):
        F = PowerSeries.vector(1, {MultiIndex([0, 2, 1]): [1.0]})
        assert F.total_degree == 3
        assert F.max_weighted_degree == 0 * 1 + 2 * 2 + 1 * 3
        assert F.nvars_used == 3


class TestArithmetic:
    def test_add_sub_scalar(self):
        F = PowerSeries.vector(1, {MultiIndex(): [1.0]})
        G = PowerSeries.vector(1, {MultiIndex([1]): [2.0]})
        H = F + 2 * G - G
        assert H.coefficient(MultiIndex([1]))[0] == pytest.approx(2.0)
        assert (F - F).is_zero

    def test_mixed_kind_add_rejected(self):
        with pytest.raises(ValueError):
            PowerSeries.vector(1) + PowerSeries.operator(1)


class TestOpVecProduct:
    def test_constant_symbol_scales_every_coefficient(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        F = PowerSeries.operator(2, {MultiIndex(): A})
        G = random_power_series(rng, "vector", 2, 2, 3, 5)
        window = TruncationParams(nvars=2, max_degree=3, dim=2)
        P = op_vec_product(F, G, window)
        assert set(P.terms) == set(G.terms)
        for alpha in G.support:
            np.testing.assert_allclose(P.coefficient(alpha), A @ G.coefficient(alpha))

    def test_single_term_convolution(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.array([1.0, 2.0])
        F = PowerSeries.operator(2, {MultiIndex([1]): A})
        G = PowerSeries.vector(2, {MultiIndex([0, 1]): b})
        window = TruncationParams(nvars=2, max_degree=2, dim=2)
        P = op_vec_product(F, G, window)
        assert P.support == (MultiIndex([1, 1]),)
        np.testing.assert_allclose(P.coefficient(MultiIndex([1, 1])), A @ b)

    def test_against_dense_double_loop_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            F = random_power_series(rng, "operator", 2, 2, 2, 4)
            G = random_power_series(rng, "vector", 2, 2, 2, 4)
            window = TruncationParams(nvars=2, max_degree=2, dim=2)
            P = op_vec_product(F, G, window)
            expected = dense_convolution_oracle(F, G, 2)
            assert set(P.terms) == set(expected)
            for alpha, coeff in expected.items():
                np.testing.assert_allclose(
                    P.coefficient(alpha), coeff, rtol=1e-13, atol=1e-13
                )

    def test_bilinearity(self):
        rng = np.random.default_rng(3)
        window = TruncationParams(nvars=2, max_degree=4, dim=2)
        F = random_power_series(rng, "operator", 2, 2, 2, 4)
        G1 = random_power_series(rng, "vector", 2, 2, 2, 4)
        G2 = random_power_series(rng, "vector", 2, 2, 2, 4)
        lam = 0.7 - 0.2j
        left = op_vec_product(F, G1 + lam * G2, window)
        right = op_vec_product(F, G1, window) + lam * op_vec_product(F, G2, window)
        assert left.allclose(right, rtol=1e-12, atol=1e-12)

    def test_kind_and_dim_mismatch(self):
        window = TruncationParams(nvars=1, max_degree=1, dim=2)
        with pytest.raises(ValueError, match="kind"):
            op_vec_product(PowerSeries.vector(2), PowerSeries.vector(2), window)
        with pytest.raises(ValueError, match="dimension"):
            op_vec_product(PowerSeries.operator(3), PowerSeries.vector(2), window)

    def test_degree_truncation_during_accumulation(self):
        F = PowerSeries.operator(1, {MultiIndex([2]): [[1.0]]})
        G = PowerSeries.vector(1, {MultiIndex([1]): [1.0], MultiIndex(): [1.0]})
        window = TruncationParams(nvars=1, max_degree=2, dim=1)
        P = op_vec_product(F, G, window)
        assert P.support == (MultiIndex([2]),)  # the degree-3 term is dropped


#: Keys on the first three variables plus keys at sparse high positions.
power_keys = st.one_of(
    st.lists(st.integers(min_value=0, max_value=3), max_size=3).map(MultiIndex),
    st.sampled_from(
        [MultiIndex.from_items([(40, 1)]), MultiIndex.from_items([(1, 1), (40, 2)])]
    ),
)


@st.composite
def op_vec_operands(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    return (
        PowerSeries("operator", dim, draw(terms(power_keys, "operator", dim))),
        PowerSeries("vector", dim, draw(terms(power_keys, "vector", dim))),
    )


class TestOpVecProductAgainstOracle:
    """The array-form convolution against the dense double loop, on every
    window: coefficientwise within gamma_{(T_F T_G + 1) d} sum|a| sum|b|."""

    @given(
        op_vec_operands(),
        st.integers(min_value=1, max_value=42),
        st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_oracle(self, operands, nvars, max_degree):
        F, G = operands
        P = op_vec_product(F, G, TruncationParams(nvars=nvars, max_degree=max_degree, dim=F.dim))
        expected = {
            alpha: c
            for alpha, c in dense_convolution_oracle(F, G, max_degree).items()
            if len(alpha) <= nvars
        }
        assert all(a.degree <= max_degree and len(a) <= nvars for a in P.terms)
        tol = gamma((F.num_terms * G.num_terms + 1) * F.dim) * summed_norms(F) * summed_norms(G)
        for alpha in set(P.terms) | set(expected):
            gap = np.linalg.norm(P.coefficient(alpha) - expected.get(alpha, 0.0))
            assert gap <= tol

    def test_empty_operands(self):
        window = TruncationParams(nvars=2, max_degree=3, dim=2)
        F = PowerSeries.operator(2, {MultiIndex([1]): np.eye(2)})
        G = PowerSeries.vector(2, {MultiIndex([0, 1]): [1.0, 2.0]})
        for left, right in ((PowerSeries.operator(2), G), (F, PowerSeries.vector(2))):
            P = op_vec_product(left, right, window)
            assert P.is_zero and P.kind == "vector" and P.dim == 2

    def test_sparse_high_position_keys(self):
        high = MultiIndex.from_items([(40, 1)])
        F = PowerSeries.operator(1, {high: [[2.0]], MultiIndex(): [[1.0]]})
        G = PowerSeries.vector(1, {high: [3.0]})
        P = op_vec_product(F, G, TruncationParams(nvars=41, max_degree=2, dim=1))
        assert P.terms.keys() == {high, high + high}
        assert P.coefficient(high + high)[0] == 6.0
        assert op_vec_product(F, G, TruncationParams(nvars=40, max_degree=2, dim=1)).is_zero

    def test_overflowing_coefficients_raise(self):
        window = TruncationParams(nvars=1, max_degree=2, dim=1)
        big = PowerSeries.operator(1, {MultiIndex(): [[1e308]], MultiIndex([1]): [[1e308]]})
        one = PowerSeries.vector(1, {MultiIndex(): [1.0], MultiIndex([1]): [1.0]})
        with pytest.raises(ValueError, match="finite"):
            op_vec_product(big, PowerSeries.vector(1, {MultiIndex(): [10.0]}), window)
        with pytest.raises(ValueError, match="finite"):  # 1e308 + 1e308 at z^1
            op_vec_product(big, one, window)


class TestRadialDilate:
    def test_constant_unchanged(self):
        F = PowerSeries.vector(1, {MultiIndex(): [3.0]})
        assert radial_dilate(F, 0.5) == F

    def test_second_variable_weight(self):
        F = PowerSeries.vector(1, {MultiIndex([0, 1]): [1.0]})
        G = radial_dilate(F, 0.5)
        assert G.coefficient(MultiIndex([0, 1]))[0] == pytest.approx(0.25)

    def test_radius_one_is_identity(self):
        F = PowerSeries.vector(1, {MultiIndex([1]): [1.0]})
        assert radial_dilate(F, 1.0) is F

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.1])
    def test_radius_validation(self, bad):
        with pytest.raises(ValueError):
            radial_dilate(PowerSeries.vector(1), bad)

    def test_h2_contraction(self):
        rng = np.random.default_rng(5)
        F = random_power_series(rng, "vector", 2, 3, 4, 8)
        assert h2_norm(radial_dilate(F, 0.9)) <= h2_norm(F)

    def test_multiplicative_over_products(self):
        rng = np.random.default_rng(11)
        window = TruncationParams(nvars=2, max_degree=4, dim=2)
        F = random_power_series(rng, "operator", 2, 2, 2, 4)
        G = random_power_series(rng, "vector", 2, 2, 2, 4)
        r = 0.8
        left = radial_dilate(op_vec_product(F, G, window), r)
        right = op_vec_product(radial_dilate(F, r), radial_dilate(G, r), window)
        assert set(left.terms) == set(right.terms)
        assert left.allclose(right, rtol=1e-13, atol=1e-15)


class TestEvaluate:
    def test_constant(self):
        x = np.array([1.0, -2.0])
        F = PowerSeries.vector(2, {MultiIndex(): x})
        np.testing.assert_allclose(evaluate_power(F, [0.3 + 0.1j]), x)

    def test_linear_term(self):
        F = PowerSeries.vector(1, {MultiIndex([1]): [1.0]})
        np.testing.assert_allclose(evaluate_power(F, [0.5]), [0.5])

    @pytest.mark.parametrize(
        "start, expected",
        [(0, 1.875), (1, 0.9375)],
        ids=["k=0..3", "k=1..4"],
    )
    def test_geometric_partial_sums(self, start, expected):
        # partial-sum formula: sum_{k=a}^{b} z^k = (z^a - z^{b+1}) / (1 - z)
        z = 0.5
        K = 4
        F = PowerSeries.vector(
            1, {MultiIndex([k]): [1.0] for k in range(start, start + K)}
        )
        formula = (z**start - z ** (start + K)) / (1 - z)
        assert formula == pytest.approx(expected)
        np.testing.assert_allclose(evaluate_power(F, [z]), [formula])

    def test_short_point_pads_with_zeros(self):
        F = PowerSeries.vector(1, {MultiIndex(): [1.0], MultiIndex([0, 0, 2]): [5.0]})
        np.testing.assert_allclose(evaluate_power(F, [0.5]), [1.0])

    def test_boundary_rejected(self):
        F = PowerSeries.vector(1, {MultiIndex([1]): [1.0]})
        with pytest.raises(ValueError):
            evaluate_power(F, [1.0])
        with pytest.raises(ValueError):
            evaluate_power(F, [0.5, 1.2])

    def test_evaluation_homomorphism(self):
        rng = np.random.default_rng(8)
        F = random_power_series(rng, "operator", 2, 2, 2, 4)
        G = random_power_series(rng, "vector", 2, 2, 2, 4)
        window = TruncationParams(nvars=2, max_degree=4, dim=2)  # lossless
        P = op_vec_product(F, G, window)
        z = np.array([0.4 - 0.2j, 0.1 + 0.5j])
        np.testing.assert_allclose(
            evaluate_power(P, z),
            evaluate_power(F, z) @ evaluate_power(G, z),
            rtol=1e-12,
            atol=1e-12,
        )


class TestTruncate:
    def test_within_bounds_unchanged(self):
        rng = np.random.default_rng(2)
        F = random_power_series(rng, "vector", 2, 2, 3, 5)
        window = TruncationParams(nvars=2, max_degree=3, dim=2)
        assert truncate(F, window) == F

    def test_drops_extra_variables(self):
        F = PowerSeries.vector(1, {MultiIndex([0, 0, 1]): [1.0]})
        window = TruncationParams(nvars=2, max_degree=5, dim=1)
        assert truncate(F, window).is_zero

    def test_drops_high_degree(self):
        F = PowerSeries.vector(
            1, {MultiIndex(): [1.0], MultiIndex([3]): [1.0]}
        )
        window = TruncationParams(nvars=1, max_degree=2, dim=1)
        assert truncate(F, window).support == (MultiIndex(),)

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        F = random_power_series(rng, "vector", 1, 3, 5, 10)
        window = TruncationParams(nvars=2, max_degree=2, dim=1)
        once = truncate(F, window)
        assert truncate(once, window) == once


class TestTruncationParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nvars": 0, "max_degree": 1, "dim": 1},
            {"nvars": 1, "max_degree": -1, "dim": 1},
            {"nvars": 1, "max_degree": 1, "dim": 0},
            {"nvars": 1, "max_degree": 1, "dim": 1, "exponent": 0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TruncationParams(**kwargs)

    def test_infinite_exponent_allowed(self):
        assert TruncationParams(1, 1, 1, exponent=np.inf).exponent == np.inf
