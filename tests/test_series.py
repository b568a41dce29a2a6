"""Power-series construction, convolution, dilation, evaluation, truncation."""

import cmath
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FINITE,
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
    TruncationParams,
    bohr,
    bohr_inverse,
    dirichlet_product,
    epsilon_shift,
    evaluate_power,
    op_vec_product,
    radial_dilate,
    series_from_dict,
    series_to_dict,
    truncate,
    weighted_degree,
)
from polyhardy._linalg import _gamma
from polyhardy.series import (
    _RADIAL_DILATE_ROUNDING,
    _TAG_SORT_MIN,
    _codes,
    _evaluate_power_rounding,
    _group,
    _kept_pairs,
    _product_rounding,
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

    @pytest.mark.parametrize("cls, key", [(PowerSeries, (0,)), (DirichletSeries, 1)])
    def test_duplicate_terms_that_overflow_are_rejected(self, cls, key):
        # each 1e308 is finite; their sum is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                cls.vector(1, [(key, [1e308]), (key, [1e308])])

    def test_non_integer_dim_is_named(self):
        with pytest.raises(TypeError, match="dim"):
            PowerSeries.vector(2.0)

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

    def test_window_of_another_dim_is_rejected(self):
        F = PowerSeries.operator(2, {MultiIndex([1]): np.eye(2)})
        G = PowerSeries.vector(2, {MultiIndex(): [1.0, 2.0]})
        with pytest.raises(ValueError, match="series 2 vs window 7"):
            op_vec_product(F, G, TruncationParams(1, 3, dim=7))

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
        tol = _gamma((F.num_terms * G.num_terms + 1) * F.dim) * summed_norms(F) * summed_norms(G)
        for alpha in set(P.terms) | set(expected):
            gap = np.linalg.norm(P.coefficient(alpha) - expected.get(alpha, 0.0))
            assert gap <= tol

    @given(op_vec_operands(), st.integers(min_value=0, max_value=8))
    @settings(max_examples=100, deadline=None)
    def test_within_the_stated_rounding_of_a_40_digit_sum(self, operands, max_degree):
        """Against each coefficient's sum of products in 40-digit arithmetic,
        within the bound ``op_vec_product`` states: ``gamma_k`` times the sum
        of ``||a|| ||b||`` over the coefficient's pairs, k from
        ``_product_rounding``.  Non-dyadic values, so products round."""
        F, G = operands
        P = op_vec_product(F, G, TruncationParams(nvars=41, max_degree=max_degree, dim=F.dim))
        exact, weight = sums_of_products_by_mpmath(F, G, lambda alpha, beta: alpha + beta)
        for key in exact:
            if key.degree <= max_degree:
                assert distance(P.coefficient(key), exact[key]) <= _gamma(_product_rounding(F, G)) * weight[key]

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

    @given(st.floats(min_value=0.05, max_value=0.999), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_each_coefficient_within_its_stated_rounding(self, r, seed):
        F = random_power_series(np.random.default_rng(seed), "operator", 2, 3, 4, 8)
        for alpha, got in radial_dilate(F, r).terms.items():
            w, a = weighted_degree(alpha), F.coefficient(alpha)
            with mpmath.workdps(40):
                want = [mpmath.mpf(r) ** w * mpmath.mpc(c) for c in a.ravel()]
            assert distance(got, want) <= _gamma(_RADIAL_DILATE_ROUNDING) * r**w * np.linalg.norm(a)


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

    @pytest.mark.parametrize("point", [[math.nan], [0.1, math.nan], [complex(0.2, math.inf)]])
    def test_non_finite_point_rejected(self, point):
        F = PowerSeries.vector(1, {MultiIndex([1]): [1.0]})
        with pytest.raises(ValueError, match=r"finite .*got \[.*(nan|inf)"):
            evaluate_power(F, point)

    @given(
        series(PowerSeries, st.lists(st.integers(0, 99), max_size=3).map(MultiIndex), NON_DYADIC),
        st.lists(
            st.just(0j) | st.builds(cmath.rect, st.floats(0.25, 0.999), st.floats(-math.pi, math.pi)),
            max_size=4,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_within_the_rounding_bound_of_a_40_digit_sum(self, F, z):
        """Against ``sum a_alpha z^alpha`` in 40-digit arithmetic, within
        ``evaluate_power``'s bound ``gamma_{3(D + T)} sum ||a_alpha|| |z^alpha|``.
        Exponents stay below 100, and the point may list fewer or more
        coordinates than the series uses; nonzero coordinates have modulus
        at least 1/4, so no product underflows."""
        want, weight = contracted_by_mpmath(
            F,
            lambda alpha: mpmath.fprod(mpmath.mpc(z[j]) ** e if j < len(z) else 0 for j, e in alpha.items()),
        )
        bound = _gamma(_evaluate_power_rounding(F)) * weight
        assert distance(evaluate_power(F, z), want) <= bound

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

    def test_window_of_another_dim_is_rejected(self):
        F = PowerSeries.vector(2, {MultiIndex([1]): [1.0, 2.0]})
        with pytest.raises(ValueError, match="series 2 vs window 1"):
            truncate(F, TruncationParams(nvars=1, max_degree=3, dim=1))

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
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TruncationParams(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            # a float degree used to pass: op_vec_product kept every pair at
            # NaN while truncate dropped every term, and both floored 2.5
            ({"nvars": 1, "max_degree": math.nan, "dim": 1}, "max_degree"),
            ({"nvars": 1, "max_degree": 2.5, "dim": 1}, "max_degree"),
            ({"nvars": 1.5, "max_degree": 2, "dim": 1}, "nvars"),
            ({"nvars": 1, "max_degree": 2, "dim": "2"}, "dim"),
        ],
    )
    def test_non_integer_fields_rejected(self, kwargs, name):
        with pytest.raises(TypeError, match=name):
            TruncationParams(**kwargs)

    def test_integer_like_fields_become_ints(self):
        window = TruncationParams(np.int64(2), np.int32(3), np.int64(1))
        assert all(type(v) is int for v in (window.nvars, window.max_degree, window.dim))
        assert window == TruncationParams(2, 3, 1)


def assert_matches_term_by_term(op, F, mapping):
    """``op()`` equals the constructor path bit for bit, or both reject the
    products as not finite."""
    try:
        want = built_term_by_term(PowerSeries, F, mapping)
    except ValueError:
        with pytest.raises(ValueError, match="finite"):
            op()
    else:
        assert_same_bits(op(), want)


scalars = st.one_of(
    FINITE,
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(2**70), max_value=2**70),
)


class TestScalingsShareOneArrayPath:
    """Scalar multiples, dilations and truncations equal the term-by-term
    constructor path bit for bit, signed zeros and subnormals included, and
    hold read-only coefficients."""

    @given(series(PowerSeries, small_indices), scalars)
    @settings(max_examples=300, deadline=None)
    def test_scalar_multiple(self, F, scalar):
        assert_matches_term_by_term(lambda: scalar * F, F, lambda a, c: (a, scalar * c))
        assert_matches_term_by_term(lambda: F * scalar, F, lambda a, c: (a, scalar * c))

    @given(
        series(PowerSeries, small_indices),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_radial_dilate(self, F, r):
        assert_matches_term_by_term(
            lambda: radial_dilate(F, r), F, lambda a, c: (a, r ** weighted_degree(a) * c)
        )

    @given(
        series(PowerSeries, small_indices),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_truncate_shares_the_kept_coefficients(self, F, nvars, max_degree):
        window = TruncationParams(nvars=nvars, max_degree=max_degree, dim=F.dim)
        kept = [(a, c) for a, c in F.terms.items() if a.degree <= max_degree and len(a) <= nvars]
        got = truncate(F, window)
        assert_same_bits(got, PowerSeries(F.kind, F.dim, kept))
        # one gather of F's stack; each coefficient handed out is a view of it
        assert all(np.shares_memory(got.terms[a], got._coeffs) for a, _ in kept)

    def test_overflowing_scalar_multiple_raises(self):
        F = PowerSeries.vector(1, {MultiIndex(): [1e300], MultiIndex([1]): [1.0]})
        with pytest.raises(ValueError, match="finite"):
            1e300 * F
        with pytest.raises(ValueError, match="finite"):
            F * complex(1e300, 1e300)


def lazily_built(F):
    """``F`` rebuilt from its key arrays through the Bohr round trip, so
    that its ``terms`` are built on first access, not by the constructor."""
    return bohr_inverse(bohr(F))


class TestHeldArrays:
    """A series holds key arrays and one coefficient stack; ``terms`` is
    built from them on first access and behaves like the constructor's."""

    @given(series(PowerSeries, small_indices))
    @settings(max_examples=200, deadline=None)
    def test_lazy_terms_equal_the_constructor_terms(self, F):
        G = lazily_built(F)
        assert G._terms is None
        assert_same_bits(G, F)
        assert G._terms is not None  # cached
        assert G._coeffs is F._coeffs
        assert all(np.shares_memory(a, b) for a, b in zip(G.terms.values(), F.terms.values()))

    @given(series(PowerSeries, small_indices), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_equality_ignores_insertion_order(self, F, random):
        items = list(F.terms.items())
        random.shuffle(items)
        shuffled = PowerSeries(F.kind, F.dim, items)
        assert shuffled == F and lazily_built(shuffled) == F
        assert bohr(shuffled) == bohr(F)
        assert lazily_built(shuffled).support == F.support

    @given(series(PowerSeries, small_indices), st.data())
    @settings(max_examples=300, deadline=None)
    def test_sum_is_built_like_the_merged_constructor(self, F, data):
        """Against merging the two term maps one key at a time and building
        the result through the constructor; overflow raises alike."""
        drawn = data.draw(terms(small_indices, F.kind, F.dim, values=FINITE))
        G = PowerSeries(F.kind, F.dim, drawn)
        merged = dict(F.terms)
        with np.errstate(over="ignore", invalid="ignore"):  # the constructor reports it
            for alpha, coeff in G.terms.items():
                merged[alpha] = merged[alpha] + coeff if alpha in merged else coeff
        try:
            want = PowerSeries(F.kind, F.dim, merged)
        except ValueError:
            with pytest.raises(ValueError, match="finite"):
                F + G
            return
        assert_same_bits(F + G, want)
        assert_same_bits(lazily_built(F) + lazily_built(G), want)

    def test_zero_rows_and_unused_columns_are_dropped(self):
        F = PowerSeries.vector(1, {MultiIndex([1, 0, 2]): [1e-300], MultiIndex([0, 1]): [1.0]})
        scaled = 1e-300 * F
        assert list(scaled.terms) == [MultiIndex([0, 1])]
        assert scaled._columns.tolist() == [1] and scaled._keys.tolist() == [[1]]
        assert scaled.nvars_used == 2 and scaled.total_degree == 1
        empty = 0.0 * F
        assert empty.is_zero and empty._keys.shape == (0, 0) and empty._coeffs.shape == (0, 1)
        assert dict(empty.terms) == {}

    def test_every_stack_is_read_only(self):
        rng = np.random.default_rng(3)
        F = random_power_series(rng, "operator", 2, 3, 3, 6)
        G = random_power_series(rng, "vector", 2, 3, 3, 6)
        window = TruncationParams(nvars=2, max_degree=3, dim=2)
        for S in (F, G, op_vec_product(F, G, window), truncate(G, window), 2.0 * G,
                  radial_dilate(G, 0.5), bohr(G), lazily_built(G)):
            assert not S._coeffs.flags.writeable
            assert not any(c.flags.writeable for c in S.terms.values())

    def test_seriesio_round_trip_of_a_lazy_series(self):
        F = random_power_series(np.random.default_rng(4), "operator", 2, 3, 3, 6)
        for S in (lazily_built(F), bohr(F)):
            assert series_from_dict(series_to_dict(S)) == S
        assert series_to_dict(lazily_built(F)) == series_to_dict(F)

    def test_array_paths_do_not_build_terms(self):
        rng = np.random.default_rng(5)
        F = lazily_built(random_power_series(rng, "operator", 2, 3, 3, 6))
        G, H = (lazily_built(random_power_series(rng, "vector", 2, 3, 3, 6)) for _ in range(2))
        window = TruncationParams(nvars=3, max_degree=4, dim=2)
        product = op_vec_product(F, G, window)
        D, E = bohr(F), bohr(G)
        made = [product, D, E, bohr_inverse(E), G + H, G - H, truncate(G, window)]
        made += [dirichlet_product(D, E, 10**6), epsilon_shift(E, 0.5), radial_dilate(G, 0.5)]
        assert all(S._terms is None for S in (F, G, H, *made))

    def test_total_degree_beyond_int64_is_rejected(self):
        with pytest.raises(OverflowError, match="total degree"):
            PowerSeries.vector(1, {MultiIndex([2**62, 2**62]): [1.0]})
        with pytest.raises(OverflowError):
            PowerSeries.vector(1, {MultiIndex([2**63]): [1.0]})
        F = PowerSeries.vector(1, {MultiIndex([2**62, 2**62 - 1]): [1.0]})
        assert F.total_degree == 2**63 - 1

    @pytest.mark.parametrize(
        "make_key, message",
        [
            (lambda: MultiIndex([2**63]), r"exponent 9223372036854775808 at position 0 of multi-index MultiIndex\(\[9223372036854775808\]\)"),
            (lambda: MultiIndex([0, 2**63 - 1]), None),
            (lambda: MultiIndex.from_items([(2**63 - 1, 1)]), r"position 9223372036854775807"),
            (lambda: MultiIndex.from_items([(2**63 - 2, 1)]), None),
        ],
        ids=["exponent", "largest-exponent", "position", "largest-position"],
    )
    def test_exponent_or_position_beyond_int64_is_named(self, make_key, message):
        # a key beyond int64 is named (a position as the key is built); one at the edge is held
        if message is None:
            key = make_key()
            assert PowerSeries.vector(1, {MultiIndex([1]): [2.0], key: [1.0]}).terms[key] == 1.0
        else:
            with pytest.raises(OverflowError, match=message + " exceeds the 64-bit range"):
                PowerSeries.vector(1, {MultiIndex([1]): [2.0], make_key(): [1.0]})

    def test_weighted_degrees_are_exact_past_int64(self):
        alpha = MultiIndex.from_items([(40, 2**60)])
        F = PowerSeries.vector(1, {alpha: [1.0], MultiIndex([3]): [2.0]})
        assert F.max_weighted_degree == weighted_degree(alpha) == 41 * 2**60
        assert list(radial_dilate(F, 0.5).terms) == [MultiIndex([3])]


def numpy_grouping(keys):
    """``_group``'s result by numpy's stable sorts: ``np.argsort(kind="stable")``
    of 1-d keys or ``np.lexsort`` of rows, and where each run of equal keys starts."""
    if keys.ndim == 1:
        order = np.argsort(keys, kind="stable")
    else:
        order = np.lexsort(keys.T[::-1]) if keys.shape[1] else np.arange(len(keys))
    ordered = keys[order]
    changed = ordered[1:] != ordered[:-1]
    if keys.ndim == 2:
        changed = changed.any(axis=1)
    return order, np.flatnonzero(np.concatenate([[True], changed])) if len(keys) else np.zeros(0, np.intp)


def assert_groups_like_numpy(keys, tagged):
    """``_group(keys)`` equals ``numpy_grouping``; ``tagged`` says whether the
    int64 tag sort serves these keys (at least ``_TAG_SORT_MIN`` of them,
    and tags within int64)."""
    assert (len(keys) >= _TAG_SORT_MIN and _codes(keys) is not None) == tagged
    order, starts = _group(keys)
    want_order, want_starts = numpy_grouping(keys)
    assert np.array_equal(order, want_order) and np.array_equal(starts, want_starts)


class TestStableOrder:
    """``series._group`` sorts int64 tags ``code * n + index`` from
    ``_TAG_SORT_MIN`` keys on; the order and runs are exactly those of
    numpy's stable sorts, on both sides of that count and of the int64
    tag bound."""

    SIZES = [0, 1, 2, 63, _TAG_SORT_MIN - 1, _TAG_SORT_MIN, _TAG_SORT_MIN + 1, 1500]

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("width, high", [(0, 1), (1, 5), (4, 3), (5, 8), (3, 2**17), (3, 2**20)])
    def test_rows_group_like_lexsort(self, n, width, high):
        keys = np.random.default_rng(n * 7 + width).integers(0, high, (n, width))
        # radices of at most ``high``: 2^60 n passes 2^63, 2^51 n does not
        assert_groups_like_numpy(keys, n >= _TAG_SORT_MIN and high**width * n <= 2**63)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("high", [3, 10**6, 2**40])
    def test_frequencies_group_like_stable_argsort(self, n, high):
        keys = np.random.default_rng(n + high % 97).integers(1, high, n)
        assert_groups_like_numpy(keys, n >= _TAG_SORT_MIN)

    @pytest.mark.parametrize("n", [_TAG_SORT_MIN, 1024])
    def test_tag_bound_of_rows(self, n):
        # radices 2^27 and 2^(36 - log2 n) give (largest code + 1) * n = 2^63 exactly
        rng = np.random.default_rng(n)
        radices = [2**27, 2**36 // n]
        keys = np.column_stack([rng.integers(0, 2, n) * (r // 2) for r in radices])
        keys[:2] = np.array(radices) - 1  # the largest row, twice
        assert_groups_like_numpy(keys, True)
        keys[0, 1] += 1  # one more in the last radix: the tags would pass 2^63
        assert_groups_like_numpy(keys, False)

    @pytest.mark.parametrize("n", [1, _TAG_SORT_MIN - 1, _TAG_SORT_MIN, 2000])
    def test_tag_bound_of_frequencies(self, n):
        rng = np.random.default_rng(n)
        largest = 2**63 // 2 ** (n - 1).bit_length() - 1  # (largest + 1) * n <= 2^63
        keys = rng.choice(np.array([1, 2, largest // 3, largest], dtype=np.int64), n)
        assert_groups_like_numpy(keys, n >= _TAG_SORT_MIN)
        keys[-1] = 2**63 - 1  # the largest frequency: tags would pass 2^63
        assert_groups_like_numpy(keys, False)

    @pytest.mark.parametrize("n", [0, 1, 100, _TAG_SORT_MIN, 3000])
    def test_kept_pairs_like_the_stable_argsort_construction(self, n):
        rng = np.random.default_rng(n)
        scalars = rng.integers(0, 12, n)
        thresholds = rng.integers(-1, 14, 40)
        order = np.argsort(scalars, kind="stable")
        counts = np.searchsorted(scalars[order], thresholds, side="right")
        want_i = np.repeat(np.arange(len(thresholds)), counts)
        want_j = order[np.arange(len(want_i)) - np.repeat(np.cumsum(counts) - counts, counts)]
        i, j = _kept_pairs(thresholds, scalars)
        assert np.array_equal(i, want_i) and np.array_equal(j, want_j)

    def test_large_merges_sum_as_numpy_grouping_does(self):
        # 600 keys over at most 27 distinct rows, past the tag switch
        rng = np.random.default_rng(8)
        rows = rng.integers(0, 3, (600, 3))
        values = rng.standard_normal((600, 2)) + 1j * rng.standard_normal((600, 2))
        got = PowerSeries.vector(2, [(MultiIndex(row), v) for row, v in zip(rows, values)])
        order, starts = numpy_grouping(rows)
        sums = np.add.reduceat(values[order], starts)
        firsts = order[starts]
        want = {MultiIndex(rows[firsts[k]]): sums[k] for k in np.argsort(firsts)}
        assert list(got.terms) == list(want)
        assert all(np.array_equal(got.terms[k], v) for k, v in want.items())
