"""Compression matrices, operator norms, schedules, consistency checks."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grid_cell, grid_values_by_term, random_power_series, terms
from polyhardy import (
    MultiIndex,
    PowerSeries,
    TorusGrid,
    TruncationParams,
    assemble_compression,
    bohr,
    diagonal_example,
    hinf_norm,
    multiindex_to_index,
    multiplier_norm_schedule,
    op_vec_product,
    operator_norm,
    pointwise_vs_symbolic,
    radial_dilate,
    simplex,
    truncate,
)
from polyhardy._linalg import _U, _gamma, _operator_norm_rounding, _row_norms
from polyhardy.hardy import _dft, _pointwise_vs_symbolic_rounding
from polyhardy.multiplier import _schedule_error_bound


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(5)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert operator_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-10)

    def test_matches_dense_svd_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            M = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
            expected = np.linalg.svd(M, compute_uv=False)[0]
            assert operator_norm(M) == pytest.approx(expected, abs=1e-8)

    def test_rectangular(self):
        rng = np.random.default_rng(12)
        M = rng.standard_normal((7, 4))
        expected = np.linalg.svd(M, compute_uv=False)[0]
        assert operator_norm(M) == pytest.approx(expected, abs=1e-10)

    def test_zero_and_empty(self):
        assert operator_norm(np.zeros((3, 3))) == 0.0
        assert operator_norm(np.zeros((0, 0))) == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            operator_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        M = rng.standard_normal((15, 15))
        assert operator_norm(M) == operator_norm(M)

    def test_entry_whose_modulus_overflows_is_inf(self):
        """|1.5e308 (1 + i)| is beyond the doubles, and LAPACK's SVD of the
        matrix, scaled by that overflowed modulus, is NaN."""
        assert operator_norm([[1.5e308 + 1.5e308j, 0], [0, 1]]) == math.inf

    def test_never_nan_and_numpys_bits_where_finite(self):
        """Random complex matrices of order 1-4, with real and imaginary
        parts in (-2, 2), at every power-of-two scale 2^-1074 .. 2^1023:
        the value taken directly is ``np.linalg.norm(M, 2)``, and only a
        value that is not finite is taken again."""
        rng = np.random.default_rng(0)
        taken_again = 0
        for e in range(-1074, 1024):
            for n in (1, 2, 3, 4):
                M = (rng.uniform(-2, 2, (n, n)) + 1j * rng.uniform(-2, 2, (n, n))) * 2.0**e
                value, direct = operator_norm(M), float(np.linalg.norm(M, 2))
                assert not math.isnan(value)
                if math.isfinite(direct):
                    assert value.hex() == direct.hex()
                else:
                    taken_again += 1
        assert taken_again > 0  # some entry's modulus overflows


def compression_loop_oracle(F, trunc):
    """Reference assembly: for each basis column gamma and symbol term beta,
    add a_beta to the block at row beta + gamma when that row is in the basis."""
    basis = simplex(trunc.nvars, trunc.max_degree)
    position = {alpha: i for i, alpha in enumerate(basis)}
    d = trunc.dim
    matrix = np.zeros((len(basis) * d, len(basis) * d), dtype=np.complex128)
    for gamma, col in position.items():
        for beta, block in F.terms.items():
            row = position.get(beta + gamma)
            if row is not None:
                matrix[row * d : (row + 1) * d, col * d : (col + 1) * d] += block
    return matrix


def assert_near_svd(F, window, matrix, value):
    """A schedule entry ``value`` of symbol F lies within the schedule's
    docstring bound plus the rounding ``operator_norm`` states for the SVD
    of ``matrix``, its n-row compression on ``window``."""
    sigma = operator_norm(matrix)
    (bound,) = _schedule_error_bound(F, window.nvars, [window.max_degree], [value])
    assert abs(value - sigma) <= bound + _operator_norm_rounding(matrix.shape[0]) * sigma


class TestAssembleCompression:
    def test_constant_symbol_is_block_diagonal(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        F = PowerSeries.operator(2, {MultiIndex(): A})
        window = TruncationParams(nvars=2, max_degree=2, dim=2)
        comp = assemble_compression(F, window)
        n = len(comp.basis)
        expected = np.kron(np.eye(n), A)
        np.testing.assert_allclose(comp.matrix, expected)
        assert operator_norm(comp.matrix) == pytest.approx(
            np.linalg.svd(A, compute_uv=False)[0], abs=1e-10
        )

    def test_shift_symbol_block_pattern(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        F = PowerSeries.operator(2, {MultiIndex([1]): A})
        window = TruncationParams(nvars=1, max_degree=1, dim=2)
        comp = assemble_compression(F, window)
        expected = np.zeros((4, 4), dtype=complex)
        expected[2:4, 0:2] = A  # z * 1 = z; z * z leaves the window
        np.testing.assert_allclose(comp.matrix, expected)
        assert operator_norm(comp.matrix) == pytest.approx(
            np.linalg.svd(A, compute_uv=False)[0], abs=1e-10
        )

    def test_scalar_one_plus_z_degree_one(self):
        F = PowerSeries.operator(1, {MultiIndex(): [[1.0]], MultiIndex([1]): [[1.0]]})
        window = TruncationParams(nvars=1, max_degree=1, dim=1)
        comp = assemble_compression(F, window)
        np.testing.assert_allclose(comp.matrix, [[1.0, 0.0], [1.0, 1.0]])
        # 2x2 singular value by hand: largest eigenvalue of [[2,1],[1,1]]
        expected = np.sqrt((3.0 + np.sqrt(5.0)) / 2.0)
        assert operator_norm(comp.matrix) == pytest.approx(expected, abs=1e-12)

    def test_action_matches_truncated_product(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            nvars = int(rng.integers(1, 3))
            dim = int(rng.integers(1, 3))
            F = random_power_series(rng, "operator", dim, nvars, 2, 4)
            window = TruncationParams(nvars=nvars, max_degree=3, dim=dim)
            comp = assemble_compression(F, window)
            G = random_power_series(rng, "vector", dim, nvars, 3, 5)
            direct = truncate(op_vec_product(F, G, window), window)
            assert set(direct.terms) <= set(comp.basis)
            stacked = [np.concatenate([S.coefficient(a) for a in comp.basis]) for S in (G, direct)]
            np.testing.assert_allclose(comp.matrix @ stacked[0], stacked[1], rtol=1e-13, atol=1e-13)

    def test_block_structure_invariant(self):
        rng = np.random.default_rng(2)
        F = random_power_series(rng, "operator", 2, 2, 2, 4)
        window = TruncationParams(nvars=2, max_degree=2, dim=2)
        comp = assemble_compression(F, window)
        d = window.dim
        for i, alpha in enumerate(comp.basis):
            for j, gamma in enumerate(comp.basis):
                block = comp.matrix[i * d : (i + 1) * d, j * d : (j + 1) * d]
                if gamma.divides(alpha):
                    np.testing.assert_array_equal(block, F.coefficient(alpha - gamma))
                else:
                    np.testing.assert_array_equal(block, np.zeros((d, d)))

    @pytest.mark.parametrize("nvars, max_degree", [(1, 7), (2, 4), (3, 3)])
    def test_equals_loop_oracle_bit_for_bit(self, nvars, max_degree):
        rng = np.random.default_rng(9)
        F = random_power_series(rng, "operator", 2, 3, 3, 8)
        F = F + PowerSeries.operator(2, {MultiIndex.from_items([(40, 1)]): np.eye(2)})
        window = TruncationParams(nvars=nvars, max_degree=max_degree, dim=2)
        got = assemble_compression(F, window).matrix
        assert got.tobytes() == compression_loop_oracle(F, window).tobytes()

    def test_dimension_and_kind_validation(self):
        window = TruncationParams(nvars=1, max_degree=1, dim=2)
        with pytest.raises(ValueError):
            assemble_compression(PowerSeries.vector(2), window)
        with pytest.raises(ValueError):
            assemble_compression(PowerSeries.operator(3), window)

    def test_bohr_transport_gives_identical_matrices(self):
        # frequency-side assembly oracle: blocks looked up by divisibility
        rng = np.random.default_rng(3)
        F = random_power_series(rng, "operator", 2, 2, 2, 4)
        window = TruncationParams(nvars=2, max_degree=2, dim=2)
        comp = assemble_compression(F, window)
        D = bohr(F)
        freqs = [multiindex_to_index(alpha) for alpha in comp.basis]
        d = window.dim
        oracle = np.zeros_like(comp.matrix)
        for i, n_row in enumerate(freqs):
            for j, n_col in enumerate(freqs):
                if n_row % n_col == 0:
                    oracle[i * d : (i + 1) * d, j * d : (j + 1) * d] = D.coefficient(
                        n_row // n_col
                    )
        np.testing.assert_array_equal(comp.matrix, oracle)


class TestNormSchedule:
    def test_toeplitz_convergence_to_two(self):
        F = PowerSeries.operator(1, {MultiIndex(): [[1.0]], MultiIndex([1]): [[1.0]]})
        base = TruncationParams(nvars=1, max_degree=0, dim=1)
        degrees = [1, 5, 10, 50]
        values = multiplier_norm_schedule(F, degrees, base)
        assert values == sorted(values)
        # analytic eigenvalue of the bidiagonal compression at cutoff D
        for D, got in zip(degrees, values):
            expected = 2.0 * np.cos(np.pi / (2 * D + 3))
            assert got == pytest.approx(expected, abs=1e-9)
        assert abs(values[-1] - 2.0) < 1e-3

    def test_toeplitz_against_dense_svd(self):
        F = PowerSeries.operator(1, {MultiIndex(): [[1.0]], MultiIndex([1]): [[1.0]]})
        window = TruncationParams(nvars=1, max_degree=12, dim=1)
        comp = assemble_compression(F, window)
        dense = np.eye(13) + np.diag(np.ones(12), -1)
        assert operator_norm(comp.matrix) == pytest.approx(
            np.linalg.svd(dense, compute_uv=False)[0], abs=1e-10
        )

    def test_monotone_on_random_symbols(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            nvars = int(rng.integers(1, 3))
            dim = int(rng.integers(1, 3))
            F = random_power_series(rng, "operator", dim, nvars, 2, 4)
            base = TruncationParams(nvars=nvars, max_degree=0, dim=dim)
            values = multiplier_norm_schedule(F, [0, 1, 2, 3, 4], base)
            for a, b in zip(values, values[1:]):
                assert b >= a - 1e-9

    def test_monotone_in_variable_count(self):
        rng = np.random.default_rng(6)
        F = random_power_series(rng, "operator", 2, 2, 2, 4)
        values = []
        for nvars in (2, 3, 4):
            window = TruncationParams(nvars=nvars, max_degree=2, dim=2)
            values.append(operator_norm(assemble_compression(F, window).matrix))
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-9

    def test_lower_bound_chain_on_known_sups(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((2, 2))
        norm_A = np.linalg.svd(A, compute_uv=False)[0]
        cases = [
            (PowerSeries.operator(2, {MultiIndex(): A}), norm_A),
            (PowerSeries.operator(2, {MultiIndex([1]): A}), norm_A),
            (
                PowerSeries.operator(
                    1, {MultiIndex(): [[1.0]], MultiIndex([1]): [[1.0]]}
                ),
                2.0,
            ),
        ]
        for F, sup in cases:
            window = TruncationParams(nvars=1, max_degree=6, dim=F.dim)
            comp_norm = operator_norm(assemble_compression(F, window).matrix)
            assert comp_norm <= sup + 1e-10
            grid_estimate = hinf_norm(F, [TorusGrid(1, 64, 0.999)])
            assert grid_estimate <= sup + 1e-10

    def test_degrees_must_increase(self):
        F = PowerSeries.operator(1, {MultiIndex(): [[1.0]]})
        base = TruncationParams(nvars=1, max_degree=0, dim=1)
        with pytest.raises(ValueError):
            multiplier_norm_schedule(F, [2, 2], base)

    def test_non_integer_degree_is_named(self):
        F = PowerSeries.operator(1, {MultiIndex(): [[1.0]]})
        base = TruncationParams(nvars=1, max_degree=0, dim=1)
        with pytest.raises(TypeError, match="degrees"):
            multiplier_norm_schedule(F, [1, 2.5], base)

    @pytest.mark.parametrize(
        "nvars, degrees", [(1, [0, 3, 7, 8]), (2, [0, 2, 5]), (3, [1, 3, 4])]
    )
    def test_equals_per_degree_assembly_bit_for_bit(self, nvars, degrees):
        # each entry is the one-degree schedule's bit for bit, and within the
        # docstring bound plus the SVD's own of the assembled compression
        rng = np.random.default_rng(10)
        F = random_power_series(rng, "operator", 2, nvars, 3, 6)
        base = TruncationParams(nvars=nvars, max_degree=0, dim=2)
        values = multiplier_norm_schedule(F, degrees, base)
        for D, value in zip(degrees, values):
            assert multiplier_norm_schedule(F, [D], base) == [value]
            window = replace(base, max_degree=D)
            assert_near_svd(F, window, compression_loop_oracle(F, window), value)

    @given(
        st.integers(1, 3),
        st.integers(1, 4),
        st.sampled_from([-600, 0, 600]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_scaled_symbols_against_dense_svd(self, nvars, dim, power, seed):
        # a power-of-two scale moves the result by that power exactly
        F = random_power_series(np.random.default_rng(seed), "operator", dim, nvars, 2, 4)
        base = TruncationParams(nvars=nvars, max_degree=0, dim=dim)
        scaled = 2.0**power * F
        values = multiplier_norm_schedule(scaled, [0, 1, 2], base)
        assert values == [math.ldexp(v, power) for v in multiplier_norm_schedule(F, [0, 1, 2], base)]
        for D, value in zip([0, 1, 2], values):
            window = replace(base, max_degree=D)
            assert_near_svd(scaled, window, assemble_compression(scaled, window).matrix, value)

    @pytest.mark.parametrize("size", [1e200, 1e-200])
    def test_extreme_coefficients_stay_finite(self, size):
        # unscaled, the Gram of 1e200 coefficients overflows and that of
        # 1e-200 ones underflows to zero
        F = size * random_power_series(np.random.default_rng(14), "operator", 2, 2, 2, 4)
        base = TruncationParams(nvars=2, max_degree=0, dim=2)
        for D, value in zip([0, 2, 4], multiplier_norm_schedule(F, [0, 2, 4], base)):
            window = replace(base, max_degree=D)
            assert math.isfinite(value) and value > 0.0
            assert_near_svd(F, window, assemble_compression(F, window).matrix, value)

    def test_error_bounds_of_a_schedule_are_those_of_each_entry(self):
        # one call bounds every entry, each at its own eigensolve order
        F = random_power_series(np.random.default_rng(15), "operator", 3, 2, 2, 4)
        base = TruncationParams(nvars=2, max_degree=0, dim=3)
        degrees = [0, 2, 5]
        values = multiplier_norm_schedule(F, degrees, base)
        bounds = _schedule_error_bound(F, 2, degrees, values)
        assert bounds == [_schedule_error_bound(F, 2, [D], [v])[0] for D, v in zip(degrees, values)]
        assert _schedule_error_bound(F, 2, [], []) == []

    @pytest.mark.parametrize("dim, degree", [(1, 3), (4, 3), (2, 40)])
    def test_error_bound_counts_the_eigensolve_order(self, dim, degree):
        # the identity symbol: sigma = 1, N^2 = dim, T d + 2 = dim + 2, and an
        # eigensolve of order n = C(1 + D, 1) dim
        F = PowerSeries.constant(np.eye(dim))
        eps = 2 * _U
        gamma = _gamma(dim + 2)
        n = (degree + 1) * dim
        delta = gamma * dim + n * eps * (1 + gamma * dim) / (1 - n * eps)
        expected = delta / (1 + math.sqrt(1 - delta)) + eps
        (bound,) = _schedule_error_bound(F, 1, [degree], [1.0])
        assert bound == pytest.approx(expected, rel=1e-12, abs=0)

    def test_norm_beyond_double_range_is_inf(self):
        # the degree-1 norm is 1.5e308 times the golden ratio
        F = PowerSeries.operator(1, {MultiIndex(): [[1.5e308]], MultiIndex([1]): [[1.5e308]]})
        base = TruncationParams(nvars=1, max_degree=0, dim=1)
        assert multiplier_norm_schedule(F, [0, 1], base) == [1.5e308, math.inf]

    def test_peak_memory_is_one_gram(self):
        # the bench's 406-row shape: 2 variables, degree 27, a sparse scalar
        # symbol (5 terms), whose block products are few
        F = random_power_series(np.random.default_rng(15), "operator", 1, 2, 2, 5)
        base = TruncationParams(nvars=2, max_degree=0, dim=1)
        multiplier_norm_schedule(F, [27], base)  # warm the simplex cache
        tracemalloc.start()
        try:
            multiplier_norm_schedule(F, [0, 5, 11, 16, 22, 27], base)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one_array = 16 * math.comb(2 + 27, 2) ** 2  # complex128, 406 x 406
        assert peak < 1.5 * one_array

    def test_dense_symbol_memory_is_bounded(self):
        # a full symbol at the 406-row shape: its rows hold up to 210 blocks
        # and 1.8e6 block products in all, added a run of rows at a time; the
        # peak is the Gram, the 406 x 406 table of products, LAPACK's copy
        # of the Gram and one run's temporaries
        basis = simplex(2, 27)
        coeffs = np.random.default_rng(16).standard_normal((len(basis), 1, 1)) / len(basis)
        F = PowerSeries("operator", 1, dict(zip(basis, coeffs)))
        base = TruncationParams(nvars=2, max_degree=0, dim=1)
        tracemalloc.start()
        try:
            multiplier_norm_schedule(F, [27], base)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one_array = 16 * len(basis) ** 2
        assert peak < 3.25 * one_array

    def test_negative_degree_rejected(self):
        F = PowerSeries.operator(1, {MultiIndex(): [[1.0]]})
        base = TruncationParams(nvars=1, max_degree=0, dim=1)
        with pytest.raises(ValueError):
            multiplier_norm_schedule(F, [-1, 2], base)

    def test_zero_symbol(self):
        F = PowerSeries.operator(2)
        base = TruncationParams(nvars=1, max_degree=0, dim=2)
        assert multiplier_norm_schedule(F, [0, 1], base) == [0.0, 0.0]
        assert multiplier_norm_schedule(F, [], base) == []


class TestNarrowWindow:
    """A window on fewer variables than the symbol uses drops the terms in
    the others: the compression and its schedule are those of the
    truncated symbol, F with those variables set to 0."""

    def test_equals_the_truncated_symbol_bit_for_bit(self):
        cases = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            F = random_power_series(rng, "operator", int(rng.integers(1, 3)), int(rng.integers(2, 4)), 3, 5)
            for nvars in range(1, F.nvars_used):
                window = TruncationParams(nvars=nvars, max_degree=3, dim=F.dim)
                narrow = truncate(F, window)
                assert narrow.num_terms < F.num_terms
                got, want = assemble_compression(F, window), assemble_compression(narrow, window)
                assert got.matrix.tobytes() == want.matrix.tobytes() and got.basis == want.basis
                schedule = multiplier_norm_schedule(F, [0, 1, 2, 3], window)
                assert [v.hex() for v in schedule] == [v.hex() for v in multiplier_norm_schedule(narrow, [0, 1, 2, 3], window)]
                cases += 1
        assert cases >= 40


class TestDiagonalExample:
    def test_all_ones_is_identity(self):
        np.testing.assert_array_equal(diagonal_example(np.ones(4)), np.eye(4))

    def test_unit_norm(self):
        rng = np.random.default_rng(9)
        w = np.exp(2j * np.pi * rng.random(8))
        assert operator_norm(diagonal_example(w)) == pytest.approx(1.0)

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            diagonal_example([1.0, 0.5])


class TestPointwiseVsSymbolic:
    def test_constant_symbol(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((2, 2))
        F = PowerSeries.operator(2, {MultiIndex(): A})
        G = random_power_series(rng, "vector", 2, 2, 2, 4)
        grid = TorusGrid(nvars=2, points_per_var=G.total_degree + 1, radius=1.0)
        assert pointwise_vs_symbolic(F, G, grid) < 1e-12

    def test_dilated_inputs(self):
        rng = np.random.default_rng(12)
        F = radial_dilate(random_power_series(rng, "operator", 2, 2, 2, 4), 0.9)
        G = radial_dilate(random_power_series(rng, "vector", 2, 2, 2, 4), 0.9)
        grid = TorusGrid(
            nvars=2, points_per_var=F.total_degree + G.total_degree + 1, radius=1.0
        )
        assert pointwise_vs_symbolic(F, G, grid) <= _pointwise_vs_symbolic_rounding(F, G, grid)

    def test_insufficient_grid_reported(self):
        rng = np.random.default_rng(13)
        F = random_power_series(rng, "operator", 2, 2, 2, 4)
        G = random_power_series(rng, "vector", 2, 2, 2, 4)
        with pytest.raises(ValueError, match="resolution"):
            pointwise_vs_symbolic(F, G, TorusGrid(nvars=2, points_per_var=2))
        with pytest.raises(ValueError, match="radius"):
            pointwise_vs_symbolic(
                F, G, TorusGrid(nvars=2, points_per_var=9, radius=0.9)
            )


def pointwise_by_term(F, G, grid):
    """Reference ``pointwise_vs_symbolic``: per-term grid values, the
    module's transform, and a running maximum of one ``np.linalg.norm`` per
    product term."""
    product = op_vec_product(
        F, G, TruncationParams(grid.nvars, F.total_degree + G.total_degree, F.dim)
    )
    sampled = np.einsum("ijk,jk->ik", grid_values_by_term(F, grid), grid_values_by_term(G, grid))
    M = grid.points_per_var
    extracted = _dft(sampled, (M,) * grid.nvars, M, -1) / grid.num_nodes
    extracted = extracted.T.reshape(*(M,) * grid.nvars, F.dim)
    residual = 0.0
    for alpha, coeff in product.terms.items():
        residual = max(residual, float(np.linalg.norm(extracted[grid_cell(alpha, grid)] - coeff)))
    return residual


#: Parts from signed zeros and subnormals up to 1e100, so products stay finite.
_PARTS = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False)


@st.composite
def symbol_and_vector(draw):
    """An operator symbol and a vector series of dim 1-3 on 1-2 variables,
    and a unit grid fine enough for ``pointwise_vs_symbolic``."""
    dim = draw(st.integers(min_value=1, max_value=3))
    nvars = draw(st.integers(min_value=1, max_value=2))
    keys = st.lists(st.integers(0, 3), max_size=nvars).map(MultiIndex)
    values = draw(st.sampled_from([None, _PARTS]))
    kwargs = {} if values is None else {"values": values}
    F = PowerSeries("operator", dim, draw(terms(keys, "operator", dim, **kwargs)))
    G = PowerSeries("vector", dim, draw(terms(keys, "vector", dim, **kwargs)))
    needed = F.total_degree + G.total_degree + 1
    return F, G, TorusGrid(nvars, needed + draw(st.integers(min_value=0, max_value=2)))


class TestPointwiseBits:
    """One fancy index and one batched norm must return the bytes of the
    per-term extraction loop."""

    @given(symbol_and_vector())
    @settings(max_examples=300, deadline=None)
    def test_equals_per_term_loop(self, drawn):
        F, G, grid = drawn
        # a gap whose square overflows gives inf with a RuntimeWarning on
        # both paths; the bits are what is compared here
        with np.errstate(over="ignore"):
            got = pointwise_vs_symbolic(F, G, grid)
            want = pointwise_by_term(F, G, grid)
        assert got.hex() == want.hex()

    def test_row_norms_equal_per_row_norm(self):
        # magnitudes over 20 decades and lengths 1-4: numpy's axis-wise
        # norm differs from the per-row one on a few of these rows
        rng = np.random.default_rng(0)
        for d in (1, 2, 3, 4):
            parts = rng.standard_normal((2, 5000, d)) * 10.0 ** rng.integers(-10, 10, (2, 5000, d))
            rows = parts[0] + 1j * parts[1]
            want = np.array([np.linalg.norm(row) for row in rows])
            assert _row_norms(rows).tobytes() == want.tobytes()

    def test_grid_overflow_raises(self):
        # the products 0.81e308 and 1.62e308 are finite, but the sampled
        # value at w = 1 is 3.24e308: every extracted cell would be inf +
        # NaN j and every gap NaN, which a running maximum passes over to
        # report perfect agreement
        F = PowerSeries.operator(1, {MultiIndex(): [[0.9e154]], MultiIndex([1]): [[0.9e154]]})
        G = PowerSeries.vector(1, {MultiIndex(): [0.9e154], MultiIndex([1]): [0.9e154]})
        with pytest.raises(ValueError, match=r"not finite at 1 of 3 nodes; the first, node 0"):
            pointwise_vs_symbolic(F, G, TorusGrid(1, 3))

