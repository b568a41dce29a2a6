"""Compression matrices, operator norms, schedules, consistency checks."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import random_power_series
from polyhardy import (
    MultiIndex,
    PowerSeries,
    TorusGrid,
    TruncationParams,
    assemble_compression,
    bohr,
    diagonal_example,
    hinf_norm,
    hp_rayleigh_lower_bound,
    multiindex_to_index,
    multiplier_norm_schedule,
    op_vec_product,
    operator_norm,
    pointwise_vs_symbolic,
    radial_dilate,
    simplex,
    truncate,
)


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

    def test_bad_tol_rejected(self):
        # The SVD takes no stopping tolerance, so any requested one is an
        # accuracy the call cannot honour and must fail loudly.
        with pytest.raises(TypeError):
            operator_norm(np.eye(2), tol=0.0)
        with pytest.raises(TypeError):
            operator_norm(np.eye(2), tol=1e-13)


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
            via_matrix = comp.apply_to_series(G)
            direct = truncate(op_vec_product(F, G, window), window)
            assert via_matrix.allclose(direct, rtol=1e-13, atol=1e-13)

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
        with pytest.raises(ValueError, match="p = 2"):
            assemble_compression(
                PowerSeries.operator(2),
                TruncationParams(nvars=1, max_degree=1, dim=2, exponent=4.0),
            )

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

    def test_shift_symbol_schedule_constant(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        F = PowerSeries.operator(3, {MultiIndex([1]): A})
        base = TruncationParams(nvars=1, max_degree=0, dim=3)
        expected = np.linalg.svd(A, compute_uv=False)[0]
        for got in multiplier_norm_schedule(F, [1, 2, 3, 4], base):
            assert got == pytest.approx(expected, abs=1e-8)

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

    @pytest.mark.parametrize(
        "nvars, degrees", [(1, [0, 3, 7, 8]), (2, [0, 2, 5]), (3, [1, 3, 4])]
    )
    def test_equals_per_degree_assembly_bit_for_bit(self, nvars, degrees):
        rng = np.random.default_rng(10)
        F = random_power_series(rng, "operator", 2, nvars, 3, 6)
        base = TruncationParams(nvars=nvars, max_degree=0, dim=2)
        per_degree = [
            operator_norm(compression_loop_oracle(F, replace(base, max_degree=D)))
            for D in degrees
        ]
        assert multiplier_norm_schedule(F, degrees, base) == per_degree

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


class TestDiagonalExample:
    def test_all_ones_is_identity(self):
        np.testing.assert_array_equal(diagonal_example(np.ones(4)), np.eye(4))

    def test_distance_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            w = np.exp(2j * np.pi * rng.random(16))
            wt = np.exp(2j * np.pi * rng.random(16))
            dist_op = operator_norm(diagonal_example(w) - diagonal_example(wt))
            dist_inf = float(np.max(np.abs(w - wt)))
            assert dist_op == pytest.approx(dist_inf, abs=1e-12)
            assert dist_op >= dist_inf - 1e-12  # the one-sided bound it refines

    def test_unit_norm(self):
        rng = np.random.default_rng(9)
        w = np.exp(2j * np.pi * rng.random(8))
        assert operator_norm(diagonal_example(w)) == pytest.approx(1.0)

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError):
            diagonal_example([1.0, 0.5])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            diagonal_example(np.ones(3), dim=4)


class TestPointwiseVsSymbolic:
    def test_constant_symbol(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((2, 2))
        F = PowerSeries.operator(2, {MultiIndex(): A})
        G = random_power_series(rng, "vector", 2, 2, 2, 4)
        grid = TorusGrid(nvars=2, points_per_var=G.total_degree + 1, radius=1.0)
        assert pointwise_vs_symbolic(F, G, grid) < 1e-12

    def test_random_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            F = random_power_series(rng, "operator", 2, 2, 2, 4)
            G = random_power_series(rng, "vector", 2, 2, 2, 4)
            grid = TorusGrid(
                nvars=2,
                points_per_var=F.total_degree + G.total_degree + 1,
                radius=1.0,
            )
            assert pointwise_vs_symbolic(F, G, grid) <= 1e-10

    def test_dilated_inputs(self):
        rng = np.random.default_rng(12)
        F = radial_dilate(random_power_series(rng, "operator", 2, 2, 2, 4), 0.9)
        G = radial_dilate(random_power_series(rng, "vector", 2, 2, 2, 4), 0.9)
        grid = TorusGrid(
            nvars=2, points_per_var=F.total_degree + G.total_degree + 1, radius=1.0
        )
        assert pointwise_vs_symbolic(F, G, grid) <= 1e-10

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


class TestRayleighEstimator:
    def test_lower_bounds_known_sup(self):
        F = PowerSeries.operator(1, {MultiIndex(): [[1.0]], MultiIndex([1]): [[1.0]]})
        window = TruncationParams(nvars=1, max_degree=6, dim=1, exponent=4.0)
        grid = TorusGrid(nvars=1, points_per_var=32, radius=1.0)
        estimate = hp_rayleigh_lower_bound(F, 4.0, window, grid, num_samples=8, seed=0)
        assert 1.0 < estimate <= 2.0 + 1e-9

    def test_grid_resolution_enforced(self):
        F = PowerSeries.operator(1, {MultiIndex([1]): [[1.0]]})
        window = TruncationParams(nvars=1, max_degree=6, dim=1)
        with pytest.raises(ValueError):
            hp_rayleigh_lower_bound(F, 4.0, window, TorusGrid(1, 4, 1.0))
