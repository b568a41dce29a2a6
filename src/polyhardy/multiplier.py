"""Multiplication operators on truncated H_2 coefficient space.

An operator-valued symbol F acts on vector series by the convolution
product; restricting to the simplex of multi-indices with total degree
at most D (the compression) gives a finite matrix in the monomial basis
whose largest singular value lower-bounds the multiplier norm ``||M_F||``
and converges to the sup norm of the symbol as the window grows.  The
coefficient-space Euclidean norm *is* the H_2 norm, which is why p = 2
is the one exponent with an exact finite matrix picture; for other p a
randomized Rayleigh-quotient estimator is provided instead.
"""

from __future__ import annotations

import math
import operator as _operator
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from ._linalg import operator_norm
from .hardy import TorusGrid, _cell, _grid_coefficients, _grid_values, hp_norm
from .multiindex import MultiIndex, simplex
from .series import (
    PowerSeries,
    TruncationParams,
    _check_op_vec,
    _exponent_rows,
    _window_pairs,
    op_vec_product,
)

__all__ = [
    "CompressionMatrix",
    "assemble_compression",
    "diagonal_example",
    "hp_rayleigh_lower_bound",
    "multiplier_norm_schedule",
    "operator_norm",
    "pointwise_vs_symbolic",
]


@dataclass(frozen=True)
class CompressionMatrix:
    """Matrix of a multiplication operator on the truncated coefficient space.

    Rows and columns are indexed by (basis multi-index, coordinate) with
    coordinates innermost; the d x d block at (row alpha, column gamma)
    is the symbol coefficient at alpha - gamma, or zero when that
    difference has a negative entry.
    """

    matrix: np.ndarray
    basis: tuple[MultiIndex, ...]
    trunc: TruncationParams

    @property
    def block_dim(self) -> int:
        return self.trunc.dim

    def basis_position(self, alpha: MultiIndex) -> int:
        return self.basis.index(alpha)

    def coefficients_of(self, G: PowerSeries) -> np.ndarray:
        """Stack the coefficients of G over the basis into one flat vector."""
        if G.kind != "vector" or G.dim != self.trunc.dim:
            raise ValueError("G must be a vector series of the compression dimension")
        extra = set(G.terms) - set(self.basis)
        if extra:
            raise ValueError("G has support outside the compression simplex")
        return np.concatenate([G.coefficient(alpha) for alpha in self.basis])

    def series_from_coefficients(self, coeffs: np.ndarray) -> PowerSeries:
        """Inverse of :meth:`coefficients_of`."""
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        d = self.trunc.dim
        if coeffs.shape != (len(self.basis) * d,):
            raise ValueError("coefficient vector has the wrong length")
        terms = {
            alpha: coeffs[i * d : (i + 1) * d] for i, alpha in enumerate(self.basis)
        }
        return PowerSeries("vector", d, terms)

    def apply_to_series(self, G: PowerSeries) -> PowerSeries:
        """Matrix action expressed back as a series (for consistency checks)."""
        return self.series_from_coefficients(self.matrix @ self.coefficients_of(G))


def assemble_compression(
    F: PowerSeries, trunc: TruncationParams
) -> CompressionMatrix:
    """Compression of the multiplication operator of symbol F.

    For every vector series G supported in the simplex, the matrix sends
    the stacked coefficients of G to those of the truncated product
    ``truncate(F * G, trunc)`` -- exactly, by construction.
    """
    if F.kind != "operator":
        raise ValueError("compression requires an operator-valued symbol")
    if F.dim != trunc.dim:
        raise ValueError(f"dimension mismatch: symbol {F.dim} vs window {trunc.dim}")
    if trunc.exponent != 2:
        raise ValueError(
            "compression matrices realize the p = 2 coefficient inner product; "
            "use hp_rayleigh_lower_bound for other exponents"
        )
    basis = simplex(trunc.nvars, trunc.max_degree)
    columns, (symbol, rows) = _exponent_rows(F.terms, basis)
    i, j = _window_pairs(columns, symbol, rows, trunc)
    n, d = len(basis), trunc.dim
    matrix = np.zeros((n, d, n, d), dtype=np.complex128)
    # block (beta + gamma, gamma) is a_beta; each block is one coefficient
    matrix[_row_positions(rows, symbol[i] + rows[j]), :, j, :] = F._coefficient_stack()[i]
    matrix = matrix.reshape(n * d, n * d)
    matrix.setflags(write=False)
    return CompressionMatrix(matrix=matrix, basis=basis, trunc=trunc)


def _row_positions(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index in ``table`` (distinct rows) of each row of ``rows``, all of which occur in it.

    One stable sort of both, table rows before equal query rows, so each
    query row's match is the last table row before it.
    """
    stacked = np.concatenate([table, rows])
    is_query = np.arange(len(stacked)) >= len(table)
    order = np.lexsort((is_query, *stacked.T[::-1]))
    query = is_query[order]
    last_table = np.maximum.accumulate(np.where(query, 0, np.arange(len(order))))
    positions = np.empty(len(rows), dtype=np.intp)
    positions[order[query] - len(table)] = order[last_table[query]]
    return positions


def multiplier_norm_schedule(
    F: PowerSeries,
    degrees: Sequence[int],
    trunc_base: TruncationParams,
) -> list[float]:
    """Compression norms over a strictly increasing list of degree cutoffs.

    The compression is assembled once, at the largest degree, and each
    norm is taken of a leading principal block.  That is exact: the
    graded-lex simplex of degree D is the first ``C(nvars + D, nvars)``
    basis entries of every larger one, and each block of a compression
    is one symbol coefficient (never a sum), so the leading block is bit
    for bit the degree-D compression.  Nested simplices make the sequence
    nondecreasing, and every entry is a lower bound of the symbol's sup
    norm; for symbols whose sup norm is attained at finite degree the
    sequence is eventually constant.  Each norm is the largest singular
    value from LAPACK's SVD, accurate to ``p(n) * eps`` times the norm
    for an ``n``-row compression.
    """
    degrees = [_operator.index(D) for D in degrees]
    if any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise ValueError("degrees must be strictly increasing")
    if not degrees:
        return []
    if degrees[0] < 0:
        raise ValueError("max_degree must be non-negative")
    matrix = assemble_compression(F, replace(trunc_base, max_degree=degrees[-1])).matrix
    sizes = [math.comb(trunc_base.nvars + D, trunc_base.nvars) * trunc_base.dim for D in degrees]
    return [operator_norm(matrix[:size, :size]) for size in sizes]


def diagonal_example(w: Iterable[complex], dim: int | None = None) -> np.ndarray:
    """Diagonal operator with the unimodular tuple w on the diagonal.

    The map ``w -> diag(w)`` is a sup-norm isometry into operators:
    ``||diag(w) - diag(w')|| = max_j |w_j - w'_j|``, which is exactly the
    uniform distance of the points on the d-torus.
    """
    w = np.atleast_1d(np.asarray(w, dtype=np.complex128))
    if w.ndim != 1 or w.size < 1:
        raise ValueError("w must be a nonempty vector")
    if dim is not None and _operator.index(dim) != w.size:
        raise ValueError(f"dim {dim} does not match len(w) = {w.size}")
    if np.any(np.abs(np.abs(w) - 1.0) > 1e-12):
        raise ValueError("entries must be unimodular (|w_j| = 1)")
    out = np.diag(w)
    out.setflags(write=False)
    return out


def pointwise_vs_symbolic(
    F: PowerSeries, G: PowerSeries, grid: TorusGrid
) -> float:
    """Largest coefficient gap between the sampled and symbolic products.

    Samples ``w -> F(w) @ G(w)`` on the unit-radius grid, extracts each
    Fourier coefficient over the symbolic product support, and returns
    the max Euclidean distance to the convolution coefficients.  For
    polynomial inputs on an exact-resolution grid this is pure rounding
    noise (<= 1e-10 by contract).
    """
    _check_op_vec(F, G)
    needed = F.total_degree + G.total_degree + 1
    if grid.radius != 1.0:
        raise ValueError("consistency check requires the unit-radius grid")
    if grid.points_per_var < needed:
        raise ValueError(
            f"grid resolution insufficient: need at least {needed} points per "
            f"variable, got {grid.points_per_var}"
        )

    window = TruncationParams(
        nvars=grid.nvars,
        max_degree=F.total_degree + G.total_degree,
        dim=F.dim,
    )
    product = op_vec_product(F, G, window)
    sampled = np.einsum("kij,kj->ki", _grid_values(F, grid), _grid_values(G, grid))
    extracted = _grid_coefficients(sampled, grid)
    residual = 0.0
    for alpha, coeff in product.terms.items():
        gap = float(np.linalg.norm(extracted[_cell(alpha, grid)] - coeff))
        residual = max(residual, gap)
    return residual


def hp_rayleigh_lower_bound(
    F: PowerSeries,
    p: float,
    trunc: TruncationParams,
    grid: TorusGrid,
    num_samples: int = 16,
    seed: int = 0,
) -> float:
    """Randomized lower bound for the H_p multiplier norm, p != 2 included.

    Maximizes the Rayleigh quotient ``||F G||_p / ||G||_p`` over random
    polynomials G supported in the truncation simplex.  This is an
    estimator, not a certified norm: it never exceeds ``||M_F||`` (up to
    grid error) but can undershoot.
    """
    if F.kind != "operator":
        raise ValueError("the symbol must be operator-valued")
    if num_samples < 1:
        raise ValueError("num_samples must be at least 1")
    product_degree = F.total_degree + trunc.max_degree
    if grid.radius != 1.0 or grid.points_per_var < product_degree + 1:
        raise ValueError(
            f"estimator grid must have radius 1 and at least {product_degree + 1} "
            "points per variable so the H_p quadratures see the full product"
        )
    window = replace(trunc, max_degree=product_degree)
    rng = np.random.default_rng(seed)
    basis = simplex(trunc.nvars, trunc.max_degree)
    best = 0.0
    for _ in range(num_samples):
        coeffs = rng.standard_normal((len(basis), trunc.dim)) + 1j * rng.standard_normal(
            (len(basis), trunc.dim)
        )
        G = PowerSeries("vector", trunc.dim, dict(zip(basis, coeffs)))
        denom = hp_norm(G, p, grid)
        if denom == 0.0:
            continue
        best = max(best, hp_norm(op_vec_product(F, G, window), p, grid) / denom)
    return best
