"""Multiplication operators on truncated H_2 coefficient space.

An operator-valued symbol F acts on vector series by the convolution
product; restricting to the simplex of multi-indices with total degree
at most D (the compression) gives a finite matrix in the monomial basis
whose largest singular value lower-bounds the multiplier norm ``||M_F||``
and converges to the sup norm of the symbol as the window grows.
``multiplier_norm_schedule`` takes that value at several degrees without
assembling the matrix: as the square root of the largest eigenvalue of
each compression's Gram matrix, summed from the nonzero blocks row by row
in degree order, with a stated error bound.  The coefficient-space
Euclidean norm *is* the H_2 norm, which is why p = 2 is the one exponent
with an exact finite matrix picture.  For every 1 <= p < infinity the
multiplier norm on H_p equals the sup norm of the symbol, so the grid
maximum ``hardy.hinf_norm`` is a lower bound at every p.  This module
works in coefficient space only; the sampled check of the product on a
torus grid, ``hardy.pointwise_vs_symbolic``, lives with the grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from ._linalg import _U, _gamma, _operator_norm_rounding, _scale_down, operator_norm
from .multiindex import MultiIndex, _index, _renumber, _simplex_shape, _simplex_table
from .series import (
    PowerSeries,
    TruncationParams,
    _check_window,
    _group,
    _union,
    _widen,
    _window_pairs,
)

__all__ = [
    "CompressionMatrix",
    "assemble_compression",
    "diagonal_example",
    "multiplier_norm_schedule",
    "operator_norm",
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


def assemble_compression(
    F: PowerSeries, trunc: TruncationParams
) -> CompressionMatrix:
    """Compression of the multiplication operator of symbol F.

    For every vector series G supported in the simplex, the matrix sends
    the stacked coefficients of G to those of the truncated product
    ``truncate(F * G, trunc)`` -- exactly, by construction.  A window on
    fewer variables than F uses drops F's terms in the others: the matrix
    is that of ``truncate(F, trunc)``, the compression of F with those
    variables set to 0.
    """
    basis, i, j, rows = _compression_pairs(F, trunc)
    n, d = len(basis), trunc.dim
    matrix = np.zeros((n, d, n, d), dtype=np.complex128)
    # each block is one coefficient
    matrix[rows, :, j, :] = F._coeffs.take(i, axis=0)
    matrix = matrix.reshape(n * d, n * d)
    matrix.setflags(write=False)
    return CompressionMatrix(matrix=matrix, basis=basis, trunc=trunc)


def _compression_pairs(
    F: PowerSeries, trunc: TruncationParams
) -> tuple[tuple[MultiIndex, ...], np.ndarray, np.ndarray, np.ndarray]:
    """The graded-lex basis of the window and the nonzero blocks of the
    compression: block ``(rows[k], j[k])`` is the coefficient of the term
    ``i[k]`` of ``F`` (``terms`` order), since block (beta + gamma, gamma)
    is a_beta.  Pairs come in ``series._window_pairs`` order, so within one
    row they are by ascending term."""
    if F.kind != "operator":
        raise ValueError("compression requires an operator-valued symbol")
    _check_window(F, trunc)
    basis, rows = _simplex_table(*_simplex_shape(trunc.nvars, trunc.max_degree))
    columns = _union(np.arange(trunc.nvars), F._columns)
    symbol = _widen(F, columns)
    # columns start 0..nvars-1; the basis is 0 at the symbol's positions beyond them
    pad = np.zeros((len(rows), len(columns) - trunc.nvars), dtype=np.int64)
    rows = np.concatenate([rows, pad], axis=1)
    i, j = _window_pairs(columns, symbol, rows, trunc)
    return basis, i, j, _row_positions(rows, symbol.take(i, axis=0) + rows.take(j, axis=0))


def _row_positions(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index in ``table`` (distinct rows) of each row of ``rows``, all of which occur in it.

    One ``series._group`` of ``table`` stacked above ``rows``: the sort is
    stable, so each run of equal rows starts with its one table row, and
    every member of the run is matched to that row exactly.
    """
    order, starts = _group(np.concatenate([table, rows]))
    run = np.searchsorted(starts, np.arange(len(order)), side="right") - 1
    match = np.empty(len(order), dtype=np.intp)
    match[order] = order[starts[run]]
    return match[len(table) :]


def multiplier_norm_schedule(
    F: PowerSeries,
    degrees: Sequence[int],
    trunc_base: TruncationParams,
) -> list[float]:
    """Compression norms over a strictly increasing list of degree cutoffs.

    The degree-D entry is sqrt(lambda_max(G_D)), where G_D = M_D^H M_D is
    the Gram matrix of the degree-D compression M_D, taken by one LAPACK
    Hermitian eigensolve (``np.linalg.eigvalsh``).  Neither M_D nor the
    compression at the largest degree is assembled, and no SVD
    (``operator_norm``) is taken.

    *The Gram by degree.*  In the graded basis M is block lower
    triangular: block (beta + gamma, gamma) is a_beta, so every nonzero
    block of a row of degree at most D lies in a column of degree at most
    D.  Hence G_D is the sum over the rows rho of degree at most D of
    their contributions a_{rho - gamma}^H a_{rho - gamma'} to block
    (gamma, gamma').  The products a_beta^H a_beta' are formed once per
    pair of terms that occur, and the contributions to the lower triangle
    (all that ``eigvalsh`` reads) are added into one ``n d x n d`` array
    with rows in basis order, one scheduled degree after another, with an
    eigensolve of the leading block after each.  That leading block is
    G_D itself, not the leading block of the Gram at a larger degree
    (which also sums the rows beyond D).  A row adds at most one term to
    each entry and the rows are added in sequence, so each entry has the
    same bits whether or not larger degrees follow:
    ``multiplier_norm_schedule(F, [D], base)`` gives it too.  Nested
    simplices make the exact sequence nondecreasing, and every entry is a
    lower bound of the symbol's sup norm; for symbols whose sup norm is
    attained at finite degree the sequence is eventually constant.

    *Cost.*  A row with c nonzero blocks adds c (c + 1) / 2 block products,
    each scattered into the Gram by index, and each degree takes one
    eigensolve.  Rows are added in runs of at most max(4096, (n d)^2 / 16)
    products (or one row), so the memory in use is the Gram, the table of
    products (at most n^2 blocks, one per pair of terms in the window),
    LAPACK's copy of the Gram and one run's indices (about a Gram or 1 MB
    at most): about three Gram-sized arrays for large n, against two for
    an assembled compression and its SVD.  For sparse symbols, whose rows
    hold a few blocks, the work is far less than a dense SVD of the same
    order.  For dense symbols c grows like n; with a full symbol at 406
    rows the scattered additions cost more than the SVD they replace.

    *Scaling.*  The Gram squares the coefficients, so by the range rule of
    ``_linalg`` they are always first multiplied by the power of two 2^-e
    that brings their largest real or imaginary part into [1/2, 1)
    (``_scale_down``); that is exact except where an entry turns
    subnormal, and the Gram can neither overflow nor underflow wholesale.
    The result is scaled back by 2^e, and a norm beyond the double range
    comes out as ``inf``, as the SVD's does.

    *Error bound.*  With u = 2^-53, gamma_k = k u / (1 - k u), d = ``dim``
    and S_beta = 2^-e a_beta: each Gram entry is a sum of at most T d
    complex products, so it is off by at most gamma_{Td+2} times the same
    sum of moduli, (|M|^T |M|)_{entry} (Higham, Lemma 3.5), and
    ``||G_hat - G|| <= gamma_{Td+2} N^2`` with
    ``N = sum_beta || |S_beta| || <= sum_beta ||S_beta||_F`` (|M| is a sum
    of block shifts, each of norm at most 1).  LAPACK's eigenvalue is
    exact for G_hat + E with ``||E|| <= p(n) eps ||G_hat||`` for an
    ``n``-row compression (LAPACK Users' Guide; p(n) is taken as n, as for
    ``operator_norm``: ``_operator_norm_rounding``), so
    ``|lambda_hat - sigma^2| <= Delta = gamma_{Td+2} N^2 + n eps
    (lambda_hat + gamma_{Td+2} N^2) / (1 - n eps)``.  Then, for
    sigma_hat = sqrt(lambda_hat), ``|sigma_hat - sigma| <=
    min(sqrt(Delta), Delta / (sigma_hat + sqrt(max(lambda_hat - Delta, 0))))``
    plus eps sigma_hat for the rounded square root, all in units of 2^e,
    while no scaled product underflows.  ``_schedule_error_bound``
    evaluates this bound.  When N is close to sigma it is about
    (n + Td/2) eps / 2 relative, below the SVD's own n eps.

    Only ``nvars`` and ``dim`` of ``trunc_base`` are read: the degree of
    each compression comes from ``degrees``, and ``trunc_base.max_degree``
    is ignored.  A window on fewer variables than F uses drops F's terms
    in the others, as ``assemble_compression`` does: the schedule is that
    of ``truncate(F, trunc)``, the compression of F with those variables
    set to 0.
    """
    degrees = [_index(D, "degrees", 0) for D in degrees]
    if any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise ValueError("degrees must be strictly increasing")
    if not degrees:
        return []
    basis, i, j, rows = _compression_pairs(F, replace(trunc_base, max_degree=degrees[-1]))
    n, d = len(basis), trunc_base.dim
    # the terms that occur, at most n, so that their products are no larger than the Gram
    used, i = _renumber(i)
    scaled, e = _scale_down(F._coeffs)
    blocks = scaled.take(used, axis=0)
    products = np.matmul(blocks.conj().transpose(0, 2, 1)[:, None], blocks)
    # blocks by row, each row's by column; these pairs come in long sorted
    # runs, on which np.lexsort beat series._stable_order's tag sort (31
    # against 54 us on the 1 864 pairs of a 406-row schedule)
    order = np.lexsort((j, rows))
    i, j, rows = i.take(order), j.take(order), rows.take(order)
    counts = np.bincount(rows, minlength=n)
    first = np.concatenate([[0], np.cumsum(counts)])  # the first block of each row
    work = np.concatenate([[0], np.cumsum(counts * (counts + 1) // 2)])
    sizes = [math.comb(trunc_base.nvars + D, trunc_base.nvars) for D in degrees]
    gram = np.zeros((n, d, n, d), dtype=np.complex128)
    # runs of whole rows, of at most this many block products unless one row has more
    budget = max(4096, (n * d) ** 2 // 16)
    out, row = [], 0
    while row < n:
        stop = int(np.searchsorted(work, work[row] + budget, side="right")) - 1
        stop = min(n, max(row + 1, stop))
        row_first = first.take(rows[first[row] : first[stop]])
        targets, values = _row_products(gram.shape, products, i, j, row_first, first[row])
        done = 0
        for size in [size for size in sizes if row < size <= stop]:
            upto = (work[size] - work[row]) * d * d
            np.add.at(gram.reshape(-1), targets[done:upto], values[done:upto])
            done = upto
            top = float(np.linalg.eigvalsh(gram.reshape(n * d, n * d)[: size * d, : size * d])[-1])
            out.append(math.sqrt(max(top, 0.0)) * 2.0**e)  # inf beyond the double range
        np.add.at(gram.reshape(-1), targets[done:], values[done:])
        del targets, values  # before the next run's are built
        row = stop
    return out


def _row_products(
    shape: tuple[int, ...],
    products: np.ndarray,
    i: np.ndarray,
    j: np.ndarray,
    row_first: np.ndarray,
    start: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The lower-triangle contributions of the blocks ``start, start + 1,
    ...``, one per entry of ``row_first``, the first block of each one's
    row, as flat positions in a Gram of ``shape`` ``(n, d, n, d)`` and
    values.  Block k is the term ``i[k]`` at column ``j[k]``, and a row's
    blocks come by column; so each block k' <= k of the row of k adds
    ``products[i[k], i[k']]`` to the Gram block ``(j[k], j[k'])``.
    They come in the order of k, so by row."""
    d = shape[1]
    left = np.arange(start, start + len(row_first))
    reach = left - row_first + 1
    left = np.repeat(left, reach)
    right = np.arange(len(left)) - np.repeat(np.cumsum(reach) - reach - row_first, reach)
    coordinate = np.arange(d)
    at = (j.take(left)[:, None, None], coordinate[:, None], j.take(right)[:, None, None], coordinate)
    values = products.reshape(-1, d, d).take(i.take(left) * len(products) + i.take(right), axis=0)
    return np.ravel_multi_index(at, shape).reshape(-1), values.reshape(-1)


def _schedule_error_bound(F: PowerSeries, nvars: int, degrees, values) -> list[float]:
    """The bound of ``multiplier_norm_schedule``'s docstring on
    ``|value - sigma|`` for each entry ``value`` of ``values``, the
    schedule of ``F`` over ``degrees`` in ``nvars`` variables, where sigma
    is the largest singular value of that degree's compression.  The
    eigensolve at degree D has order ``n = C(nvars + D, nvars) dim``; the
    scale 2^e and N depend on ``F`` alone, so they are taken once."""
    scaled, e = _scale_down(F._coeffs)
    gamma = _gamma(F.num_terms * F.dim + 2)
    N = float(np.sum(np.sqrt(np.sum(np.abs(scaled) ** 2, axis=(1, 2)))))
    bounds = []
    for D, value in zip(degrees, values):
        lapack = _operator_norm_rounding(math.comb(nvars + D, nvars) * F.dim)
        sigma = math.ldexp(value, -e)
        lam = sigma * sigma
        delta = gamma * N * N + lapack * (lam + gamma * N * N) / (1 - lapack)
        below = sigma + math.sqrt(max(lam - delta, 0.0))
        gap = min(math.sqrt(delta), delta / below) if below > 0 else math.sqrt(delta)
        bounds.append(math.ldexp(gap + 2 * _U * sigma, e) + 2.0**-1074)
    return bounds


def diagonal_example(w: Iterable[complex]) -> np.ndarray:
    """Diagonal operator with the unimodular tuple w on the diagonal; its
    order d is ``len(w)``.

    The map ``w -> diag(w)`` is a sup-norm isometry into operators:
    ``||diag(w) - diag(w')|| = max_j |w_j - w'_j|``, which is exactly the
    uniform distance of the points on the d-torus.
    """
    w = np.atleast_1d(np.asarray(w, dtype=np.complex128))
    if w.ndim != 1 or w.size < 1:
        raise ValueError("w must be a nonempty vector")
    if np.any(np.abs(np.abs(w) - 1.0) > 1e-12):
        raise ValueError("entries must be unimodular (|w_j| = 1)")
    out = np.diag(w)
    out.setflags(write=False)
    return out
