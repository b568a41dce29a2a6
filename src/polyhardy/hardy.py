"""Hardy norms on torus grids, Fourier extraction, and extremal kernels.

The H_2 norm is the exact Parseval sum of squared coefficient norms.
The H_p norms are tensor-grid quadratures over scaled roots of unity.
Grid values are an inverse DFT of the folded coefficients, exact for
every grid size, and Fourier coefficients a forward DFT of the values;
both run through ``_dft``, one product per variable with a cached
matrix of M-th roots of unity (``np.fft`` only for an axis whose matrix
would be too large).  Folding and extraction go by one index array: the
flat cell ``alpha mod M`` of every term, from its exponent row, so the
fold is one in-order ``np.add.at`` and the extraction one fancy index.
The fold fills only the box of cells the exponents reach, ``min(e + 1,
M)`` along a variable whose largest exponent is e, and each axis's
product maps that box's length to M, so a grid much finer than the
degree transforms only lines that can be nonzero.  The matrix products
state their rounding once (``_dft_rounding``, a gamma_k relative to the
sum of the moduli of the inputs), so every node value is within
``gamma_k S``, ``S = sum ||c_alpha|| r^|alpha|`` (``_grid_values_rounding``),
and ``hp_norm`` and ``pointwise_vs_symbolic`` state bounds built on it,
which ``verify parseval`` checks against; an axis through ``np.fft`` has
no stated bound, and its evaluators raise.  Grid values have one
layout, here and in every function that reads them: a C-contiguous
``(*coefficient shape, num_nodes)`` array, coefficient axes first and
the node axis last, in ``grid.nodes()`` order.  The transforms run over
the trailing axes, node norms reduce the leading ones, and node k's
value is ``values[..., k]``.  The pointwise product of an operator
symbol and a vector series, sampled on a grid and compared with the
symbolic product (``pointwise_vs_symbolic``), is taken the same way.
Quadrature exactness, not evaluation, is what needs enough points per
variable: for polynomials at radius 1 the H_2 quadrature is *exact*, up
to rounding, once the grid has more points per variable than that
variable's largest exponent, and the H_2k quadrature once it has more
than k times it (discrete orthogonality, see ``hp_norm``), which lets
the tests compare it against Parseval with no quadrature error in the
way.  The sup norm is estimated from below by grid maxima over a
schedule of grids.  For an operator symbol the node norms are largest
singular values.  Every node gets a certified ceiling in one batched
pass: its Schatten-4 norm ``||M^H M||_F^(1/2)``, widened by a stated
rounding allowance.  A node gets an SVD only while its ceiling exceeds
the maximum found so far.  Since sigma_max <= ||.||_S4, a skipped node
cannot raise the maximum, so the result is bit for bit the maximum over
all nodes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ._linalg import (
    _U, _axis_norms, _gamma, _in_range, _mean, _reduce_scaled, _row_norms, _scale_down, _vector_norm, operator_norm,
)
from .multiindex import MultiIndex, _index, _rows_of_keys, _simplex_table
from .series import (
    PowerSeries, TruncationParams, _check_op_vec, _coefficient_shape, _monomials, _polydisk_point,
    _product_rounding, _scaled, op_vec_product,
)

__all__ = [
    "TorusGrid",
    "cole_gamelin_kernel",
    "cole_gamelin_kernel_value",
    "fourier_coefficient",
    "h2_norm",
    "hinf_norm",
    "hp_norm",
    "point_evaluation_bound",
    "pointwise_vs_symbolic",
]


@dataclass(frozen=True)
class TorusGrid:
    """Tensor grid of M-th roots of unity scaled by ``radius`` in each of
    ``nvars`` variables.

    ``nvars`` and ``points_per_var`` go through ``operator.index`` and are
    stored as ints: a non-integer raises ``TypeError`` and a value below 1
    raises ``ValueError``, each naming the field.  A radius outside
    (0, 1] raises ``ValueError``."""

    nvars: int
    points_per_var: int
    radius: float = 1.0

    def __post_init__(self) -> None:
        for name in ("nvars", "points_per_var"):
            object.__setattr__(self, name, _index(getattr(self, name), name, 1))
        if not 0.0 < self.radius <= 1.0:
            raise ValueError("radius must lie in (0, 1]")

    @property
    def num_nodes(self) -> int:
        return self.points_per_var**self.nvars

    def nodes(self) -> np.ndarray:
        """All grid points as a (num_nodes, nvars) complex array."""
        roots = self.radius * np.exp(
            2j * np.pi * np.arange(self.points_per_var) / self.points_per_var
        )
        mesh = np.meshgrid(*([roots] * self.nvars), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


def h2_norm(F) -> float:
    """Parseval norm: sqrt of the sum of squared coefficient norms.

    Exact for finitely supported series.  Accepts a vector power series
    or a vector Dirichlet series; the Bohr bijection is an isometry for
    this norm, so both sides give the same number.  One sum of squares
    over all T*d entries of the coefficient stack the series holds, so
    the relative error is at most gamma_{T*d+2} (``_h2_norm_rounding``);
    the empty series has norm 0.  A norm outside ``_in_range`` is taken
    once more on scaled coefficients (the range rule of ``_linalg``); one
    beyond the double range is ``inf``.
    """
    if F.kind != "vector":
        raise ValueError(
            "h2_norm is defined for vector series; use hinf_norm for operator symbols"
        )
    with np.errstate(over="ignore"):  # taken again below
        norm = float(_vector_norm(F._coeffs))
    return norm if _in_range(norm) else float(_reduce_scaled(_vector_norm, F._coeffs))


def _h2_norm_rounding(F) -> int:
    """The index k of the relative rounding gamma_k that ``h2_norm``
    states, ``k = T d + 2``."""
    return F.num_terms * F.dim + 2


def _cells(
    columns: np.ndarray, rows: np.ndarray, grid: TorusGrid, box: tuple[int, ...] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Row of cell ``alpha mod M`` in a flattened grid tensor of shape
    ``box`` (by default the full ``M^N``), and the total degree, of each
    exponent row over the increasing positions ``columns``, all below
    ``grid.nvars``: the rows a series holds, read as they are."""
    M = grid.points_per_var
    box = box or (M,) * grid.nvars
    strides = np.array([math.prod(box[k + 1:]) for k in range(len(box))], dtype=np.int64)  # C order
    return (rows % M) @ strides[columns], rows.sum(axis=1)


def _fold_box(F: PowerSeries, grid: TorusGrid) -> tuple[int, ...]:
    """The box ``b_1 x ... x b_N`` that ``_grid_values`` folds F into:
    ``b_k = min(largest exponent of variable k + 1, M)``, and ``b_k = 1``
    for a variable F does not use."""
    box = [1] * grid.nvars
    for column, top in zip(F._columns.tolist(), F._keys.max(axis=0, initial=0).tolist()):
        box[column] = min(top + 1, grid.points_per_var)
    return tuple(box)


#: Most entries, and most columns, of a DFT matrix ``_dft`` multiplies by;
#: an axis that would need more goes through ``np.fft`` (see ``_grid_values``).
_DFT_MATRIX_CAP = 2**14
_DFT_MATRIX_WIDTH = 64


def _fft_axis(M: int, b: int) -> bool:
    """Whether ``_dft`` takes an axis of b cells to M points through
    ``np.fft``: its matrix would pass ``_DFT_MATRIX_WIDTH`` columns or
    ``_DFT_MATRIX_CAP`` entries."""
    return b > _DFT_MATRIX_WIDTH or M * b > _DFT_MATRIX_CAP


@functools.lru_cache(maxsize=64)
def _dft_matrix(M: int, b: int, sign: int) -> np.ndarray:
    """The read-only ``M x b`` matrix ``roots[(m j) mod M]`` of the M-th roots
    of unity ``roots[n] = exp(sign 2 pi i n / M)``.

    Each root is taken at its angle reduced to [-pi, pi], so roots n and
    M - n are conjugates and every root is within about 13 u of the exact
    one (the angle within gamma_3 pi, cos and sin within an ulp); the
    quarter turns 1, i, -1 and -i (times ``sign``) are exact."""
    n = np.arange(M)
    roots = np.exp(sign * 1j * (2 * np.pi * ((n + M // 2) % M - M // 2) / M))
    quarter = 4 * n % M == 0
    roots[quarter] = np.array([1, complex(0, sign), -1, complex(0, -sign)])[4 * n[quarter] // M]
    matrix = roots[np.multiply.outer(n, np.arange(b)) % M]
    matrix.setflags(write=False)
    return matrix


def _dft(values: np.ndarray, box: tuple[int, ...], M: int, sign: int) -> np.ndarray:
    """The M-point DFT ``y_m = sum_j x_j roots[(m j) mod M]`` (roots as in
    ``_dft_matrix``, unscaled) along every grid axis of ``values``, whose
    last axis is a C-ordered box ``b_1 x ... x b_N`` with every ``b_k <=
    M``, zero-padded to ``M^N``; the result is the C-contiguous
    ``(*values.shape[:-1], M^N)`` array.

    The axes go from the last to the first, each as one matmul by its
    ``M x b_k`` matrix: broadcast over ``values.reshape(*lead,
    prod(box[:k]), b_k, -1)``, whose trailing axes already hold M, and for
    the last axis, whose lines are the rows of ``values``, one product of
    those rows with the matrix's transpose.  An axis whose matrix would
    have more than ``_DFT_MATRIX_WIDTH`` columns or ``_DFT_MATRIX_CAP``
    entries goes through ``np.fft`` with ``n = M`` instead.
    """
    lead = values.shape[:-1]
    for k in reversed(range(len(box))):
        b = box[k]
        if _fft_axis(M, b):
            lines = values.reshape(*lead, math.prod(box[:k]), b, -1)
            if sign > 0:
                values = np.fft.ifft(lines, n=M, axis=-2, norm="forward")
            else:
                values = np.fft.fft(lines, n=M, axis=-2)
        elif k == len(box) - 1:
            values = values.reshape(-1, b) @ _dft_matrix(M, b, sign).T
        else:
            values = _dft_matrix(M, b, sign) @ values.reshape(*lead, math.prod(box[:k]), b, -1)
    return values.reshape(*lead, -1)


def _dft_rounding(box: tuple[int, ...], M: int) -> int:
    """The index k of the rounding ``_dft`` adds over ``box``: each entry
    of the result is within ``gamma_k sum_j |x_j|`` of the exact transform,
    the sum over the box of the entries x_j it is formed from, with ``k =
    sum_k (b_k + 15)``.

    Each axis is a complex inner product of b_k terms, within gamma_{b_k +
    2} of the sum of the moduli of its terms (Higham, Section 3.6), with
    roots within 13 u (``_dft_matrix``), and the axes compose, as
    ``gamma_a + gamma_b + gamma_a gamma_b <= gamma_{a+b}`` and each
    partial result's modulus is at most the sum of the moduli it came
    from.  No bound is stated for an axis through ``np.fft``: Higham's
    Theorem 24.2 is normwise, relative to ``||y||_2 = sqrt(M) ||x||_2``,
    and for radix 2 only, while pocketfft takes a prime M such as 257 by
    Bluestein's algorithm.  So a box with such an axis (``_fft_axis``)
    raises ``ValueError``."""
    if any(_fft_axis(M, b) for b in box):
        raise ValueError(
            f"_dft states no rounding bound for an axis through np.fft (more than {_DFT_MATRIX_WIDTH} "
            f"columns or {_DFT_MATRIX_CAP} entries), got {M} points from box {box}"
        )
    return sum(box) + 15 * len(box)


def _grid_values(F: PowerSeries, grid: TorusGrid) -> np.ndarray:
    """Values of F at ``grid.nodes()``, shape ``(*coefficient shape, num_nodes)``.

    At M-th roots of unity ``w^alpha`` depends only on ``alpha mod M``, so
    the inverse DFT (``_dft``, sign +1) of ``r^|alpha| c_alpha`` folded into
    cell ``alpha mod M`` of an ``M^N`` tensor gives every node value
    exactly, for every M.  The fold is one in-order ``np.add.at`` over the
    cell of each term, so terms that share a cell are summed in ``terms``
    order.

    Only the box ``b_1 x ... x b_N`` of cells that can be nonzero is
    formed, with ``b_k = min(largest exponent of variable k + 1, M)`` and
    ``b_k = 1`` for a variable the series does not use.  Each axis is one
    matmul by the ``M x b_k`` matrix of roots, M b_k multiply-adds per
    line, so a grid much finer than the degree transforms only lines that
    can be nonzero.  An axis goes through ``np.fft`` instead, which
    zero-pads each line to M at O(M log M), when its matrix would have more
    than 64 columns or more than 2^14 entries (``_DFT_MATRIX_WIDTH``,
    ``_DFT_MATRIX_CAP``).  The entry cap keeps the matrix of a one-variable
    grid of degree 10^4 (M = 2 10^4 + 1) from taking 3.2 GB, and the cache
    of matrices under 16 MB.  Both bounds sit near the crossover, which
    moves with b_k against log M.  With one BLAS thread, on two complex
    entries per node: three variables at M = 64 and b_k = 13 took 1.9 ms
    by matmul and 6.5 ms by FFT; at M = 121 and b_k = 61, 60 and 98 ms;
    at M = 64 and b_k = 64, still under both bounds, 14 and 9.1 ms; two
    variables at M = 128 and b_k = 128 0.94 and 0.32 ms; one variable at
    M = 2001 and b_k = 1001 3.2 and 0.09 ms.

    The tensor is laid out coefficient axes first, ``(*shape, b_1, ...,
    b_N)``, and transformed over its trailing grid axes, so each
    coefficient entry is one contiguous block of node values.  The result
    is that tensor with its grid axes flattened, the C-contiguous
    ``(*shape, num_nodes)`` array of the module's one layout.  A value
    beyond the double range comes out infinite or NaN with no warning.

    *Rounding.*  Each node value is within ``gamma_k S`` of F at the exact
    node, in norm (Frobenius for operators), with ``S = sum ||c_alpha||
    r^|alpha|`` (``_modulus_sum``) and k the fold's roundings plus
    ``_dft_rounding`` of the box (``_grid_values_rounding``).
    """
    if F.nvars_used > grid.nvars:
        raise ValueError(
            f"grid covers {grid.nvars} variables but the series uses {F.nvars_used}"
        )
    shape = _coefficient_shape(F.kind, F.dim)
    box = _fold_box(F, grid)
    cells, degrees = _cells(F._columns, F._keys, grid, box)
    # Python float powers, one per degree: the ``r ** |alpha|`` each term took
    powers = np.array([grid.radius**k for k in range(degrees.max(initial=-1) + 1)])
    rank = len(shape)
    node_first = (rank, *range(rank))  # axes of a (*shape, num_nodes) array, node axis first
    folded = np.zeros((*shape, math.prod(box)), dtype=np.complex128)
    scaled = powers[degrees].reshape(-1, *(1,) * rank) * F._coeffs
    np.add.at(folded.transpose(node_first), cells, scaled)
    with np.errstate(over="ignore", invalid="ignore"):  # callers name such nodes (_check_finite)
        return _dft(folded, box, grid.points_per_var, 1)


def _modulus_sum(F: PowerSeries, radius: float) -> float:
    """``S = sum ||c_alpha|| r^|alpha|`` (Frobenius norms for operators),
    which bounds the norm of F everywhere on the torus of radius r."""
    entries = F._coeffs.reshape(-1, F.dim ** (F._coeffs.ndim - 1))  # one row per term
    norms = np.sqrt(np.vecdot(entries, entries).real)
    return float(norms @ radius ** F._keys.sum(axis=1))


def _grid_values_rounding(F: PowerSeries, grid: TorusGrid) -> int:
    """The index k of the rounding ``_grid_values`` states: each node value
    is within ``gamma_k S`` of F at the exact node, in norm, for S of
    ``_modulus_sum``.

    The fold's cell sums take T - 1 roundings for T terms, none when every
    side of the fold box (``_fold_box``) is below M, as then no exponent
    reaches M and each cell holds one term; ``r^|alpha|`` (Python's float
    power, within an ulp) and its product with the coefficient take three,
    none at radius 1; and the transform takes ``_dft_rounding`` of the fold
    box.  Each bound holds entry by entry against the sums of ``|c_alpha|
    r^|alpha|``, hence in norm against S.  Raises ``ValueError`` where
    ``_dft_rounding`` does."""
    M = grid.points_per_var
    box = _fold_box(F, grid)
    folded = max(F.num_terms - 1, 0) if max(box) == M else 0
    return folded + 3 * (grid.radius != 1.0) + _dft_rounding(box, M)


def _grid_coefficients(values: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """Unit-grid means of ``values * w^(-alpha)``, at position ``alpha mod
    M`` of the last axis, a flattened ``M^N`` tensor (see ``_cells``);
    ``values`` holds node k's value at ``values[..., k]``.  The forward
    DFT (``_dft``, sign -1) over the full tensor, divided by the node
    count."""
    M = grid.points_per_var
    return _dft(values, (M,) * grid.nvars, M, -1) / grid.num_nodes


def _sigma_ceilings(values: np.ndarray) -> np.ndarray:
    """Upper bounds on ``operator_norm`` of each node matrix of the
    ``(d, d, num_nodes)`` grid values.

    A node's ceiling is a certified bound on LAPACK's sigma_hat <=
    sigma_max (1 + p(d) eps) (LAPACK Users' Guide): its Schatten-4 norm,
    ``sigma_max <= (sum sigma_i^4)^(1/4) = ||M^H M||_F^(1/2)``, widened by
    one allowance delta = 16 (d^2 + 2) eps, which leaves room for p(d) up
    to about 15 (d^2 + 2) and for the roundings counted below.  It equals
    sigma_max for rank one and is never above d^(1/4) sigma_max.

    Each node is scaled by the power of two 2^-e of ``_linalg``'s range
    rule for its largest real or imaginary part (``_scale_down`` over the
    node's axes); that is exact except where an entry turns subnormal,
    and puts the largest part of S = 2^-e M in [2^-52, 2), so every entry
    of S has modulus below 2^(3/2) and the Gram S^H S of finite values
    cannot overflow.  Each Gram entry is a d-term complex dot product, off
    by at most gamma_{d+2} (|S|^T |S|)_ij (Higham, Lemma 3.5), so the
    computed Gram is off by at most gamma_{d+2} ||S||_F^2 <= gamma_{d+2}
    sqrt(d) ||S^H S||_F in Frobenius norm (sum sigma_i^2 <= sqrt(d)
    (sum sigma_i^4)^(1/2)).  numpy's norm of the computed Gram, g_hat,
    adds gamma_{d^2+2}; the fourth root halves both, and the square root
    and the widening are two more roundings.  Entries, Gram products and
    squares that land in the subnormal range are off by absolute amounts,
    below d^2 2^-860 of ||S^H S||_F because the largest entry of S is at
    least 2^-52.  All of it fits in delta, so sigma_hat <= 2^e sqrt(g_hat)
    (1 + delta), plus 2^-1073 for the rounding of a result in the
    subnormal range (of ``ldexp`` or of LAPACK).  A ceiling beyond the
    double range overflows in the final ``ldexp`` to inf, never NaN.  An
    all-zero node has sigma_hat = 0 and ceiling 0 (every other node has a
    scaled Gram diagonal entry of at least 2^-104, so a positive ceiling);
    a node with a non-finite entry has a NaN or infinite ceiling.  The
    Gram is one broadcast over the tensor as it is.
    """
    d = values.shape[0]
    delta = 16 * (d * d + 2) * (2 * _U)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite ceilings are kept
        scaled, e = _scale_down(values, axis=(0, 1))
        gram = (scaled.conj()[:, :, None, :] * scaled[:, None, :, :]).sum(axis=0)
        ceilings = np.ldexp(np.sqrt(_axis_norms(gram, (0, 1))) * (1 + delta), e)
    return np.where(ceilings == 0, 0.0, ceilings + 2.0**-1073)


def _check_finite(what: str, values: np.ndarray, grid: TorusGrid) -> None:
    """Raise ``ValueError`` if a node's value in ``values`` (node k's at
    ``values[..., k]``, in ``grid.nodes()`` order) is not finite, naming
    the first such node."""
    finite = np.isfinite(values.reshape(-1, values.shape[-1])).all(axis=0)
    bad = np.flatnonzero(~finite)
    if bad.size:
        raise ValueError(
            f"{what} are not finite at {bad.size} of {grid.num_nodes} "
            f"nodes; the first, node {bad[0]} of grid.nodes(), is {values[..., bad[0]]}"
        )


def hp_norm(F: PowerSeries, p: float, grid: TorusGrid) -> float:
    """Grid H_p norm: ``(mean over nodes of ||F(r w)||^p)^(1/p)``.

    At radius 1 and even p = 2k this is the torus integral of a
    polynomial, up to rounding, once points_per_var M exceeds k D_j for
    every variable j, where D_j is the largest exponent of variable j in
    F (for p = 2, once M > D_j): ||F(w)||^(2k) is a trigonometric
    polynomial of frequency at most k D_j in variable j, and the M-point
    mean of one of frequency below M is its constant term.  At other p it
    is a quadrature with no stated error; at radius < 1 it is the norm of
    the uniformly dilated restriction.  The node norms and their mean are
    taken by the formulas inside ``np.linalg.norm`` and ``np.mean``
    (``_axis_norms`` and ``_mean``), with their bits and without their
    Python wrappers.  A result or mean outside
    ``_in_range`` is taken once more on scaled node values (the range rule
    of ``_linalg``), with the node norms divided by their largest, m, so
    that the largest p-th power is 1 and no p underflows the mean to 0,
    and scaled back by m; that raises ``ValueError`` if a node value is
    not finite.

    *Rounding.*  For p a power of two, the value is within ``gamma_k
    hp_norm + gamma_{g+1} S`` of the same mean over the exact node values,
    with g and S those of ``_grid_values`` (``_grid_values_rounding``,
    ``_modulus_sum``) and ``k = (d + 3)/2 + (n + 2)/p + 8`` for d entries
    per coefficient and n nodes (``_hp_norm_rounding``).  The mean is a
    norm of the node norms for p >= 1, so it moves by at most the largest
    node value's error, gamma_g S.  Each node norm is within
    gamma_{(d+3)/2} (d squares and their sum, then the root), relative;
    the p-th power multiplies that by p and adds an ulp (two roundings),
    the mean of n positive terms adds gamma_n, and the root at the exact
    exponent 1/p divides the whole by p and adds an ulp.  The retake on
    scaled values adds three roundings, for the division by and product
    with m and for the scaling.  One more makes the bound relative to the
    computed value, and one each covers second-order terms and the
    rounding of the bound; the 1 added to g covers the rounding of S.  At
    any other p the exponent 1/p is rounded, which moves the root by a
    relative u |log hp_norm|, and no bound is stated.
    """
    p = float(p)
    if not p >= 1:
        raise ValueError("hp_norm requires p >= 1")
    if math.isinf(p):
        raise ValueError("p must be finite; use hinf_norm for the sup norm")
    if F.kind != "vector":
        raise ValueError("hp_norm is defined for vector series")
    values = _grid_values(F, grid)
    with np.errstate(over="ignore"):  # taken again below
        mean = _mean(_axis_norms(values, 0) ** p)
        result = float(mean ** (1.0 / p))
    if not _in_range(result, mean):
        _check_finite("grid values", values, grid)

        def power_mean(scaled):
            norms = _axis_norms(scaled, 0)
            m = float(norms.max()) or 1.0  # 1 for the zero series, whose norms are all 0
            return float(_mean((norms / m) ** p) ** (1.0 / p)) * m

        result = float(_reduce_scaled(power_mean, values))
    return result


def _hp_norm_rounding(F: PowerSeries, p: float, grid: TorusGrid, norm: float) -> float:
    """The rounding ``hp_norm`` states for its value ``norm`` of F at p on
    ``grid``: ``gamma_k norm + gamma_{g+1} S``, with g of
    ``_grid_values_rounding``, S of ``_modulus_sum`` and ``k = (d + 3)/2 +
    (n + 2)/p + 8``.  Stated for p a power of two only, whose reciprocal
    is a double, so any other p raises ``ValueError``."""
    p = float(p)
    numerator, denominator = p.as_integer_ratio()
    if denominator != 1 or numerator.bit_count() != 1:
        raise ValueError(f"hp_norm states no rounding bound for p other than a power of two, got {p}")
    k = (F.dim + 3) / 2 + (grid.num_nodes + 2) / p + 8
    return _gamma(k) * norm + _gamma(_grid_values_rounding(F, grid) + 1) * _modulus_sum(F, grid.radius)


def hinf_norm(F: PowerSeries, grid_schedule: Sequence[TorusGrid]) -> float:
    """Sup-norm estimate: max pointwise norm over all grids in the schedule.

    Always a lower bound of the true sup over the polydisk, nondecreasing
    as more grids are appended; the grid metadata is the caller's record
    of how far the schedule reached.

    For an operator symbol the pointwise norm is ``operator_norm``, but
    it runs only on nodes that could raise the maximum: each grid's nodes
    whose ceiling from ``_sigma_ceilings`` exceeds the maximum so far (the
    Schatten-4 norm, widened by a stated rounding allowance, all nodes in
    one batched pass over the ``(d, d, num_nodes)`` grid values) are
    visited by descending ceiling, and the visit stops at the first
    ceiling at most the maximum so far.  Every skipped node's computed norm is at
    most its ceiling, so the result equals the maximum of
    ``operator_norm`` over all nodes bit for bit.  A finite node whose
    norm is beyond the doubles has ceiling and ``operator_norm`` inf,
    never NaN, so it makes the result inf.

    A node value that is not finite, of either kind, raises
    ``ValueError`` naming the first such node.  It leaves its node norm
    (vector) or ceiling (operator) NaN or infinite, so the values are
    looked at only when the largest ceiling is not finite, or the
    largest node norm is outside ``_in_range``; that norm is then taken
    once more on scaled node values (the range rule of ``_linalg``).
    """
    grids = list(grid_schedule)
    if not grids:
        raise ValueError("grid schedule must be non-empty")
    best = 0.0
    for grid in grids:
        values = _grid_values(F, grid)
        if F.kind == "vector":
            with np.errstate(over="ignore"):  # taken again below
                top = float(_axis_norms(values, 0).max())
            if not _in_range(top):
                _check_finite("grid values", values, grid)
                top = float(_reduce_scaled(lambda v: _axis_norms(v, 0).max(), values))
            best = max(best, top)
            continue
        ceilings = _sigma_ceilings(values)
        if not math.isfinite(float(ceilings.max())):
            _check_finite("grid values", values, grid)
        candidates = np.flatnonzero(ceilings > best)
        for k in candidates[np.argsort(-ceilings[candidates], kind="stable")].tolist():
            if ceilings[k] <= best:
                break
            best = max(best, operator_norm(values[..., k]))
    return best


def fourier_coefficient(
    sampler: Callable[[np.ndarray], np.ndarray],
    alpha: MultiIndex | Iterable[int],
    grid: TorusGrid,
) -> np.ndarray:
    """Discrete Fourier coefficient: mean of ``sampler(w) * w^(-alpha)``.

    Calls ``sampler`` once per node, in ``grid.nodes()`` order, and returns
    the ``alpha mod M`` aliased coefficient: the sum of the sampled
    coefficients at every beta congruent to alpha modulo points_per_var.
    Requires the unit-radius grid.  Exact (to rounding) for trigonometric
    polynomials once points_per_var exceeds the sampled degree.
    """
    if not isinstance(alpha, MultiIndex):
        alpha = MultiIndex(alpha)
    if grid.radius != 1.0:
        raise ValueError("Fourier extraction requires radius 1 (unit torus grid)")
    if len(alpha) > grid.nvars:
        raise ValueError(
            f"multi-index uses {len(alpha)} variables but the grid has {grid.nvars}"
        )
    values = np.moveaxis(np.array([sampler(w) for w in grid.nodes()], dtype=np.complex128), 0, -1)
    rows, columns = _rows_of_keys([alpha])
    return _grid_coefficients(values, grid).take(_cells(columns, rows, grid)[0][0], axis=-1)


def pointwise_vs_symbolic(F: PowerSeries, G: PowerSeries, grid: TorusGrid) -> float:
    """Largest coefficient gap between the sampled and symbolic products.

    Samples ``w -> F(w) @ G(w)`` on the unit-radius grid, extracts each
    Fourier coefficient over the symbolic product support, and returns
    the max Euclidean distance to the convolution coefficients.  The grid
    must have more points per variable than the product's degree, so in
    exact arithmetic the gap is 0.  Non-finite sampled values raise
    ``ValueError``; a non-finite gap is returned, not passed over.

    *Rounding.*  The gap is at most ``(gamma_{f+1} S_F h_G + gamma_{g+1}
    h_F S_G + gamma_k h_F h_G) (1 + gamma_{d+3})``, with f and g the
    ``_grid_values_rounding`` of F and G, S their ``_modulus_sum``, h
    their H_2 norms (Frobenius for F), and ``k = d + 4 + t + q`` for t the
    ``_dft_rounding`` of the full ``M^N`` box and q the
    ``series._product_rounding`` of F and G
    (``_pointwise_vs_symbolic_rounding``).  The sampled product is off by
    at most ``||F(w) - F_hat(w)|| ||G_hat(w)|| + ||F(w)|| ||G(w) -
    G_hat(w)||`` plus the d-term products' gamma_{d+2} ``||F(w)||
    ||G(w)||``, and the extracted coefficient by the mean of that over the
    nodes, plus gamma_t of the mean of ``||F(w)|| ||G(w)||`` for the
    transform and one rounding for the division.  On this grid the means
    of ``||F(w)||``, ``||G(w)||`` and ``||F(w)|| ||G(w)||`` are at most
    h_F, h_G and h_F h_G (Cauchy-Schwarz, and the exact grid mean of the
    squares), and each symbolic coefficient is within ``gamma_q sum ||a||
    ||b|| <= gamma_q h_F h_G`` over its pairs (Cauchy-Schwarz again).  One
    rounding each covers second-order terms and the rounding of S and h;
    the difference and its norm add d + 3, relative.
    """
    _check_op_vec(F, G)
    degree = F.total_degree + G.total_degree
    needed = degree + 1
    if grid.radius != 1.0:
        raise ValueError("consistency check requires the unit-radius grid")
    if grid.points_per_var < needed:
        raise ValueError(
            f"grid resolution insufficient: need at least {needed} points per "
            f"variable, got {grid.points_per_var}"
        )

    window = TruncationParams(grid.nvars, degree, F.dim)
    product = op_vec_product(F, G, window)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        sampled = np.einsum("ijk,jk->ik", _grid_values(F, grid), _grid_values(G, grid))
    _check_finite("sampled values F(w) G(w)", sampled, grid)
    extracted = _grid_coefficients(sampled, grid).T
    gaps = extracted[_cells(product._columns, product._keys, grid)[0]] - product._coeffs
    return float(np.max(_row_norms(gaps), initial=0.0))


def _pointwise_vs_symbolic_rounding(F: PowerSeries, G: PowerSeries, grid: TorusGrid) -> float:
    """The bound ``pointwise_vs_symbolic`` states for its gap on ``grid``:
    ``(gamma_{f+1} S_F h_G + gamma_{g+1} h_F S_G + gamma_k h_F h_G) (1 +
    gamma_{d+3})``, ``k = d + 4 + t + q``, as its docstring defines them."""
    M = grid.points_per_var
    h_F, h_G = float(_vector_norm(F._coeffs)), float(_vector_norm(G._coeffs))
    k = F.dim + 4 + _dft_rounding((M,) * grid.nvars, M) + _product_rounding(F, G)
    return (
        _gamma(_grid_values_rounding(F, grid) + 1) * _modulus_sum(F, 1.0) * h_G
        + _gamma(_grid_values_rounding(G, grid) + 1) * h_F * _modulus_sum(G, 1.0)
        + _gamma(k) * h_F * h_G
    ) * (1 + _gamma(F.dim + 3))


def point_evaluation_bound(z: Iterable[complex], p: float = 2.0) -> float:
    """Growth factor ``prod (1 - |z_j|^2)^(-1/p)`` in the point-evaluation
    inequality ``||G(z)|| <= ||G||_p * bound``.

    *Rounding.*  With u = 2^-53, gamma_k = k u / (1 - k u) and
    ``c = 1 / (1 - max_j |z_j|^2)``: np.abs is within one ulp, so
    ``|z_j|^2`` is within gamma_5, relative, and ``1 - |z_j|^2`` within
    ``gamma_{5c+1}``, as ``|z_j|^2 <= (c - 1)(1 - |z_j|^2)``.  Raised to
    the double nearest -1/p (p >= 1), which moves the power by at most
    ``u log c <= u (c - 1)``, it is within ``gamma_{6c+2}``; np.power adds
    at most four ulp, and the product of N factors N - 1 roundings, so the
    value is within ``gamma_{N(6c+11)}`` of the exact one, relative
    (``_point_evaluation_bound_rounding``).
    """
    z = _polydisk_point(z, "point")
    if not float(p) >= 1:
        raise ValueError("p must be at least 1")
    return float(np.prod((1.0 - np.abs(z) ** 2) ** (-1.0 / float(p))))


def _closeness(z: np.ndarray) -> float:
    """``c = 1 / (1 - max_j |z_j|^2)`` of the rounding statements of
    ``point_evaluation_bound`` and ``cole_gamelin_kernel``."""
    return 1 / (1 - float(np.max(np.abs(z) ** 2)))


def _point_evaluation_bound_rounding(z: np.ndarray) -> float:
    """The index k of the relative rounding gamma_k that
    ``point_evaluation_bound`` states at the N-coordinate point z,
    ``k = N (6c + 11)``."""
    return len(z) * (6 * _closeness(z) + 11)


def _kernel_vector(x: Iterable[complex]) -> np.ndarray:
    """``x`` as a 1-d complex array; ``ValueError`` unless it is a nonempty,
    finite vector."""
    x = np.atleast_1d(np.asarray(x, dtype=np.complex128))
    if x.ndim != 1 or x.size < 1:
        raise ValueError("x must be a nonempty vector")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    return x


def cole_gamelin_kernel(
    x: Iterable[complex], z: Iterable[complex], degree: int
) -> PowerSeries:
    """Extremal kernel for p = 2 point evaluation, truncated at total degree.

    The full kernel is ``x * prod_j sqrt(1 - |z_j|^2) / (1 - conj(z_j) w_j)``,
    whose expansion has coefficient ``x * prod_j sqrt(1 - |z_j|^2) *
    conj(z)^alpha`` at ``w^alpha``.  Untruncated it has H_2 norm exactly
    ``||x||`` and attains the point-evaluation bound at ``w = z``.

    The series is ``x`` at every key of the degree simplex, scaled by the
    amplitude times the monomial table of series evaluation at conj(z):
    ``conj(z_j) ** alpha_j`` multiplied along the variables in increasing
    order.  ``x`` must be finite and ``z`` a point of the open polydisk,
    both one-dimensional; ``degree`` is a non-negative integer.

    *Rounding.*  With gamma_k and c as in ``point_evaluation_bound``: the
    amplitude ``prod sqrt(1 - |z_j|^2)`` is within ``gamma_{N(5c+3)}``
    (each square root within ``gamma_{5c+2}``), the monomial of degree at
    most D within ``gamma_{3D}`` (``evaluate_power``'s count), and the
    amplitude times the monomial and that times ``x_i`` add ``gamma_4``.
    So each coefficient is within gamma_k of the exact one, relative to
    its modulus, for ``k = 3D + 4 + N(5c + 3)``, while no product
    underflows (``_cole_gamelin_kernel_rounding``).
    """
    x = _kernel_vector(x)
    z = _polydisk_point(z, "kernel base point")
    amplitude = float(np.prod(np.sqrt(1.0 - np.abs(z) ** 2)))
    _, exponents = _simplex_table(z.size, _index(degree, "degree", 0))
    x_everywhere = np.broadcast_to(x, (len(exponents), x.size))
    constant = PowerSeries._wrap("vector", x.size, exponents, x_everywhere, np.arange(z.size))
    return _scaled(constant, amplitude * _monomials(constant, np.conj(z)[None])[0])


def _cole_gamelin_kernel_rounding(z: np.ndarray, degree: int) -> float:
    """The index k of the relative rounding gamma_k that
    ``cole_gamelin_kernel`` states for each coefficient of the kernel at
    the N-coordinate point z truncated at ``degree``,
    ``k = 3 degree + 4 + N (5c + 3)``."""
    return 3 * degree + 4 + len(z) * (5 * _closeness(z) + 3)


def cole_gamelin_kernel_value(
    x: Iterable[complex],
    z: Iterable[complex],
    zeta: Iterable[complex],
    p: float = 2.0,
) -> np.ndarray:
    """Closed-form kernel value ``x * prod (1-|z_j|^2)^(1/p) / (1 - conj(z_j) zeta_j)^(2/p)``.

    Available for every p >= 1 (the series expansion is only built for
    p = 2, where Parseval applies); used for inequality spot checks.
    ``x`` must be a finite, nonempty vector, and ``z`` and ``zeta`` points
    of the open polydisk of the same length.
    """
    x = _kernel_vector(x)
    z = _polydisk_point(z, "z")
    zeta = _polydisk_point(zeta, "zeta")
    p = float(p)
    if not p >= 1:
        raise ValueError("p must be at least 1")
    if z.shape != zeta.shape:
        raise ValueError("z and zeta must be of the same length")
    factors = (1.0 - np.abs(z) ** 2) ** (1.0 / p) / (1.0 - np.conj(z) * zeta) ** (2.0 / p)
    return x * np.prod(factors)
