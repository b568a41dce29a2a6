"""Sparse formal power series with vector or operator coefficients.

A series is a finitely supported map from keys to coefficients.
Coefficients are either d-vectors (function values in C^d) or d x d
matrices (operator symbols acting on C^d); a single series never mixes
the two.  One private core holds the map, its validation and its
comparisons, and one array-form convolution serves every product.

A series holds its keys as one int64 array and its coefficients as one
read-only stack of shape ``(T, *coefficient shape)``, both in ``terms``
order.  :class:`PowerSeries` keys are multi-indices that add, held as
exponent rows over the increasing positions that some key uses;
:class:`~polyhardy.dirichlet.DirichletSeries` keys are frequencies that
multiply, held as one frequency array.  The public ``terms`` mapping,
with :class:`MultiIndex` or int keys, is built from the arrays on first
access and cached; products, sums, truncation, rescaling, evaluation,
grids and the Bohr transports read the arrays and never build it.
Exponents, positions and total degrees of power-series keys must fit in
int64, so degree sums of the rows never wrap.

Every merge of keys goes through one grouping, ``_group``: a stable sort
of the key array (frequencies, or exponent rows compared column by
column) and the start of each run of equal keys.  From 256 keys on it
is one ``np.sort`` of int64 tags ``code * n + index``, a row's code its
mixed-radix value, which gives exactly the stable order while the tags
stay below 2^63 (``_stable_order``).  The constructor and
sums add the coefficients of each run and keep the keys in order of
first appearance; a product lists the key pairs its window keeps, forms
every kept coefficient product in one stacked matmul, and adds them per
product key in sorted order; comparisons align two coefficient stacks
on the union of their keys.  Integer keys compare exactly, and a stable
sort lists the members of a run in the order they were given, so each
sum is formed in a fixed order, the same on every call.

Rescaling each term by its own factor (scalar multiples, dilations,
epsilon-shifts) is one array product over the stacked coefficients,
wrapped without re-checking each one.  Evaluation reads the arrays
too: one table of the monomial of every key at every point
(``_monomials``), contracted with the coefficient stack, serves power
series, Dirichlet series and the Cole-Gamelin kernel.  All arithmetic
is exact sparse bookkeeping in complex double precision; truncation
windows are carried explicitly via :class:`TruncationParams`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Literal, Mapping

import numpy as np

from .multiindex import MultiIndex, _index, _keys_of_rows, _rows_of_keys, graded_lex_key

__all__ = [
    "Kind",
    "PowerSeries",
    "TruncationParams",
    "evaluate_power",
    "op_vec_product",
    "radial_dilate",
    "truncate",
]

Kind = Literal["vector", "operator"]

_KINDS = ("vector", "operator")

_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class TruncationParams:
    """Finite computation window: first ``nvars`` variables, total degree
    at most ``max_degree``, coefficient dimension ``dim``.

    Each field goes through ``operator.index`` and is stored as an int: a
    non-integer (a float such as 2.5 or NaN included) raises ``TypeError``,
    and ``nvars`` or ``dim`` below 1 or ``max_degree`` below 0 raises
    ``ValueError``, each naming the field."""

    nvars: int
    max_degree: int
    dim: int

    def __post_init__(self) -> None:
        for name, least in (("nvars", 1), ("max_degree", 0), ("dim", 1)):
            object.__setattr__(self, name, _index(getattr(self, name), name, least))


def _coefficient_shape(kind: Kind, dim: int) -> tuple[int, ...]:
    return (dim,) if kind == "vector" else (dim, dim)


def _as_coefficient(value, kind: Kind, dim: int) -> np.ndarray:
    arr = np.asarray(value, dtype=np.complex128)
    expected = _coefficient_shape(kind, dim)
    if arr.shape != expected:
        raise ValueError(
            f"{kind} coefficient must have shape {expected}, got {arr.shape}"
        )
    return arr


class _SparseSeries:
    """Immutable sparse map from keys to coefficients; zero coefficients
    are never stored.

    The shared core of :class:`PowerSeries` and
    :class:`~polyhardy.dirichlet.DirichletSeries`.  A series holds its
    keys as one int64 array ``_keys`` (frequencies, or exponent rows over
    the increasing positions ``_columns`` that some key uses) and its
    coefficients as one read-only stack ``_coeffs`` of shape
    ``(T, *coefficient shape)``, both in ``terms`` order.  ``terms`` is
    built from them on first access and cached.  A subclass fixes its key
    type through ``_key``, which normalizes and validates one key, and
    through ``_encode``/``_decode``, which turn a list of keys into key
    arrays and back.

    The constructor encodes every given key, stacks the coefficients and
    merges equal keys through ``_group``, the one grouping of every key
    merge: the coefficients of equal keys are added in the order they
    were given, and the keys keep the order of their first appearance.
    It then ends in the checks of every array path (``_from_stack``): a
    sum that is not finite raises ``ValueError``, zero sums are dropped,
    and columns that no key uses are trimmed.  Every given key is encoded,
    so a key beyond the int64 range raises even when its coefficients
    are zero.
    """

    __slots__ = ("_kind", "_dim", "_keys", "_columns", "_coeffs", "_terms")

    def __init__(
        self,
        kind: Kind,
        dim: int,
        terms: Mapping | Iterable[tuple] = (),
    ):
        if kind not in _KINDS:
            raise ValueError(f"kind must be 'vector' or 'operator', got {kind!r}")
        dim = _index(dim, "dim", 1)
        items = list(terms.items() if isinstance(terms, Mapping) else terms)
        keys, columns = self._encode([self._key(key) for key, _ in items])
        stack = np.array([_as_coefficient(value, kind, dim) for _, value in items], np.complex128)
        stack = stack.reshape(-1, *_coefficient_shape(kind, dim))
        keys, stack = _nonzero(*_merge(keys, stack))
        self._init(kind, dim, keys, stack, columns)

    def _init(self, kind, dim, keys, coeffs, columns=None):
        """Hold distinct key arrays and a read-only stack of nonzero, finite
        coefficients in the same order; exponent-row columns that no key
        uses are dropped."""
        if columns is not None:
            used = keys.any(axis=0)
            if not used.all():
                columns, keys = columns[used], keys[:, used]
        self._kind, self._dim, self._keys, self._columns = kind, dim, keys, columns
        self._coeffs, self._terms = coeffs, None
        return self

    @classmethod
    def _wrap(cls, kind: Kind, dim: int, keys, coeffs, columns=None):
        return cls.__new__(cls)._init(kind, dim, keys, coeffs, columns)

    @classmethod
    def _from_stack(cls, kind: Kind, dim: int, keys: np.ndarray, stack: np.ndarray, columns=None):
        """Wrap the nonzero rows of a fresh coefficient stack and their keys.

        A stack that is not finite raises the constructor's ``ValueError``.
        """
        return cls._wrap(kind, dim, *_nonzero(keys, stack), columns)

    @classmethod
    def vector(cls, dim: int, terms=()):
        return cls("vector", dim, terms)

    @classmethod
    def operator(cls, dim: int, terms=()):
        return cls("operator", dim, terms)

    @property
    def kind(self) -> Kind:
        return self._kind

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def terms(self) -> Mapping:
        """Read-only map from keys to coefficients, in the order the arrays
        hold them; built from the key arrays on first access.  Each
        coefficient is a read-only view of a row of the stack."""
        if self._terms is None:
            self._terms = MappingProxyType(dict(zip(self._decode(), self._coeffs)))
        return self._terms

    @property
    def num_terms(self) -> int:
        return len(self._keys)

    @property
    def is_zero(self) -> bool:
        return not len(self._keys)

    def coefficient(self, key) -> np.ndarray:
        """Coefficient at ``key`` (validated like a constructor key); zero if absent."""
        found = self.terms.get(self._key(key))
        if found is not None:
            return found
        return np.zeros(_coefficient_shape(self._kind, self._dim), dtype=np.complex128)

    def _same_space(self, other) -> bool:
        return type(self) is type(other) and self._kind == other._kind and self._dim == other._dim

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _SparseSeries):
            return NotImplemented
        return self._same_space(other) and np.array_equal(*_aligned(self, other))

    def allclose(self, other: "_SparseSeries", rtol: float = 1e-12, atol: float = 1e-12) -> bool:
        """Same type, kind and dim, and coefficientwise agreement within tolerances."""
        return self._same_space(other) and np.allclose(*_aligned(self, other), rtol=rtol, atol=atol)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(kind={self._kind!r}, dim={self._dim}, "
            f"num_terms={len(self._keys)})"
        )


class PowerSeries(_SparseSeries):
    """Immutable sparse power series keyed by :class:`MultiIndex`."""

    __slots__ = ()

    @staticmethod
    def _key(alpha) -> MultiIndex:
        return alpha if isinstance(alpha, MultiIndex) else MultiIndex(alpha)

    _encode = staticmethod(_rows_of_keys)

    def _decode(self) -> list[MultiIndex]:
        return _keys_of_rows(self._columns, self._keys)

    @classmethod
    def constant(cls, value) -> "PowerSeries":
        """Constant series; kind inferred from the array rank."""
        arr = np.asarray(value, dtype=np.complex128)
        if arr.ndim == 1:
            return cls("vector", arr.shape[0], {MultiIndex(): arr})
        if arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
            return cls("operator", arr.shape[0], {MultiIndex(): arr})
        raise ValueError("constant must be a vector or a square matrix")

    @property
    def support(self) -> tuple[MultiIndex, ...]:
        """Stored multi-indices in graded-lexicographic order."""
        return tuple(sorted(self.terms, key=graded_lex_key))

    @property
    def total_degree(self) -> int:
        """Largest total degree in the support (0 for the zero series)."""
        return int(self._keys.sum(axis=1).max(initial=0))

    @property
    def max_weighted_degree(self) -> int:
        return max(_weighted_degrees(self), default=0)

    @property
    def nvars_used(self) -> int:
        """Smallest N such that the support lives on the first N variables."""
        return int(self._columns[-1]) + 1 if len(self._columns) else 0

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        """Termwise sum: the terms of ``self``, then the new terms of
        ``other``, each shared key's coefficient ``a_self + a_other``; as
        through the constructor, a sum that is not finite raises
        ``ValueError`` and a zero sum is dropped."""
        if not isinstance(other, PowerSeries):
            return NotImplemented
        if self._kind != other._kind:
            raise ValueError(f"kind mismatch: {self._kind} vs {other._kind}")
        if self._dim != other._dim:
            raise ValueError(f"dimension mismatch: {self._dim} vs {other._dim}")
        keys, columns = _joined(self, other)
        keys, stack = _merge(keys, np.concatenate([self._coeffs, other._coeffs]))
        return PowerSeries._from_stack(self._kind, self._dim, keys, stack, columns)

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "PowerSeries":
        if not np.isscalar(scalar):
            return NotImplemented
        return _scaled(self, scalar)

    __rmul__ = __mul__


#: Key count from which ``_stable_order`` sorts int64 tags.  Below it
#: numpy's stable sorts measured faster: ``_group`` of 64 rows of 4
#: columns took 20 us tagged against 11 us by ``np.lexsort``; from 256
#: rows on the tags were faster (27 against 54 us at 512, 68 against
#: 420 us on 3 921 product keys), and frequencies were even up to 512.
_TAG_SORT_MIN = 256

#: Tags are below ``2**63``: ``(largest code + 1) * len(keys)`` must not pass it.
_TAG_BOUND = 2**63


def _codes(keys: np.ndarray) -> np.ndarray | None:
    """One int64 code per key whose order is the keys' order, or ``None``
    when the tags ``code * len(keys) + index`` would pass the int64 range.

    A 1-d key is its own code.  An exponent row is read in mixed radix,
    each column's radix its largest entry + 1 and the first column the
    most significant, so codes compare as rows do, column by column; a
    row with no column has code 0.
    """
    n = len(keys)
    if keys.ndim == 1:
        return keys if (int(keys.max()) + 1) * n <= _TAG_BOUND else None
    codes, bound = np.zeros(n, dtype=np.int64), 1
    for column in keys.T:
        radix = int(column.max()) + 1
        bound *= radix
        if bound * n > _TAG_BOUND:
            return None
        codes *= radix
        codes += column
    return codes


def _stable_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable sorting permutation ``order`` of non-negative int64 keys,
    and the keys in that order in a form whose neighbours compare equal
    exactly when the keys do.

    ``keys`` is 1-d (frequencies, degree sums) or 2-d rows compared
    column by column, possibly with no column.  From ``_TAG_SORT_MIN``
    keys on, each key's ``_codes`` entry is tagged with its index as
    ``code * n + index`` (n keys), one ``np.sort`` orders the distinct
    tags, and ``divmod`` by n splits them into the sorted codes and
    ``order``: equal codes stay in index order, so this is exactly the
    stable permutation.  Below that count, and where a tag would pass the
    int64 range (``_TAG_BOUND``), ``np.argsort(kind="stable")`` or
    ``np.lexsort`` gives ``order``, returned with the keys in that order.
    """
    n = len(keys)
    codes = _codes(keys) if n >= _TAG_SORT_MIN else None
    if codes is not None:
        tags = codes * n
        tags += np.arange(n)
        tags.sort()
        ordered = tags // n
        tags -= ordered * n
        return tags, ordered
    if keys.ndim == 1:
        order = np.argsort(keys, kind="stable")
    else:  # lexsort's last key is the primary one
        order = np.lexsort(keys.T[::-1]) if keys.shape[1] else np.arange(n)
    return order, keys.take(order, axis=0)


def _group(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one grouping of every key merge: the stable sorting permutation
    ``order`` of ``keys`` and the positions ``starts`` in ``keys[order]``
    where each run of equal keys begins.

    ``keys`` is a 1-d int64 array (frequencies) or 2-d int64 exponent
    rows, compared column by column, possibly with no column (every row
    is the empty multi-index).  ``_stable_order`` sorts them: from
    ``_TAG_SORT_MIN`` keys on as one sort of int64 tags ``code * n +
    index``, whose sorted codes give the runs, and on fewer keys or where
    a tag would pass the int64 range by numpy's stable sorts.  Integer
    keys compare exactly, and the order is stable, so each run lists its
    members in the order they were given.
    """
    order, ordered = _stable_order(keys)
    changed = ordered[1:] != ordered[:-1]
    if ordered.ndim == 2:  # some column differs; on short rows a bool matmul beats any(axis=1)
        changed = changed @ np.ones(ordered.shape[1], dtype=bool)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = changed
    return order, np.flatnonzero(first)


def _merge(keys: np.ndarray, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys in order of first appearance, each with the sum of its
    rows of ``stack`` in the order they were given (a single row is kept
    as it is); sums that are not finite are left to ``_nonzero``."""
    order, starts = _group(keys)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.add.reduceat(stack[order], starts, axis=0)
    back = np.argsort(order[starts])
    return keys[order[starts[back]]], sums[back]


def _nonzero(keys: np.ndarray, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero rows of a fresh coefficient stack, made read-only, and
    their keys; a stack that is not finite raises ``ValueError``."""
    entries = stack.reshape(len(stack), math.prod(stack.shape[1:]))  # one row per term, T = 0 too
    if not np.isfinite(entries).all():
        raise ValueError("coefficients must be finite (no NaN/Inf)")
    nonzero = entries.any(axis=1)
    if not nonzero.all():
        keys, stack = keys[nonzero], stack[nonzero]
    stack.setflags(write=False)
    return keys, stack


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Increasing positions that occur in ``a`` or ``b``, as int64."""
    return np.array(sorted({*a.tolist(), *b.tolist()}), dtype=np.int64)


def _joined(F: _SparseSeries, G: _SparseSeries) -> tuple[np.ndarray, np.ndarray | None]:
    """The keys of ``F`` and then of ``G`` as one array, and the columns
    of its exponent rows, the union of theirs (``None`` for frequencies)."""
    if F._columns is None:
        return np.concatenate([F._keys, G._keys]), None
    columns = _union(F._columns, G._columns)
    return np.concatenate([_widen(F, columns), _widen(G, columns)]), columns


def _aligned(F: _SparseSeries, G: _SparseSeries) -> tuple[np.ndarray, np.ndarray]:
    """The coefficient stacks of ``F`` and ``G`` (same kind and dim) on the
    union of their keys, zero where a series has no term; one ``_group``
    of both key arrays, whose runs are the keys of the union."""
    keys, _ = _joined(F, G)
    order, starts = _group(keys)
    run = np.empty(len(keys), dtype=np.intp)
    run[order] = np.searchsorted(starts, np.arange(len(keys)), side="right") - 1
    x, y = (np.zeros((len(starts), *F._coeffs.shape[1:]), np.complex128) for _ in range(2))
    x[run[: F.num_terms]] = F._coeffs
    y[run[F.num_terms :]] = G._coeffs
    return x, y


def _weighted_degrees(F: PowerSeries) -> list[int]:
    """``weighted_degree`` of each key of ``F`` in ``terms`` order, as
    exact Python ints (an int64 product could wrap)."""
    return (F._keys.astype(object) @ (F._columns.astype(object) + 1)).tolist()


def _scaled(F: _SparseSeries, factors) -> _SparseSeries:
    """``F`` with the coefficient of its t-th term (``terms`` order) times ``factors[t]``.

    ``factors`` holds one real or complex number per term, or one number
    for every term.  Each product is the one ``factor * coefficient``
    gives, in complex double precision, so the result equals building
    the scaled terms through the constructor, bit for bit; but the key
    arrays are reused as they are and the coefficients are formed in one
    array operation instead of being copied and checked one by one.
    Products that are not finite raise the constructor's ``ValueError``;
    a coefficient that underflows to zero is dropped.  The factors are read
    as numpy reads them (200 floats as doubles in about 8 us, against 13
    us read one by one as complex) and then cast to complex128, which is
    exact; they are not left real for the product to cast, as numpy's
    complex loop then runs on other strides and can round a part that
    underflows to a zero of the other sign.
    """
    factors = np.asarray(factors).astype(np.complex128, copy=False)
    # factor on the left, as in ``factor * coefficient``: with fused
    # multiply-adds numpy's complex product can round the two operand
    # orders differently
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        stack = factors.reshape(-1, *(1,) * (F._coeffs.ndim - 1)) * F._coeffs
    return F._from_stack(F._kind, F._dim, F._keys, stack, F._columns)


def _check_op_vec(F: _SparseSeries, G: _SparseSeries) -> None:
    """Raise unless ``F`` is an operator series and ``G`` a vector series of one dim."""
    if F.kind != "operator" or G.kind != "vector":
        raise ValueError(
            f"kind mismatch: need operator * vector, got {F.kind} * {G.kind}"
        )
    if F.dim != G.dim:
        raise ValueError(f"dimension mismatch: {F.dim} vs {G.dim}")


def _check_window(F: _SparseSeries, trunc: TruncationParams) -> None:
    """Raise unless the window's coefficient dimension is that of ``F``."""
    if F.dim != trunc.dim:
        raise ValueError(f"dimension mismatch: series {F.dim} vs window {trunc.dim}")


def _kept_pairs(thresholds: np.ndarray, scalars: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)`` with ``scalars[j] <= thresholds[i]``.

    Every kept pair is listed once, ``i`` ascending and, within one
    ``i``, ``j`` by ascending scalar (ties in index order); nothing of
    size ``len(thresholds) * len(scalars)`` is built.  The non-negative
    int64 scalars are ordered by ``_stable_order``: one sort of the tags
    ``scalar * n + index`` from ``_TAG_SORT_MIN`` scalars on while the
    tags stay below 2^63, numpy's stable argsort otherwise.
    """
    order, ordered = _stable_order(scalars)
    counts = np.searchsorted(ordered, thresholds, side="right")
    i = np.repeat(np.arange(len(thresholds)), counts)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    return i, order[np.arange(len(i)) - starts]


def _window_pairs(
    columns: np.ndarray, left: np.ndarray, right: np.ndarray, trunc: TruncationParams
) -> tuple[np.ndarray, np.ndarray]:
    """Row pairs whose sum lies in the window: total degree at most
    ``trunc.max_degree`` and no exponent at position ``trunc.nvars`` or beyond.

    Found from per-row degrees alone; a row outside the variables never
    pairs.  The degree bound is capped at the int64 maximum so that the
    per-row thresholds stay in int64.
    """
    outside = columns >= trunc.nvars
    limit = min(trunc.max_degree, _INT64_MAX)
    thresholds = np.where(left[:, outside].any(axis=1), -1, limit - left.sum(axis=1))
    inside = np.flatnonzero(~right[:, outside].any(axis=1))
    i, j = _kept_pairs(thresholds, right[inside].sum(axis=1))
    return i, inside[j]


def _widen(F: PowerSeries, columns: np.ndarray) -> np.ndarray:
    """Exponent rows of ``F`` over ``columns``, a superset of its own."""
    if len(columns) == len(F._columns):
        return F._keys
    rows = np.zeros((F.num_terms, len(columns)), dtype=np.int64)
    rows[:, np.searchsorted(columns, F._columns)] = F._keys
    return rows


def _convolve(F: _SparseSeries, G: _SparseSeries, i, j, keys) -> tuple[np.ndarray, np.ndarray]:
    """Operator-by-vector convolution over the kept key pairs ``(i[k], j[k])``.

    ``i`` and ``j`` index the terms of ``F`` and ``G`` in ``terms``
    order, and ``keys[k]`` is the product key of pair k in array form
    (an int, or an exponent row).  Pairs are grouped by ``_group`` of
    ``keys``; the coefficient at each distinct key is the sum of
    ``a_i @ b_j`` over its pairs, in pair order.  Returns the distinct
    keys in sorted order and their sums, for ``_from_stack``, which
    raises on sums that are not finite and drops zero sums.  Extra memory
    is O(kept pairs * (columns + d^2)).  Bilinear in (F, G).
    """
    order, starts = _group(keys)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported by _from_stack
        a, b = F._coeffs.take(i[order], axis=0), G._coeffs.take(j[order], axis=0)
        blocks = np.matmul(a, b[..., None])[..., 0]
        sums = np.add.reduceat(blocks, starts, axis=0)
    return keys[order[starts]], sums


def _product_rounding(F: _SparseSeries, G: _SparseSeries) -> int:
    """The index k of the rounding ``op_vec_product`` and
    ``dirichlet_product`` state: each coefficient is within
    ``gamma_k sum ||a|| ||b||`` over its pairs, ``k = T_F T_G d + 2``."""
    return F.num_terms * G.num_terms * F.dim + 2


def op_vec_product(
    F: PowerSeries, G: PowerSeries, trunc: TruncationParams
) -> PowerSeries:
    """Cauchy product of an operator symbol with a vector series.

    The coefficient at alpha is ``sum over beta + gamma = alpha of
    a_beta @ b_gamma``; pairs whose sum exceeds total degree
    ``trunc.max_degree`` (or uses variables beyond ``trunc.nvars``) are
    never formed, matching the compression window.  A window whose
    ``dim`` is not that of the series raises ``ValueError``.  Bilinear in
    (F, G).

    *Rounding.*  With u = 2^-53 and gamma_k = k u / (1 - k u): each
    coefficient sums at most T_F T_G d complex products, one d-term
    ``a_beta @ b_gamma`` per pair, in some order, so by Higham's bound for
    complex inner products (Section 3.6) it is within
    ``gamma_{T_F T_G d + 2} sum ||a_beta|| ||b_gamma||`` of the exact sum,
    over its pairs (Frobenius norms for the operators), while no product
    underflows (``_product_rounding``).
    """
    _check_op_vec(F, G)
    _check_window(F, trunc)
    columns = _union(F._columns, G._columns)
    left, right = _widen(F, columns), _widen(G, columns)
    i, j = _window_pairs(columns, left, right, trunc)
    keys, sums = _convolve(F, G, i, j, left.take(i, axis=0) + right.take(j, axis=0))
    return PowerSeries._from_stack("vector", F.dim, keys, sums, columns)


def radial_dilate(F: PowerSeries, r: float) -> PowerSeries:
    """Scale the coefficient at alpha by ``r ** weighted_degree(alpha)``.

    This is substitution of ``(r w_1, r^2 w_2, r^3 w_3, ...)`` for the
    variables.  ``r = 1`` returns the series unchanged.

    *Rounding.*  With u = 2^-53 and gamma_k = k u / (1 - k u): Python's
    pow is within one ulp (2u) of ``r ** w``, and multiplying a complex
    number by a real one rounds each of its parts once, so each
    coefficient is within ``gamma_3 r^w ||a_alpha||`` of ``r^w a_alpha``
    while no ``r ** w`` underflows (``_RADIAL_DILATE_ROUNDING``).
    """
    r = float(r)
    if not 0.0 < r <= 1.0:
        raise ValueError("dilation radius must lie in (0, 1]")
    if r == 1.0:
        return F
    # Python's pow, not np.power: with numpy 2.4 on AVX-512 about 5% of r ** w round differently
    return _scaled(F, [r**w for w in _weighted_degrees(F)])


#: The index k of the rounding ``radial_dilate`` states: each coefficient
#: is within ``gamma_k r^w ||a_alpha||`` of ``r^w a_alpha``.
_RADIAL_DILATE_ROUNDING = 3


def _monomials(F: _SparseSeries, points: np.ndarray) -> np.ndarray:
    """The ``(len(points), T)`` table of the monomial of each key of ``F``,
    in ``terms`` order, at each point, read from the key arrays.

    A power-series point is a row of coordinates; the monomial of an
    exponent row is ``prod z_j ** e_j`` over its columns, multiplied in
    increasing column order, and coordinates the point does not list
    count as zero.  A Dirichlet point is a complex s; the monomial of n
    is ``exp(-s log n)``, and one that is not finite raises ``ValueError``
    naming s.
    """
    if F._columns is None:
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            table = np.exp(np.multiply.outer(-points, np.log(F._keys)))
        if not np.isfinite(table).all():
            p, t = np.argwhere(~np.isfinite(table))[0]
            raise ValueError(f"n^(-s) is not finite at s={points[p]} for n = {F._keys[t]}")
        return table
    # coordinates the point does not list are zero
    padded = np.concatenate([points, np.zeros((len(points), F.nvars_used))], axis=1)
    return np.prod(padded[:, None, F._columns] ** F._keys, axis=2)


def _values_at(F: _SparseSeries, points: np.ndarray) -> np.ndarray:
    """The value of ``F`` at each point: its monomial table contracted with
    the coefficient stack, shape ``(len(points), *coefficient shape)``."""
    # an explicit width: -1 is ambiguous for a series with no terms
    stack = F._coeffs.reshape(F.num_terms, F.dim ** (F._coeffs.ndim - 1))
    return (_monomials(F, points) @ stack).reshape(len(points), *F._coeffs.shape[1:])


def _polydisk_point(z: Iterable[complex], name: str) -> np.ndarray:
    """``z`` as a 1-d complex array, the shared check of points of the open
    polydisk: ``ValueError`` naming ``name`` unless it is one-dimensional
    and each coordinate is finite with modulus below 1."""
    point = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    if point.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not (np.abs(point) < 1.0).all():  # also false for NaN
        raise ValueError(f"{name} must be finite and lie in the open polydisk, got {point}")
    return point


def evaluate_power(F: PowerSeries, z: Iterable[complex]) -> np.ndarray:
    """Evaluate at a point of the open polydisk (every ``|z_j| < 1``).

    The point may list fewer variables than the series uses; missing
    coordinates are zero.  Finite sum, so no convergence questions.

    *Rounding.*  With u = 2^-53 and gamma_k = k u / (1 - k u): numpy
    raises a complex number to an integer power below 100 by binary
    powering, at most e - 1 complex products for ``z^e``, so a monomial
    of total degree |alpha| takes at most |alpha| inexact products, each
    within ``sqrt(2) gamma_2 <= gamma_3``.  Each entry of the value is a
    complex inner product of T terms, within ``gamma_{3T}`` of the sum of
    the moduli of its products.  So, for exponents below 100 and while no
    product underflows, the value is within
    ``gamma_{3(D + T)} sum_alpha ||a_alpha|| |z^alpha|`` of the exact sum
    (Frobenius norms for operators), where D is the largest total degree.
    The terms are summed in BLAS order, so another order can differ in
    the last bits.  From exponent 100 up numpy takes the power as
    ``exp(e log z_j)``, whose error grows with ``e |log z_j|``.
    ``_evaluate_power_rounding`` evaluates the index.
    """
    return _values_at(F, _polydisk_point(z, "point")[None])[0]


def _evaluate_power_rounding(F: PowerSeries) -> int:
    """The index k of the rounding ``evaluate_power`` states: the value is
    within ``gamma_k sum_alpha ||a_alpha|| |z^alpha|`` of the exact sum,
    ``k = 3 (D + T)`` with D the largest total degree and T the terms.
    That bound holds only for exponents below 100, so an exponent of 100
    or more raises ``ValueError``."""
    if F._keys.max(initial=0) >= 100:
        raise ValueError(f"evaluate_power states no rounding bound for an exponent of 100 or more, got {F._keys.max()}")
    return 3 * (F.total_degree + F.num_terms)


def truncate(F: PowerSeries, trunc: TruncationParams) -> PowerSeries:
    """Drop terms beyond the window; idempotent.  A window whose ``dim`` is
    not that of ``F`` raises ``ValueError``.

    The kept coefficients are taken as one gather of ``F``'s stack, not
    checked one by one: they are already finite and nonzero.
    """
    _check_window(F, trunc)
    rows = F._keys
    outside = rows[:, F._columns >= trunc.nvars].any(axis=1)
    keep = ~outside & (rows.sum(axis=1) <= min(trunc.max_degree, _INT64_MAX))
    coeffs = F._coeffs[keep]
    coeffs.setflags(write=False)
    return PowerSeries._wrap(F.kind, F.dim, rows[keep], coeffs, F._columns)
