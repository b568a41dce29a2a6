"""Sparse formal power series with vector or operator coefficients.

A series is a finitely supported map from keys to coefficients.
Coefficients are either d-vectors (function values in C^d) or d x d
matrices (operator symbols acting on C^d); a single series never mixes
the two.  One private core holds the map, its validation and its
comparisons, and one array-form convolution serves every product.
:class:`PowerSeries` keys are multi-indices that add, handled as exponent
rows over the positions the keys use;
:class:`~polyhardy.dirichlet.DirichletSeries` keys are frequencies that
multiply, handled as int64 arrays, so the Bohr transform is a relabelling
of keys.  A product lists the key pairs its window keeps, forms every kept
coefficient product in one stacked matmul, and sums the pairs of each
product key after one stable sort.  All arithmetic is exact sparse
bookkeeping in complex double precision; truncation windows are carried
explicitly via :class:`TruncationParams`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Literal, Mapping

import numpy as np

from .multiindex import MultiIndex, graded_lex_key, weighted_degree

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


@dataclass(frozen=True)
class TruncationParams:
    """Finite computation window: first ``nvars`` variables, total degree
    at most ``max_degree``, coefficient dimension ``dim``, norm exponent
    ``exponent`` (p in [1, inf])."""

    nvars: int
    max_degree: int
    dim: int
    exponent: float = 2.0

    def __post_init__(self) -> None:
        if self.nvars < 1:
            raise ValueError("nvars must be at least 1")
        if self.max_degree < 0:
            raise ValueError("max_degree must be non-negative")
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if not self.exponent >= 1:
            raise ValueError("exponent must satisfy p >= 1")


def _coefficient_shape(kind: Kind, dim: int) -> tuple[int, ...]:
    return (dim,) if kind == "vector" else (dim, dim)


def _as_coefficient(value, kind: Kind, dim: int) -> np.ndarray:
    arr = np.array(value, dtype=np.complex128, copy=True)
    expected = _coefficient_shape(kind, dim)
    if arr.shape != expected:
        raise ValueError(
            f"{kind} coefficient must have shape {expected}, got {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise ValueError("coefficients must be finite (no NaN/Inf)")
    return arr


class _SparseSeries:
    """Immutable sparse map from keys to coefficients; zero coefficients
    are never stored.

    The shared core of :class:`PowerSeries` and
    :class:`~polyhardy.dirichlet.DirichletSeries`.  A subclass fixes its
    key type through ``_key``, which normalizes and validates one key;
    its product function turns the keys into arrays, lists the kept key
    pairs and their product keys, and hands them to :func:`_convolve`.
    """

    __slots__ = ("_kind", "_dim", "_terms")

    def __init__(
        self,
        kind: Kind,
        dim: int,
        terms: Mapping | Iterable[tuple] = (),
    ):
        if kind not in _KINDS:
            raise ValueError(f"kind must be 'vector' or 'operator', got {kind!r}")
        dim = operator.index(dim)
        if dim < 1:
            raise ValueError("dim must be at least 1")
        accum: dict = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for key, value in items:
            key = self._key(key)
            coeff = _as_coefficient(value, kind, dim)
            if key in accum:
                accum[key] = accum[key] + coeff
            else:
                accum[key] = coeff
        clean = {k: c for k, c in accum.items() if c.any()}
        for c in clean.values():
            c.setflags(write=False)
        self._kind = kind
        self._dim = dim
        self._terms = clean

    @classmethod
    def _trusted(cls, kind: Kind, dim: int, terms: dict):
        """Wrap canonical keys mapped to nonzero, finite, read-only coefficients."""
        self = cls.__new__(cls)
        self._kind = kind
        self._dim = dim
        self._terms = terms
        return self

    def _coefficient_stack(self) -> np.ndarray:
        """Coefficients stacked along a new first axis, in ``terms`` order."""
        shape = _coefficient_shape(self._kind, self._dim)
        return np.array(list(self._terms.values())).reshape(len(self._terms), *shape)

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
        return MappingProxyType(self._terms)

    @property
    def num_terms(self) -> int:
        return len(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, key) -> np.ndarray:
        """Coefficient at ``key`` (validated like a constructor key); zero if absent."""
        found = self._terms.get(self._key(key))
        if found is not None:
            return found
        return np.zeros(_coefficient_shape(self._kind, self._dim), dtype=np.complex128)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _SparseSeries):
            return NotImplemented
        return (
            type(self) is type(other)
            and self._kind == other._kind
            and self._dim == other._dim
            and self._terms.keys() == other._terms.keys()
            and all(np.array_equal(c, other._terms[k]) for k, c in self._terms.items())
        )

    def allclose(self, other: "_SparseSeries", rtol: float = 1e-12, atol: float = 1e-12) -> bool:
        """Same type, kind and dim, and coefficientwise agreement within tolerances."""
        if type(self) is not type(other) or self._kind != other._kind or self._dim != other._dim:
            return False
        for key in set(self._terms) | set(other._terms):
            if not np.allclose(
                self.coefficient(key), other.coefficient(key), rtol=rtol, atol=atol
            ):
                return False
        return True

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(kind={self._kind!r}, dim={self._dim}, "
            f"num_terms={len(self._terms)})"
        )


class PowerSeries(_SparseSeries):
    """Immutable sparse power series keyed by :class:`MultiIndex`."""

    __slots__ = ()

    @staticmethod
    def _key(alpha) -> MultiIndex:
        return alpha if isinstance(alpha, MultiIndex) else MultiIndex(alpha)

    @classmethod
    def zero(cls, kind: Kind, dim: int) -> "PowerSeries":
        return cls(kind, dim)

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
        return tuple(sorted(self._terms, key=graded_lex_key))

    @property
    def total_degree(self) -> int:
        """Largest total degree in the support (0 for the zero series)."""
        return max((a.degree for a in self._terms), default=0)

    @property
    def max_weighted_degree(self) -> int:
        return max((weighted_degree(a) for a in self._terms), default=0)

    @property
    def nvars_used(self) -> int:
        """Smallest N such that the support lives on the first N variables."""
        return max((len(a) for a in self._terms), default=0)

    def _check_compatible(self, other: "PowerSeries") -> None:
        if self._kind != other._kind:
            raise ValueError(f"kind mismatch: {self._kind} vs {other._kind}")
        if self._dim != other._dim:
            raise ValueError(f"dimension mismatch: {self._dim} vs {other._dim}")

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        self._check_compatible(other)
        merged = dict(self._terms)
        for alpha, coeff in other._terms.items():
            merged[alpha] = merged[alpha] + coeff if alpha in merged else coeff
        return PowerSeries(self._kind, self._dim, merged)

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "PowerSeries":
        if not np.isscalar(scalar):
            return NotImplemented
        return PowerSeries(
            self._kind,
            self._dim,
            {a: scalar * c for a, c in self._terms.items()},
        )

    __rmul__ = __mul__


def _check_op_vec(F: _SparseSeries, G: _SparseSeries) -> None:
    """Raise unless ``F`` is an operator series and ``G`` a vector series of one dim."""
    if F.kind != "operator" or G.kind != "vector":
        raise ValueError(
            f"kind mismatch: need operator * vector, got {F.kind} * {G.kind}"
        )
    if F.dim != G.dim:
        raise ValueError(f"dimension mismatch: {F.dim} vs {G.dim}")


def _kept_pairs(thresholds: np.ndarray, scalars: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)`` with ``scalars[j] <= thresholds[i]``.

    Every kept pair is listed once, ``i`` ascending and, within one
    ``i``, ``j`` by ascending scalar (ties in index order); nothing of
    size ``len(thresholds) * len(scalars)`` is built.
    """
    order = np.argsort(scalars, kind="stable")
    counts = np.searchsorted(scalars[order], thresholds, side="right")
    i = np.repeat(np.arange(len(thresholds)), counts)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    return i, order[np.arange(len(i)) - starts]


def _exponent_rows(*key_lists) -> tuple[np.ndarray, list[np.ndarray]]:
    """Multi-indices as int64 exponent rows over the positions they use.

    Returns the increasing positions (the columns, shared by every list)
    and one ``(len(keys), len(columns))`` array per key list; a position
    no key uses gets no column, so sparse high positions stay cheap.
    """
    columns = sorted({pos for keys in key_lists for alpha in keys for pos, _ in alpha.items()})
    column = {pos: c for c, pos in enumerate(columns)}
    tables = []
    for keys in key_lists:
        rows, cols, exps = [], [], []
        for t, alpha in enumerate(keys):
            for pos, e in alpha.items():
                rows.append(t)
                cols.append(column[pos])
                exps.append(e)
        table = np.zeros((len(keys), len(columns)), dtype=np.int64)
        table[rows, cols] = exps
        tables.append(table)
    return np.array(columns, dtype=np.int64), tables


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
    limit = min(trunc.max_degree, np.iinfo(np.int64).max)
    thresholds = np.where(left[:, outside].any(axis=1), -1, limit - left.sum(axis=1))
    inside = np.flatnonzero(~right[:, outside].any(axis=1))
    i, j = _kept_pairs(thresholds, right[inside].sum(axis=1))
    return i, inside[j]


def _convolve(F: _SparseSeries, G: _SparseSeries, i, j, keys, decode) -> _SparseSeries:
    """Operator-by-vector convolution over the kept key pairs ``(i[k], j[k])``.

    ``i`` and ``j`` index the terms of ``F`` and ``G`` in ``terms``
    order, and ``keys[k]`` is the product key of pair k in array form
    (an int, or an exponent row).  Pairs are grouped by one stable sort
    of ``keys``; the coefficient at each distinct key is the sum of
    ``a_i @ b_j`` over its pairs, in pair order.  ``decode`` turns the
    distinct key arrays back into keys.  Sums that are not finite raise
    the constructor's ``ValueError``; zero sums are dropped.  Extra
    memory is O(kept pairs * (columns + d^2)).  Bilinear in (F, G).
    """
    if not len(keys):
        return type(F)._trusted("vector", F.dim, {})
    if keys.ndim == 1:
        order = np.argsort(keys, kind="stable")
    elif keys.shape[1]:
        order = np.lexsort(keys.T[::-1])
    else:  # every key is the empty multi-index
        order = np.arange(len(keys))
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    changed = keys[1:] != keys[:-1]
    first[1:] = changed if keys.ndim == 1 else changed.any(axis=1)
    starts = np.flatnonzero(first)
    a, b = F._coefficient_stack(), G._coefficient_stack()
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        blocks = np.matmul(a[i[order]], b[j[order], :, None])[..., 0]
        sums = np.add.reduceat(blocks, starts, axis=0)
    if not np.isfinite(sums).all():
        raise ValueError("coefficients must be finite (no NaN/Inf)")
    nonzero = sums.any(axis=1)
    sums = sums[nonzero]
    sums.setflags(write=False)
    return type(F)._trusted("vector", F.dim, dict(zip(decode(keys[starts[nonzero]]), sums)))


def op_vec_product(
    F: PowerSeries, G: PowerSeries, trunc: TruncationParams
) -> PowerSeries:
    """Cauchy product of an operator symbol with a vector series.

    The coefficient at alpha is ``sum over beta + gamma = alpha of
    a_beta @ b_gamma``; pairs whose sum exceeds total degree
    ``trunc.max_degree`` (or uses variables beyond ``trunc.nvars``) are
    never formed, matching the compression window.  Bilinear in (F, G).
    """
    _check_op_vec(F, G)
    columns, (left, right) = _exponent_rows(F.terms, G.terms)
    i, j = _window_pairs(columns, left, right, trunc)
    positions = columns.tolist()

    def decode(rows: np.ndarray) -> list[MultiIndex]:
        return [
            MultiIndex._trusted(tuple((p, e) for p, e in zip(positions, row) if e))
            for row in rows.tolist()
        ]

    return _convolve(F, G, i, j, left[i] + right[j], decode)


def radial_dilate(F: PowerSeries, r: float) -> PowerSeries:
    """Scale the coefficient at alpha by ``r ** weighted_degree(alpha)``.

    This is substitution of ``(r w_1, r^2 w_2, r^3 w_3, ...)`` for the
    variables.  ``r = 1`` returns the series unchanged.
    """
    r = float(r)
    if not 0.0 < r <= 1.0:
        raise ValueError("dilation radius must lie in (0, 1]")
    if r == 1.0:
        return F
    return PowerSeries(
        F.kind,
        F.dim,
        {a: (r ** weighted_degree(a)) * c for a, c in F.terms.items()},
    )


def _evaluate_at(F: PowerSeries, point: np.ndarray) -> np.ndarray:
    """Finite sum sum(c_alpha * z^alpha); no domain check (internal)."""
    out = np.zeros(_coefficient_shape(F.kind, F.dim), dtype=np.complex128)
    npoint = len(point)
    for alpha, coeff in F.terms.items():
        if len(alpha) > npoint:
            continue  # variables beyond the point are zero, killing the term
        mono = 1.0 + 0.0j
        for pos, e in alpha.items():
            mono *= point[pos] ** e
        out += coeff * mono
    return out


def evaluate_power(F: PowerSeries, z: Iterable[complex]) -> np.ndarray:
    """Evaluate at a point of the open polydisk (every ``|z_j| < 1``).

    The point may list fewer variables than the series uses; missing
    coordinates are zero.  Finite sum, so no convergence questions.
    """
    point = np.atleast_1d(np.asarray(z, dtype=np.complex128))
    if point.ndim != 1:
        raise ValueError("evaluation point must be one-dimensional")
    if np.any(np.abs(point) >= 1.0):
        raise ValueError("evaluation domain is the open polydisk: need |z_j| < 1")
    return _evaluate_at(F, point)


def truncate(F: PowerSeries, trunc: TruncationParams) -> PowerSeries:
    """Drop terms beyond the window; idempotent."""
    kept = {
        a: c
        for a, c in F.terms.items()
        if a.degree <= trunc.max_degree and len(a) <= trunc.nvars
    }
    return PowerSeries(F.kind, F.dim, kept)
