"""Finitely supported multi-indices and the prime-power frequency bijection.

A multi-index is an eventually-zero sequence of non-negative integer
exponents.  Sending the exponent of variable k to the power of the k-th
prime identifies every multi-index with a unique positive integer, its
*frequency*: ``[2, 1] <-> 2^2 * 3^1 = 12``.  This bijection is the change
of coordinates between multivariate power series and Dirichlet series,
so it is the backbone of everything else in the package.

Frequencies are kept within signed 64-bit range; anything larger raises
``OverflowError`` rather than wrapping.  An exponent above 62 is rejected
before any power is taken, since ``2**63`` is already out of range, so a
huge exponent read from a file costs nothing.  The prime tables are built
by a sieve and grow lazily up to ``SIEVE_LIMIT`` (a module attribute that
can be raised if deeper factorizations are ever needed), each time to the
larger of the request and twice the current bound, rounded up to a
multiple of ``_MIN_SIEVE``.  The sieve stores, for odd n only, the
*position* of n's smallest prime factor at index ``n >> 1`` (-1 for 1):
one int32 per two integers.  Factoring strips the power of two in one
step, ``(n & -n).bit_length() - 1``, and the odd rest is a chain of
plain-int ``memoryview`` lookups ``p = prime[table[rem >> 1]]``, each
followed by dividing p out as often as it goes: no trial division by
primes that are not factors.  Building a frequency reads the prime table
directly once it is long enough.

Series hold multi-indices as int64 exponent rows over the positions
they use.  On those rows the Bohr map runs as arrays: building
frequencies is one product of prime powers after a floating-point bound
on each frequency's size.  The product reads the rows as they are
(20 -> 14 us on 200 rows of 5 columns, against masking the rows near
2^63), and the possibly wrapped entries of rows near 2^63 are replaced
by the exact scalar path.  Factoring
divides out each frequency's power of two, gathers
``table[rem >> 1]`` for every odd remainder above 1 at once, then
scatters one count per (row, position) pair.

The scalar functions below serve one key at a time, and what they cost
is interpreter overhead, not arithmetic: on frequencies near 10^6,
``index_to_multiindex`` takes about 0.9 us and ``multiindex_to_index``
0.4 us (timeit, Python 3.11 on a 2-vCPU VM).  So they do as little per
key as they can.  A result is built with ``object.__new__`` and one slot
set, and its hash is not computed (see ``MultiIndex``).  The factor loop
starts its pair list with the power of two.  The product multiplies by
the prime itself where the exponent is 1; a larger exponent still meets
the guard before its power is taken.

Each degree simplex is enumerated once per ``(nvars, max_degree)`` shape,
in one array pass that yields the graded-lex exponent rows and their
keys together, and memoized: ``simplex`` returns the same tuple on every
call, and array callers read the cached read-only rows.
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import compress
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "MAX_FREQUENCY",
    "MultiIndex",
    "graded_lex_key",
    "index_to_multiindex",
    "max_frequency_for_simplex",
    "multiindex_to_index",
    "primes",
    "simplex",
    "weighted_degree",
]

MAX_FREQUENCY = 2**63 - 1

#: Largest exponent a frequency can carry: every prime is at least 2 and
#: ``2**63`` already leaves the 64-bit range.
_MAX_EXPONENT = 62

#: Hard ceiling for lazy sieve growth.  Factoring a frequency requires the
#: prime table to reach its largest prime factor (the factor's *position*
#: in the prime sequence is needed, not just its primality).  At the limit
#: the odd-only table takes 32 MB and the primes below it 8.2 MB.
SIEVE_LIMIT = 1 << 24

_MIN_SIEVE = 1 << 16

#: ``object.__new__``, bound once: a key is built bare and its one slot set.
_new = object.__new__

_pos_table = memoryview(b"")  # int32 at n >> 1: position of odd n's smallest prime factor
_prime = memoryview(b"")  # int64: the primes below the current bound
_bound = 0


def _rebuild_tables(bound: int) -> None:
    """Tables for every n below ``bound``: ``_pos_table[n >> 1]`` holds the
    position of the smallest prime factor of odd n (-1 for 1), and
    ``_prime`` lists the primes below ``bound``.

    A small boolean sieve gives the odd primes q with q^2 < bound.  Each
    writes its position over its odd multiples from q^2, largest q first,
    so an odd composite keeps the position of its smallest factor and the
    entries still -1 past n = 1 are the odd primes.
    """
    global _pos_table, _prime, _bound
    root = math.isqrt(bound - 1)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for i in range(2, math.isqrt(root) + 1):
        if small[i]:
            small[i * i :: i] = False
    table = np.full((bound + 1) >> 1, -1, dtype=np.int32)
    odd_small = np.flatnonzero(small)[1:].tolist()  # past 2, at position 0
    for pos in range(len(odd_small), 0, -1):  # the k-th odd prime is at position k
        q = odd_small[pos - 1]
        table[q * q >> 1 :: q] = pos
    primes_found = np.flatnonzero(table < 0)  # n >> 1 of 1 and of the odd primes
    table[primes_found[1:]] = np.arange(1, len(primes_found), dtype=np.int32)
    primes_found *= 2
    primes_found += 1
    primes_found[0] = 2  # in the place of 1, at position 0
    _pos_table, _prime, _bound = memoryview(table), memoryview(primes_found), bound


def _index(value, name: str, least: int) -> int:
    """``value`` as an int through ``operator.index``, the shared check of
    integer parameters: a non-integer raises ``TypeError`` and a value
    below ``least`` raises ``ValueError``, each naming ``name``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def _ensure_bound(bound: int) -> None:
    """Grow the tables to cover every n below ``bound``, up to ``SIEVE_LIMIT``.

    The new bound is the larger of ``bound`` and twice the current one,
    rounded up to a multiple of ``_MIN_SIEVE``: a one-shot request builds
    about what it asks for, and growth in small steps still doubles, so
    its rebuilds cost a constant factor over the last one.
    """
    if bound <= _bound:
        return
    if bound > SIEVE_LIMIT:
        raise ValueError(
            f"required sieve bound {bound} exceeds SIEVE_LIMIT={SIEVE_LIMIT}; "
            "raise polyhardy.multiindex.SIEVE_LIMIT to factor deeper"
        )
    target = -(-max(bound, 2 * _bound) // _MIN_SIEVE) * _MIN_SIEVE
    _rebuild_tables(min(target, SIEVE_LIMIT))


def _ensure_count(count: int) -> None:
    _ensure_bound(_MIN_SIEVE)
    while len(_prime) < count:
        if _bound >= SIEVE_LIMIT:
            raise ValueError(
                f"need {count} primes but the sieve is capped at SIEVE_LIMIT={SIEVE_LIMIT}"
            )
        _ensure_bound(_bound + 1)


def primes(count: int) -> tuple[int, ...]:
    """First ``count`` primes, from the lazily extended sieve."""
    count = _index(count, "count", 0)
    if count == 0:
        return ()
    _ensure_count(count)
    return tuple(_prime[:count])


def _prime_at(position: int) -> int:
    if position >= len(_prime):
        _ensure_count(position + 1)
    return _prime[position]


def _prime_position(p: int) -> int:
    """Position of the prime ``p`` in the increasing prime sequence."""
    if p == 2:
        return 0
    _ensure_bound(p + 1)
    pos = _pos_table[p >> 1] if p & 1 else -1
    if pos < 0 or _prime[pos] != p:
        raise ValueError(f"{p} is not prime")
    return pos


class MultiIndex:
    """Immutable exponent sequence with the zero tail trimmed.

    Stored sparsely as ``(position, exponent)`` pairs so that indices of
    large frequencies (whose largest prime sits deep in the prime
    sequence) stay cheap.  Two multi-indices are equal iff their trimmed
    exponent sequences are equal.

    The hash is not cached: ``hash(a)`` hashes the pairs on each call
    (about 0.17 us for a few pairs).  Caching it would hash the pairs at
    every construction (a bare ``_trusted`` build takes 0.17 us, 0.30 us
    with the hash), though most keys, such as those of a Bohr round trip,
    are never hashed, and a dict or set stores the hash of each key it
    holds.
    """

    __slots__ = ("_items",)

    def __init__(self, exponents: Iterable[int] = ()):
        if isinstance(exponents, MultiIndex):
            self._items = exponents._items
            return
        items = []
        for pos, e in enumerate(exponents):
            e = operator.index(e)
            if e < 0:
                raise ValueError("exponents must be non-negative")
            if e:
                items.append((pos, e))
        self._items = tuple(items)

    @classmethod
    def from_items(cls, items: Iterable[tuple[int, int]]) -> "MultiIndex":
        """Build from sparse ``(position, exponent)`` pairs.

        A position above ``2**63 - 2`` raises ``OverflowError`` naming it:
        the length, the last position plus one, must fit in an index."""
        merged: dict[int, int] = {}
        for pos, e in items:
            pos = operator.index(pos)
            e = operator.index(e)
            if pos < 0:
                raise ValueError("positions must be non-negative")
            if pos >= MAX_FREQUENCY:
                raise OverflowError(
                    f"position {pos} exceeds the 64-bit range: a multi-index's length, "
                    f"its last position + 1, is at most {MAX_FREQUENCY}"
                )
            if e < 0:
                raise ValueError("exponents must be non-negative")
            if e:
                merged[pos] = merged.get(pos, 0) + e
        return cls._trusted(tuple(sorted(merged.items())))

    @classmethod
    def _trusted(cls, items: tuple[tuple[int, int], ...]) -> "MultiIndex":
        """Wrap canonical pairs: positions increasing, exponents positive ints."""
        self = _new(cls)
        self._items = items
        return self

    def items(self) -> tuple[tuple[int, int], ...]:
        """Sparse ``(position, exponent)`` view, positions increasing."""
        return self._items

    @property
    def exponents(self) -> tuple[int, ...]:
        """Dense trimmed exponent tuple."""
        dense = [0] * len(self)
        for pos, e in self._items:
            dense[pos] = e
        return tuple(dense)

    @property
    def degree(self) -> int:
        """Total degree: sum of all exponents."""
        return sum(e for _, e in self._items)

    def divides(self, other: "MultiIndex") -> bool:
        """Componentwise ``self <= other``."""
        return all(e <= other[pos] for pos, e in self._items)

    def __len__(self) -> int:
        return self._items[-1][0] + 1 if self._items else 0

    def __getitem__(self, position: int) -> int:
        position = operator.index(position)
        if position < 0:
            raise IndexError("multi-index positions are non-negative")
        for pos, e in self._items:
            if pos == position:
                return e
        return 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.exponents)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiIndex):
            return self._items == other._items
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._items)

    def __add__(self, other: "MultiIndex") -> "MultiIndex":
        if not isinstance(other, MultiIndex):
            return NotImplemented
        merged = dict(self._items)
        for pos, e in other._items:
            merged[pos] = merged.get(pos, 0) + e
        return MultiIndex._trusted(tuple(sorted(merged.items())))

    def __sub__(self, other: "MultiIndex") -> "MultiIndex":
        if not isinstance(other, MultiIndex):
            return NotImplemented
        merged = dict(self._items)
        for pos, e in other._items:
            merged[pos] = merged.get(pos, 0) - e
            if merged[pos] < 0:
                raise ValueError("difference would have a negative exponent")
        return MultiIndex.from_items(merged.items())

    def __str__(self) -> str:
        return "[" + ",".join(str(e) for e in self.exponents) + "]"

    def __repr__(self) -> str:
        if self._items and self._items[-1][0] >= 16:
            return f"MultiIndex.from_items({list(self._items)!r})"
        return f"MultiIndex({list(self.exponents)!r})"


def weighted_degree(alpha: MultiIndex | Iterable[int]) -> int:
    """Dilation weight sum(n * alpha_n) with 1-based variable weights.

    Additive under componentwise sums, which is what makes radial
    dilation multiplicative over products.
    """
    if not isinstance(alpha, MultiIndex):
        alpha = MultiIndex(alpha)
    return sum((pos + 1) * e for pos, e in alpha.items())


def index_to_multiindex(n: int) -> MultiIndex:
    """Exponent sequence of the prime factorization of ``n``.

    Total on positive integers: ``n == prod(p_i ** alpha_i)`` over the
    increasing primes.  ``n = 1`` maps to the empty index.
    """
    n = operator.index(n)
    if not 1 < n < _bound:  # the table lookup below covers every other n
        if n < 1:
            raise ValueError("frequency must be a positive integer")
        if n > MAX_FREQUENCY:
            raise OverflowError(f"frequency {n} exceeds the 64-bit range")
        if n == 1:
            return MultiIndex._trusted(())
        if n >= SIEVE_LIMIT:
            return MultiIndex._trusted(_trial_division(n))
        _ensure_bound(n + 1)
    table, prime = _pos_table, _prime
    if n & 1:
        items = []
        rem = n
    else:
        twos = (n & -n).bit_length() - 1
        items = [(0, twos)]
        rem = n >> twos
    while rem > 1:  # rem is odd
        pos = table[rem >> 1]
        p = prime[pos]
        rem //= p
        e = 1
        while not rem % p:
            rem //= p
            e += 1
        items.append((pos, e))
    alpha = _new(MultiIndex)
    alpha._items = tuple(items)
    return alpha


def _trial_division(n: int) -> tuple[tuple[int, int], ...]:
    """``(position, exponent)`` pairs of ``n`` past the sieve, by trial division."""
    items = []
    rem = n
    pos = 0
    while rem > 1:
        p = _prime_at(pos)
        if p * p > rem:
            break
        e = 0
        while rem % p == 0:
            rem //= p
            e += 1
        if e:
            items.append((pos, e))
        pos += 1
    if rem > 1:
        items.append((_prime_position(rem), 1))
    return tuple(items)


def multiindex_to_index(alpha: MultiIndex | Iterable[int]) -> int:
    """Frequency ``prod(p_i ** alpha_i)``; inverse of ``index_to_multiindex``.

    Raises ``OverflowError`` once the product leaves the 64-bit range; the
    result is never silently wrapped.
    """
    if not isinstance(alpha, MultiIndex):
        alpha = MultiIndex(alpha)
    items = alpha._items
    if items and items[-1][0] >= len(_prime):
        _ensure_count(items[-1][0] + 1)
    prime = _prime
    result = 1
    for pos, e in items:
        if e == 1:
            result *= prime[pos]
        elif e > _MAX_EXPONENT:
            raise OverflowError(
                f"exponent {e} at position {pos} leaves the 64-bit frequency range"
            )
        else:
            result *= prime[pos] ** e
        if result > MAX_FREQUENCY:
            raise OverflowError(
                f"frequency of multi-index {alpha!r} exceeds the 64-bit range"
            )
    return result


def _renumber(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The increasing distinct entries of the 1-d array ``values`` and the
    place of each entry among them, as ``np.unique(values,
    return_inverse=True)`` returns them: one sort, a mask of the entries
    that differ from their left neighbour, and one ``np.searchsorted``."""
    ordered = np.sort(values)
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    return distinct, np.searchsorted(distinct, values)


def _rows_of_keys(keys: Sequence[MultiIndex]) -> tuple[np.ndarray, np.ndarray]:
    """One int64 exponent row per key over the increasing positions that
    ``keys`` use, and those positions; the inverse of ``_keys_of_rows``.

    An exponent beyond the int64 range raises ``OverflowError`` naming it
    and its key, and so does a total degree beyond it, so degree sums of
    the rows never wrap (every position fits: ``MultiIndex.from_items``
    holds it below ``2**63 - 1``).
    """
    triples = [(t, pos, e) for t, alpha in enumerate(keys) for pos, e in alpha._items]
    try:
        owner, positions, exponents = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    except OverflowError:
        t, pos, e = next(triple for triple in triples if triple[2] > MAX_FREQUENCY)
        raise OverflowError(
            f"exponent {e} at position {pos} of multi-index {keys[t]!r} exceeds the 64-bit range"
        ) from None
    columns, col = _renumber(positions)
    rows = np.zeros((len(keys), len(columns)), dtype=np.int64)
    rows[owner, col] = exponents
    near = rows.sum(axis=1, dtype=np.float64) >= 2.0**62
    if near.any() and max(map(sum, rows[near].tolist())) > MAX_FREQUENCY:
        raise OverflowError("total degree of a multi-index exceeds the 64-bit range")
    return rows, columns


def _keys_of_rows(columns: np.ndarray, rows: np.ndarray) -> list[MultiIndex]:
    """The multi-index of each int64 exponent row over the increasing positions ``columns``."""
    positions = columns.tolist()
    return [MultiIndex._trusted(tuple(compress(zip(positions, row), row))) for row in rows.tolist()]


def _frequencies(columns: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``multiindex_to_index`` of each exponent row over ``columns``, as int64.

    int64 products wrap silently, so no product is formed before
    ``sum e * log2 p`` of every row is bounded in floating point.  A row
    whose bound stays below 62.99 bits has a frequency below 2^63, so
    each of its prime powers and partial products fits.  The frequencies
    are one product of the ``(T, c)`` prime powers with nothing masked:
    on 200 rows of 5 columns this took 14 us against 20 us for masking
    the exponents of the rows near 2^63 to 0 first.  (A loop over the
    columns was as fast there, but took 30 against 10 us on 50 rows of
    21 columns.)  The entries of the rows near or past 2^63 (the
    rounding of the bound is below 1e-12 bits) may have wrapped; each is
    overwritten by the exact scalar ``multiindex_to_index``, which raises
    its ``OverflowError`` for the first of them, in row order, that
    leaves the range.
    """
    _ensure_count(int(columns[-1]) + 1 if len(columns) else 0)
    prime = np.asarray(_prime)[columns]
    near = rows @ np.log2(prime) >= 62.99
    freqs = np.multiply.reduce(prime ** rows, axis=1)
    if near.any():
        freqs[near] = [multiindex_to_index(a) for a in _keys_of_rows(columns, rows[near])]
    return freqs


def _factor(freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``index_to_multiindex`` of each frequency as exponent rows over the
    increasing positions used, and those positions (as ``_rows_of_keys``
    returns them); the inverse of ``_frequencies``.

    Below ``SIEVE_LIMIT`` the power of two ``f & -f`` of each frequency
    is divided out first, so every remainder is odd; each pass then takes
    the position ``table[rem >> 1]`` of the smallest prime factor of every
    remainder above 1 and divides that prime out; one count of the (row,
    position) pairs then gives the exponents.  Frequencies at or above
    ``SIEVE_LIMIT`` keep the scalar trial-division path.
    """
    owner = np.flatnonzero((freqs > 1) & (freqs < SIEVE_LIMIT))
    rem = freqs[owner]
    _ensure_bound(int(rem.max(initial=1)) + 1)
    table, prime = np.asarray(_pos_table), np.asarray(_prime)
    low = rem & -rem  # the power of two in each frequency
    twos = np.repeat(owner, np.bitwise_count(low - 1))
    found = [(twos, np.zeros(len(twos), dtype=np.int64))]  # (row, position)
    rem //= low
    while len(rem := rem[keep := rem > 1]):
        owner = owner[keep]
        pos = table[rem >> 1]
        rem = rem // prime[pos]
        found.append((owner, pos))
    for t in np.flatnonzero(freqs >= SIEVE_LIMIT).tolist():
        pos, exps = zip(*_trial_division(int(freqs[t])))
        found.append((np.full(sum(exps), t), np.repeat(pos, exps)))
    owner, positions = map(np.concatenate, zip(*found))
    columns, col = _renumber(positions)
    counts = np.bincount(owner * len(columns) + col, minlength=len(freqs) * len(columns))
    return counts.reshape(len(freqs), len(columns)), columns.astype(np.int64)


def graded_lex_key(alpha: MultiIndex) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Sort key: total degree first, then ascending lexicographic.

    Read from the sparse pairs as ``(-position, exponent)``, not from the
    dense exponents, so a key far out in the prime sequence costs only its
    number of pairs.  The order is the dense one: at the first position
    where two keys differ, the key with the smaller exponent there either
    has the smaller exponent at the same position, or has its next pair
    further out (a smaller ``-position``), or has no pair left.
    """
    return (alpha.degree, tuple((-pos, e) for pos, e in alpha._items))


def _simplex_shape(nvars: int, max_degree: int) -> tuple[int, int]:
    return _index(nvars, "nvars", 1), _index(max_degree, "max_degree", 0)


@functools.lru_cache(maxsize=32)
def _simplex_table(nvars: int, max_degree: int) -> tuple[tuple[MultiIndex, ...], np.ndarray]:
    """Graded-lex keys of the ``(nvars, max_degree)`` simplex and their
    read-only ``(len, nvars)`` int64 exponent rows; ``nvars = 0`` gives
    the empty index alone.

    Each pass over the variables prepends every leading exponent a row has
    room for, which keeps the rows in lexicographic order; one stable sort
    by degree then makes the order graded.
    """
    rows = np.zeros((1, 0), dtype=np.int64)
    leading = np.arange(max_degree + 1)[:, None]
    for _ in range(nvars):
        first, kept = np.nonzero(leading <= max_degree - rows.sum(axis=1))
        rows = np.column_stack((first, rows[kept]))
    rows = rows[np.argsort(rows.sum(axis=1), kind="stable")]
    rows.setflags(write=False)
    return tuple(_keys_of_rows(np.arange(nvars), rows)), rows


def simplex(nvars: int, max_degree: int) -> tuple[MultiIndex, ...]:
    """All multi-indices on ``nvars`` variables with total degree <= ``max_degree``.

    Returned in graded-lexicographic order, the canonical basis
    enumeration for compression matrices.  Each shape is enumerated once
    per process and the same tuple is returned on every later call.
    """
    return _simplex_table(*_simplex_shape(nvars, max_degree))[0]


def max_frequency_for_simplex(nvars: int, max_degree: int) -> int:
    """Largest frequency attained on the (nvars, max_degree) simplex.

    The maximum of ``prod(p_i ** alpha_i)`` puts all degree on the largest
    prime, so this is ``p_nvars ** max_degree``.  Used to reconcile degree
    truncation with frequency truncation across the Bohr bijection.
    """
    nvars, max_degree = _simplex_shape(nvars, max_degree)
    if max_degree > _MAX_EXPONENT:
        raise OverflowError(
            f"max_degree {max_degree} leaves the 64-bit frequency range"
        )
    p = _prime_at(nvars - 1)
    freq = p**max_degree
    if freq > MAX_FREQUENCY:
        raise OverflowError(
            f"simplex frequency bound {p}**{max_degree} exceeds the 64-bit range"
        )
    return freq
