"""Multi-index arithmetic and the prime-power frequency bijection."""

import re
import tracemalloc
from bisect import bisect_left

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import simplex_by_compositions
from polyhardy import DirichletSeries, PowerSeries, bohr, bohr_inverse, multiindex
from polyhardy.multiindex import (
    MAX_FREQUENCY,
    SIEVE_LIMIT,
    MultiIndex,
    _factor,
    _frequencies,
    _keys_of_rows,
    _renumber,
    _rows_of_keys,
    graded_lex_key,
    index_to_multiindex,
    max_frequency_for_simplex,
    multiindex_to_index,
    primes,
    simplex,
    weighted_degree,
)


class TestMultiIndexBasics:
    def test_trailing_zeros_trimmed(self):
        assert MultiIndex([1, 0, 0]) == MultiIndex([1])
        assert len(MultiIndex([1, 0, 0])) == 1
        assert MultiIndex([0, 0]) == MultiIndex()
        assert not MultiIndex()

    def test_equality_and_hash(self):
        assert hash(MultiIndex([2, 1])) == hash(MultiIndex((2, 1, 0)))
        assert MultiIndex([2, 1]) != MultiIndex([1, 2])
        assert len({MultiIndex([1]), MultiIndex([1, 0]), MultiIndex([0, 1])}) == 2

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            MultiIndex([1, -1])

    def test_getitem_beyond_length_is_zero(self):
        alpha = MultiIndex([2, 1])
        assert alpha[0] == 2
        assert alpha[1] == 1
        assert alpha[17] == 0
        with pytest.raises(IndexError):
            alpha[-1]

    def test_add_and_sub(self):
        assert MultiIndex([1, 2]) + MultiIndex([0, 1, 3]) == MultiIndex([1, 3, 3])
        assert MultiIndex([1, 3, 3]) - MultiIndex([0, 1, 3]) == MultiIndex([1, 2])
        with pytest.raises(ValueError):
            MultiIndex([1]) - MultiIndex([2])

    def test_divides(self):
        assert MultiIndex([1, 1]).divides(MultiIndex([2, 1]))
        assert not MultiIndex([1, 1]).divides(MultiIndex([2]))

    def test_string_forms(self):
        assert str(MultiIndex([2, 1])) == "[2,1]"
        assert str(MultiIndex()) == "[]"

    def test_from_items(self):
        alpha = MultiIndex.from_items([(3, 1), (0, 2)])
        assert alpha == MultiIndex([2, 0, 0, 1])
        assert alpha.items() == ((0, 2), (3, 1))

    def test_from_items_names_a_position_past_the_length_range(self):
        # len() of the largest position's key is 2^63 - 1, the largest index
        assert len(MultiIndex.from_items([(2**63 - 2, 1)])) == MAX_FREQUENCY
        for position in (2**63 - 1, 2**70):
            with pytest.raises(OverflowError, match=f"position {position} exceeds the 64-bit range"):
                MultiIndex.from_items([(0, 1), (position, 1)])


#: Primes from an implementation independent of the package's sieve.
REFERENCE_PRIMES = list(sympy.primerange(2, (1 << 17) + 1))


def trial_division(n):
    """``(position, exponent)`` pairs of n, dividing out each prime in turn."""
    items = []
    for pos, p in enumerate(REFERENCE_PRIMES):
        if p * p > n:
            break
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            items.append((pos, e))
    if n > 1:
        items.append((bisect_left(REFERENCE_PRIMES, n), 1))
    return items


@pytest.fixture
def small_sieve(monkeypatch):
    """Shrink the prime tables to their minimum; the originals return afterwards."""
    for name in ("_pos_table", "_prime", "_bound"):
        monkeypatch.setattr(multiindex, name, getattr(multiindex, name))
    multiindex._rebuild_tables(multiindex._MIN_SIEVE)
    return multiindex._MIN_SIEVE


sparse_indices = st.dictionaries(
    st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=6), max_size=6
).map(lambda d: MultiIndex.from_items(d.items()))


def assert_same_index(got, reference):
    """Equal, with the same items and hash, and found under the same dict key."""
    assert got == reference
    assert got.items() == reference.items()
    assert all(type(x) is int for pair in got.items() for x in pair)
    assert hash(got) == hash(reference)
    assert {reference: "found"}[got] == "found"


class TestBijection:
    @pytest.mark.parametrize(
        "n, exponents",
        [(1, []), (12, [2, 1]), (50, [1, 0, 2]), (7, [0, 0, 0, 1]), (2, [1])],
    )
    def test_factorization_examples(self, n, exponents):
        assert index_to_multiindex(n) == MultiIndex(exponents)

    @pytest.mark.parametrize(
        "exponents, n", [([], 1), ([0, 0, 0, 1], 7), ([3, 1], 24), ([1, 1, 1], 30)]
    )
    def test_index_examples(self, exponents, n):
        assert multiindex_to_index(MultiIndex(exponents)) == n

    @pytest.mark.parametrize("bad", [0, -3])
    def test_invalid_frequency_rejected(self, bad):
        with pytest.raises(ValueError):
            index_to_multiindex(bad)

    def test_frequency_overflow_reported(self):
        with pytest.raises(OverflowError):
            multiindex_to_index(MultiIndex([64]))  # 2**64 leaves 64-bit range
        with pytest.raises(OverflowError):
            index_to_multiindex(MAX_FREQUENCY + 1)

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=300, deadline=None)
    def test_roundtrip(self, n):
        assert multiindex_to_index(index_to_multiindex(n)) == n

    @given(
        st.integers(min_value=1, max_value=5000),
        st.integers(min_value=1, max_value=5000),
    )
    @settings(max_examples=200, deadline=None)
    def test_multiplicativity(self, a, b):
        summed = index_to_multiindex(a) + index_to_multiindex(b)
        assert multiindex_to_index(summed) == a * b

    def test_against_sympy_factorization(self):
        rng = np.random.default_rng(7)
        for n in rng.integers(2, 10**6, size=50):
            n = int(n)
            alpha = index_to_multiindex(n)
            expected = {
                int(p): int(e) for p, e in sympy.factorint(n).items()
            }
            got = {primes(pos + 1)[pos]: e for pos, e in alpha.items()}
            assert got == expected

    def test_every_frequency_to_2_17_matches_trial_division(self):
        for n in range(1, (1 << 17) + 1):
            assert index_to_multiindex(n).items() == tuple(trial_division(n)), n

    def test_growing_the_sieve_keeps_smaller_frequencies(self, small_sieve):
        n = small_sieve + 1  # 65537 is prime, one past the table
        assert index_to_multiindex(n).items() == ((bisect_left(REFERENCE_PRIMES, n), 1),)
        assert multiindex._bound > small_sieve
        for n in [*range(1, 5000), *range(small_sieve - 5000, small_sieve + 5000)]:
            assert index_to_multiindex(n).items() == tuple(trial_division(n)), n

    @pytest.mark.parametrize("n", [SIEVE_LIMIT, SIEVE_LIMIT + 1, 3 * SIEVE_LIMIT + 7])
    def test_trial_division_branch_above_the_sieve(self, n):
        expected = {sympy.primepi(p) - 1: e for p, e in sympy.factorint(n).items()}
        assert dict(index_to_multiindex(n).items()) == expected
        assert multiindex_to_index(index_to_multiindex(n)) == n

    def test_prime_position_past_the_table_grows_it(self, small_sieve):
        position = len(multiindex._prime)
        alpha = MultiIndex.from_items([(position, 1)])
        assert multiindex_to_index(alpha) == sympy.prime(position + 1)
        assert len(multiindex._prime) > position


def sympy_items(n):
    """sympy's factorization of n as ``{prime position: exponent}``."""
    return {int(sympy.primepi(p)) - 1: int(e) for p, e in sympy.factorint(n).items()}


class TestFactoringBoundaries:
    """Run-length factoring against sympy where the table ends or grows,
    where trial division takes over, and at the largest 64-bit powers."""

    def check(self, n):
        alpha = index_to_multiindex(n)
        assert dict(alpha.items()) == sympy_items(n)
        assert multiindex_to_index(alpha) == n

    def test_at_the_table_bound(self, small_sieve):
        bound = multiindex._bound
        self.check(bound - 1)
        self.check(int(sympy.prevprime(bound)))
        assert multiindex._bound == bound  # both read the table as it is
        self.check(bound)
        assert multiindex._bound > bound

    def test_around_the_sieve_limit(self, small_sieve):
        for n in (SIEVE_LIMIT - 1, int(sympy.prevprime(SIEVE_LIMIT)), SIEVE_LIMIT, SIEVE_LIMIT + 1):
            self.check(n)

    # 16 777 213 is the largest prime below SIEVE_LIMIT
    @pytest.mark.parametrize(
        "n", [2**62, 3**39, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23, 2**30 * 16_777_213]
    )
    def test_large_frequencies(self, small_sieve, n):
        self.check(n)


class TestSieveTables:
    """The odd-only smallest-factor table: its layout, memory and growth."""

    def test_one_shot_request_builds_it_rounded_up(self, small_sieve):
        index_to_multiindex(1_100_000)  # needs every n below 1 100 001
        assert multiindex._bound == 17 * multiindex._MIN_SIEVE  # 1 114 112, not 2^21

    def test_growth_in_small_steps_doubles(self, small_sieve):
        for _ in range(3):
            bound = multiindex._bound
            index_to_multiindex(bound)  # one past the table
            assert multiindex._bound >= 2 * bound

    def test_two_bytes_per_integer(self, small_sieve):
        for n in (small_sieve, 10**6):
            index_to_multiindex(n)
            assert multiindex._pos_table.nbytes == 2 * multiindex._bound

    def test_building_peaks_at_two_and_a_half_bytes_per_integer_beside_the_primes(self, small_sieve):
        """The table and a one-byte mask per table entry; an int32 entry
        for every integer would take 4 bytes per integer alone."""
        bound = 1 << 21
        tracemalloc.start()
        try:
            multiindex._rebuild_tables(bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert multiindex._prime[:4].tolist() == [2, 3, 5, 7]
        assert peak <= 2.5 * bound + multiindex._prime.nbytes + (1 << 16)

    @pytest.mark.parametrize("p", [2, 3, 65521, 65537, 1_048_573])
    def test_prime_position(self, small_sieve, p):
        assert multiindex._prime_position(p) == sympy.primepi(p) - 1

    @pytest.mark.parametrize("n", [1, 4, 9, 6, 2 * 65537, 2 * 1_048_573])
    def test_prime_position_rejects_non_primes(self, small_sieve, n):
        with pytest.raises(ValueError, match=f"{n} is not prime"):
            multiindex._prime_position(n)

    def test_array_factoring_agrees_with_the_scalar_path(self, small_sieve):
        freqs = [2**k for k in range(63)] + [3**k for k in range(1, 40)]
        freqs += [2**k * p for k in (1, 7, 20, 38) for p in (3, 65537, 1_048_573, 16_777_213)]
        rows, columns = multiindex._factor(np.array(freqs, dtype=np.int64))
        assert multiindex._bound > small_sieve  # 1 048 573 grew the table
        assert multiindex._keys_of_rows(columns, rows) == [index_to_multiindex(n) for n in freqs]
        assert all(dict(index_to_multiindex(n).items()) == sympy_items(n) for n in freqs[::7])


class TestExponentGuard:
    """An exponent that must leave the 64-bit range is named, before any power is taken."""

    def test_frequency(self):
        with pytest.raises(OverflowError, match="exponent 1000000 at position 2"):
            multiindex_to_index(MultiIndex([0, 1, 10**6]))
        # 3 ** 10**30 would not finish: the guard runs before the power, after an exponent of 1
        with pytest.raises(OverflowError, match=f"exponent {10**30} at position 1"):
            multiindex_to_index(MultiIndex([1, 10**30]))
        with pytest.raises(OverflowError, match="exponent 63 at position 0"):
            multiindex_to_index(MultiIndex([63]))  # 2^63
        # exponents of 1 only: the product leaves the range at the 16th prime
        with pytest.raises(OverflowError, match=re.escape("frequency of multi-index MultiIndex([1, 1,")):
            multiindex_to_index(MultiIndex([1] * 16))
        assert multiindex_to_index(MultiIndex([62])) == 2**62
        assert multiindex_to_index(MultiIndex([1, 39])) == 2 * 3**39  # 8.1e18

    def test_simplex_bound(self):
        with pytest.raises(OverflowError, match="max_degree 1000000"):
            max_frequency_for_simplex(1, 10**6)
        with pytest.raises(OverflowError, match="max_degree 63"):
            max_frequency_for_simplex(1, 63)
        with pytest.raises(OverflowError, match=r"5\*\*28"):
            max_frequency_for_simplex(3, 28)
        assert max_frequency_for_simplex(1, 62) == 2**62


def scalar_outcome(fn, keys):
    """``[fn(k) for k in keys]``, or the type and message of the first error it raises."""
    try:
        return [fn(k) for k in keys]
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def array_outcome(fn, *args):
    try:
        return fn(*args)
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def one_term_power_series(keys):
    return PowerSeries("vector", 1, {alpha: [t + 1.0] for t, alpha in enumerate(keys)})


class TestArrayBohrMap:
    """``bohr`` and ``bohr_inverse`` run on key arrays; key by key, in
    ``terms`` order, they must equal the scalar bijection and share the
    coefficient stack."""

    @given(st.lists(sparse_indices, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_bohr_is_the_scalar_map_key_by_key(self, keys):
        F = one_term_power_series(keys)
        want = scalar_outcome(multiindex_to_index, F.terms)
        got = array_outcome(lambda: bohr(F))
        if isinstance(want, tuple):  # the scalar map's first error, raised alike
            assert got == want
            return
        assert list(got.terms) == want
        assert got._coeffs is F._coeffs

    @given(st.lists(st.one_of(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=SIEVE_LIMIT, max_value=64 * SIEVE_LIMIT),
        st.integers(min_value=1, max_value=MAX_FREQUENCY),
    ), max_size=8, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_bohr_inverse_is_the_scalar_map_key_by_key(self, freqs):
        D = DirichletSeries("vector", 1, {n: [t + 1.0] for t, n in enumerate(freqs)})
        want = scalar_outcome(index_to_multiindex, freqs)
        got = array_outcome(lambda: bohr_inverse(D))
        if isinstance(want, tuple):
            assert got == want
            return
        assert list(got.terms) == want
        assert all(type(x) is int for alpha in got.terms for pair in alpha.items() for x in pair)
        assert got._coeffs is D._coeffs

    # 2^25 3^2 5^15 = 2^63 - 7.4e15 and 2^10 3^10 5^16 = 2^63 + 3.0e15
    INSIDE = [[62], [0, 39], [25, 2, 15], [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1], []]
    OUTSIDE = [[0, 40], [10, 10, 16], [63], [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]]

    def test_largest_frequencies_map_exactly(self):
        keys = [MultiIndex(e) for e in self.INSIDE]
        got = list(bohr(one_term_power_series(keys)).terms)
        assert got == [multiindex_to_index(a) for a in keys]
        assert got[:3] == [2**62, 3**39, 9_216_000_000_000_000_000]

    @pytest.mark.parametrize("exponents", OUTSIDE)
    def test_past_2_63_raises_the_scalar_error(self, exponents):
        alpha = MultiIndex(exponents)
        with pytest.raises(OverflowError) as scalar:
            multiindex_to_index(alpha)
        keys = [MultiIndex(e) for e in self.INSIDE[:3]] + [alpha]
        with pytest.raises(OverflowError, match=re.escape(str(scalar.value))):
            bohr(one_term_power_series(keys))

    def test_first_failing_key_in_terms_order_is_named(self):
        keys = [MultiIndex([1]), MultiIndex([0, 40]), MultiIndex([63])]
        with pytest.raises(OverflowError, match=re.escape("MultiIndex([0, 40])")):
            bohr(one_term_power_series(keys))

    def test_positions_past_the_prime_table(self, small_sieve):
        position = len(multiindex._prime)
        keys = [MultiIndex.from_items([(position, 1)]), MultiIndex([1])]
        assert bohr(one_term_power_series(keys)).frequencies == (2, sympy.prime(position + 1))
        assert len(multiindex._prime) > position

    def test_frequencies_past_the_sieve_table(self, small_sieve):
        freqs = [small_sieve + 1, 6, 1]  # 65537 is prime, one past the table
        got = bohr_inverse(DirichletSeries("vector", 1, {n: [1.0] for n in freqs}))
        assert list(got.terms) == [index_to_multiindex(n) for n in freqs]

    def test_frequencies_from_the_sieve_limit_use_trial_division(self):
        freqs = [SIEVE_LIMIT, 12, SIEVE_LIMIT + 1, 3 * SIEVE_LIMIT + 7]
        freqs += [2**30 * 16_777_213, 2**62, MAX_FREQUENCY]
        got = bohr_inverse(DirichletSeries("vector", 1, {n: [1.0] for n in freqs}))
        assert [dict(alpha.items()) for alpha in got.terms] == [sympy_items(n) for n in freqs]
        assert list(bohr(got).terms) == freqs

    def check_block(self, block):
        """``_factor`` and ``_frequencies`` of a block equal the scalar map, key by key."""
        rows, columns = _factor(np.array(block, dtype=np.int64))
        keys = _keys_of_rows(columns, rows)
        for n, alpha in zip(block, keys):
            assert_same_index(alpha, index_to_multiindex(n))
        assert _frequencies(columns, rows).tolist() == list(block)
        assert [multiindex_to_index(alpha) for alpha in keys] == list(block)

    def test_contiguous_block_ending_at_the_table_bound(self, small_sieve):
        bound = multiindex._bound
        self.check_block(range(bound - 4096, bound))
        assert multiindex._bound == bound  # both paths read the table as it is

    def test_contiguous_block_past_the_sieve_limit(self):
        """Trial division on both paths; a largest prime factor at or past
        ``SIEVE_LIMIT`` has no position, and both paths raise alike."""
        block = range(SIEVE_LIMIT - 64, SIEVE_LIMIT + 512)
        factored = [n for n in block if max(sympy.factorint(n)) < SIEVE_LIMIT]
        assert SIEVE_LIMIT + 1 in factored and len(factored) > len(block) // 2
        self.check_block(factored)
        for n in sorted(set(block) - set(factored))[:8]:
            want = scalar_outcome(index_to_multiindex, [n])
            assert want[0] is ValueError and array_outcome(_factor, np.array([n])) == want

    @pytest.mark.parametrize("near", [False, True])
    def test_frequencies_of_a_batch_equal_the_scalar_map(self, near):
        # ordinary rows, with or without rows near 2^63 (which take the scalar path)
        rng = np.random.default_rng(29)
        keys = [MultiIndex(e) for e in rng.integers(0, 5, (300, 5))] + [MultiIndex(), MultiIndex([0, 0, 0, 0, 1])]
        if near:
            keys[::40] = [MultiIndex(e) for e in self.INSIDE[:4] * 2]
        rows, columns = _rows_of_keys(keys)
        got = _frequencies(columns, rows)
        assert got.dtype == np.int64
        assert got.tolist() == [multiindex_to_index(a) for a in keys]
        assert (got.max() >= 2**62) == near


class TestRenumber:
    @pytest.mark.parametrize("size, high", [(0, 1), (1, 1), (700, 40), (700, 2**62), (50, 3)])
    def test_equals_np_unique(self, size, high):
        values = np.random.default_rng(size).integers(0, high, size)
        distinct, inverse = _renumber(values)
        want_distinct, want_inverse = np.unique(values, return_inverse=True)
        assert distinct.dtype == want_distinct.dtype and inverse.dtype == want_inverse.dtype
        assert np.array_equal(distinct, want_distinct) and np.array_equal(inverse, want_inverse)


class TestTrustedConstruction:
    @given(sparse_indices, sparse_indices)
    @settings(max_examples=300, deadline=None)
    def test_sum_is_built_like_from_items(self, alpha, beta):
        assert_same_index(alpha + beta, MultiIndex.from_items(alpha.items() + beta.items()))

    @given(st.integers(min_value=1, max_value=1 << 17))
    @settings(max_examples=300, deadline=None)
    def test_factorization_is_built_like_from_items(self, n):
        assert_same_index(index_to_multiindex(n), MultiIndex.from_items(trial_division(n)))

    @pytest.mark.parametrize("n", [1, 2, 12, 2**62, 3**39, 65537 * 9, 2**10 * 3 * 7**5])
    def test_equal_keys_from_every_constructor_collapse(self, n):
        """The hash is computed from the pairs on each call, so keys built
        by any path hash equal and share one dict or set entry."""
        items = trial_division(n)
        dense = [0] * (items[-1][0] + 1 if items else 0)
        for pos, e in items:
            dense[pos] = e
        rows, columns = _factor(np.array([n], dtype=np.int64))
        built = [
            MultiIndex(dense),
            MultiIndex.from_items(reversed(items)),
            index_to_multiindex(n),
            _keys_of_rows(columns, rows)[0],
        ]
        assert len({hash(alpha) for alpha in built}) == 1
        assert len(set(built)) == 1
        assert dict.fromkeys(built, 0) == {built[0]: 0}


class TestWeightedDegree:
    @pytest.mark.parametrize(
        "exponents, value", [([], 0), ([2, 1], 4), ([0, 0, 3], 9), ([1], 1)]
    )
    def test_examples(self, exponents, value):
        assert weighted_degree(MultiIndex(exponents)) == value

    @given(
        st.lists(st.integers(min_value=0, max_value=6), max_size=6),
        st.lists(st.integers(min_value=0, max_value=6), max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_additivity(self, a, b):
        alpha, beta = MultiIndex(a), MultiIndex(b)
        assert weighted_degree(alpha + beta) == weighted_degree(alpha) + weighted_degree(beta)

    def test_accepts_plain_iterables(self):
        assert weighted_degree([2, 1]) == 4


class TestEnumeration:
    def test_primes_prefix(self):
        assert primes(10) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
        assert primes(0) == ()

    def test_non_integer_count_is_named(self):
        with pytest.raises(TypeError, match="count"):
            primes(2.5)

    def test_primes_match_sympy(self):
        ours = primes(2000)
        assert ours[-1] == sympy.prime(2000)
        assert list(ours) == list(sympy.primerange(2, ours[-1] + 1))

    def test_simplex_graded_lex_order(self):
        got = [tuple(a.exponents) for a in simplex(2, 2)]
        assert got == [(), (0, 1), (1,), (0, 2), (1, 1), (2,)]

    def test_simplex_size_is_binomial(self):
        # C(N + D, N) indices of degree <= D in N variables
        assert len(simplex(3, 4)) == 35
        assert len(simplex(1, 50)) == 51

    def test_simplex_sorted_by_key(self):
        members = simplex(3, 3)
        assert list(members) == sorted(members, key=graded_lex_key)

    def test_simplex_validation(self):
        with pytest.raises(ValueError):
            simplex(0, 2)
        with pytest.raises(ValueError):
            simplex(2, -1)
        for bad in ((2.0, 1), (2, 1.0), ("2", 1), (2, None)):
            with pytest.raises(TypeError):
                simplex(*bad)

    def test_max_frequency_for_simplex(self):
        assert max_frequency_for_simplex(3, 6) == 5**6
        assert max_frequency_for_simplex(1, 0) == 1
        assert max_frequency_for_simplex(2, 3) == 27
        with pytest.raises(OverflowError):
            max_frequency_for_simplex(1, 64)

    def test_simplex_frequencies_bounded(self):
        bound = max_frequency_for_simplex(3, 4)
        assert all(
            multiindex_to_index(alpha) <= bound for alpha in simplex(3, 4)
        )


def dense_graded_lex_key(alpha):
    """The graded-lex order on the dense exponent tuples."""
    return (alpha.degree, alpha.exponents)


def sign(x, y):
    return (x > y) - (x < y)


class TestGradedLexKey:
    @given(sparse_indices, sparse_indices)
    @settings(max_examples=500, deadline=None)
    def test_orders_pairs_as_the_dense_key(self, alpha, beta):
        assert sign(graded_lex_key(alpha), graded_lex_key(beta)) == sign(
            dense_graded_lex_key(alpha), dense_graded_lex_key(beta)
        )

    @given(st.lists(sparse_indices, max_size=12, unique=True))
    @settings(max_examples=200, deadline=None)
    def test_sorts_as_the_dense_key(self, keys):
        assert sorted(keys, key=graded_lex_key) == sorted(keys, key=dense_graded_lex_key)

    def test_far_position_stays_small(self):
        """A key at position 10^6 sorts, and a series holding it lists its
        support, without a dense tuple of 10^6 exponents (8 MB)."""
        far = MultiIndex.from_items([(10**6, 1)])
        F = PowerSeries("vector", 1, {far: [1.0], MultiIndex([1]): [2.0]})
        tracemalloc.start()
        try:
            assert sorted([far, MultiIndex([1])], key=graded_lex_key) == [far, MultiIndex([1])]
            assert F.support == (far, MultiIndex([1]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestSimplexTable:
    """``simplex`` enumerates each shape once and memoizes keys and rows."""

    @pytest.mark.parametrize("nvars", [1, 2, 3, 4])
    def test_matches_recursive_reference(self, nvars):
        for degree in range(13):
            reference = simplex_by_compositions(nvars, degree)
            got = simplex(nvars, degree)
            assert [a.exponents + (0,) * (nvars - len(a)) for a in got] == reference
            for alpha, t in zip(got, reference):
                built = MultiIndex(t)
                assert alpha == built and hash(alpha) == hash(built)
                assert alpha.items() == built.items()

    def test_repeated_call_returns_the_cached_tuple(self):
        first = simplex(3, 5)
        assert simplex(3, 5) is first
        assert simplex(np.int64(3), np.int64(5)) is first  # indexed to the same shape
        assert multiindex._simplex_table(3, 5)[0] is first

    @pytest.mark.parametrize("nvars, degree", [(1, 0), (1, 7), (2, 0), (2, 6), (3, 4), (4, 3)])
    def test_rows_are_read_only_and_match_exponent_rows(self, nvars, degree):
        keys, rows = multiindex._simplex_table(nvars, degree)
        assert keys is simplex(nvars, degree)
        assert rows.dtype == np.int64 and rows.shape == (len(keys), nvars)
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 1
        held = PowerSeries("vector", 1, dict.fromkeys(keys, [1.0]))
        columns, table = held._columns, held._keys
        widened = np.zeros_like(rows)
        widened[:, columns] = table
        np.testing.assert_array_equal(rows, widened)

    def test_no_variables_is_the_empty_index(self):
        keys, rows = multiindex._simplex_table(0, 5)
        assert keys == (MultiIndex(),) and rows.shape == (1, 0)
