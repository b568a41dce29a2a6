"""Shared test helpers.

The paper's identities are defined once, as the checks of the
``polyhardy verify`` suites, and ``test_cli.py`` runs every suite over
several seeds; the other tests add oracles, bit-for-bit comparisons and
error paths.  ``random_power_series`` is the generator the suites use,
so tests and suites draw their random inputs from one definition.
"""

import mpmath
import numpy as np
from hypothesis import strategies as st

from polyhardy import MultiIndex, hardy
from polyhardy.cli import _random_power_series as random_power_series  # noqa: F401

#: Non-dyadic values, so products round, and none so small that they underflow.
NON_DYADIC = st.integers(min_value=-1000, max_value=1000).map(lambda n: n / 37)

#: Every finite double: signed zeros, subnormals and values whose products overflow.
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def summed_norms(series) -> float:
    """Sum of the Euclidean (Frobenius) norms of the coefficients."""
    return sum(float(np.linalg.norm(c)) for c in series.terms.values())


def distance(got, want) -> float:
    """Euclidean distance, in 40-digit arithmetic, between a float array
    and a list of mpmath values of its flattened entries."""
    with mpmath.workdps(40):
        squares = (abs(mpmath.mpc(g) - w) ** 2 for g, w in zip(got.ravel(), want))
        return float(mpmath.sqrt(mpmath.fsum(squares)))


def contracted_by_mpmath(F, monomial):
    """``sum_k a_k m_k`` in 40-digit arithmetic, one mpmath value per
    flattened coefficient entry, and ``sum_k ||a_k|| |m_k|`` as a float;
    ``monomial`` maps a key of ``F`` to its mpmath monomial ``m_k``."""
    with mpmath.workdps(40):
        total = [mpmath.mpc(0)] * (F.dim if F.kind == "vector" else F.dim**2)
        weight = mpmath.mpf(0)
        for key, a in F.terms.items():
            m = monomial(key)
            total = [t + m * mpmath.mpc(c) for t, c in zip(total, a.ravel())]
            weight += abs(m) * mpmath.sqrt(mpmath.fsum(abs(mpmath.mpc(c)) ** 2 for c in a.ravel()))
        return total, float(weight)


def sums_of_products_by_mpmath(F, G, combine):
    """Each coefficient of the full product of an operator series ``F`` and
    a vector series ``G``: ``sum a @ b`` over the pairs of terms whose keys
    ``combine`` to its key, in 40-digit arithmetic, one mpmath value per
    entry; and ``sum ||a|| ||b||`` over the same pairs, as a float."""
    exact, weight = {}, {}
    with mpmath.workdps(40):
        for k, a in F.terms.items():
            A = mpmath.matrix(a.tolist())
            for j, b in G.terms.items():
                key = combine(k, j)
                products = A * mpmath.matrix(b.tolist())
                total = exact.get(key, [mpmath.mpc(0)] * F.dim)
                exact[key] = [t + products[i] for i, t in enumerate(total)]
                weight[key] = weight.get(key, 0.0) + float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    return exact, weight


def terms(keys, kind: str, dim: int, max_size: int = 6, values=NON_DYADIC):
    """Strategy: a dict from drawn keys to complex coefficients of one kind and dim."""
    shape = (dim,) if kind == "vector" else (dim, dim)
    size = int(np.prod(shape))
    coefficient = st.lists(
        st.tuples(values, values), min_size=size, max_size=size
    ).map(lambda parts: np.array([complex(*p) for p in parts]).reshape(shape))
    return st.dictionaries(keys, coefficient, max_size=max_size)


def built_term_by_term(cls, S, mapping):
    """``cls(kind, dim, terms)`` of ``S`` with ``mapping`` applied to each
    ``(key, coeff)``: the public constructor, which copies and checks
    every coefficient."""
    with np.errstate(over="ignore", invalid="ignore"):  # the constructor reports it
        return cls(S.kind, S.dim, [mapping(k, c) for k, c in S.terms.items()])


def assert_same_bits(got, want):
    """Same type, kind, dim and keys in the same order, and coefficients
    with the same bytes (so signed zeros count); ``got``'s are read-only."""
    assert type(got) is type(want)
    assert (got.kind, got.dim) == (want.kind, want.dim)
    assert list(got.terms) == list(want.terms)
    for key, c in got.terms.items():
        assert c.dtype == np.complex128 and c.tobytes() == want.terms[key].tobytes()
        assert not c.flags.writeable


@st.composite
def series(draw, cls, keys, values=FINITE):
    """Strategy: a ``cls`` series of either kind and dim 1-3 on drawn keys."""
    kind = draw(st.sampled_from(["vector", "operator"]))
    dim = draw(st.integers(min_value=1, max_value=3))
    return cls(kind, dim, draw(terms(keys, kind, dim, values=values)))


#: Multi-indices on four variables with exponents at most 4: frequencies up to 210^4.
small_indices = st.lists(st.integers(min_value=0, max_value=4), max_size=4).map(MultiIndex)


def compositions(total: int, parts: int):
    """Every tuple of ``parts`` non-negative ints summing to ``total``, in
    ascending lexicographic order (the recursive enumeration ``simplex``
    once ran on every call)."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first, *rest)


def simplex_by_compositions(nvars: int, max_degree: int) -> list[tuple[int, ...]]:
    """Reference graded-lex simplex: exponent tuples, degree by degree."""
    return [t for degree in range(max_degree + 1) for t in compositions(degree, nvars)]


def grid_cell(alpha, grid) -> tuple[int, ...]:
    """Position of ``alpha mod M`` among the variable axes of an ``M^N`` tensor."""
    exps = alpha.exponents
    return tuple(e % grid.points_per_var for e in exps) + (0,) * (grid.nvars - len(exps))


def grid_box(F, grid) -> tuple[int, ...]:
    """The box ``hardy._grid_values`` folds into: ``min(e + 1, M)`` along a
    variable whose largest exponent is e, 1 along one F does not use."""
    box = [1] * grid.nvars
    for alpha in F.terms:
        for pos, e in alpha.items():
            box[pos] = max(box[pos], min(e + 1, grid.points_per_var))
    return tuple(box)


def grid_values_by_term(F, grid) -> np.ndarray:
    """Reference grid values, shape ``(*coefficient shape, num_nodes)``:
    ``r^|alpha| c_alpha`` added to cell ``alpha mod M`` of ``grid_box``,
    one term at a time, then the module's transform ``hardy._dft``; so it
    checks the fold, not the transform."""
    shape = (F.dim,) if F.kind == "vector" else (F.dim, F.dim)
    box = grid_box(F, grid)
    folded = np.zeros((*box, *shape), dtype=np.complex128)
    for alpha, coeff in F.terms.items():
        folded[grid_cell(alpha, grid)] += grid.radius**alpha.degree * coeff
    return hardy._dft(np.moveaxis(folded.reshape(-1, *shape), 0, -1), box, grid.points_per_var, 1)
