"""Shared test helpers.

``random_power_series`` is the generator the ``verify`` suites use, so
tests and suites draw their random inputs from one definition.
"""

import numpy as np
from hypothesis import strategies as st

from polyhardy.cli import _random_power_series as random_power_series  # noqa: F401

#: Unit roundoff of IEEE double precision.
U = 2.0**-53

#: Non-dyadic values, so products round, and none so small that they underflow.
_VALUES = st.integers(min_value=-1000, max_value=1000).map(lambda n: n / 37)


def gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u): relative error bound of n roundings."""
    return n * U / (1.0 - n * U)


def summed_norms(series) -> float:
    """Sum of the Euclidean (Frobenius) norms of the coefficients."""
    return sum(float(np.linalg.norm(c)) for c in series.terms.values())


def terms(keys, kind: str, dim: int, max_size: int = 6):
    """Strategy: a dict from drawn keys to complex coefficients of one kind and dim."""
    shape = (dim,) if kind == "vector" else (dim, dim)
    size = int(np.prod(shape))
    coefficient = st.lists(
        st.tuples(_VALUES, _VALUES), min_size=size, max_size=size
    ).map(lambda parts: np.array([complex(*p) for p in parts]).reshape(shape))
    return st.dictionaries(keys, coefficient, max_size=max_size)
