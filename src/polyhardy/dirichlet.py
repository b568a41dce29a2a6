"""Dirichlet series with vector or operator coefficients.

:class:`DirichletSeries` shares its sparse core with
:class:`~polyhardy.series.PowerSeries` and differs only in its keys:
positive integer frequencies, combined by multiplication and handled as
int64 arrays inside the shared convolution.  The Bohr
transform carries the coefficient at multi-index alpha to the
coefficient at frequency ``prod(p_i ** alpha_i)`` and is an exact
bijection on finitely supported series.  Multiplication becomes divisor
convolution, radial structure becomes the epsilon-shift ``a_n / n^eps``,
and coefficients can be recovered from vertical-line averages of the
evaluated series.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .multiindex import MAX_FREQUENCY, index_to_multiindex, multiindex_to_index
from .series import (
    PowerSeries,
    _check_op_vec,
    _coefficient_shape,
    _convolve,
    _kept_pairs,
    _SparseSeries,
)

__all__ = [
    "DirichletSeries",
    "HalfPlanePoint",
    "bohr",
    "bohr_inverse",
    "dirichlet_product",
    "epsilon_shift",
    "evaluate_dirichlet",
    "recover_coefficient",
]


@dataclass(frozen=True)
class HalfPlanePoint:
    """Point ``s = sigma + i t`` of the complex plane, named by its
    horizontal position since everything here lives on half-planes."""

    sigma: float
    t: float = 0.0

    def __complex__(self) -> complex:
        return complex(self.sigma, self.t)


class DirichletSeries(_SparseSeries):
    """Immutable sparse series ``sum a_n n^(-s)``; frequencies are
    positive and stay within 64-bit range."""

    __slots__ = ()

    @staticmethod
    def _key(n) -> int:
        n = operator.index(n)
        if n < 1:
            raise ValueError("frequencies must be positive integers")
        if n > MAX_FREQUENCY:
            raise OverflowError(f"frequency {n} exceeds the 64-bit range")
        return n

    @property
    def frequencies(self) -> tuple[int, ...]:
        return tuple(sorted(self._terms))


def bohr(F: PowerSeries) -> DirichletSeries:
    """Transport a power series to frequency coordinates.

    The coefficient at ``z^alpha`` lands at frequency ``prod(p_i**alpha_i)``;
    the support cardinality is preserved exactly.
    """
    return DirichletSeries(
        F.kind,
        F.dim,
        {multiindex_to_index(alpha): coeff for alpha, coeff in F.terms.items()},
    )


def bohr_inverse(D: DirichletSeries) -> PowerSeries:
    """Inverse transport; exact on every finitely supported series."""
    return PowerSeries(
        D.kind,
        D.dim,
        {index_to_multiindex(n): coeff for n, coeff in D.terms.items()},
    )


def dirichlet_product(
    D: DirichletSeries, E: DirichletSeries, max_frequency: int
) -> DirichletSeries:
    """Divisor convolution: coefficient at n is ``sum over k*j = n of a_k @ b_j``.

    Pairs with ``k*j > max_frequency`` are never formed (the exact test
    ``j <= max_frequency // k``, which cannot overflow), mirroring degree
    truncation on the power-series side.  A kept product beyond the
    64-bit range raises ``OverflowError``.
    """
    max_frequency = operator.index(max_frequency)
    _check_op_vec(D, E)
    left = np.fromiter(D.terms, dtype=np.int64, count=D.num_terms)
    right = np.fromiter(E.terms, dtype=np.int64, count=E.num_terms)
    limit = max(min(max_frequency, MAX_FREQUENCY), 0)
    if max_frequency > MAX_FREQUENCY:
        # per left key, the smallest right key whose product leaves the range
        ordered = np.sort(right)
        past = np.searchsorted(ordered, MAX_FREQUENCY // left, side="right")
        for k, at in zip(left.tolist(), past.tolist()):
            if at < len(ordered) and k * int(ordered[at]) <= max_frequency:
                raise OverflowError(
                    f"frequency {k * int(ordered[at])} exceeds the 64-bit range"
                )
    i, j = _kept_pairs(limit // left, right)
    return _convolve(D, E, i, j, left[i] * right[j], np.ndarray.tolist)


def evaluate_dirichlet(
    D: DirichletSeries, s: HalfPlanePoint | complex
) -> np.ndarray:
    """Finite sum ``sum a_n n^(-s)`` with ``n^(-s) = exp(-s ln n)``.

    Converges everywhere since the series is finitely supported; the real
    logarithm of ``n > 0`` avoids any branch ambiguity.
    """
    sc = complex(s)
    out = np.zeros(_coefficient_shape(D.kind, D.dim), dtype=np.complex128)
    for n, coeff in D.terms.items():
        out += coeff * np.exp(-sc * math.log(n))
    return out


def epsilon_shift(D: DirichletSeries, eps: float) -> DirichletSeries:
    """Scale the coefficient at n by ``n^(-eps)``; ``eps = 0`` is the identity.

    The shifted norms ``eps -> ||D_eps||`` are nonincreasing, and shifts
    compose additively: shifting by a then b equals shifting by a + b.
    """
    eps = float(eps)
    if eps < 0:
        raise ValueError("epsilon must be non-negative")
    if eps == 0.0:
        return D
    return DirichletSeries(
        D.kind,
        D.dim,
        {n: (n ** (-eps)) * coeff for n, coeff in D.terms.items()},
    )


def recover_coefficient(
    D: DirichletSeries,
    n: int,
    sigma: float,
    R: float,
    grid_points: int,
) -> np.ndarray:
    """Vertical-line average ``(1/2R) * integral_{-R}^{R} D(sigma+it) n^(sigma+it) dt``.

    Trapezoid quadrature on a uniform t-grid.  For a finite series the
    term at frequency n is reproduced exactly in the limit; every other
    frequency m contributes a cross term
    ``a_m (n/m)^sigma sin(R log(n/m)) / (R log(n/m))``, so the error
    decays like O(1/R) modulated by the oscillating sine.  ``sigma``
    should be moderately large (2 is comfortable) so the integrand is
    well scaled.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("target frequency must be a positive integer")
    R = float(R)
    if R <= 0:
        raise ValueError("R must be positive")
    grid_points = operator.index(grid_points)
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    sigma = float(sigma)

    t = np.linspace(-R, R, grid_points)
    s_line = sigma + 1j * t
    target_factor = np.exp(s_line * math.log(n))
    shape = _coefficient_shape(D.kind, D.dim)
    integrand = np.zeros((grid_points, *shape), dtype=np.complex128)
    expand = (slice(None),) + (None,) * len(shape)
    for m, coeff in D.terms.items():
        line_values = np.exp(-s_line * math.log(m)) * target_factor
        integrand += line_values[expand] * coeff
    return np.trapezoid(integrand, t, axis=0) / (2.0 * R)
