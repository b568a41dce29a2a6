"""Dirichlet series with vector or operator coefficients.

:class:`DirichletSeries` shares its sparse core with
:class:`~polyhardy.series.PowerSeries` and differs only in its keys:
positive integer frequencies, combined by multiplication and held as one
int64 array next to the coefficient stack.  The Bohr
transform carries the coefficient at multi-index alpha to the
coefficient at frequency ``prod(p_i ** alpha_i)`` and is an exact
bijection on finitely supported series.  Multiplication becomes divisor
convolution, radial structure becomes the epsilon-shift ``a_n / n^eps``,
and coefficients can be recovered from vertical-line averages of the
evaluated series.

The transports, the shift and evaluation work on the arrays a series
already holds and never build its ``terms`` mapping.  :func:`bohr`
turns the exponent rows into frequencies with one product of prime
powers, and :func:`bohr_inverse` factors the frequency array with table
gathers (frequencies from ``SIEVE_LIMIT`` up keep scalar trial
division); both share the coefficient stack, which is finite, nonzero
and read-only.
int64 products wrap silently, so the size of every frequency is bounded
in floating point before any product is formed, and the rows near 2^63
take the exact scalar map, which raises its ``OverflowError``.
:func:`epsilon_shift` scales the stacked coefficients in one array
operation; none of them copies or re-checks a coefficient one by one.
:func:`evaluate_dirichlet` forms every ``exp(-s log n)`` from the
frequency array in one array expression, the monomial table power
series also use, and contracts it with the coefficient stack.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from ._linalg import _U, _gamma
from .multiindex import MAX_FREQUENCY, _factor, _frequencies, _index
from .series import (
    PowerSeries,
    _check_op_vec,
    _convolve,
    _kept_pairs,
    _scaled,
    _SparseSeries,
    _values_at,
)

__all__ = [
    "DirichletSeries",
    "bohr",
    "bohr_inverse",
    "dirichlet_product",
    "epsilon_shift",
    "evaluate_dirichlet",
    "recover_coefficient",
]

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

    @staticmethod
    def _encode(keys: list[int]) -> tuple[np.ndarray, None]:
        return np.array(keys, dtype=np.int64), None

    def _decode(self) -> list[int]:
        return self._keys.tolist()

    @property
    def frequencies(self) -> tuple[int, ...]:
        return tuple(sorted(self._keys.tolist()))


def bohr(F: PowerSeries) -> DirichletSeries:
    """Transport a power series to frequency coordinates.

    The coefficient at ``z^alpha`` lands at frequency ``prod(p_i**alpha_i)``;
    the support cardinality is preserved exactly.  The frequencies are one
    product of prime powers over the exponent rows (see
    ``multiindex._frequencies`` for its overflow rule); the map is a
    bijection, so the keys stay distinct and the coefficient stack is
    shared.
    """
    freqs = _frequencies(F._columns, F._keys)
    return DirichletSeries._wrap(F.kind, F.dim, freqs, F._coeffs)


def bohr_inverse(D: DirichletSeries) -> PowerSeries:
    """Inverse transport; exact on every finitely supported series.

    The frequencies are factored as one array (``multiindex._factor``) and,
    like :func:`bohr`, the coefficient stack is shared.
    """
    rows, columns = _factor(D._keys)
    return PowerSeries._wrap(D.kind, D.dim, rows, D._coeffs, columns)


def dirichlet_product(
    D: DirichletSeries, E: DirichletSeries, max_frequency: int
) -> DirichletSeries:
    """Divisor convolution: coefficient at n is ``sum over k*j = n of a_k @ b_j``.

    Pairs with ``k*j > max_frequency`` are never formed (the exact test
    ``j <= max_frequency // k``, which cannot overflow), mirroring degree
    truncation on the power-series side.  ``max_frequency`` is an integer
    of at least 1 (``TypeError`` or ``ValueError`` naming it otherwise).  A
    kept product beyond the 64-bit range raises ``OverflowError``.

    *Rounding.*  As for ``op_vec_product``, with which it shares its
    convolution: each coefficient is within
    ``gamma_{T_D T_E d + 2} sum ||a_k|| ||b_j||`` of the exact sum, over
    its pairs, while no product underflows (``series._product_rounding``).
    """
    max_frequency = _index(max_frequency, "max_frequency", 1)
    _check_op_vec(D, E)
    left, right = D._keys, E._keys
    limit = min(max_frequency, MAX_FREQUENCY)
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
    keys, sums = _convolve(D, E, i, j, left[i] * right[j])
    return DirichletSeries._from_stack("vector", D.dim, keys, sums)


def evaluate_dirichlet(D: DirichletSeries, s: complex) -> np.ndarray:
    """Finite sum ``sum a_n n^(-s)`` with ``n^(-s) = exp(-s log n)``.

    Converges everywhere since the series is finitely supported; the real
    logarithm of ``n > 0`` avoids any branch ambiguity.  ``s`` must be
    finite, and an ``n^(-s)`` that is not finite raises ``ValueError``
    naming s.

    *Rounding.*  With u = 2^-53 and gamma_k = k u / (1 - k u), and with
    log, exp, cos and sin within one ulp: the exponent ``-s log n``
    carries an absolute error of at most ``gamma_3 |s| log n``, which exp
    turns into a relative one of at most ``2 gamma_3 |s| log n`` while
    that is at most 1/2, and exp itself adds gamma_4.  Each entry of the
    value is a complex inner product of T terms, within ``gamma_{3T}`` of
    the sum of the moduli of its products.  So, while no product
    underflows, the value is within
    ``sum_n ||a_n|| n^(-Re s) (gamma_{3T+4} + 2 gamma_3 |s| log n)`` of
    the exact sum (Frobenius norms for operators).  The terms are summed
    in BLAS order, so another order can differ in the last bits.
    ``_evaluate_dirichlet_rounding`` evaluates the factor of each term.
    """
    s = complex(s)
    if not np.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    return _values_at(D, np.array([s]))[0]


def _evaluate_dirichlet_rounding(D: DirichletSeries, s: complex) -> np.ndarray:
    """The rounding ``evaluate_dirichlet`` states, as one factor per term
    in ``terms`` order: the value at s is within the sum over the terms of
    ``||a_n|| n^(-Re s)`` times ``gamma_{3T+4} + 2 gamma_3 |s| log n``."""
    return _gamma(3 * D.num_terms + 4) + 2 * _gamma(3) * abs(complex(s)) * np.log(D._keys)


def epsilon_shift(D: DirichletSeries, eps: float) -> DirichletSeries:
    """Scale the coefficient at n by ``n^(-eps)``; ``eps = 0`` is the identity.

    The shifted norms ``eps -> ||D_eps||`` are nonincreasing, and shifts
    compose additively: shifting by a then b equals shifting by a + b.

    *Rounding.*  With u = 2^-53 and gamma_k = k u / (1 - k u): Python's
    pow is within one ulp (2u) of ``n ** -eps``, and multiplying a
    complex number by a real one rounds each of its parts once, so each
    coefficient is within ``gamma_3 n^-eps ||a_n||`` of ``a_n n^-eps``.
    Shifting by a then b is thus within ``gamma_6`` of the exact shift by
    a + b, relative to each coefficient.  The double ``c = a + b`` differs
    from the exact sum by at most ``u c``, so ``n^-c`` is within
    ``gamma_{c log n}`` of ``n^-(a+b)``, relative (``_EPSILON_SHIFT_ROUNDING``
    and ``_epsilon_shift_sum_rounding``).
    """
    eps = float(eps)
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"epsilon must be finite and non-negative, got {eps}")
    if eps == 0.0:
        return D
    # Python's pow, not np.power: with numpy 2.4 on AVX-512 about 5% of n ** -eps round differently
    return _scaled(D, [n ** (-eps) for n in D._keys.tolist()])


#: The index k of the rounding ``epsilon_shift`` states, relative to each
#: coefficient: a shift is within gamma_k of the exact ``a_n n^-eps``, so a
#: shift by a and then b is within gamma_{2k} of the exact shift by a + b.
_EPSILON_SHIFT_ROUNDING = 3


def _epsilon_shift_sum_rounding(D: DirichletSeries, c: float) -> float:
    """The index s of the rounding ``epsilon_shift`` states for the double
    ``c = a + b`` of an exact sum: ``n^-c`` is within gamma_s of
    ``n^-(a+b)``, relative, for ``s = c log n_max`` with n_max the largest
    frequency of D."""
    return float(c) * math.log(D._keys.max(initial=1))


def recover_coefficient(
    D: DirichletSeries,
    n: int,
    sigma: float,
    R: float,
    grid_points: int,
) -> np.ndarray:
    """Vertical-line average ``(1/2R) * integral_{-R}^{R} D(sigma+it) n^(sigma+it) dt``.

    The integrand is ``sum_m a_m (n/m)^(sigma+it)``, so the average is
    ``sum_m (n/m)^sigma w_m a_m`` with one real weight per term: the
    trapezoid rule on P = ``grid_points`` uniform nodes
    ``t_k = h (k - (P-1)/2)`` of step ``h = 2R / (P-1)``, divided by 2R,
    applied to ``exp(i t L)`` with ``L = log(n/m)``.  With
    ``theta = h L`` the node sum is a Dirichlet kernel,
    ``sum_k exp(i theta (k - (P-1)/2)) = D_P(theta) = sin(P theta/2) / sin(theta/2)``
    (``D_P(0) = P``), and the two end nodes t = +-R carry half weight, so

        ``w = (D_P(theta) - cos((P-1) theta / 2)) / (P-1)``,

    the exact trapezoid value in O(1) per term: the cost is O(T) for T
    terms whatever ``grid_points`` is, and no node array is formed.  Both
    D_P and the cosine change only by the sign ``(-1)^(j (P-1))`` when
    theta moves by ``2 pi j``, so theta is reduced first: in turns,
    ``c = theta / (2 pi)`` splits into the nearest integer j and
    ``x = c - j`` in [-1/2, 1/2], a subtraction that is exact in floating
    point, and the kernel is evaluated as ``P sinc(P x) / sinc(x)``, which
    has no 0/0 at theta = 2 pi j: each sinc by numpy's own formula, ``y =
    pi x``, y replaced by eps = 2u where it is 0, and ``sin(y) / y``.  The
    weights, as one row, multiply the ``(T, d)`` or ``(T, d^2)``
    coefficient stack in the one ``np.dot`` that ``np.tensordot`` makes
    (``@`` of the weight vector rounds alike but can lose the sign of a
    zero part).  This is the classical ``sin(R L) / (R L) * y cot y``
    with ``y = h L / 2`` for the terms m != n, so every other frequency
    leaves an error that decays like O(1/R), modulated by the oscillating
    sine; the term m = n gets weight exactly 1.

    *Rounding.*  With u = 2^-53 and gamma_k = k u / (1 - k u), the turns
    c carry a relative error of at most gamma_7 (the step, pi, the
    logarithm to within one ulp, two products) plus an absolute one of
    ``u R / (pi (P-1))`` from rounding n/m.  Since w is a weighted
    average of ``cos(2 pi c (k - (P-1)/2))``, ``|dw/dc| <= pi (P-1)``, so
    these move w by at most ``gamma_7 R |L| + gamma_1 R``.  Evaluating the
    kernel at x adds at most gamma_50 when sin and cos are within one
    ulp: the arguments carry relative errors of gamma_3, which move
    ``P sinc(P x)`` by at most ``2 P gamma_3`` (as ``|z S'(z)| <= 2`` for
    ``S(z) = sin(z)/z``) and ``sinc(x)``, which is at least 2/pi, by a
    relative gamma_2 (as ``|z S'(z) / S(z)| <= 1`` for ``|z| <= pi/2``).
    The scale ``(n/m)^sigma = exp(sigma L)`` is within
    ``|sigma| (gamma_3 |L| + gamma_1) + gamma_2`` relatively, and the
    product and the contraction of T terms add gamma_{T+1}.  So the
    result is within
    ``sum_m |a_m| (n/m)^sigma (gamma_8 (R + |sigma|) (1 + |L_m|) + gamma_{T+53})``
    of the exact average of the trapezoid rule.  ``sigma`` should be
    moderately large (2 is comfortable) so that the integrand is well
    scaled.  ``n`` must be a frequency; ``sigma`` and ``R`` must be
    finite, and a ``(n/m)^sigma`` beyond the float range raises
    ``ValueError``, as does a step ``h |L|`` of 2^52 turns or more, where
    the turns c keep no fractional bit and the bound above says nothing.
    ``_recover_coefficient_rounding`` evaluates the factor of each term.
    """
    n = DirichletSeries._key(n)
    sigma = float(sigma)
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    R = float(R)
    if not (math.isfinite(R) and R > 0):
        raise ValueError(f"R must be finite and positive, got {R}")
    P = _index(grid_points, "grid_points", 2)

    logs = np.array([math.log(n / m) for m in D._keys.tolist()])
    with np.errstate(over="ignore"):  # reported below
        scales = np.exp(sigma * logs)
        turns = logs * (R / (math.pi * (P - 1)))  # h L / 2 pi
    if not np.isfinite(scales).all():
        m = D._keys[np.argmax(scales)]  # the first inf
        raise ValueError(f"(n/m)^sigma overflows at sigma={sigma} for n/m = {n}/{m}")
    most = np.abs(turns).max(initial=0.0)
    if most >= 2.0**52:  # x = turns - j would keep no bit of the phase
        raise ValueError(f"one grid step spans {most:.4g} turns of h log(n/m), 2^52 or more")
    j = np.rint(turns)
    x = turns - j
    # np.sinc's formula, without its wrapper: sin(y) / y at y = pi x, with y = 0 replaced by eps = 2u
    wide, narrow = (np.where(y, y, 2 * _U) for y in (math.pi * (P * x), math.pi * x))
    weights = (P * (np.sin(wide) / wide) / (np.sin(narrow) / narrow) - np.cos(math.pi * (P - 1) * x)) / (P - 1)
    if P % 2 == 0:
        weights[np.fmod(j, 2) != 0] *= -1.0  # (-1)^(j (P-1))
    weights *= scales
    shape = D._coeffs.shape[1:]
    # np.tensordot's own call: the row of weights times the (T, entries) stack
    return np.dot(weights.reshape(1, D.num_terms), D._coeffs.reshape(D.num_terms, math.prod(shape))).reshape(shape)


def _recover_coefficient_rounding(D: DirichletSeries, n: int, sigma: float, R: float) -> list[float]:
    """The rounding ``recover_coefficient`` states, as one factor per term
    m in ``terms`` order: the result is within the sum over the terms of
    ``|a_m| (n/m)^sigma`` times ``gamma_8 (R + |sigma|) (1 + |L_m|) +
    gamma_{T+53}``, with ``L_m = log(n/m)``."""
    T = D.num_terms
    return [_gamma(8) * (R + abs(sigma)) * (1 + abs(math.log(n / m))) + _gamma(T + 53) for m in D._keys.tolist()]
