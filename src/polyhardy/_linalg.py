"""Largest-singular-value computation, row norms, the rounding calculus
every stated bound is written in, and the range rule every norm keeps.

The operator norm of a finite matrix is its largest singular value,
taken from LAPACK's backward-stable SVD through numpy; the same matrix
always gives the same value.  ``_row_norms`` takes the Euclidean norm of
each row of a stack of coefficient gaps, bit for bit numpy's one-vector
norm, for the checks in ``hardy`` and ``cli``.

Every rounding bound the package states is written with Higham's
``gamma_k = k u / (1 - k u)`` (*Accuracy and Stability of Numerical
Algorithms*, 2002, Lemma 3.1), where u is the unit roundoff of IEEE
double precision.  Both are defined here, once; each function that states
a bound has one private evaluator beside it that does the arithmetic of
its statement, and the checks and tests read those evaluators.

*The range rule.*  Every norm is a root of a sum or mean of squares or
p-th powers, which can overflow to inf, or lose digits or vanish below
the normal doubles, although the norm itself is a double.  Each norm is
taken directly, and taken once more, on scaled values, only when the
direct value fails its test:

* ``h2_norm`` and the vector node norms of ``hinf_norm`` and ``hp_norm``
  retake a value that fails ``_in_range`` (for ``hp_norm``, a value or a
  mean of p-th powers);
* ``operator_norm`` retakes a value that is not finite.  LAPACK's SVD
  scales a small matrix into its own safe range, but its estimate of the
  largest modulus overflows on an entry such as 1.5e308 (1 + i), and the
  SVD is then NaN;
* a Gram matrix (``multiplier_norm_schedule``, its error bound, and
  ``hardy._sigma_ceilings``) squares its entries before any test could
  see them, so it is always formed from scaled values.

The scaled values are the values times 2^-e, the power of two that
brings their largest real or imaginary part into [1/2, 1), which is
exact except where an entry turns subnormal (``_scale_down``).  A norm
retaken on them is scaled back by 2^e with ``np.ldexp``
(``_reduce_scaled``), so a norm beyond the double range is inf, never
NaN or an error.  The direct pass is not replaced by a scaled one:
scaling costs a pass over the values on every call.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["operator_norm"]

#: Unit roundoff u = 2^-53 of IEEE double precision, half the machine epsilon.
_U = 2.0**-53


def _gamma(k: float) -> float:
    """Higham's gamma_k = k u / (1 - k u): the relative error bound of k
    roundings, for ``k u < 1``."""
    return k * _U / (1 - k * _U)


def _scale_down(values: np.ndarray, axis=None) -> tuple[np.ndarray, int | np.ndarray]:
    """``(values * 2^-e, e)``, where 2^-e is the power of two that brings
    the largest real or imaginary part of ``values`` into [1/2, 1), with e
    clipped to [-1022, 1023] so that 2^-e and 2^e are doubles; e is 0 when
    every entry is zero or the largest part is not finite.  One int e, or
    with ``axis`` one per slice, an int array over the axes left; the axes
    of ``axis`` must lead, so that e broadcasts over the ones left."""
    largest = np.maximum(np.abs(values.real), np.abs(values.imag)).max(axis=axis, initial=0.0)
    e = np.clip(np.frexp(largest)[1], -1022, 1023)
    return values * np.ldexp(1.0, -e), (int(e) if axis is None else e)


def _reduce_scaled(reduce, values: np.ndarray):
    """``reduce`` of the scaled values of ``_scale_down``, scaled back by
    2^e: ``inf`` where that is beyond the double range."""
    scaled, e = _scale_down(values)
    with np.errstate(over="ignore"):
        return np.ldexp(reduce(scaled), e)


def _in_range(norm: float, mean: float = 1.0) -> bool:
    """Whether a norm taken directly as a root of a sum or mean of squares
    or p-th powers is kept: it is finite and at least 2^-484, and the mean
    of p-th powers behind it (``hp_norm``) is at least 2^-969.  Then no
    square or power overflowed, and each sum or mean of them (at the
    largest node, for node norms) is at least 2^-969, so each one that fell
    below the normal doubles moves it by at most 2^-1075, a relative
    2^-106: far below one rounding."""
    return 2.0**-484 <= norm < math.inf and mean >= 2.0**-969


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of a complex 2-d array, bit for bit.

    For one complex vector numpy computes ``sqrt(re . re + im . im)`` with
    two real dots, and ``np.vecdot`` takes the same dot per row; the
    batched ``np.linalg.norm(rows, axis=1)`` sums ``|x_i|^2`` instead and
    can round differently.
    """
    return np.sqrt(np.vecdot(rows.real, rows.real) + np.vecdot(rows.imag, rows.imag))


def operator_norm(matrix) -> float:
    """Largest singular value of ``matrix``.

    The first singular value of one LAPACK singular value decomposition
    without singular vectors (the call ``np.linalg.norm(M, 2)`` makes,
    without its wrapper), whose error satisfies ``|sigma_hat - sigma| <=
    p(n) eps ||M||`` with ``p(n)`` a modestly growing function of the
    order (LAPACK Users' Guide), taken as p(n) = n for an order-n matrix
    (``_operator_norm_rounding``).  A value that is not finite is taken
    once more on the scaled matrix (the module's range rule), so a norm
    beyond the double range is ``inf``, never NaN.  Returns ``0.0`` for
    empty and zero matrices; raises ``ValueError`` if the input is not 2-d
    or has non-finite entries.
    """
    M = np.asarray(matrix, dtype=np.complex128)
    if M.ndim != 2:
        raise ValueError("operator_norm expects a 2-d matrix")
    if M.size == 0:
        return 0.0
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")
    top = float(np.linalg.svd(M, compute_uv=False)[0])
    return top if math.isfinite(top) else float(_reduce_scaled(lambda S: np.linalg.svd(S, compute_uv=False)[0], M))


def _operator_norm_rounding(n: int) -> float:
    """The relative error ``p(n) eps`` that ``operator_norm`` states for an
    order-``n`` matrix, with p(n) = n and eps = 2u; the same LAPACK
    constant bounds the Hermitian eigensolve of ``multiplier_norm_schedule``."""
    return n * (2 * _U)
