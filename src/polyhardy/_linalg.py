"""Largest-singular-value computation, row norms, and the rounding
calculus every stated bound is written in.

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


def _scale_exponent(values: np.ndarray) -> int:
    """The exponent e of the power of two 2^-e that brings the largest real
    or imaginary part of ``values`` into [1/2, 1), clipped to [-1022, 1023]
    so that 2^-e and 2^e are doubles; 0 when every entry is zero."""
    largest = max(float(np.abs(part).max(initial=0.0)) for part in (values.real, values.imag))
    return min(max(math.frexp(largest)[1], -1022), 1023)


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
    (``_operator_norm_rounding``).  Returns ``0.0`` for empty and zero
    matrices; raises ``ValueError`` if the input is not 2-d or has
    non-finite entries.
    """
    M = np.asarray(matrix, dtype=np.complex128)
    if M.ndim != 2:
        raise ValueError("operator_norm expects a 2-d matrix")
    if M.size == 0:
        return 0.0
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")
    return float(np.linalg.svd(M, compute_uv=False)[0])


def _operator_norm_rounding(n: int) -> float:
    """The relative error ``p(n) eps`` that ``operator_norm`` states for an
    order-``n`` matrix, with p(n) = n and eps = 2u; the same LAPACK
    constant bounds the Hermitian eigensolve of ``multiplier_norm_schedule``."""
    return n * (2 * _U)
