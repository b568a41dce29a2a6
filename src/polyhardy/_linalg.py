"""Largest-singular-value computation.

The operator norm of a finite matrix is its largest singular value,
taken from LAPACK's backward-stable SVD through numpy; the same matrix
always gives the same value.
"""

from __future__ import annotations

import numpy as np

__all__ = ["operator_norm"]


def operator_norm(matrix) -> float:
    """Largest singular value of ``matrix``.

    The first singular value of one LAPACK singular value decomposition
    without singular vectors (the call ``np.linalg.norm(M, 2)`` makes,
    without its wrapper), whose error satisfies ``|sigma_hat - sigma| <=
    p(n) * eps * ||M||`` with ``p(n)`` a modestly growing function of the
    order (LAPACK Users' Guide).  Returns ``0.0`` for empty and zero
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
