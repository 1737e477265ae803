"""Dense pivoted factorizations behind node extraction and solves.

Pivot selection uses strict greater-than comparisons, so the earliest
index wins among exact ties; re-running on identical input is
bit-identical.  Column-pivoted QR is delegated to LAPACK (dgeqp3, which
also breaks norm ties toward the first index); row-pivoted LU is an
unblocked elimination so that pivot choices on a leading column block are
bitwise independent of any trailing columns.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import RankDeficiencyError, SingularMatrixError

RANK_TOL = 1e-12


@dataclass(frozen=True)
class PivotRecord:
    """Pivot order plus the selected pivot magnitudes, for diagnostics."""

    order: np.ndarray = field(repr=False)
    magnitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        order = np.asarray(self.order)
        if np.unique(order).size != order.size:
            raise ValueError("pivot order is not a permutation")


def qr_col_pivot(A, steps=None):
    """Greedy column selection by QR with column pivoting.

    At each step the residual column of largest Euclidean norm is chosen.
    Returns the full column permutation; the first `steps` entries are the
    greedy pivots (steps defaults to the row count).
    """
    A = np.asarray(A, dtype=float)
    n_rows, n_cols = A.shape
    if n_rows > n_cols:
        raise ValueError("need at least as many columns as rows")
    if steps is None:
        steps = n_rows
    if not 1 <= steps <= n_rows:
        raise ValueError("steps must be in 1..rows")
    R, piv = scipy.linalg.qr(A, mode="r", pivoting=True)
    mags = np.abs(np.diag(R))[:steps]
    if mags[0] == 0.0 or np.min(mags) < RANK_TOL * mags[0]:
        raise RankDeficiencyError(
            f"pivot column norm below {RANK_TOL:g} of the largest column"
        )
    return PivotRecord(order=piv, magnitudes=mags)


def lu_row_pivot(A):
    """Row permutation from Gaussian elimination with partial pivoting.

    Unblocked right-looking elimination: at column k the unpivoted row with
    the largest absolute entry is selected (first such row on ties).  Pivot
    decisions for a leading column block are therefore bitwise independent
    of any trailing columns.
    """
    U = np.array(A, dtype=float, order="C")
    n_rows, n_cols = U.shape
    if n_rows < n_cols:
        raise ValueError("need at least as many rows as columns")
    scale = np.abs(U).max(initial=0.0)
    if scale == 0.0:
        raise SingularMatrixError("zero matrix")
    tol_abs = RANK_TOL * scale
    perm = np.arange(n_rows)
    mags = np.empty(n_cols)
    # one multiply and one subtract per entry, first-max pivot search
    for k in range(n_cols):
        col = np.abs(U[k:, k])
        p = k + int(np.argmax(col))
        mags[k] = col[p - k]
        if mags[k] < tol_abs:
            raise SingularMatrixError(f"pivot {mags[k]:g} below tolerance at column {k}")
        if p != k:
            U[[k, p]] = U[[p, k]]
            perm[k], perm[p] = perm[p], perm[k]
        if k + 1 < n_rows:
            mult = U[k + 1 :, k] / U[k, k]
            U[k + 1 :, k + 1 :] -= mult[:, None] * U[k, k + 1 :]
    return PivotRecord(order=perm, magnitudes=mags)


def lu_factor_checked(A):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    scale = np.abs(A).max(initial=0.0)
    with warnings.catch_warnings():
        # the pivot check below raises on exact singularity
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A, check_finite=True)
    diag = np.abs(np.diag(lu))
    if scale == 0.0 or diag.min() < RANK_TOL * scale:
        raise SingularMatrixError("matrix is singular to working precision")
    return lu, piv


def solve(A, B):
    """Solve A X = B by row-pivoted LU."""
    lu, piv = lu_factor_checked(A)
    return scipy.linalg.lu_solve((lu, piv), np.asarray(B, dtype=float))


def cond_inf(A):
    """Infinity-norm condition number via the explicit inverse."""
    A = np.asarray(A, dtype=float)
    lu_factor_checked(A)
    inv = np.linalg.inv(A)
    return float(
        np.abs(A).sum(axis=1).max() * np.abs(inv).sum(axis=1).max()
    )


def cond_2(A):
    """Spectral condition number (ratio of extremal singular values).

    This is the quantity the reference result tables report for node
    Vandermonde matrices; cond_inf runs one to two orders of magnitude
    higher on the same matrices.
    """
    return float(np.linalg.cond(np.asarray(A, dtype=float)))
