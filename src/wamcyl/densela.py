"""Dense pivoted factorizations behind node extraction and solves, and the
one matrix product of the package.

Every dense product of `wamcyl` goes through `_gemm`, which calls
scipy's BLAS: numpy and scipy each bundle an OpenBLAS with its own
thread pool, and while one works the other's idle workers still spin
for the same cores.

Both pivoted factorizations, qr_col_pivot and lu_row_pivot, factor a
writeable, Fortran-contiguous float64 argument in its own memory and
overwrite it; any other argument (C-ordered, strided, read-only or not
float64) is copied once and left unchanged.

Pivot selection uses strict greater-than comparisons, so the earliest
index wins among exact ties; re-running on identical input under one
BLAS thread count is bit-identical.  Column-pivoted QR is delegated to
LAPACK (dgeqp3, which also breaks norm ties toward the first index).
Row-pivoted LU is left-looking over the degree panels of the graded
basis: one triangular solve and one GEMM per panel, then
column-by-column elimination inside it with whole-row swaps.  A panel's
operations depend only on the row count and its degree, so pivot choices
on a leading block of whole degrees are bitwise independent of any
trailing columns.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dgemm, dgemv, dsyrk
from scipy.linalg.lapack import dgeqp3, dtrtrs

from . import polybasis
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


def qr_col_pivot(A):
    """Greedy column selection by QR with column pivoting.

    At each step the residual column of largest Euclidean norm is chosen.
    Returns the full column permutation, whose first (row count) entries
    are the greedy pivots; every one of them is checked against RANK_TOL.
    A is overwritten or copied as the module docstring says: U.T of a
    C-ordered U is factored in U's memory.
    """
    A = np.require(A, dtype=float, requirements=["F", "W"])
    n_rows, n_cols = A.shape
    if n_rows > n_cols:
        raise ValueError("need at least as many columns as rows")
    _scale(A)
    # the queried lwork, as scipy.linalg.qr takes it: dgeqp3 pivots
    # differently with the default one; overwrite_a keeps f2py from copying A
    lwork = int(dgeqp3(A, lwork=-1, overwrite_a=1)[3][0])
    qr, jpvt = dgeqp3(A, lwork=lwork, overwrite_a=1)[:2]
    mags = np.abs(np.diag(qr))
    if mags[0] == 0.0 or np.min(mags) < RANK_TOL * mags[0]:
        raise RankDeficiencyError(
            f"pivot column norm below {RANK_TOL:g} of the largest column"
        )
    return PivotRecord(order=jpvt - 1, magnitudes=mags)


def _scale(A):
    """max |A_ij| from the extremes of A, without an |A| temporary; raises
    ValueError if A holds an inf or a NaN."""
    scale = max(A.max(initial=0.0), -A.min(initial=0.0))
    if not np.isfinite(scale):
        raise ValueError("array must not contain infs or NaNs")
    return scale


def lu_row_pivot(A):
    """Row permutation from Gaussian elimination with partial pivoting.

    Left-looking LU over graded degree panels: panel d holds the columns
    basis_size(d-1) .. basis_size(d)-1, the last one cut at the column
    count.  Each panel takes its update from all earlier columns in one
    unit-lower triangular solve and one GEMM; inside the panel each column
    takes its update from the panel's earlier columns (a triangular solve
    and a GEMV, Crout order) and is then pivoted: the current row with the
    largest absolute entry wins, the earliest on ties, and the two whole
    rows are swapped.  Column k is computed from columns 0..k only, and
    the panel bounds do not depend on the column count, so the pivots of
    a leading block of whole degrees are the leading pivots of the full
    matrix, bitwise: degree-(d-1) Leja points prefix degree-d ones.  A is
    overwritten or copied as the module docstring says: a Fortran-ordered
    U is factored in its own memory.  The arithmetic is the same either way.
    """
    LU = np.require(A, dtype=float, requirements=["F", "W"])
    n_rows, n_cols = LU.shape
    if n_rows < n_cols:
        raise ValueError("need at least as many rows as columns")
    scale = _scale(LU)
    if scale == 0.0:
        raise SingularMatrixError("zero matrix")
    tol_abs = RANK_TOL * scale
    perm = np.arange(n_rows)
    mags = np.empty(n_cols)
    c0, d = 0, 0
    while c0 < n_cols:
        c1 = min(polybasis.basis_size(d), n_cols)
        if c0:
            # the products run on full-height column blocks, which BLAS
            # takes without a copy; the top c0 rows then take U12 back
            U12 = _unit_lower_solve(LU[:c0, :c0], LU[:c0, c0:c1])
            _gemm(LU[:, :c0], U12, LU[:, c0:c1], alpha=-1.0, beta=1.0)
            LU[:c0, c0:c1] = U12
            del U12  # before the next panel's solve
        for k in range(c0, c1):
            if k > c0:
                x = _unit_lower_solve(LU[c0:k, c0:k], LU[c0:k, k])
                LU[k:, k] -= _gemm(LU[:, c0:k], x[:, None])[k:, 0]
                LU[c0:k, k] = x
            col = np.abs(LU[k:, k])
            p = k + int(np.argmax(col))
            mags[k] = col[p - k]
            if mags[k] < tol_abs:
                raise SingularMatrixError(f"pivot {mags[k]:g} below tolerance at column {k}")
            if p != k:
                LU[[k, p]] = LU[[p, k]]
                perm[k], perm[p] = perm[p], perm[k]
            LU[k + 1 :, k] /= LU[k, k]
        c0, d = c1, d + 1
    return PivotRecord(order=perm, magnitudes=mags)


def _unit_lower_solve(L, B):
    # L^-1 B for unit lower triangular L, by LAPACK dtrtrs with the
    # arguments scipy.linalg.solve_triangular(L, B, lower=True,
    # unit_diagonal=True, check_finite=False) passes it for an L that is
    # not Fortran-contiguous, without its checks (f2py copies L.T).  The
    # only Fortran-contiguous L the LU hands it is 1 x 1, whose solve is B
    return dtrtrs(L.T, B, lower=0, trans=1, unitdiag=1)[0]


def _gemm(A, B, c=None, alpha=1.0, beta=0.0):
    """alpha * A @ B + beta * c for 2-D float64 A (m, k) and B (k, n), by
    scipy's BLAS; the one matrix product of the package.

    With c=None the result is a new C-ordered (m, n) array (beta is then
    moot).  A c that is C- or F-contiguous is written in place and
    returned.  A C- or F-contiguous operand is handed to BLAS as it is,
    with the transpose flag where its order asks for one; any other
    operand is copied.  A single column (n = 1) goes to dgemv: dgemm
    takes several times longer on one.  B = A.T, a view of A's memory,
    goes to dsyrk, as numpy's matmul does: half the flops.  An empty
    product (m or n zero) calls no BLAS.
    """
    if not (A.shape[0] and B.shape[1]):
        return np.empty((A.shape[0], B.shape[1])) if c is None else c
    if c is not None and c.flags.f_contiguous and not c.flags.c_contiguous:
        return _gemm(B.T, A.T, c.T, alpha, beta).T  # c^T = B^T A^T is C-ordered
    if (c is None and B.shape == A.shape[::-1] and B.strides == A.strides[::-1]
            and B.ctypes.data == A.ctypes.data):
        a, trans = _fortran(A)
        C = dsyrk(alpha, a, trans=trans, lower=1)  # the upper triangle stays 0
        C += np.tril(C, -1).T
        return C.T
    if B.shape[1] == 1 and B.shape[0]:
        a, trans = _fortran(A)
        y = dgemv(alpha, a, B[:, 0], beta, None if c is None else c[:, 0],
                  trans=trans, overwrite_y=1)
        return y[:, None]
    # C-ordered c (m, n) is the F-ordered c^T (n, m) = B^T A^T of BLAS
    (b, trans_b), (a, trans_a) = _fortran(B.T), _fortran(A.T)
    return dgemm(alpha, b, a, beta, None if c is None else c.T, trans_b, trans_a,
                 overwrite_c=1).T


def _fortran(X):
    # (Y, t) with X = Y if t == 0 else Y.T, Y Fortran-contiguous when X is
    # C- or F-contiguous
    if X.flags.c_contiguous and not X.flags.f_contiguous:
        return X.T, 1
    return X, 0


def lu_factor_checked(A):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    scale = _scale(A)
    with warnings.catch_warnings():
        # the pivot check below raises on exact singularity
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    diag = np.abs(np.diag(lu))
    if scale == 0.0 or diag.min() < RANK_TOL * scale:
        raise SingularMatrixError("matrix is singular to working precision")
    return lu, piv


def cond_2(A):
    """Spectral condition number (ratio of extremal singular values), from
    scipy's singular values; inf for a singular A.

    This is the quantity the reference result tables report for node
    Vandermonde matrices; `metrics` rows and `reproduce` tables still
    label it `cond_inf`.
    """
    s = scipy.linalg.svdvals(np.asarray(A, dtype=float))
    return float(s[0] / s[-1]) if s[-1] > 0.0 else np.inf
