"""Graded orthonormal polynomial basis on the cylinder D x [-1, 1].

Each element couples a ridge Chebyshev polynomial of the second kind on
the unit disk with a weighted Chebyshev polynomial of the first kind in z:

    C_(i,k,j)(x, y, z) = U_k(x cos t + y sin t) * Ttilde_(i-k)(z),
    t = j*pi/(k+1),  Ttilde_0 = 1,  Ttilde_m = sqrt(2) * T_m  (m >= 1),

with indices 0 <= j <= k <= i <= n.  The ordering is graded lexicographic
in (i, k, j), so the leading (m+1)(m+2)(m+3)/6 elements span exactly the
polynomials of total degree <= m for every m <= n.

Every basis value is evaluated on the tensor grids xy x z that `_grids`
finds among the points, as a ridge factor of xy times a z factor, with
the column map of `_factor_index`.  `vandermonde` fills V one z layer at
a time (a large grid in Fortran order one column at a time); `scan` (and
`evaluate` through it) streams X b(x) one z layer at a time without
building V, from X's z blocks (`z_blocks`), contracting the z factor
first; `moments`, its adjoint, forms V^T S grid by grid, the xy factor
first; `gram` adds small Kronecker products over the grids into V^T V
in row blocks.  Their products go through `densela._gemm`.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import densela
from .errors import DomainError

DOMAIN_TOL = 1e-12
# rows of the Gram matrix added per block (gram)
GRAM_ROWS = 64


class MultiIndex(NamedTuple):
    i: int
    k: int
    j: int


@dataclass(frozen=True)
class BasisSet:
    """Graded list of basis indices for total degree <= degree."""

    degree: int
    indices: tuple

    def __len__(self):
        return len(self.indices)


def basis_size(n):
    """Dimension of the degree-n polynomial space in three variables."""
    return (n + 1) * (n + 2) * (n + 3) // 6


def enumerate_basis(n):
    """All indices (i, k, j) with 0 <= j <= k <= i <= n, graded-lex order."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    indices = tuple(
        MultiIndex(i, k, j)
        for i in range(n + 1)
        for k in range(i + 1)
        for j in range(k + 1)
    )
    return BasisSet(degree=n, indices=indices)


def _cheb_u_deg(k, t):
    # recurrence on arrays; tolerates |t| slightly above 1 from rim rounding
    if k == 0:
        return np.ones_like(t)
    prev = np.ones_like(t)
    cur = 2.0 * t
    for _ in range(k - 1):
        prev, cur = cur, 2.0 * t * cur - prev
    return cur


def _t_tilde_all(n, z):
    # rows 0..n of Ttilde_m(z); row 0 is the constant 1
    out = np.empty((n + 1, len(z)))
    out[0] = 1.0
    if n >= 1:
        tm_prev = np.ones_like(z)
        tm = z.copy()
        out[1] = np.sqrt(2.0) * tm
        for m in range(2, n + 1):
            tm_prev, tm = tm, 2.0 * z * tm - tm_prev
            out[m] = np.sqrt(2.0) * tm
    return out


def _validate_points(pts):
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must be an (M, 3) array")
    # negated <= so that NaN coordinates fail too
    r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
    bad = np.flatnonzero(~((r2 <= 1.0 + DOMAIN_TOL) & (np.abs(pts[:, 2]) <= 1.0 + DOMAIN_TOL)))
    if bad.size:
        raise DomainError(f"point {pts[bad[0]]} (row {bad[0]}) outside the cylinder")


def z_blocks(basis, C):
    """The rows of C (N, K) of each z degree d, in graded order: the
    (R_d, K) blocks that `scan` contracts, each a C-ordered copy."""
    # rows of z degree d in graded order are in ridge order (k, j), the
    # R_d ridge factors with k <= n - d: a prefix of all R of them
    _, m = _factor_index(basis)
    return [np.ascontiguousarray(C[m == d]) for d in range(basis.degree + 1)]


def scan(basis, blocks, mesh, reduce):
    """Yield reduce(rows, X @ vandermonde(basis, pts[rows]).T) per z layer
    of each tensor grid of the points of `mesh` (a Mesh or an (M, 3)
    array), rows the layer's indices into those points.

    X is (K, N) with N = len(basis), given as its z blocks: blocks[d] is
    the (R_d, K) array X[:, m == d].T of the columns of z degree d, as
    z_blocks(basis, X.T) makes them, or as a caller forms them without X.
    Each grid's layers are written into one (K, xy) buffer, so a
    reduction must not keep the array it is handed: the next layer
    overwrites it.  Only the reductions leave the generator.  Layers come
    in grid order and cover every point exactly once.

    No Vandermonde is built: per layer, the blocks are contracted with the
    z factors into Y (K, R) and the product is Y @ ridges, about 2*K*R*M
    flops in place of 2*K*N*M (sum factorization).
    """
    for A, tz, rows in _grids(basis.degree, mesh):
        # the transpose (xy, K) in C order: this orientation runs the
        # product and the reductions over K fastest
        out = np.empty((len(A), blocks[0].shape[1]))
        for q, layer in enumerate(rows):
            yield reduce(layer, densela._gemm(A, _contract_z(blocks, tz[:, q]), out).T)


def evaluate(basis, C, mesh, order="C"):
    """vandermonde(basis, mesh) @ C for C of shape (N, K), by one scan, in
    C order or, for order="F", in Fortran order."""
    out = np.empty((len(getattr(mesh, "points", mesh)), C.shape[1]), order=order)
    for rows, R in scan(basis, z_blocks(basis, C), mesh, lambda rows, R: (rows, R)):
        # scattered to point order, one contiguous K-row of the layer
        # buffer per point: a row of out in C order, a column of out.T in F
        out.T[:, rows] = R
    return out


def vandermonde(basis, mesh, order="C"):
    """Dense (M, N) matrix of basis values at the mesh points, in C order
    or, for order="F", in Fortran order.

    Row r, column c holds basis.indices[c] evaluated at point r; row order
    follows the mesh, column order the graded basis.  `mesh` may be a Mesh
    or a plain (M, 3) array.  Each tensor grid is filled one z layer at a
    time, the rows of layer q being ridges[r].T * tz[m, q], except that in
    Fortran order a grid of at least N points is filled along V's
    contiguous axis, one column at a time: column c is tz[m[c]] times
    ridges[:, r[c]] over all its layers.  The entries are the same
    products either way.
    """
    r, m = _factor_index(basis)
    V = np.empty((len(getattr(mesh, "points", mesh)), len(basis)), order=order)
    for A, tz, rows in _grids(basis.degree, mesh):
        if order == "F" and len(A) * len(rows) >= len(basis):
            grid, AT = np.concatenate(rows), A.T.copy()  # grid rows, layer by layer
            for c, (rc, mc) in enumerate(zip(r, m)):
                V[:, c][grid] = np.multiply.outer(tz[mc], AT[rc]).ravel()
        else:
            AT = A[:, r]  # (xy, N): the ridge factor of each column on the grid
            for q, layer in enumerate(rows):
                V[layer] = AT * tz[m, q]
    return V


def moments(basis, mesh, S):
    """V^T S (N, F) for V = vandermonde(basis, mesh) and S of shape (M, F),
    without building V: the adjoint of `evaluate`, over the same grids.  On
    a grid, S is gathered into an (xy, F * nz) block B, with B[p, f, q] the
    value at point (xy[p], z[q]); A^T B (R, F * nz) is contracted with the
    z factors into (R, F, n + 1), and column c takes entry [r, :, m] of
    its factor pair.  No points give zeros."""
    r, m = _factor_index(basis)
    out = np.zeros((len(basis), S.shape[1]))
    for A, tz, rows in _grids(basis.degree, mesh):
        B = S[np.stack(rows, axis=1)].transpose(0, 2, 1).reshape(len(A), -1)
        W = densela._gemm(A.T, B).reshape(-1, len(rows))  # (R * F, nz)
        out += densela._gemm(W, tz.T).reshape(A.shape[1], S.shape[1], -1)[r, :, m]
    return out


def gram(basis, mesh):
    """V^T V for V = vandermonde(basis, mesh), without building V: on each
    tensor grid V = (A kron B)[:, S], A the ridge and B the z factors, S the
    basis columns, so V^T V = sum over grids of (A^T A kron B^T B)[S, S].
    Each grid's term is added into G in row blocks of GRAM_ROWS rows, so
    G is the only N x N array."""
    r, m = _factor_index(basis)
    G = np.zeros((len(basis), len(basis)))
    for A, tz, _ in _grids(basis.degree, mesh):
        AA, TT = densela._gemm(A.T, A), densela._gemm(tz, tz.T)
        for lo in range(0, len(basis), GRAM_ROWS):
            rows = slice(lo, lo + GRAM_ROWS)
            block = AA[np.ix_(r[rows], r)]
            block *= TT[np.ix_(m[rows], m)]
            G[rows] += block
    return G


def _factor_index(basis):
    # (r, m) per column: element (i, k, j) is ridge factor r = k(k+1)/2 + j
    # (ridge order (k, j)) times the z factor of degree m = i - k
    return np.array([(k * (k + 1) // 2 + j, i - k) for i, k, j in basis.indices]).T


def _grids(n, mesh):
    # (ridges, tz, rows) per tensor grid of _slabs: ridges is the grid's
    # (xy, R) block of rows, C-contiguous, of one evaluation of the
    # R = (n+1)(n+2)/2 ridge factors on all grids, tz the (n+1, nz) z
    # factors at its z nodes
    pts = np.asarray(getattr(mesh, "points", mesh), dtype=float)
    _validate_points(pts)
    slabs = _slabs(pts)
    if not slabs:  # no points: nothing to concatenate, no grids
        return []
    xy = np.concatenate([g[0] for g in slabs])
    ridges = _ridge_factors(n, xy[:, 0], xy[:, 1])
    ends = np.cumsum([len(g[0]) for g in slabs])
    return [(A, _t_tilde_all(n, z), rows)
            for (_, z, rows), A in zip(slabs, np.split(ridges, ends[:-1]))]


def _slabs(pts):
    # tensor grids (xy, z, rows) that partition the points: rows[q] holds the
    # indices of the points (xy, z[q]) in the order of xy.  Points are grouped
    # by exact z, and z groups with equal xy rows share a grid (+ 0.0 turns
    # -0.0 into 0.0, so equal rows have equal bytes)
    order = np.argsort(pts[:, 2], kind="stable")
    z, starts = np.unique(pts[order, 2], return_index=True)
    grids = {}
    for zq, rows in zip(z, np.split(order, starts[1:])):
        xy = pts[rows, :2]
        grid = grids.setdefault((xy + 0.0).tobytes(), (xy, [], []))
        grid[1].append(zq)
        grid[2].append(rows)
    return [(xy, np.array(z), rows) for xy, z, rows in grids.values()]


def _contract_z(blocks, tz):
    # Y^T (R, K) = sum over d of tz[d] * X[:, m == d]^T, each term landing
    # on a contiguous prefix of rows; tz[0] = 1
    YT = blocks[0].copy()
    for d in range(1, len(blocks)):
        YT[: blocks[d].shape[0]] += tz[d] * blocks[d]
    return YT


def _ridge_factors(n, x, y):
    # (P, R) array of U_k(x cos t + y sin t), t = j*pi/(k+1), for
    # 0 <= j <= k <= n in ridge order (k, j)
    out = np.empty((len(x), (n + 1) * (n + 2) // 2))
    for r, (k, j) in enumerate((k, j) for k in range(n + 1) for j in range(k + 1)):
        theta = j * np.pi / (k + 1)
        out[:, r] = _cheb_u_deg(k, np.cos(theta) * x + np.sin(theta) * y)
    return out
