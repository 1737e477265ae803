"""Graded orthonormal polynomial basis on the cylinder D x [-1, 1].

Each element couples a ridge Chebyshev polynomial of the second kind on
the unit disk with a weighted Chebyshev polynomial of the first kind in z:

    C_(i,k,j)(x, y, z) = U_k(x cos t + y sin t) * Ttilde_(i-k)(z),
    t = j*pi/(k+1),  Ttilde_0 = 1,  Ttilde_m = sqrt(2) * T_m  (m >= 1),

with indices 0 <= j <= k <= i <= n.  The ordering is graded lexicographic
in (i, k, j), so the leading (m+1)(m+2)(m+3)/6 elements span exactly the
polynomials of total degree <= m for every m <= n.

`scan` (and `evaluate` through it) streams X b(x) over any point set
without building its Vandermonde: it finds the tensor grids xy x z among
the points and contracts the z factor first; `gram` uses the same grids.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError

DOMAIN_TOL = 1e-12

# control-mesh scans keep each block's live float64 values under about 2 GB,
# within 1024..65536 points per block
_BLOCK_VALUES = 250_000_000
_MIN_BLOCK_ROWS = 1024
_MAX_BLOCK_ROWS = 65536


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


def basis_position(idx):
    """Column of `idx` in the graded-lexicographic ordering."""
    i, k, j = idx
    return i * (i + 1) * (i + 2) // 6 + k * (k + 1) // 2 + j


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


def scan(basis, X, mesh, reduce, live_per_row=0):
    """Yield reduce(rows, X @ vandermonde(basis, pts[rows]).T) per block of
    points, rows an index array into the points of `mesh` (a Mesh or an
    (M, 3) array).

    X is (K, N) with N = len(basis); only the reductions leave the
    generator.

    No Vandermonde is built: per tensor grid xy x z of the points (_grids)
    and z node, X is contracted with the z factors into Y (K, R), so a
    block's product is Y @ ridges, about 2*K*R*M flops in place of 2*K*N*M
    (sum factorization).  Blocks come in grid order and cover every point
    exactly once.

    Points per block keep K and the `live_per_row` float64 values per point
    that `reduce` keeps alive within _BLOCK_VALUES.
    """
    n = basis.degree
    # columns of z degree m in ridge order (k, j): the ridge factors with
    # k <= n - m, a prefix of all R of them
    cols = [[basis_position((k + m, k, j)) for k in range(n - m + 1) for j in range(k + 1)]
            for m in range(n + 1)]
    parts = [np.ascontiguousarray(X[:, c].T) for c in cols]
    per_point = X.shape[0] + live_per_row
    step = min(_MAX_BLOCK_ROWS, max(_MIN_BLOCK_ROWS, _BLOCK_VALUES // per_point))
    for U, z, rows in _grids(n, mesh):
        tz = _t_tilde_all(n, z)
        for q in range(z.size):
            YT = _contract_z(parts, tz[:, q])
            for lo in range(0, U.shape[1], step):
                # formed as the transpose (m, K): this orientation runs the
                # product and the reductions over K fastest
                yield reduce(rows[q][lo : lo + step], (U[:, lo : lo + step].T @ YT).T)


def evaluate(basis, C, mesh):
    """vandermonde(basis, mesh) @ C for C of shape (N, K), by one scan."""
    out = np.empty((len(getattr(mesh, "points", mesh)), C.shape[1]))
    for rows, R in scan(basis, C.T, mesh, lambda rows, R: (rows, R)):
        out[rows] = R.T  # scattered to point order
    return out


def gram(basis, mesh):
    """V^T V for V = vandermonde(basis, mesh), without building V: on each
    tensor grid V = (A kron B)[:, S], A the ridge and B the z factors, S the
    basis columns, so V^T V = sum over grids of (A^T A kron B^T B)[S, S]."""
    r, m = np.array([(k * (k + 1) // 2 + j, i - k) for i, k, j in basis.indices]).T
    G = np.zeros((len(basis), len(basis)))
    for A, z, _ in _grids(basis.degree, mesh):
        tz = _t_tilde_all(basis.degree, z)
        G += (A @ A.T)[np.ix_(r, r)] * (tz @ tz.T)[np.ix_(m, m)]
    return G


def _grids(n, mesh):
    # (ridges, z, rows) per tensor grid of _slabs; ridges is the grid's (R, xy)
    # slice of one evaluation of the R = (n+1)(n+2)/2 ridge factors on all grids
    pts = np.asarray(getattr(mesh, "points", mesh), dtype=float)
    _validate_points(pts)
    slabs = _slabs(pts)
    if not slabs:  # no points: nothing to concatenate, no grids
        return []
    xy = np.concatenate([g[0] for g in slabs])
    ridges = np.empty(((n + 1) * (n + 2) // 2, len(xy)))
    for r, (_, _, u) in enumerate(_ridge_factors(n, xy[:, 0], xy[:, 1])):
        ridges[r] = u
    ends = np.cumsum([len(g[0]) for g in slabs])
    return [(A, z, rows) for (_, z, rows), A in zip(slabs, np.split(ridges, ends[:-1], axis=1))]


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


def _contract_z(parts, tz):
    # Y^T (R, K) = sum over m of tz[m] * X[:, cols_m]^T, each term landing
    # on a contiguous prefix of rows; tz[0] = 1
    YT = parts[0].copy()
    for m in range(1, len(parts)):
        YT[: parts[m].shape[0]] += tz[m] * parts[m]
    return YT


def vandermonde(basis, mesh):
    """Dense (M, N) matrix of basis values at the mesh points.

    Row r, column c holds basis.indices[c] evaluated at point r; row order
    follows the mesh, column order the graded basis.  `mesh` may be a Mesh
    or a plain (M, 3) array.
    """
    pts = np.asarray(getattr(mesh, "points", mesh), dtype=float)
    _validate_points(pts)
    n = basis.degree
    tz = _t_tilde_all(n, pts[:, 2])
    V = np.empty((pts.shape[0], len(basis)))
    for k, j, u in _ridge_factors(n, pts[:, 0], pts[:, 1]):
        for i in range(k, n + 1):
            V[:, basis_position((i, k, j))] = u * tz[i - k]
    return V


def _ridge_factors(n, x, y):
    # (k, j, U_k(x cos t + y sin t)), t = j*pi/(k+1), for 0 <= j <= k <= n in
    # ridge order; one at a time, so a Vandermonde holds no R x M array
    for k in range(n + 1):
        for j in range(k + 1):
            theta = j * np.pi / (k + 1)
            yield k, j, _cheb_u_deg(k, np.cos(theta) * x + np.sin(theta) * y)
