"""Graded orthonormal polynomial basis on the cylinder D x [-1, 1].

Each element couples a ridge Chebyshev polynomial of the second kind on
the unit disk with a weighted Chebyshev polynomial of the first kind in z:

    C_(i,k,j)(x, y, z) = U_k(x cos t + y sin t) * Ttilde_(i-k)(z),
    t = j*pi/(k+1),  Ttilde_0 = 1,  Ttilde_m = sqrt(2) * T_m  (m >= 1),

with indices 0 <= j <= k <= i <= n.  The ordering is graded lexicographic
in (i, k, j), so the leading (m+1)(m+2)(m+3)/6 elements span exactly the
polynomials of total degree <= m for every m <= n.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError

DOMAIN_TOL = 1e-12
CLAMP_TOL = 1e-14

# control-mesh scans keep each block's live float64 values under about 2 GB,
# within 1024..65536 rows per block
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


def _clamp_unit(t):
    if abs(t) > 1.0 + CLAMP_TOL:
        raise DomainError(f"argument {t!r} outside [-1, 1]")
    return min(1.0, max(-1.0, t))


def cheb_t(m, t):
    """T_m(t) by the three-term recurrence."""
    if m < 0:
        raise ValueError("degree must be nonnegative")
    t = _clamp_unit(float(t))
    if m == 0:
        return 1.0
    prev, cur = 1.0, t
    for _ in range(m - 1):
        prev, cur = cur, 2.0 * t * cur - prev
    return cur


def cheb_u(m, t):
    """U_m(t) by the three-term recurrence."""
    if m < 0:
        raise ValueError("degree must be nonnegative")
    t = _clamp_unit(float(t))
    if m == 0:
        return 1.0
    prev, cur = 1.0, 2.0 * t
    for _ in range(m - 1):
        prev, cur = cur, 2.0 * t * cur - prev
    return cur


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
    r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
    if np.any(r2 > 1.0 + DOMAIN_TOL) or np.any(np.abs(pts[:, 2]) > 1.0 + DOMAIN_TOL):
        bad = int(np.argmax(np.maximum(r2 - 1.0, np.abs(pts[:, 2]) - 1.0)))
        raise DomainError(f"point {pts[bad]} outside the cylinder")


def scan(basis, X, mesh, reduce, live_per_row=0):
    """Yield reduce(rows, X @ vandermonde(basis, pts[rows]).T) per row block.

    X is (K, N) with N = len(basis).  Only the reduction leaves the
    generator, so each block and its (K, m) product are freed before the
    next block is built.  Rows per block keep the block's N values, the
    product's K and the `live_per_row` float64 values per row that
    `reduce` keeps alive within _BLOCK_VALUES.
    """
    pts = np.asarray(getattr(mesh, "points", mesh), dtype=float)
    per_row = len(basis) + X.shape[0] + live_per_row
    step = min(_MAX_BLOCK_ROWS, max(_MIN_BLOCK_ROWS, _BLOCK_VALUES // per_row))
    for lo in range(0, pts.shape[0], step):
        rows = slice(lo, lo + step)
        # X on the left: a tall block times a narrow matrix makes OpenBLAS
        # touch packing buffers (about 60 MB at n = 15) that X B^T avoids
        yield reduce(rows, X @ vandermonde(basis, pts[rows]).T)


def wade_eval(idx, p):
    """Evaluate the basis element `idx` at a single point of the cylinder."""
    i, k, j = idx
    if not 0 <= j <= k <= i:
        raise ValueError(f"invalid index {idx}: need 0 <= j <= k <= i")
    x, y, z = float(p[0]), float(p[1]), float(p[2])
    if x * x + y * y > 1.0 + DOMAIN_TOL or abs(z) > 1.0 + DOMAIN_TOL:
        raise DomainError(f"point {(x, y, z)} outside the cylinder")
    theta = j * np.pi / (k + 1)
    t = x * np.cos(theta) + y * np.sin(theta)
    u = float(_cheb_u_deg(k, np.asarray([t]))[0])
    m = i - k
    if m == 0:
        return u
    tz = np.asarray([z])
    return u * float(_t_tilde_all(m, tz)[m, 0])


def vandermonde(basis, mesh):
    """Dense (M, N) matrix of basis values at the mesh points.

    Row r, column c holds basis.indices[c] evaluated at point r; row order
    follows the mesh, column order the graded basis.  `mesh` may be a Mesh
    or a plain (M, 3) array.
    """
    pts = np.asarray(getattr(mesh, "points", mesh), dtype=float)
    _validate_points(pts)
    n = basis.degree
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    tz = _t_tilde_all(n, z)
    V = np.empty((pts.shape[0], len(basis)))
    for k in range(n + 1):
        for j in range(k + 1):
            theta = j * np.pi / (k + 1)
            u = _cheb_u_deg(k, np.cos(theta) * x + np.sin(theta) * y)
            for i in range(k, n + 1):
                V[:, basis_position((i, k, j))] = u * tz[i - k]
    return V
