"""Test-local references: scalar evaluators of the basis, the WAM-ratio
monitor, the dense least-squares matrix, the exact product rule of the
cubature oracle, the matrix U = V P that node selection factors, and a
gauge of the memory a call allocates.

None of these is called by the library.  The tests compare the library's
vectorized code against them, or use them to check a claim of the paper.
"""

import tracemalloc

import numpy as np

from wamcyl import densela, extract, meshgen, polybasis
from wamcyl.cubature import _rules_1d
from wamcyl.errors import DomainError

CLAMP_TOL = 1e-14


def _clamp_unit(t):
    if abs(t) > 1.0 + CLAMP_TOL:
        raise DomainError(f"argument {t!r} outside [-1, 1]")
    return min(1.0, max(-1.0, t))


def _recurrence(m, t, first):
    # P_0 = 1, P_1 = first, P_(k+1) = 2 t P_k - P_(k-1): T_m for first = t,
    # U_m for first = 2 t
    if m == 0:
        return 1.0
    prev, cur = 1.0, first
    for _ in range(m - 1):
        prev, cur = cur, 2.0 * t * cur - prev
    return cur


def cheb_t(m, t):
    """T_m(t) by the three-term recurrence."""
    if m < 0:
        raise ValueError("degree must be nonnegative")
    t = _clamp_unit(float(t))
    return _recurrence(m, t, t)


def cheb_u(m, t):
    """U_m(t) by the three-term recurrence."""
    if m < 0:
        raise ValueError("degree must be nonnegative")
    t = _clamp_unit(float(t))
    return _recurrence(m, t, 2.0 * t)


def wade_eval(idx, p):
    """Evaluate the basis element `idx` at a single point of the cylinder."""
    i, k, j = idx
    if not 0 <= j <= k <= i:
        raise ValueError(f"invalid index {idx}: need 0 <= j <= k <= i")
    x, y, z = float(p[0]), float(p[1]), float(p[2])
    if x * x + y * y > 1.0 + polybasis.DOMAIN_TOL or abs(z) > 1.0 + polybasis.DOMAIN_TOL:
        raise DomainError(f"point {(x, y, z)} outside the cylinder")
    theta = j * np.pi / (k + 1)
    t = x * np.cos(theta) + y * np.sin(theta)
    # unclamped: rim points may give |t| a few ulps above 1
    u = _recurrence(k, t, 2.0 * t)
    m = i - k
    if m == 0:
        return u
    return u * (np.sqrt(2.0) * _recurrence(m, z, z))


def wam_ratio_bound(n):
    """Monitored growth bound for the empirical WAM constant."""
    return 10.0 * (1.0 + np.log(n + 1.0)) ** 3


def empirical_wam_ratio(family, n, num_polys=100, seed=0, control=None):
    """Sup-norm ratios control mesh / mesh for random degree-n polynomials.

    Coefficients are uniform in [-1, 1] over the graded basis.  Returns the
    array of ratios; callers compare against wam_ratio_bound(n).
    """
    mesh = meshgen.generate_mesh(family, n)
    if control is None:
        control = meshgen.control_mesh(family, n)
    basis = polybasis.enumerate_basis(n)
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, size=(len(basis), num_polys))
    sup_mesh = np.abs(polybasis.vandermonde(basis, mesh) @ coeffs).max(axis=0)
    sups = polybasis.scan(basis, polybasis.z_blocks(basis, coeffs), control,
                          lambda _, R: np.abs(R, out=R).max(axis=1))
    return np.max(list(sups), axis=0) / sup_mesh


def lsq_matrix(proj):
    """(M, N) matrix Q P^T of a least-squares projector, which maps b(x) to
    the weights of the mesh samples in the fit at x, formed whole."""
    return densela._gemm(proj.q, proj.transform.T)


def product_rule(level):
    """Nodes (M, 3) and weights (M,) of the level-L cylinder product rule,
    the rule `cubature.oracle_integral` applies plane by plane."""
    ang, wa, wang, r, wr, xz, wz = _rules_1d(level)
    R, A, Z = np.meshgrid(r, ang, xz, indexing="ij")
    W = np.einsum("i,k->ik", wr, wz)[:, None, :] * (wa * wang)[None, :, None]
    pts = np.column_stack([(R * np.cos(A)).ravel(), (R * np.sin(A)).ravel(), Z.ravel()])
    return pts, np.broadcast_to(W, R.shape).ravel().copy()


def rule_level_for_degree(d):
    """Smallest level whose product rule is exact for total degree d."""
    return max(0, (d + 1) // 2)


def transformed_vandermonde(mesh, n, steps, order="C"):
    """(P, U) as extract.select_nodes forms them: P = extract.transform(mesh,
    n, steps), with its checks, and U = V P from one scan of the mesh in
    the given memory order; (None, V) for 0 steps."""
    P, basis = extract.transform(mesh, n, steps), polybasis.enumerate_basis(n)
    if P is None:
        return None, polybasis.vandermonde(basis, mesh, order)
    return P, polybasis.evaluate(basis, P, mesh, order)


def traced_peak(fn, *args):
    """Peak bytes allocated while fn(*args) runs, as tracemalloc sees them:
    Python objects and numpy buffers (f2py copies included), not the
    internal buffers of BLAS or LAPACK."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
