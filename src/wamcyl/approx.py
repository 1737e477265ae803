"""Interpolation and discrete least squares at extracted nodes.

Coefficients always live in the graded cylinder basis, even when a
least-squares projector was built through a preconditioning transform, so
interpolants can be evaluated and compared across modules.  Sup norms over
large control meshes are estimated blockwise; the maximum is
order-independent, so blocking never changes results.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import densela, extract, polybasis


@dataclass(frozen=True)
class Interpolant:
    degree: int
    nodes: np.ndarray = field(repr=False)
    coefficients: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class LsqProjector:
    mesh: object
    degree: int
    transform: np.ndarray = field(repr=False)
    q: np.ndarray = field(repr=False)


def interpolate(nodes, samples):
    """Interpolant through (nodes, samples); nodes is an ExtractionResult."""
    samples = np.asarray(samples, dtype=float)
    basis = polybasis.enumerate_basis(nodes.degree)
    V = polybasis.vandermonde(basis, nodes.nodes)
    coeffs = densela.solve(V, samples)
    return Interpolant(degree=nodes.degree, nodes=nodes.nodes, coefficients=coeffs)


def eval_interpolant(q, pts):
    """Values of the interpolant at the given points (Mesh or array)."""
    basis = polybasis.enumerate_basis(q.degree)
    cols = q.coefficients.size // len(basis)
    blocks = polybasis.iter_vandermonde_blocks(basis, pts, live_per_row=cols)
    return np.concatenate([B @ q.coefficients for _, B in blocks])


def sup_errors(degree, coefficients, fn, pts):
    """Column-wise sup norms over pts of V C - fn(pts) and of fn(pts).

    C is (N, K) in the graded basis of the degree and fn maps an (m, 3)
    block of points to its (m, K) target values; both norms come out of a
    single stream over pts.  Returns (err, sup_f), each of length K.
    """
    basis = polybasis.enumerate_basis(degree)
    pts = np.asarray(getattr(pts, "points", pts), dtype=float)
    CT = np.asarray(coefficients, dtype=float).T
    err = np.zeros(CT.shape[0])
    sup_f = np.zeros(CT.shape[0])
    for lo, B in polybasis.iter_vandermonde_blocks(basis, pts, live_per_row=3 * CT.shape[0]):
        f = fn(pts[lo:lo + B.shape[0]]).T
        # the same values as B @ C, without the packing buffers OpenBLAS
        # touches for a tall block times a narrow C (about 60 MB at n = 15)
        R = CT @ B.T
        R -= f
        np.maximum(err, np.abs(R, out=R).max(axis=1), out=err)
        np.maximum(sup_f, np.abs(f).max(axis=1), out=sup_f)
    return err, sup_f


def _max_abs_colsum(G):
    # G is a fresh temporary of the caller's block, so it is reduced in place
    return float(np.abs(G, out=G).sum(axis=0).max())


def lebesgue_constant(nodes, control):
    """Max over the control mesh of the 1-norm of the Lagrange values.

    Solves V(nodes)^T L = V(control)^T blockwise with a single LU
    factorization of the node Vandermonde.
    """
    basis = polybasis.enumerate_basis(nodes.degree)
    A = polybasis.vandermonde(basis, nodes.nodes)
    lu_piv = densela.lu_factor_checked(A)
    lam = 0.0
    for _, B in polybasis.iter_vandermonde_blocks(basis, control, live_per_row=len(basis)):
        lam = max(lam, _max_abs_colsum(scipy.linalg.lu_solve(lu_piv, B.T, trans=1)))
    return lam


def build_lsq(mesh, n, steps=2):
    """Discrete least-squares projector on the mesh for degree n.

    The fit formula P (Q^T samples) presumes Q numerically orthonormal,
    which needs steps >= 1; one step suffices on well-conditioned bases
    and two make the defect negligible.
    """
    basis = polybasis.enumerate_basis(n)
    if mesh.cardinality < len(basis):
        raise ValueError("mesh too small for the requested degree")
    V = polybasis.vandermonde(basis, mesh)
    P = extract.orthogonalize(V, steps).transform
    return LsqProjector(mesh=mesh, degree=n, transform=P, q=V @ P)


def lsq_fit(proj, samples):
    """Least-squares coefficients in the graded basis: P (Q^T samples)."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] != proj.q.shape[0]:
        raise ValueError("samples must align with the projector mesh")
    return proj.transform @ (proj.q.T @ samples)


def lsq_norm(proj, eval_on=None):
    """Operator norm of the projector: max over points of ||Q P^T p(x)||_1.

    Defaults to evaluating on the projector's own mesh.
    """
    pts = proj.mesh if eval_on is None else eval_on
    basis = polybasis.enumerate_basis(proj.degree)
    M, N = proj.q.shape
    PT = proj.transform.T
    best = 0.0
    # per row: P^T b (N values) and the M projector values
    for _, B in polybasis.iter_vandermonde_blocks(basis, pts, live_per_row=N + M):
        best = max(best, _max_abs_colsum(proj.q @ (PT @ B.T)))
    return best
