"""Interpolation and discrete least squares at extracted nodes.

Coefficients always live in the graded cylinder basis, even when a
least-squares projector was built through a preconditioning transform, so
interpolants can be evaluated and compared across modules.  Sup norms over
large control meshes are reductions of X V(block)^T over one stream of
blocks (polybasis.scan); the maximum is order-independent, so blocking
never changes results.
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
    C = q.coefficients
    parts = polybasis.scan(basis, C.reshape(len(basis), -1).T, pts, lambda _, R: R.T)
    return np.concatenate(list(parts)).reshape((-1,) + C.shape[1:])


def sup_errors(degree, coefficients, fn, pts):
    """Column-wise sup norms over pts of V C - fn(pts) and of fn(pts).

    C is (N, K) in the graded basis of the degree and fn maps an (m, 3)
    block of points to its (m, K) target values; both norms come out of a
    single stream over pts.  Returns (err, sup_f), each of length K.
    """
    basis = polybasis.enumerate_basis(degree)
    pts = np.asarray(getattr(pts, "points", pts), dtype=float)
    CT = np.asarray(coefficients, dtype=float).T

    def reduce(rows, R):
        f = fn(pts[rows]).T
        R -= f
        return np.abs(R, out=R).max(axis=1), np.abs(f).max(axis=1)

    err, sup_f = zip(*polybasis.scan(basis, CT, pts, reduce, live_per_row=2 * CT.shape[0]))
    return np.max(err, axis=0), np.max(sup_f, axis=0)


def _projector_norm(basis, X, pts):
    """Lebesgue constant max over pts of ||X b(x)||_1 of a linear projector."""
    norms = polybasis.scan(basis, X, pts, lambda _, G: np.abs(G, out=G).sum(axis=0).max())
    return float(max(norms))


def lebesgue_constant(nodes, control):
    """Max over the control mesh of the 1-norm of the Lagrange values.

    The Lagrange values at x are V(nodes)^-T b(x); the inverse comes from
    a single checked LU factorization of the node Vandermonde.
    """
    basis = polybasis.enumerate_basis(nodes.degree)
    lu_piv = densela.lu_factor_checked(polybasis.vandermonde(basis, nodes.nodes))
    X = scipy.linalg.lu_solve(lu_piv, np.eye(len(basis)), trans=1)
    return _projector_norm(basis, X, control)


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
    """Operator norm of the projector: max over points of ||Q P^T b(x)||_1.

    Defaults to evaluating on the projector's own mesh.
    """
    pts = proj.mesh if eval_on is None else eval_on
    basis = polybasis.enumerate_basis(proj.degree)
    return _projector_norm(basis, proj.q @ proj.transform.T, pts)
