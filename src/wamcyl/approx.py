"""Interpolation and discrete least squares at extracted nodes.

Coefficients always live in the graded cylinder basis, even when a
least-squares projector was built through a preconditioning transform, so
interpolants can be evaluated and compared across modules.  Sup norms over
large control meshes are reductions of X b(x) over one stream of point
blocks (polybasis.scan), which runs tensor grid by tensor grid and z node
by z node; the maximum is order-independent, so neither the blocking nor
the order of the points changes results.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import extract, polybasis


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
    coeffs = scipy.linalg.lu_solve(nodes.lu, np.asarray(samples, dtype=float))
    return Interpolant(degree=nodes.degree, nodes=nodes.nodes, coefficients=coeffs)


def eval_interpolant(q, pts):
    """Values of the interpolant at the given points (Mesh or array)."""
    C = q.coefficients
    out = polybasis.evaluate(polybasis.enumerate_basis(q.degree), C.reshape(len(C), -1), pts)
    return out.reshape((-1,) + C.shape[1:])


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


def lagrange_matrix(nodes):
    """(N, N) matrix V(nodes)^-T, which maps the basis values b(x) to the
    Lagrange values at x; solved with the nodes' one LU factorization."""
    return scipy.linalg.lu_solve(nodes.lu, np.eye(nodes.count), trans=1)


def lsq_matrix(proj):
    """(M, N) matrix Q P^T, which maps b(x) to the weights of the mesh
    samples in the least-squares fit at x."""
    return proj.q @ proj.transform.T


def projector_norms(degree, matrices, pts):
    """Lebesgue constants max over pts of ||X b(x)||_1 of linear projectors.

    Every (K, N) matrix X, in the graded basis of the degree, is reduced
    against each block of one stream over pts, one product at a time.
    """
    basis = polybasis.enumerate_basis(degree)
    norms = polybasis.scan(basis, list(matrices), pts,
                           lambda _, G: np.abs(G, out=G).sum(axis=0).max())
    return [float(v) for v in np.max(list(norms), axis=0)]


def lebesgue_constant(nodes, control):
    """Max over the control mesh of the 1-norm of the Lagrange values."""
    return projector_norms(nodes.degree, [lagrange_matrix(nodes)], control)[0]


def build_lsq(mesh, n, steps=2):
    """Discrete least-squares projector on the mesh for degree n.

    Q is the iterate U = V P of `extract.precondition`, formed without
    building V.  The fit formula P (Q^T samples) presumes Q numerically
    orthonormal, which needs steps >= 1; one step suffices on
    well-conditioned bases and two make the defect negligible.
    """
    P, q = extract.precondition(mesh, n, steps)
    return LsqProjector(mesh=mesh, degree=n, transform=P, q=q)


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
    return projector_norms(proj.degree, [lsq_matrix(proj)], pts)[0]
