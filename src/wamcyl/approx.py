"""Interpolation and discrete least squares at extracted nodes.

Coefficients always live in the graded cylinder basis, even when a
least-squares projector was built through a preconditioning transform, so
interpolants can be evaluated and compared across modules.  Sup norms over
large control meshes are reductions of X b(x) over one stream of z layers
(polybasis.scan), which runs tensor grid by tensor grid and z node by z
node; the maximum is order-independent, so neither the layering nor the
order of the points changes results.

The least-squares operator norm is a maximum over orbit representatives of
the evaluation points.  Its Lebesgue function x -> ||Q P^T b(x)||_1 is
invariant under every isometry of the cylinder that maps the mesh onto
itself, since such a map also maps the polynomial space onto itself (Bos,
Calvi, Levenberg, Sommariva, Vianello, Math. Comp. 2011).  The isometries
are verified point by point on the mesh and on the evaluation set
(meshgen.orbit_representatives); where none verifies, the whole set is
scanned.  The Lebesgue constant of interpolation gets no such reduction,
because the nodes are not symmetric.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import extract, meshgen, polybasis

# orthogonalization steps of a least-squares projector (see build_lsq)
LSQ_STEPS = 2


@dataclass(frozen=True)
class Interpolant:
    degree: int
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
    return Interpolant(degree=nodes.degree, coefficients=coeffs)


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

    err, sup_f = zip(*polybasis.scan(basis, CT, pts, reduce))
    return np.max(err, axis=0), np.max(sup_f, axis=0)


def lagrange_matrix(nodes):
    """(N, N) matrix V(nodes)^-T, which maps the basis values b(x) to the
    Lagrange values at x; solved with the nodes' one LU factorization."""
    return scipy.linalg.lu_solve(nodes.lu, np.eye(nodes.count), trans=1)


def lsq_matrix(proj):
    """(M, N) matrix Q P^T, which maps b(x) to the weights of the mesh
    samples in the least-squares fit at x."""
    return proj.q @ proj.transform.T


def _projector_norm(degree, X, pts):
    """Lebesgue constant max over pts of ||X b(x)||_1 of a linear projector,
    X (K, N) in the graded basis of the degree, from one stream over pts."""
    norms = polybasis.scan(polybasis.enumerate_basis(degree), X, pts,
                           lambda _, G: np.abs(G, out=G).sum(axis=0).max())
    return float(max(norms))


def lebesgue_constant(nodes, control):
    """Max over the control mesh of the 1-norm of the Lagrange values."""
    return _projector_norm(nodes.degree, lagrange_matrix(nodes), control)


def build_lsq(mesh, n):
    """Discrete least-squares projector on the mesh for degree n.

    Q is the iterate U = V P of `extract.precondition` after LSQ_STEPS
    steps, formed without building V; the fit formula P (Q^T samples)
    presumes Q numerically orthonormal.
    """
    P, q = extract.precondition(mesh, n, LSQ_STEPS)
    return LsqProjector(mesh=mesh, degree=n, transform=P, q=q)


def lsq_fit(proj, samples):
    """Least-squares coefficients in the graded basis: P (Q^T samples)."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] != proj.q.shape[0]:
        raise ValueError("samples must align with the projector mesh")
    return proj.transform @ (proj.q.T @ samples)


def lsq_norm(proj, eval_on):
    """Operator norm of the projector: max over the points of eval_on (a
    Mesh or an (M, 3) array) of ||Q P^T b(x)||_1.

    The maximum is taken over meshgen.orbit_representatives of the points
    (see the module docstring for why that is the maximum over all of them).
    """
    pts = np.asarray(getattr(eval_on, "points", eval_on), dtype=float)
    rows = meshgen.orbit_representatives(proj.mesh, pts).rows
    return _projector_norm(proj.degree, lsq_matrix(proj), pts[rows])
