"""Interpolation and discrete least squares at extracted nodes.

A fitted polynomial is its (N, ...) coefficient array, as interpolate and
lsq_fit return it, always in the graded cylinder basis, even when a
least-squares projector was built through an orthogonalizing transform, so
fits can be evaluated (polybasis.evaluate) and compared across modules.
Sup norms over large control meshes are reductions of X b(x) over one
stream of z layers (polybasis.scan), which runs tensor grid by tensor grid
and z node by z node; the maximum is order-independent, so neither the
layering nor the order of the points changes results.  X enters the scan
as its z blocks, so a projector whose X is a product can hand over the
blocks of the product and never form X.

A least-squares projector keeps only its N x N transform P.  Q = V P,
M x N, is formed inside the function that reads it (lsq_fit, lsq_norm)
and freed there, so no M x N array outlives a call.

The least-squares operator norm is a maximum over the least row of each
orbit of the evaluation points.  Its Lebesgue function x -> ||Q P^T b(x)||_1
is invariant under every isometry of the cylinder that maps the mesh onto
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

from . import densela, extract, meshgen, polybasis

# orthogonalization steps of a least-squares projector (see build_lsq)
LSQ_STEPS = 2


@dataclass(frozen=True)
class LsqProjector:
    """Discrete least-squares projector onto degree `degree` on the mesh,
    held as its N x N transform P alone: Q = V P, mesh-discretely
    orthonormal, is formed where it is read (the property `q`)."""

    mesh: object
    degree: int
    transform: np.ndarray = field(repr=False)

    @property
    def q(self):
        """Q = V P (M, N), formed by one grid scan of the mesh on each read
        and not kept."""
        return polybasis.evaluate(polybasis.enumerate_basis(self.degree), self.transform,
                                  self.mesh)


def interpolate(nodes, samples):
    """Coefficients (N, ...) in the graded basis of the interpolant through
    (nodes, samples); nodes is an ExtractionResult."""
    return scipy.linalg.lu_solve(nodes.lu, np.asarray(samples, dtype=float))


def sup_errors(degree, coefficients, fn, pts):
    """Column-wise sup norms over pts of V C - fn(pts) and of fn(pts).

    C is (N, K) in the graded basis of the degree and fn maps an (m, 3)
    block of points to its (m, K) target values; both norms come out of a
    single stream over pts.  Returns (err, sup_f), each of length K.
    """
    basis = polybasis.enumerate_basis(degree)
    pts = np.asarray(getattr(pts, "points", pts), dtype=float)
    blocks = polybasis.z_blocks(basis, np.asarray(coefficients, dtype=float))

    def reduce(rows, R):
        f = fn(pts[rows]).T
        R -= f
        return np.abs(R, out=R).max(axis=1), np.abs(f).max(axis=1)

    err, sup_f = zip(*polybasis.scan(basis, blocks, pts, reduce))
    return np.max(err, axis=0), np.max(sup_f, axis=0)


def lagrange_matrix(nodes):
    """(N, N) matrix V(nodes)^-T, which maps the basis values b(x) to the
    Lagrange values at x; solved with the nodes' one LU factorization."""
    return scipy.linalg.lu_solve(nodes.lu, np.eye(nodes.count), trans=1)


def _projector_norm(basis, blocks, pts):
    """Lebesgue constant max over pts of ||X b(x)||_1 of a linear projector,
    X (K, N) in the graded basis given as the z blocks polybasis.scan
    takes, from one stream over pts."""
    norms = polybasis.scan(basis, blocks, pts,
                           lambda _, G: np.abs(G, out=G).sum(axis=0).max())
    return float(max(norms))


def lebesgue_constant(nodes, control):
    """Max over the control mesh of the 1-norm of the Lagrange values."""
    basis = polybasis.enumerate_basis(nodes.degree)
    return _projector_norm(basis, polybasis.z_blocks(basis, lagrange_matrix(nodes).T), control)


def build_lsq(mesh, n):
    """Discrete least-squares projector on the mesh for degree n.

    Its transform P is that of `extract.transform` after LSQ_STEPS steps,
    with its checks; Q = V P is not formed here.  The fit formula
    P (Q^T samples) presumes Q numerically orthonormal.
    """
    return LsqProjector(mesh=mesh, degree=n, transform=extract.transform(mesh, n, LSQ_STEPS))


def lsq_fit(proj, samples):
    """Least-squares coefficients in the graded basis: P (Q^T samples), from
    a Q formed for the product and dropped after it."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] != len(getattr(proj.mesh, "points", proj.mesh)):
        raise ValueError("samples must align with the projector mesh")
    S = samples.reshape(len(samples), -1)
    C = densela._gemm(proj.transform, densela._gemm(proj.q.T, S))
    return C.reshape((-1,) + samples.shape[1:])


def lsq_norm(proj, eval_on):
    """Operator norm of the projector: max over the points of eval_on (a
    Mesh or an (M, 3) array) of ||Q P^T b(x)||_1.

    The maximum is taken over the least row of each orbit of the points
    (meshgen.orbit_representatives); the module docstring says why.  X =
    Q P^T is never formed: its z blocks P[m == d] Q^T (R_d, M) are formed
    from Q, which is then freed, and scanned.
    """
    pts = np.asarray(getattr(eval_on, "points", eval_on), dtype=float)
    rows = meshgen.orbit_representatives(proj.mesh, pts).rows
    basis, P, Q = polybasis.enumerate_basis(proj.degree), proj.transform, proj.q
    _, m = polybasis._factor_index(basis)  # the z degree of each column
    blocks = [densela._gemm(P[m == d], Q.T) for d in range(proj.degree + 1)]
    del Q
    return _projector_norm(basis, blocks, pts[rows])
