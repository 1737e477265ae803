"""Interpolation and discrete least squares at extracted nodes.

A fitted polynomial is its (N, ...) coefficient array, as interpolate and
lsq_fit return it, always in the graded cylinder basis, even when a
least-squares projector was built through an orthogonalizing transform, so
fits can be evaluated (polybasis.evaluate) and compared across modules.
Sup norms over large control meshes are reductions of X b(x) over one
stream of z layers (polybasis.scan), which runs tensor grid by tensor grid
and z node by z node; the maximum is order-independent, so neither the
layering nor the order of the points changes results.  X enters the scan
as its z blocks, which may be row slices of one array whose rows are
grouped by z degree, so no z-grouped copy of X is made.

A least-squares projector keeps only its N x N transform P, and no
function here forms Q = V P (M x N).  lsq_fit reads the fit P P^T V^T S
from the moments V^T S (polybasis.moments, one pass over the mesh, no V),
as CholeskyQR allows; lsq_norm forms the z blocks of X = Q P^T as
V (P P^T), its one M x N array, by one mesh scan.

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
    held as its N x N transform P alone.  Q = V P, mesh-discretely
    orthonormal, is the property `q`: lsq_fit and lsq_norm do not read it,
    it stays for callers that want Q whole (tests, and the benchmark
    tracer, which sizes lsq_norm calls by its shape)."""

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


def _evaluation_points(eval_on):
    # the (M, 3) points of a Mesh or an array; a sup norm over no points
    # is undefined, so an empty set is refused before any work
    pts = np.asarray(getattr(eval_on, "points", eval_on), dtype=float)
    if pts.size == 0:
        raise ValueError("no evaluation points")
    return pts


def sup_errors(degree, coefficients, fn, pts):
    """Column-wise sup norms over pts of V C - fn(pts) and of fn(pts).

    C is (N, K) in the graded basis of the degree and fn maps an (m, 3)
    block of points to its (m, K) target values; both norms come out of a
    single stream over pts.  Returns (err, sup_f), each of length K;
    raises ValueError for an empty pts.
    """
    pts = _evaluation_points(pts)
    basis = polybasis.enumerate_basis(degree)
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
    """Max over the control mesh of the 1-norm of the Lagrange values;
    ValueError for an empty control set."""
    pts = _evaluation_points(control)
    basis = polybasis.enumerate_basis(nodes.degree)
    return _projector_norm(basis, polybasis.z_blocks(basis, lagrange_matrix(nodes).T), pts)


def build_lsq(mesh, n):
    """Discrete least-squares projector on the mesh for degree n.

    Its transform P is that of `extract.transform` after LSQ_STEPS steps,
    with its checks; Q = V P is not formed here.  The fit P P^T V^T S of
    lsq_fit and the operator V P P^T of lsq_norm presume V P numerically
    orthonormal; the transform's GRAM_BOUND check bounds its defect.
    """
    return LsqProjector(mesh=mesh, degree=n, transform=extract.transform(mesh, n, LSQ_STEPS))


def lsq_fit(proj, samples):
    """Least-squares coefficients in the graded basis: P (P^T (V^T S)) for
    the samples S, with V^T S from polybasis.moments, so neither V nor
    Q = V P is formed."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] != len(getattr(proj.mesh, "points", proj.mesh)):
        raise ValueError("samples must align with the projector mesh")
    S = samples.reshape(len(samples), -1)
    P = proj.transform
    VtS = polybasis.moments(polybasis.enumerate_basis(proj.degree), proj.mesh, S)
    C = densela._gemm(P, densela._gemm(P.T, VtS))
    return C.reshape((-1,) + samples.shape[1:])


def lsq_norm(proj, eval_on):
    """Operator norm of the projector: max over the points of eval_on (a
    Mesh or an (M, 3) array) of ||Q P^T b(x)||_1.

    The maximum is taken over the least row of each orbit of the points
    (meshgen.orbit_representatives); the module docstring says why.  X =
    Q P^T = V P P^T is formed by one mesh scan as its transpose, with its
    rows grouped by z degree (perm, the stable argsort of the degrees):
    evaluate(P P[perm]^T) in Fortran order, transposed, is (N, M) in C
    order, so the z blocks the scan takes are row slices of it, its one
    M x N array.  Q is never formed.  Raises ValueError for an empty
    eval_on.
    """
    pts = _evaluation_points(eval_on)
    rows = meshgen.orbit_representatives(proj.mesh, pts).rows
    basis, P = polybasis.enumerate_basis(proj.degree), proj.transform
    _, m = polybasis._factor_index(basis)  # the z degree of each column
    perm = np.argsort(m, kind="stable")
    XT = polybasis.evaluate(basis, densela._gemm(P, P[perm].T), proj.mesh, "F").T
    blocks = np.split(XT, np.cumsum(np.bincount(m))[:-1])
    return _projector_norm(basis, blocks, pts[rows])
