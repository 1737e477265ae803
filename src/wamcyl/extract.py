"""Node extraction from a WAM: approximate Fekete and discrete Leja points.

Both extractions factor one matrix, U = V P: the rectangular Vandermonde V
of the graded basis on the mesh after an iterated change to a
mesh-discretely-orthonormal basis, P from Cholesky steps on V^T V built
from the mesh's tensor grids (P = I, U = V for 0 steps).  Approximate
Fekete points come from column-pivoted QR of U^T; discrete Leja points
from row-pivoted LU of U.  The discrete Leja selection depends on the
basis ordering, which the graded ordering of `polybasis` fixes.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dtrmm as trmm
from scipy.linalg.lapack import dtrtri

from . import densela, polybasis
from .errors import RankDeficiencyError


@dataclass(frozen=True)
class ExtractionResult:
    method: str
    degree: int
    ortho_steps: int
    mesh_family: str
    indices: np.ndarray = field(repr=False)
    nodes: np.ndarray = field(repr=False)

    @property
    def count(self):
        return self.indices.size

    @cached_property
    def vandermonde(self):
        """Node Vandermonde V(nodes) of the graded basis, built once."""
        return polybasis.vandermonde(polybasis.enumerate_basis(self.degree), self.nodes)

    @cached_property
    def lu(self):
        """Checked LU factors of the node Vandermonde, factored once for
        interpolation, cubature weights and the Lebesgue constant."""
        return densela.lu_factor_checked(self.vandermonde)


# largest CholeskyQR error bound transform accepts: above the <= 3.9e-13
# of the WAMs up to n = 30, below the 1e-5 of wam1(5) squeezed tenfold in z
GRAM_BOUND = 1e-11


def transform(mesh, n, steps):
    """P of `steps` orthogonalization steps of the degree-n Vandermonde V of
    the mesh, U = V P mesh-discretely orthonormal; None for steps = 0,
    where P is the identity and is not formed.  P comes from Cholesky
    steps on G = V^T V (polybasis.gram), without V; G and the step
    temporaries are freed before it is returned.  Raises ValueError for
    negative steps or a mesh with fewer points than basis elements, before
    anything is built, and RankDeficiencyError where G is not numerically
    positive definite or the CholeskyQR error bound
    eps * max_k (sum_i |P_ik| sqrt(G_ii))^2 exceeds GRAM_BOUND."""
    if steps < 0:
        raise ValueError(f"orthogonalization steps must be >= 0, got {steps}")
    m, N = len(getattr(mesh, "points", mesh)), polybasis.basis_size(n)
    if m < N:
        raise ValueError(f"mesh of {m} points cannot support {N} basis elements")
    if steps == 0:
        return None
    return _cholesky_steps(polybasis.gram(polybasis.enumerate_basis(n), mesh), n, steps)


def _cholesky_steps(G, n, steps):
    # P after `steps` Cholesky steps on the Gram matrix G, checked against
    # GRAM_BOUND; G and every temporary die with this frame
    try:  # P <- P R^-1, R = cholesky(P^T G P); upper triangular, diag(R) > 0
        P = dtrtri(scipy.linalg.cholesky(G))[0]
        col = densela._gemm(np.abs(P).T, np.sqrt(np.diag(G))[:, None])
        bound = np.finfo(float).eps * col.max() ** 2
    except np.linalg.LinAlgError:  # G is not numerically positive definite
        bound = np.inf
    if not bound <= GRAM_BOUND:
        raise RankDeficiencyError(f"degree-{n} basis too ill-conditioned on this mesh: Gram "
                                  f"error bound {bound:.2g} exceeds GRAM_BOUND = {GRAM_BOUND:g}")
    for _ in range(steps - 1):
        W = trmm(1.0, P, trmm(1.0, P, G, side=1), trans_a=1)  # P^T G P
        P = trmm(1.0, dtrtri(scipy.linalg.cholesky(W))[0], P, side=1)
    return P


def select_nodes(mesh, n, method, ortho_steps=2, P=None):
    """Degree-n nodes of the mesh in greedy selection order: column-pivoted
    QR of U^T for 'afp', row-pivoted LU of U (its first N permuted rows)
    for 'dlp', U = V P with P = transform(mesh, n, ortho_steps) unless the
    caller passes the P of those steps.  Raises ValueError for any other
    method before anything is built.  U is formed here, by one scan of the
    mesh, in the order densela's rule factors in place: C for 'afp', whose
    QR takes U.T, Fortran for 'dlp'; P is let go before the factorization
    runs in U's memory."""
    if method not in ("afp", "dlp"):
        raise ValueError(f"unknown extraction method {method!r}; expected 'afp' or 'dlp'")
    if P is None:
        P = transform(mesh, n, ortho_steps)
    basis, order = polybasis.enumerate_basis(n), "C" if method == "afp" else "F"
    U = (polybasis.vandermonde(basis, mesh, order) if P is None
         else polybasis.evaluate(basis, P, mesh, order))
    del P  # a P made here dies before the factorization
    if method == "afp":
        rec = densela.qr_col_pivot(U.T)
    else:
        rec = densela.lu_row_pivot(U)
    idx = np.array(rec.order[:len(basis)])
    return ExtractionResult(method=method, degree=n, ortho_steps=ortho_steps,
                            mesh_family=mesh.family, indices=idx, nodes=mesh.points[idx])


def select_afp(mesh, n, ortho_steps=2, P=None):
    """Approximate Fekete points of degree n from the mesh: select_nodes for 'afp'."""
    return select_nodes(mesh, n, "afp", ortho_steps, P)


def select_dlp(mesh, n, ortho_steps=2, P=None):
    """Discrete Leja points of degree n from the mesh: select_nodes for 'dlp'."""
    return select_nodes(mesh, n, "dlp", ortho_steps, P)
