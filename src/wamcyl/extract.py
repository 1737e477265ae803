"""Node extraction from a WAM: approximate Fekete and discrete Leja points.

Both extractions act on the rectangular Vandermonde V of the graded basis,
optionally after an iterated change to a mesh-discretely-orthonormal basis
U = V P, from Cholesky steps on V^T V built from the mesh's tensor grids.
Approximate Fekete points come from column-pivoted QR of the transposed
matrix; discrete Leja points from row-pivoted LU.  The discrete Leja
selection depends on the basis ordering, which the graded ordering of
`polybasis` fixes.
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


# largest CholeskyQR error bound precondition accepts: above the <= 3.9e-13
# of the WAMs up to n = 30, below the 1e-5 of wam1(5) squeezed tenfold in z
GRAM_BOUND = 1e-11


def precondition(mesh, n, steps):
    """(P, U): `steps` orthogonalization steps of the degree-n Vandermonde V
    of the mesh, U = V P, shared by node selection and least squares.  For
    steps = 0 this is (None, V): P is the identity and is not formed.
    Otherwise P comes from Cholesky steps on G = V^T V (polybasis.gram) and
    U from one grid scan, without V.  Raises ValueError for negative steps
    or a mesh with fewer points than basis elements, before anything is
    built, and RankDeficiencyError where G is not numerically positive
    definite or the CholeskyQR error bound
    eps * max_k (sum_i |P_ik| sqrt(G_ii))^2 exceeds GRAM_BOUND."""
    if steps < 0:
        raise ValueError(f"orthogonalization steps must be >= 0, got {steps}")
    m, N = len(getattr(mesh, "points", mesh)), polybasis.basis_size(n)
    if m < N:
        raise ValueError(f"mesh of {m} points cannot support {N} basis elements")
    basis = polybasis.enumerate_basis(n)
    if steps == 0:
        return None, polybasis.vandermonde(basis, mesh)
    G = polybasis.gram(basis, mesh)
    try:  # P <- P R^-1, R = cholesky(P^T G P); upper triangular, diag(R) > 0
        P = dtrtri(scipy.linalg.cholesky(G))[0]
        bound = np.finfo(float).eps * (np.abs(P).T @ np.sqrt(np.diag(G))).max() ** 2
    except np.linalg.LinAlgError:  # G is not numerically positive definite
        bound = np.inf
    if not bound <= GRAM_BOUND:
        raise RankDeficiencyError(f"degree-{n} basis too ill-conditioned on this mesh: Gram "
                                  f"error bound {bound:.2g} exceeds GRAM_BOUND = {GRAM_BOUND:g}")
    for _ in range(steps - 1):
        W = trmm(1.0, P, trmm(1.0, P, G, side=1), trans_a=1)  # P^T G P
        P = trmm(1.0, dtrtri(scipy.linalg.cholesky(W))[0], P, side=1)
    return P, polybasis.evaluate(basis, P, mesh)


def select_nodes(mesh, n, method, U, ortho_steps):
    """Degree-n nodes from the rows of U, the preconditioned Vandermonde of
    the mesh, in greedy selection order: column-pivoted QR of U^T for
    'afp', row-pivoted LU of U (its first N permuted rows) for 'dlp'.
    Raises ValueError for any other method.  'afp' overwrites a C-ordered
    U (the QR runs in its memory), so pass one that no caller reads again;
    'dlp' leaves U untouched."""
    N = U.shape[1]
    if method == "afp":
        rec = densela.qr_col_pivot(U.T)
    elif method == "dlp":
        rec = densela.lu_row_pivot(U)
    else:
        raise ValueError(f"unknown extraction method {method!r}; expected 'afp' or 'dlp'")
    idx = np.array(rec.order[:N])
    return ExtractionResult(method=method, degree=n, ortho_steps=ortho_steps,
                            mesh_family=mesh.family, indices=idx, nodes=mesh.points[idx])


def select_afp(mesh, n, ortho_steps=2):
    """Approximate Fekete points of degree n extracted from the mesh."""
    return select_nodes(mesh, n, "afp", precondition(mesh, n, ortho_steps)[1], ortho_steps)


def select_dlp(mesh, n, ortho_steps=2):
    """Discrete Leja points of degree n extracted from the mesh."""
    return select_nodes(mesh, n, "dlp", precondition(mesh, n, ortho_steps)[1], ortho_steps)
