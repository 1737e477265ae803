"""Node extraction from a WAM: approximate Fekete and discrete Leja points.

Both extractions act on the rectangular Vandermonde of the graded basis,
optionally after an iterated change to a mesh-discretely-orthonormal basis:
one Householder R (Q is never formed), then Cholesky steps on the iterate.
Approximate Fekete points come from column-pivoted QR of the transposed
matrix; discrete Leja points from row-pivoted LU.  The discrete Leja
selection depends on the basis ordering, which the graded ordering of
`polybasis` fixes.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

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


def orthogonalize(V, steps):
    """The transform P of `precondition`: V @ P has (numerically)
    orthonormal columns; steps = 0 returns the identity."""
    return precondition(V, steps)[0]


def precondition(V, steps):
    """(P, U): `steps` orthogonalization steps of the mesh Vandermonde V.

    Step one takes R from a Householder QR of V without forming Q, each
    later step the Cholesky factor of U^T U; both set U <- U R^-1 and
    P <- P R^-1, so U is V P up to rounding and is V itself for steps = 0.
    Node selection and the least-squares projector share P and U.
    """
    V = np.asarray(V, dtype=float)
    m, n = V.shape
    if m < n:
        raise ValueError(f"mesh of {m} points cannot support {n} basis elements")
    if steps < 0:
        raise ValueError(f"orthogonalization steps must be >= 0, got {steps}")
    P, U = np.eye(n), V
    for step in range(steps):
        if step == 0:
            R = np.linalg.qr(U, mode="r")
            R = R * np.where(np.diag(R) < 0.0, -1.0, 1.0)[:, None]  # canonical: diag(R) > 0
        else:
            R = scipy.linalg.cholesky(U.T @ U)
        diag = np.diag(R)
        if diag.max() <= 0.0 or diag.min() < densela.RANK_TOL * diag.max():
            raise RankDeficiencyError("basis is rank deficient on this mesh")
        Rinv = scipy.linalg.solve_triangular(R, np.eye(n))
        P = P @ Rinv
        U = U @ Rinv
    return P, U


def select_nodes(mesh, n, method, U, ortho_steps):
    """Degree-n nodes from the rows of U, the preconditioned Vandermonde of
    the mesh, in greedy selection order: column-pivoted QR of U^T for
    'afp', row-pivoted LU of U (its first N permuted rows) for 'dlp'."""
    N = U.shape[1]
    if method == "afp":
        rec = densela.qr_col_pivot(U.T, steps=N)
    else:
        rec = densela.lu_row_pivot(U)
    idx = np.array(rec.order[:N])
    return ExtractionResult(method=method, degree=n, ortho_steps=ortho_steps,
                            mesh_family=mesh.family, indices=idx, nodes=mesh.points[idx])


def _select(mesh, n, method, ortho_steps):
    _, U = precondition(polybasis.vandermonde(polybasis.enumerate_basis(n), mesh), ortho_steps)
    return select_nodes(mesh, n, method, U, ortho_steps)


def select_afp(mesh, n, ortho_steps=2):
    """Approximate Fekete points of degree n extracted from the mesh."""
    return _select(mesh, n, "afp", ortho_steps)


def select_dlp(mesh, n, ortho_steps=2):
    """Discrete Leja points of degree n extracted from the mesh."""
    return _select(mesh, n, "dlp", ortho_steps)
