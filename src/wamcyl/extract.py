"""Node extraction from a WAM: approximate Fekete and discrete Leja points.

Both extractions act on the rectangular Vandermonde of the graded basis,
optionally after an iterated change to a mesh-discretely-orthonormal basis.
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
    """Iterated QR orthogonalization of the basis on the mesh.

    Returns the transform P such that V @ P has (numerically) orthonormal
    columns: the product of inverse triangular factors from `steps`
    successive QR factorizations; steps = 0 returns the identity.
    """
    V = np.asarray(V, dtype=float)
    m, n = V.shape
    if m < n:
        raise ValueError(f"mesh of {m} points cannot support {n} basis elements")
    if steps < 0:
        raise ValueError(f"orthogonalization steps must be >= 0, got {steps}")
    P = np.eye(n)
    cur = V
    for _ in range(steps):
        Q, R = np.linalg.qr(cur)
        sign = np.where(np.diag(R) < 0.0, -1.0, 1.0)  # canonical: diag(R) > 0
        Q = Q * sign
        R = R * sign[:, None]
        diag = np.diag(R)
        if diag.max() <= 0.0 or diag.min() < densela.RANK_TOL * diag.max():
            raise RankDeficiencyError("basis is rank deficient on this mesh")
        P = P @ scipy.linalg.solve_triangular(R, np.eye(n))
        cur = Q
    return P


def precondition(V, steps):
    """(P, V P): the transform of `steps` orthogonalization steps of the
    mesh Vandermonde V and the preconditioned Vandermonde, V itself for
    steps = 0.  Node selection and the least-squares projector share it."""
    P = orthogonalize(V, steps)
    return P, (V @ P if steps else V)


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
