"""Weakly admissible meshes of the cylinder, approximate Fekete / discrete
Leja node extraction, and polynomial interpolation, least squares and
cubature at those nodes."""

from .approx import (
    Interpolant,
    LsqProjector,
    build_lsq,
    eval_interpolant,
    interpolate,
    lebesgue_constant,
    lsq_fit,
    lsq_norm,
    sup_errors,
)
from .cubature import (
    CubatureRule,
    apply_rule,
    cubature_weights,
    moments_wade,
    oracle_integral,
)
from .densela import PivotRecord, cond_2, lu_row_pivot, qr_col_pivot
from .errors import (
    ConvergenceError,
    DomainError,
    RankDeficiencyError,
    SingularMatrixError,
    WamcylError,
)
from .extract import ExtractionResult, select_afp, select_dlp
from .meshgen import Mesh, control_mesh, generate_mesh, wam1, wam2
from .polybasis import BasisSet, MultiIndex, enumerate_basis, vandermonde
from .testfns import REGISTRY as TEST_FUNCTIONS
from .testfns import get_function

__version__ = "0.1.0"
