"""Moments, moment-fitting cubature, and an independent product-rule oracle.

The oracle combines an equispaced trapezoid rule in the angle (exact for
trigonometric polynomials), Gauss-Legendre in the radius on [0, 1] with
the polar jacobian folded into the weights, and Gauss-Legendre in z.  At
level L it uses 2L+2 angles, L+2 radial and L+1 axial nodes, which makes
it exact for every polynomial of total degree <= 2L+1; `oracle_integral`
doubles the level until two successive values agree.

Given the integrand's singular point, the oracle instead splits the
radius, z and (off the axis) the angle there, and covers each side with
composite Gauss-Legendre pieces graded geometrically toward the split (hp
quadrature, Schwab 1998): breakpoints 0, s^L, ..., s, 1 of the side with
s = ORACLE_GRADING and L points per piece.  That rule converges
exponentially in L where level doubling converges only algebraically; L
grows by ORACLE_GRADED_STEP until two successive values agree.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import polybasis
from .errors import ConvergenceError

ORACLE_START_LEVEL = 4
ORACLE_MAX_REFINEMENTS = 12
ORACLE_GRADING = 0.15
ORACLE_GRADED_STEP = 2
# desk-scale guard: refuse levels whose point count exceeds this.  Level
# doubling needs level 1024 (2.2e9 points) on an interior point singularity
# at 1e-10; the graded rule meets it at L = 12 (3.0e7 points)
ORACLE_POINT_BUDGET = 3_000_000_000


@dataclass(frozen=True)
class CubatureRule:
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def sum_weights(self):
        return float(self.weights.sum())


def _polar_split(at):
    """(r0, theta0, z0) of a point of the cylinder; theta0 is None on the
    axis.  Raises ValueError for a non-finite point or one outside."""
    p = np.asarray(at, dtype=float)
    if p.shape != (3,) or not np.all(np.isfinite(p)):
        raise ValueError(f"singular point {at!r} is not three finite coordinates")
    r0 = float(np.hypot(p[0], p[1]))
    if r0 > 1.0 + polybasis.DOMAIN_TOL or abs(p[2]) > 1.0 + polybasis.DOMAIN_TOL:
        raise ValueError(f"singular point {at!r} outside the cylinder")
    theta0 = float(np.arctan2(p[1], p[0])) if r0 > 0.0 else None
    return min(r0, 1.0), theta0, float(np.clip(p[2], -1.0, 1.0))


def _graded(lo, s, hi, level):
    """Nodes and weights on [lo, hi] split at s: each side of positive
    length is covered by `level` + 1 Gauss-Legendre pieces of `level`
    points, graded geometrically toward s."""
    x, w = np.polynomial.legendre.leggauss(level)
    edges = np.concatenate([[0.0], ORACLE_GRADING ** np.arange(level, -1, -1)])
    h = np.diff(edges)[:, None]
    t = (edges[:-1, None] + h * (x + 1.0) / 2.0).ravel()
    wt = (h * w / 2.0).ravel()
    sides = [d for d in (lo - s, hi - s) if d != 0.0]
    return np.concatenate([s + d * t for d in sides]), np.concatenate([abs(d) * wt for d in sides])


def _rules_1d(level, split=None):
    """The level-L angles with their common and relative weights, radii on
    [0, 1] with the polar jacobian in their weights, and axial nodes with
    their weights.

    With no split: 2L+2 equispaced angles of relative weight 1, L+2 radial
    and L+1 axial Gauss-Legendre nodes.  With a split (r0, theta0, z0) from
    `_polar_split`: r, z and, unless theta0 is None, the angle over
    [theta0 - pi, theta0 + pi] are graded toward it (`_graded`).
    """
    m = 2 * level + 2
    ang, wa, wang = 2.0 * np.pi * np.arange(m) / m, 2.0 * np.pi / m, np.ones(m)
    if split is None:
        xr, wr = np.polynomial.legendre.leggauss(level + 2)
        r, wr = (xr + 1.0) / 2.0, wr / 2.0
        xz, wz = np.polynomial.legendre.leggauss(level + 1)
        return ang, wa, wang, r, wr * r, xz, wz
    r0, theta0, z0 = split
    if theta0 is not None:
        t, wang = _graded(-1.0, 0.0, 1.0, level)
        ang, wa = theta0 + np.pi * t, np.pi
    r, wr = _graded(0.0, r0, 1.0, level)
    xz, wz = _graded(-1.0, z0, 1.0, level)
    return ang, wa, wang, r, wr * r, xz, wz


def moments_wade(n):
    """Integrals of the graded basis elements over the cylinder.

    Per column (r, m) of polybasis._factor_index: the ridge factor r
    integrates to pi over the disk for r = 0 (k = 0) and vanishes for
    r >= 1; the z factor of degree m integrates to 2 for m = 0,
    sqrt(2)*2/(1-m^2) for even m >= 2, and 0 for odd m.
    """
    r, m = polybasis._factor_index(polybasis.enumerate_basis(n))
    b = np.zeros(r.size)
    even = (r == 0) & (m > 0) & (m % 2 == 0)
    b[even] = np.pi * np.sqrt(2.0) * 2.0 / (1.0 - m[even] * m[even])
    b[(r == 0) & (m == 0)] = 2.0 * np.pi
    return b


def cubature_weights(nodes):
    """Moment-fitting weights at the extracted nodes: solve V^T w = b.

    The solves use the nodes' LU factors of V; one iterative-refinement
    pass tightens the constant-moment residual.
    """
    b = moments_wade(nodes.degree)
    w = scipy.linalg.lu_solve(nodes.lu, b, trans=1)
    w = w + scipy.linalg.lu_solve(nodes.lu, b - nodes.vandermonde.T @ w, trans=1)
    return CubatureRule(nodes=nodes.nodes, weights=w)


def apply_rule(rule, f):
    """Apply the rule to f(x, y, z); f must accept coordinate arrays."""
    x, y, z = rule.nodes[:, 0], rule.nodes[:, 1], rule.nodes[:, 2]
    return float(np.dot(rule.weights, np.asarray(f(x, y, z), dtype=float)))


def _integrate_level(f, rules):
    ang, wa, wang, r, wr, xz, wz = rules
    W = np.outer(wr, wz)
    R = np.broadcast_to(r[:, None], W.shape)
    Z = np.broadcast_to(xz[None, :], W.shape)
    total = 0.0
    # one (r, z) plane per angle keeps memory flat; a relative weight of
    # 1.0 (the trapezoid) leaves each plane's sum exact
    for a, wk in zip(ang, wang.tolist()):
        vals = np.asarray(f(R * np.cos(a), R * np.sin(a), Z), dtype=float)
        total += wk * float((W * vals).sum())
    return wa * total


def oracle_integral(f, tol, at=None):
    """Reference integral of f over the cylinder.

    With at=None the level doubles; given the singular point `at` of f, the
    rule is graded toward it and L grows by ORACLE_GRADED_STEP.  Returns the
    last value once two successive ones agree within tol; raises ValueError
    for a point that is not finite or not in the cylinder, and
    ConvergenceError when the refinement cap or the desk-scale point budget
    is exhausted.
    """
    split = None if at is None else _polar_split(at)
    level = ORACLE_START_LEVEL
    prev = _integrate_level(f, _rules_1d(level, split))
    for _ in range(ORACLE_MAX_REFINEMENTS):
        level = 2 * level if split is None else level + ORACLE_GRADED_STEP
        rules = _rules_1d(level, split)
        ang, r, xz = rules[0], rules[3], rules[5]
        if ang.size * r.size * xz.size > ORACLE_POINT_BUDGET:
            raise ConvergenceError(
                f"oracle not converged to {tol:g} within the point budget"
            )
        cur = _integrate_level(f, rules)
        if abs(cur - prev) <= tol:
            return cur
        prev = cur
    raise ConvergenceError(f"oracle not converged to {tol:g} after refinements")
