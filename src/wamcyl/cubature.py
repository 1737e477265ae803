"""Moments, moment-fitting cubature, and an independent product-rule oracle.

The oracle combines an equispaced trapezoid rule in the angle (exact for
trigonometric polynomials), Gauss-Legendre in the radius on [0, 1] with
the polar jacobian folded into the weights, and Gauss-Legendre in z.  At
level L it uses 2L+2 angles, L+2 radial and L+1 axial nodes, which makes
it exact for every polynomial of total degree <= 2L+1; `oracle_integral`
doubles the level until two successive values agree.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.linalg

from . import polybasis
from .errors import ConvergenceError

ORACLE_START_LEVEL = 4
ORACLE_MAX_DOUBLINGS = 12
# desk-scale guard: refuse levels whose point count exceeds this; level 1024
# (needed by the interior-singularity benchmark at 1e-10) stays inside
ORACLE_POINT_BUDGET = 3_000_000_000


@dataclass(frozen=True)
class CubatureRule:
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    degree: int = 0

    @property
    def sum_weights(self):
        return float(self.weights.sum())


@lru_cache(maxsize=32)
def _leggauss(q):
    return np.polynomial.legendre.leggauss(q)


def _rules_1d(level):
    """The level-L angles and their common weight, radial Gauss-Legendre on
    [0, 1] with the polar jacobian in its weights, and axial Gauss-Legendre."""
    m = 2 * level + 2
    ang = 2.0 * np.pi * np.arange(m) / m
    xr, wr = _leggauss(level + 2)
    r = (xr + 1.0) / 2.0
    xz, wz = _leggauss(level + 1)
    return ang, 2.0 * np.pi / m, r, wr / 2.0 * r, xz, wz


def moments_wade(n):
    """Integrals of the graded basis elements over the cylinder.

    The ridge factor integrates to pi over the disk for k = 0 and vanishes
    for k >= 1; the z factor integrates to 2 for m = 0, sqrt(2)*2/(1-m^2)
    for even m >= 2, and 0 for odd m.
    """
    basis = polybasis.enumerate_basis(n)
    b = np.zeros(len(basis))
    for pos, (i, k, _j) in enumerate(basis.indices):
        if k != 0:
            continue
        m = i - k
        if m == 0:
            b[pos] = 2.0 * np.pi
        elif m % 2 == 0:
            b[pos] = np.pi * np.sqrt(2.0) * 2.0 / (1.0 - m * m)
    return b


def cubature_weights(nodes):
    """Moment-fitting weights at the extracted nodes: solve V^T w = b.

    The solves use the nodes' LU factors of V; one iterative-refinement
    pass tightens the constant-moment residual.
    """
    b = moments_wade(nodes.degree)
    w = scipy.linalg.lu_solve(nodes.lu, b, trans=1)
    w = w + scipy.linalg.lu_solve(nodes.lu, b - nodes.vandermonde.T @ w, trans=1)
    return CubatureRule(nodes=nodes.nodes, weights=w, degree=nodes.degree)


def apply_rule(rule, f):
    """Apply the rule to f(x, y, z); f must accept coordinate arrays."""
    x, y, z = rule.nodes[:, 0], rule.nodes[:, 1], rule.nodes[:, 2]
    return float(np.dot(rule.weights, np.asarray(f(x, y, z), dtype=float)))


def _integrate_level(f, level):
    ang, wa, r, wr, xz, wz = _rules_1d(level)
    W = np.outer(wr, wz)
    R = np.broadcast_to(r[:, None], W.shape)
    Z = np.broadcast_to(xz[None, :], W.shape)
    total = 0.0
    for a in ang:  # one (r, z) plane per angle keeps memory flat
        vals = np.asarray(f(R * np.cos(a), R * np.sin(a), Z), dtype=float)
        total += float((W * vals).sum())
    return wa * total


def oracle_integral(f, tol):
    """Reference integral of f over the cylinder by level doubling.

    Returns the last level once two successive levels agree within tol;
    raises ConvergenceError when the doubling budget or the desk-scale
    point budget is exhausted.
    """
    level = ORACLE_START_LEVEL
    prev = _integrate_level(f, level)
    for _ in range(ORACLE_MAX_DOUBLINGS):
        level *= 2
        if (2 * level + 2) * (level + 2) * (level + 1) > ORACLE_POINT_BUDGET:
            raise ConvergenceError(
                f"oracle not converged to {tol:g} within the point budget"
            )
        cur = _integrate_level(f, level)
        if abs(cur - prev) <= tol:
            return cur
        prev = cur
    raise ConvergenceError(f"oracle not converged to {tol:g} after doublings")
