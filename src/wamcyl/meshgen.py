"""Mesh generators for the cylinder and its 1D/2D building blocks.

Families and closed-form cardinalities:

    cheb    Chebyshev-Lobatto points on [-1, 1], n+1 points
    padua   first-family Padua points of the square, (n+1)(n+2)/2 points,
            embedded in the (x, z) plane
    disk    rotation-invariant polar grid of the unit disk, (n+1)^2 points
    wam1    disk grid x Chebyshev-Lobatto in z, (n+1)^3 points
    wam2    Padua points in the (r, z) plane rotated about the z-axis,
            (n^2+n+1)(n+2)/2 points for even n, (n+1)^2(n+2)/2 for odd n

Generation order is deterministic.  The only coincident points the
products make are the disk center and the wam2 axis (even n), repeated at
every angle; each generator masks out those repeats where it makes them,
keeping the copy at the first angle.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import polybasis

FAMILIES = ("cheb", "padua", "disk", "wam1", "wam2")

# every two generated points of a mesh lie further apart than this
DEDUP_TOL = 1e-12


@dataclass(frozen=True)
class Mesh:
    family: str
    degree: int
    points: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown mesh family {self.family!r}")
        polybasis._validate_points(np.asarray(self.points, dtype=float))

    @property
    def cardinality(self):
        return self.points.shape[0]


def expected_cardinality(family, n):
    """Closed-form point count for a generated family."""
    if family == "cheb":
        return n + 1
    if family == "padua":
        return (n + 1) * (n + 2) // 2
    if family == "disk":
        return (n + 1) ** 2
    if family == "wam1":
        return (n + 1) ** 3
    if family == "wam2":
        if n % 2 == 0:
            return (n * n + n + 1) * (n + 2) // 2
        return (n + 1) ** 2 * (n + 2) // 2
    raise ValueError(f"no closed-form cardinality for family {family!r}")


def _cheb_lobatto_grid(n):
    # cos(k*pi/n), k = 0..n, with the symmetry grid[n-k] == -grid[k] exact
    # and an exact zero at the midpoint for even n
    g = np.empty(n + 1)
    half = n // 2
    k = np.arange(half + 1)
    g[: half + 1] = np.cos(k * np.pi / n)
    if n % 2 == 0:
        g[half] = 0.0
    g[half + 1 :] = -g[: n - half][::-1]
    return g


def cheb_lobatto(n):
    """Chebyshev-Lobatto points cos(k*pi/n), embedded on the x-axis."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    g = _cheb_lobatto_grid(n)
    pts = np.zeros((n + 1, 3))
    pts[:, 0] = g
    return Mesh("cheb", n, pts)


def padua(n):
    """First-family Padua points of degree n in the (x, z) plane.

    With the Chebyshev-Lobatto grids xg (n+1 points) and zg (n+2 points),
    the set keeps exactly the pairs with odd index-parity sum, which is the
    interlacing of the even/odd subgrids.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    r, s = np.nonzero(np.add.outer(np.arange(n + 1), np.arange(n + 2)) % 2 == 1)
    pts = np.zeros((r.size, 3))
    pts[:, 0] = _cheb_lobatto_grid(n)[r]
    pts[:, 2] = _cheb_lobatto_grid(n + 1)[s]
    assert pts.shape[0] == expected_cardinality("padua", n)
    return Mesh("padua", n, pts)


def disk_wam(n):
    """Rotation-invariant polar grid of the unit disk.

    Radii cos(i*pi/n) for i = 0..n; angles j*pi/m for j = 0..m-1 with
    m = n+1 for odd n and m = n+2 for even n, radius-major.  For even n the
    center (radius i = n/2) is kept at the first angle only.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    radii = _cheb_lobatto_grid(n)
    m = n + 1 if n % 2 == 1 else n + 2
    ang = np.arange(m) * np.pi / m
    keep = np.ones((radii.size, m), dtype=bool)
    keep[radii == 0.0, 1:] = False
    pts = np.zeros((keep.sum(), 3))
    pts[:, 0] = np.outer(radii, np.cos(ang))[keep]
    pts[:, 1] = np.outer(radii, np.sin(ang))[keep]
    assert pts.shape[0] == expected_cardinality("disk", n)
    return Mesh("disk", n, pts)


def wam1(n):
    """First cylinder WAM: disk polar grid times Chebyshev-Lobatto in z."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    disk = disk_wam(n).points
    zg = _cheb_lobatto_grid(n)
    md, mz = disk.shape[0], zg.size
    pts = np.empty((md * mz, 3))
    pts[:, 0] = np.repeat(disk[:, 0], mz)
    pts[:, 1] = np.repeat(disk[:, 1], mz)
    pts[:, 2] = np.tile(zg, md)
    assert pts.shape[0] == expected_cardinality("wam1", n)
    return Mesh("wam1", n, pts)


def wam2(n):
    """Second cylinder WAM: Padua points of the (r, z) square rotated by
    the n+1 angles j*pi/(n+1); (r, z) at angle t maps to (r cos t, r sin t, z).

    Negative radii cover the angles in [pi, 2*pi), so the rim carries 2n+2
    equispaced points.  Points come angle-major in Padua order; the axis
    points (r = 0, even n) are kept at the first angle only.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    pad = padua(n).points
    r, z = pad[:, 0], pad[:, 2]
    ang = np.arange(n + 1) * np.pi / (n + 1)
    keep = np.ones((ang.size, r.size), dtype=bool)
    keep[1:, r == 0.0] = False
    pts = np.empty((keep.sum(), 3))
    pts[:, 0] = np.outer(np.cos(ang), r)[keep]
    pts[:, 1] = np.outer(np.sin(ang), r)[keep]
    pts[:, 2] = np.broadcast_to(z, keep.shape)[keep]
    assert pts.shape[0] == expected_cardinality("wam2", n)
    return Mesh("wam2", n, pts)


_GENERATORS = {
    "cheb": cheb_lobatto,
    "padua": padua,
    "disk": disk_wam,
    "wam1": wam1,
    "wam2": wam2,
}


def generate_mesh(family, n):
    """Dispatch to the family generator."""
    try:
        gen = _GENERATORS[family]
    except KeyError:
        raise ValueError(f"unknown mesh family {family!r}") from None
    return gen(n)


def control_degree(family, n, mult=None):
    """Degree of the control mesh used to estimate sup norms.

    wam1 (and the 1D/2D families): 4n up to n = 20, then 2n.
    wam2: 4n up to n = 20, 3n up to n = 25, then 2n.
    `mult` overrides the schedule with m = mult * n.
    """
    if mult is not None:
        return mult * n
    if family == "wam2":
        if n <= 20:
            return 4 * n
        if n <= 25:
            return 3 * n
        return 2 * n
    return 4 * n if n <= 20 else 2 * n


def control_mesh(family, n, mult=None):
    """Same-family mesh at the control degree for n."""
    return generate_mesh(family, control_degree(family, n, mult))


class Orbits(NamedTuple):
    """Orbit representatives of a group of isometries of the cylinder.

    The group is generated by the rotation about the z-axis by
    2*pi/rotations, the reflection in the plane through the axis at angle
    `axis` (None: no reflection) and, if flip_z, z -> -z.  `rows` indexes
    the evaluation points kept to represent every orbit.
    """

    rows: np.ndarray
    rotations: int
    axis: float | None
    flip_z: bool


def orbit_representatives(mesh, pts):
    """Points of pts (a Mesh or (M, 3) array) that meet every orbit of the
    isometries of the cylinder mapping both mesh and pts onto themselves.

    Candidates are the rotations about the z-axis by multiples of 2*pi/g, g
    the gcd of the rim point counts of the two sets, the reflections in the
    planes through the axis at multiples of pi/g, and z -> -z.  One is kept
    if it maps every z layer of each set (polybasis._slabs) onto a layer of
    that set, each image within DEDUP_TOL of its own point.  The kept points
    lie in the fundamental sector of the verified planar group, closed and
    widened by DEDUP_TOL (angle in [axis, axis + pi/p] for a dihedral group
    of rotation order p, in [0, 2*pi/p] for a cyclic one), or on the axis,
    and have z >= 0 if z -> -z verified.  That is a superset of one point
    per orbit, so any function invariant under the group has the same
    maximum over them as over pts.  If nothing verifies, every point is kept.
    """
    sets = [np.asarray(getattr(s, "points", s), dtype=float) for s in (mesh, pts)]
    layers = [polybasis._slabs(s) for s in sets]
    g = math.gcd(*(_rim_count(s) for s in layers))
    angle = 2 * np.pi * np.arange(g) / g
    c, s = np.cos(angle), np.sin(angle)

    def verified(A, flip=False):
        return all(_maps_onto(lay, np.array(A), flip) for lay in layers)

    # rotations by 2*pi*k/g, and reflections in the axes at pi*k/g
    rot_ok = [k == 0 or verified([[c[k], -s[k]], [s[k], c[k]]]) for k in range(g)]
    ref_ok = [verified([[c[k], s[k]], [s[k], -c[k]]]) for k in range(g)]
    # the largest group all of whose elements verified
    p = max(d for d in range(1, g + 1) if g % d == 0 and all(rot_ok[:: g // d]))
    axes = [k for k in range(g // p) if all(ref_ok[k :: g // p])]
    axis = np.pi * axes[0] / g if axes else None
    flip_z = verified(np.eye(2), flip=True)

    x, y, z = sets[1].T
    r = np.hypot(x, y)
    width = 2 * np.pi / p if axis is None else np.pi / p
    phi = (np.arctan2(y, x) - (axis or 0.0)) % (2 * np.pi)
    slack = DEDUP_TOL / np.maximum(r, DEDUP_TOL)  # DEDUP_TOL as an angle at radius r
    keep = (phi <= width + slack) | (phi >= 2 * np.pi - slack) | (r <= DEDUP_TOL)
    if flip_z:
        keep &= z >= -DEDUP_TOL
    return Orbits(np.flatnonzero(keep), p, axis, flip_z)


def _rim_count(layers):
    # distinct points on the outermost circle of the xy sets of the layers
    xy = np.concatenate([lay[0] for lay in layers])
    r = np.hypot(xy[:, 0], xy[:, 1])
    rim = xy[r >= r.max() - DEDUP_TOL]
    t = np.sort(np.arctan2(rim[:, 1], rim[:, 0]))
    return max(1, np.count_nonzero(np.diff(t, append=t[0] + 2 * np.pi) > DEDUP_TOL))


def _maps_onto(layers, A, flip):
    # whether (x, y, z) -> (A (x, y), -z if flip else z) maps the layers
    # (xy, z, rows) of one point set onto layers of the same set, one to one
    z = np.concatenate([lay[1] for lay in layers])
    grid = np.repeat(np.arange(len(layers)), [len(lay[1]) for lay in layers])
    if flip:
        order = np.argsort(z)
        j = np.minimum(np.searchsorted(z[order], -z - DEDUP_TOL), z.size - 1)
        if np.any(np.abs(z[order[j]] + z) > DEDUP_TOL) or np.unique(j).size < j.size:
            return False
        pairs = set(zip(grid.tolist(), grid[order[j]].tolist()))
    else:
        pairs = {(i, i) for i in range(len(layers))}
    return all(_onto(layers[a][0] @ A.T, layers[b][0]) for a, b in pairs)


def _onto(images, target):
    # whether every image lies within DEDUP_TOL (per coordinate) of its own
    # target point: candidates by a window on the sorted x, then y checked
    if len(images) != len(target):
        return False
    order = np.argsort(target[:, 0])
    tx, ty = target[order, 0], target[order, 1]
    lo = np.searchsorted(tx, images[:, 0] - DEDUP_TOL)
    hi = np.searchsorted(tx, images[:, 0] + DEDUP_TOL, side="right")
    match = np.full(len(images), -1)
    for off in range(int((hi - lo).max())):
        i = lo + off
        hit = (i < hi) & (match < 0)
        hit[hit] = np.abs(ty[i[hit]] - images[hit, 1]) <= DEDUP_TOL
        match[hit] = i[hit]
    return bool(np.all(match >= 0)) and np.unique(match).size == match.size
