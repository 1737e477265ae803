"""Mesh generators: the two weakly admissible meshes of the cylinder.

Families and closed-form cardinalities:

    wam1    polar grid of the unit disk x Chebyshev-Lobatto in z, (n+1)^3 points
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

from . import densela, polybasis

FAMILIES = ("wam1", "wam2")

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


def _padua(n):
    # first-family Padua points of degree n, (n+1)(n+2)/2 rows (r, z): of the
    # Lobatto grids rg (n+1 points) and zg (n+2 points), exactly the pairs
    # with odd index-parity sum, the interlacing of the even/odd subgrids
    r, s = np.nonzero(np.add.outer(np.arange(n + 1), np.arange(n + 2)) % 2 == 1)
    return np.column_stack([_cheb_lobatto_grid(n)[r], _cheb_lobatto_grid(n + 1)[s]])


def _disk(n):
    # rotation-invariant polar grid of the unit disk, (n+1)^2 rows (x, y):
    # radii cos(i*pi/n), i = 0..n, times the angles j*pi/m, j = 0..m-1, with
    # m = n+1 for odd n and m = n+2 for even n, radius-major; for even n the
    # center (radius i = n/2) is kept at the first angle only
    radii = _cheb_lobatto_grid(n)
    m = n + 1 if n % 2 == 1 else n + 2
    ang = np.arange(m) * np.pi / m
    keep = np.ones((radii.size, m), dtype=bool)
    keep[radii == 0.0, 1:] = False
    return np.column_stack([np.outer(radii, np.cos(ang))[keep],
                            np.outer(radii, np.sin(ang))[keep]])


def wam1(n):
    """First cylinder WAM: disk polar grid times Chebyshev-Lobatto in z."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    disk = _disk(n)
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
    r, z = _padua(n).T
    ang = np.arange(n + 1) * np.pi / (n + 1)
    keep = np.ones((ang.size, r.size), dtype=bool)
    keep[1:, r == 0.0] = False
    pts = np.empty((keep.sum(), 3))
    pts[:, 0] = np.outer(np.cos(ang), r)[keep]
    pts[:, 1] = np.outer(np.sin(ang), r)[keep]
    pts[:, 2] = np.broadcast_to(z, keep.shape)[keep]
    assert pts.shape[0] == expected_cardinality("wam2", n)
    return Mesh("wam2", n, pts)


_GENERATORS = {"wam1": wam1, "wam2": wam2}


def generate_mesh(family, n):
    """Dispatch to the family generator."""
    try:
        gen = _GENERATORS[family]
    except KeyError:
        raise ValueError(f"unknown mesh family {family!r}") from None
    return gen(n)


def control_degree(family, n):
    """Degree of the control mesh used to estimate sup norms.

    wam1: 4n up to n = 20, then 2n.
    wam2: 4n up to n = 20, 3n up to n = 25, then 2n.
    """
    if family == "wam2":
        if n <= 20:
            return 4 * n
        if n <= 25:
            return 3 * n
        return 2 * n
    return 4 * n if n <= 20 else 2 * n


def control_mesh(family, n):
    """Same-family mesh at the control degree for n."""
    return generate_mesh(family, control_degree(family, n))


class Orbits(NamedTuple):
    """The `rows` of the evaluation points least in their orbit under the
    verified isometries `maps`, a group of (3, 3) matrices, identity first."""

    rows: np.ndarray
    maps: np.ndarray


def orbit_representatives(mesh, pts):
    """The least row of each orbit of pts (a Mesh or (M, 3) array) under the
    isometries of the cylinder mapping both mesh and pts onto themselves.

    Every candidate is a (3, 3) matrix: the rotations about the z-axis by
    multiples of 2*pi/g, g the gcd of the rim point counts of the two sets,
    those times diag(1, -1, 1) (reflections in planes through the axis),
    and z -> -z.  One is kept if _maps_onto verifies it on both sets; its
    matches give its row permutation of pts.  The candidates form a group,
    so the kept ones do, and any function invariant under it has the same
    maximum over the rows as over pts.  If nothing verifies, every row is
    kept.  Raises ValueError unless both sets are (M, 3) arrays and
    DomainError for a point outside the cylinder, NaN included.
    """
    sets = [np.asarray(getattr(s, "points", s), dtype=float) for s in (mesh, pts)]
    for s in sets:
        polybasis._validate_points(s)
    layers = [polybasis._slabs(s) for s in sets]
    g = math.gcd(*(_rim_count(s) for s in layers))
    angle = 2 * np.pi * np.arange(g) / g
    c, s, zero, one = np.cos(angle), np.sin(angle), np.zeros(g), np.ones(g)
    rot = np.stack([c, -s, zero, s, c, zero, zero, zero, one], axis=1).reshape(g, 3, 3)

    def permutation(G):
        # the row permutation of pts, or None unless G verifies
        verified = _maps_onto(layers[0], G) is not None
        return _maps_onto(layers[1], G) if verified else None

    # rotations by 2*pi*k/g, then reflections in the axes at pi*k/g, one
    # permutation at a time: least[i] is the least image of row i so far
    least, maps = np.arange(len(sets[1])), [rot[0]]
    for G in [*rot[1:], *(rot * [1.0, -1.0, 1.0])]:
        perm = permutation(G)
        if perm is not None:
            np.minimum(least, perm, out=least)
            maps.append(G)
    maps, flip = np.stack(maps), np.diag([1.0, 1.0, -1.0])
    perm = permutation(flip)
    if perm is not None:  # z -> -z commutes with every planar map
        np.minimum(least, least[perm], out=least)
        maps = np.concatenate([maps, maps * [1.0, 1.0, -1.0]])
    return Orbits(np.flatnonzero(least == np.arange(least.size)), maps)


def _rim_count(layers):
    # distinct points on the outermost circle of the xy sets of the layers
    xy = np.concatenate([lay[0] for lay in layers])
    r = np.hypot(xy[:, 0], xy[:, 1])
    rim = xy[r >= r.max() - DEDUP_TOL]
    t = np.sort(np.arctan2(rim[:, 1], rim[:, 0]))
    return max(1, np.count_nonzero(np.diff(t, append=t[0] + 2 * np.pi) > DEDUP_TOL))


def _maps_onto(layers, G):
    # the row permutation perm[i] = (row of the image of row i) of one point
    # set, given as its layers (xy, z, rows), under the isometry G (3, 3):
    # xy -> G[:2, :2] xy, z -> G[2, 2] z.  The z layers are paired by _onto
    # on the (z, 0) pairs, the points of paired layers by _onto on xy; None
    # unless every layer and every point has its own match
    z = np.concatenate([lay[1] for lay in layers])
    flat = [(a, r) for a, lay in enumerate(layers) for r in lay[2]]
    zs = np.column_stack([z, np.zeros_like(z)])
    partner = _onto(zs * [G[2, 2], 1.0], zs)
    if partner is None:
        return None
    perm, matches = np.empty(sum(r.size for _, r in flat), dtype=np.intp), {}
    for (a, r), (b, image) in zip(flat, (flat[v] for v in partner)):
        if (a, b) not in matches:
            matches[a, b] = _onto(densela._gemm(layers[a][0], G[:2, :2].T), layers[b][0])
        if matches[a, b] is None:
            return None
        perm[r] = image[matches[a, b]]
    return perm


def _onto(images, target):
    # the row of target within DEDUP_TOL (per coordinate) of each image, or
    # None unless every image has its own: candidates by a window on the
    # sorted x, then y checked
    if len(images) != len(target):
        return None
    order = np.argsort(target[:, 0])
    tx, ty = target[order, 0], target[order, 1]
    lo = np.searchsorted(tx, images[:, 0] - DEDUP_TOL)
    hi = np.searchsorted(tx, images[:, 0] + DEDUP_TOL, side="right")
    match = np.full(len(images), -1)
    todo = np.flatnonzero(lo < hi)  # the images not yet matched, at candidate lo
    while todo.size:
        hit = np.abs(ty[lo[todo]] - images[todo, 1]) <= DEDUP_TOL
        match[todo[hit]] = lo[todo[hit]]
        lo[todo] += 1
        todo = todo[~hit & (lo[todo] < hi[todo])]
    if np.any(match < 0) or np.unique(match).size < match.size:
        return None
    return order[match]
