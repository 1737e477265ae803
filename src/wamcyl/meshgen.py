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

from dataclasses import dataclass, field

import numpy as np

from . import polybasis

FAMILIES = ("cheb", "padua", "disk", "wam1", "wam2", "control")

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


def wam_ratio_bound(n):
    """Monitored growth bound for the empirical WAM constant."""
    return 10.0 * (1.0 + np.log(n + 1.0)) ** 3


def empirical_wam_ratio(family, n, num_polys=100, seed=0, control=None):
    """Sup-norm ratios control mesh / mesh for random degree-n polynomials.

    Coefficients are uniform in [-1, 1] over the graded basis.  Returns the
    array of ratios; callers compare against wam_ratio_bound(n).
    """
    mesh = generate_mesh(family, n)
    if control is None:
        control = control_mesh(family, n)
    basis = polybasis.enumerate_basis(n)
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, size=(len(basis), num_polys))
    sup_mesh = np.abs(polybasis.vandermonde(basis, mesh) @ coeffs).max(axis=0)
    sups = polybasis.scan(basis, coeffs.T, control, lambda _, R: np.abs(R, out=R).max(axis=1))
    return np.max(list(sups), axis=0) / sup_mesh
