import warnings

import numpy as np
import pytest
from _reference import empirical_wam_ratio, wam_ratio_bound
from scipy.spatial import cKDTree

from wamcyl import meshgen, polybasis
from wamcyl.meshgen import (
    _cheb_lobatto_grid,
    _disk,
    _padua,
    control_degree,
    control_mesh,
    expected_cardinality,
    generate_mesh,
    wam1,
    wam2,
)

# the WAMs and their factors: the Lobatto grid, the Padua points and the disk
# grid, which meshgen keeps as private arrays
SETS = ["cheb", "padua", "disk", "wam1", "wam2"]


def _points(family, n):
    # the family's degree-n points as an (M, 3) array: the Lobatto grid on
    # the x-axis, the Padua points in the (x, z) plane, the disk grid at z = 0
    if family == "cheb":
        return np.column_stack([_cheb_lobatto_grid(n), np.zeros((n + 1, 2))])
    if family == "padua":
        r, z = _padua(n).T
        return np.column_stack([r, np.zeros_like(r), z])
    if family == "disk":
        xy = _disk(n)
        return np.column_stack([xy, np.zeros(len(xy))])
    return generate_mesh(family, n).points


def test_cheb_lobatto_small():
    np.testing.assert_allclose(_cheb_lobatto_grid(2), [1.0, 0.0, -1.0], atol=1e-15)
    np.testing.assert_allclose(_cheb_lobatto_grid(1), [1.0, -1.0], atol=0)
    assert np.any(np.isclose(_cheb_lobatto_grid(4), np.sqrt(2) / 2, atol=1e-15))


def test_cheb_lobatto_embedding():
    # the Lobatto grids are the z nodes of both WAMs: degree n for wam1,
    # degree n+1 for wam2
    for n in (5, 6):
        np.testing.assert_array_equal(np.unique(wam1(n).points[:, 2]),
                                      np.sort(_cheb_lobatto_grid(n)))
        np.testing.assert_array_equal(np.unique(wam2(n).points[:, 2]),
                                      np.sort(_cheb_lobatto_grid(n + 1)))


def test_padua_degree1_by_hand():
    # enumerating the parity rule: grids {1,-1} and {1,0,-1}, odd index sum
    got = {tuple(p) for p in _padua(1)}
    assert got == {(1.0, 0.0), (-1.0, 1.0), (-1.0, -1.0)}


def test_padua_counts():
    assert _padua(2).shape == (6, 2)
    assert _padua(5).shape == (21, 2)


def test_disk_small():
    got = {tuple(np.round(p, 15)) for p in _disk(1)}
    assert got == {(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (-0.0, -1.0)}
    assert _disk(4).shape == (25, 2)
    assert _disk(5).shape == (36, 2)


def test_wam_cardinalities_from_figures():
    assert wam1(5).cardinality == 216
    assert wam2(5).cardinality == 126
    assert wam2(6).cardinality == 172


def test_wam_small_counts():
    assert wam1(1).cardinality == 8
    assert wam1(2).cardinality == 27
    assert wam2(1).cardinality == 6


def test_cardinalities_all_degrees():
    for n in range(1, 31):
        for family in ("wam1", "wam2"):
            assert generate_mesh(family, n).cardinality == expected_cardinality(family, n)
        assert len(_cheb_lobatto_grid(n)) == n + 1
        assert len(_padua(n)) == (n + 1) * (n + 2) // 2
        assert len(_disk(n)) == (n + 1) ** 2


def test_no_near_duplicates():
    sets = [(family, n) for family in SETS for n in range(1, 31)] + [("disk", 80), ("wam2", 80)]
    for family, n in sets:
        tree = cKDTree(_points(family, n))
        assert not tree.query_pairs(meshgen.DEDUP_TOL), (family, n)


def _first_copies(raw):
    # keep the first copy of each (x, y, z) key, in generation order; keys
    # compare as floats, so -0.0 == 0.0
    seen = {}
    for i, key in enumerate(map(tuple, raw.tolist())):
        seen.setdefault(key, i)
    return raw[list(seen.values())]


def _reference_points(family, n):
    # the raw products, with every center and axis repeat, reduced by the
    # first-copy rule
    grid = meshgen._cheb_lobatto_grid
    if family == "cheb":
        return np.column_stack([grid(n), np.zeros((n + 1, 2))])
    if family == "padua":
        xg, zg = grid(n), grid(n + 1)
        return np.array([(xg[r], 0.0, zg[s]) for r in range(n + 1) for s in range(n + 2)
                         if (r + s) % 2 == 1])
    if family in ("disk", "wam1"):
        radii = grid(n)
        m = n + 1 if n % 2 == 1 else n + 2
        ang = np.arange(m) * np.pi / m
        raw = np.zeros((radii.size * m, 3))
        raw[:, 0] = np.outer(radii, np.cos(ang)).ravel()
        raw[:, 1] = np.outer(radii, np.sin(ang)).ravel()
        if family == "disk":
            return _first_copies(raw)
        zg = grid(n)
        raw = np.column_stack([np.repeat(raw[:, :2], zg.size, axis=0), np.tile(zg, len(raw))])
        return _first_copies(raw)
    pad = _reference_points("padua", n)
    r, z = pad[:, 0], pad[:, 2]
    blocks = [np.column_stack([r * np.cos(t), r * np.sin(t), z])
              for t in np.arange(n + 1) * np.pi / (n + 1)]
    return _first_copies(np.vstack(blocks))


@pytest.mark.parametrize("family", SETS)
def test_meshes_match_the_first_copy_rule(family):
    # bitwise, signed zeros included: node selection breaks ties by mesh index
    for n in range(1, 41):
        got = _points(family, n)
        want = _reference_points(family, n)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), n


def test_points_inside_cylinder():
    for mesh in (wam1(7), wam2(8)):
        r2 = mesh.points[:, 0] ** 2 + mesh.points[:, 1] ** 2
        assert r2.max() <= 1 + 1e-12
        assert np.abs(mesh.points[:, 2]).max() <= 1 + 1e-12


def _set_invariant(points, mapped, tol=1e-12):
    tree = cKDTree(points)
    d, _ = tree.query(mapped)
    return d.max() <= tol


def test_wam1_symmetries_all_degrees():
    for n in range(1, 31):
        pts = wam1(n).points
        flipped = pts * np.array([1.0, 1.0, -1.0])
        assert _set_invariant(pts, flipped), f"z-mirror fails at n={n}"
        rot = np.column_stack([-pts[:, 1], pts[:, 0], pts[:, 2]])
        assert _set_invariant(pts, rot), f"quarter-turn fails at n={n}"


def test_wam2_boundary_angles_equispaced():
    for n in (3, 4, 5, 8):
        pts = wam2(n).points
        r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        rim = pts[np.abs(r2 - 1.0) <= 1e-12]
        ang = np.mod(np.arctan2(rim[:, 1], rim[:, 0]), 2 * np.pi)
        uniq = np.unique(np.round(ang / (np.pi / (n + 1))).astype(int) % (2 * n + 2))
        assert uniq.size == 2 * n + 2
        grid = np.arange(2 * n + 2) * np.pi / (n + 1)
        d = np.abs(ang[:, None] - grid[None, :])
        assert np.minimum(d, 2 * np.pi - d).min(axis=1).max() < 1e-12


def test_control_schedule():
    ctrl = control_mesh("wam1", 5)
    assert ctrl.degree == 20 and ctrl.cardinality == 9261
    assert control_degree("wam2", 25) == 75
    assert control_degree("wam1", 30) == 60
    assert control_degree("wam1", 20) == 80
    assert control_degree("wam2", 26) == 52


def _assert_slabs_partition(pts):
    # every point lies in exactly one grid (xy, z, rows), at (xy, z[q]) for
    # the block rows[q] that holds it; returns the number of grids
    slabs = polybasis._slabs(pts)
    for xy, z, rows in slabs:
        for zq, r in zip(z, rows):
            np.testing.assert_array_equal(pts[r], np.column_stack([xy, np.full(len(xy), zq)]))
    covered = np.concatenate([r for _, _, rows in slabs for r in rows])
    np.testing.assert_array_equal(np.sort(covered), np.arange(len(pts)))
    return len(slabs)


@pytest.mark.parametrize("family", SETS)
@pytest.mark.parametrize("n", [1, 2, 5, 6])
def test_slabs_cover_exactly_the_points(family, n):
    # the points of degree n and 4n (the control degree): the tensor grids
    # that scans find partition the points, one grid per set (two for the
    # parity rule of padua and wam2)
    grids = {"cheb": 1, "padua": 2, "disk": 1, "wam1": 1, "wam2": 2}[family]
    for pts in (_points(family, n), _points(family, 4 * n)):
        assert _assert_slabs_partition(pts) == grids
    if family == "wam1":
        # shuffled, the z groups no longer share an xy order
        pts = pts[np.random.default_rng(n).permutation(len(pts))]
        _assert_slabs_partition(pts)


def test_generation_is_deterministic():
    a = wam2(6).points
    b = wam2(6).points
    assert a.tobytes() == b.tobytes()


def test_empirical_wam_ratio_monitored():
    # the growth bound is monitored, not asserted: warn on violation.
    # Control angle grids are not nested in the WAM's, so the ratio may dip
    # slightly below 1; it must stay within a whisker of it.
    for family in ("wam1", "wam2"):
        for n in (2, 3, 5, 9):
            ratios = empirical_wam_ratio(family, n, num_polys=100, seed=0)
            assert np.all(np.isfinite(ratios))
            assert ratios.min() >= 0.5
            bound = wam_ratio_bound(n)
            if ratios.max() >= bound:
                warnings.warn(
                    f"WAM ratio {ratios.max():.2f} exceeds monitored bound "
                    f"{bound:.2f} for {family} n={n}"
                )


def test_rejects_unknown_family_and_degree():
    # the WAMs' factors are not mesh families
    for family in ("torus", "cheb", "padua", "disk"):
        with pytest.raises(ValueError):
            generate_mesh(family, 3)
        with pytest.raises(ValueError):
            meshgen.Mesh(family, 3, np.zeros((1, 3)))
    with pytest.raises(ValueError):
        wam1(0)
