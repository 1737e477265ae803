import warnings

import numpy as np
import pytest
from _reference import empirical_wam_ratio, wam_ratio_bound
from scipy.spatial import cKDTree

from wamcyl import meshgen, polybasis
from wamcyl.meshgen import (
    cheb_lobatto,
    control_degree,
    control_mesh,
    disk_wam,
    expected_cardinality,
    generate_mesh,
    padua,
    wam1,
    wam2,
)


def test_cheb_lobatto_small():
    np.testing.assert_allclose(cheb_lobatto(2).points[:, 0], [1.0, 0.0, -1.0], atol=1e-15)
    np.testing.assert_allclose(cheb_lobatto(1).points[:, 0], [1.0, -1.0], atol=0)
    assert np.any(np.isclose(cheb_lobatto(4).points[:, 0], np.sqrt(2) / 2, atol=1e-15))


def test_cheb_lobatto_embedding():
    pts = cheb_lobatto(6).points
    assert np.all(pts[:, 1] == 0.0) and np.all(pts[:, 2] == 0.0)


def test_padua_degree1_by_hand():
    # enumerating the parity rule: grids {1,-1} and {1,0,-1}, odd index sum
    got = {tuple(p) for p in padua(1).points}
    assert got == {(1.0, 0.0, 0.0), (-1.0, 0.0, 1.0), (-1.0, 0.0, -1.0)}


def test_padua_counts():
    assert padua(2).cardinality == 6
    assert padua(5).cardinality == 21


def test_disk_small():
    got = {tuple(np.round(p, 15)) for p in disk_wam(1).points}
    assert got == {(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (-1.0, 0.0, 0.0), (-0.0, -1.0, 0.0)}
    assert disk_wam(4).cardinality == 25
    assert disk_wam(5).cardinality == 36


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
        for family in ("cheb", "padua", "disk", "wam1", "wam2"):
            assert generate_mesh(family, n).cardinality == expected_cardinality(family, n)


def test_no_near_duplicates():
    meshes = [generate_mesh(family, n) for family in ("cheb", "padua", "disk", "wam1", "wam2")
              for n in range(1, 31)]
    for mesh in meshes + [disk_wam(80), wam2(80)]:
        tree = cKDTree(mesh.points)
        assert not tree.query_pairs(meshgen.DEDUP_TOL), (mesh.family, mesh.degree)


def _first_copies(raw):
    # keep the first copy of each (x, y, z) key, in generation order; keys
    # compare as floats, so -0.0 == 0.0
    seen = {}
    for i, key in enumerate(map(tuple, raw.tolist())):
        seen.setdefault(key, i)
    return raw[list(seen.values())]


def _reference_mesh(family, n):
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
    pad = _reference_mesh("padua", n)
    r, z = pad[:, 0], pad[:, 2]
    blocks = [np.column_stack([r * np.cos(t), r * np.sin(t), z])
              for t in np.arange(n + 1) * np.pi / (n + 1)]
    return _first_copies(np.vstack(blocks))


@pytest.mark.parametrize("family", ["cheb", "padua", "disk", "wam1", "wam2"])
def test_meshes_match_the_first_copy_rule(family):
    # bitwise, signed zeros included: node selection breaks ties by mesh index
    for n in range(1, 41):
        got = generate_mesh(family, n).points
        want = _reference_mesh(family, n)
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
    assert control_degree("wam1", 7, mult=6) == 42


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


@pytest.mark.parametrize("family", ["cheb", "padua", "disk", "wam1", "wam2"])
@pytest.mark.parametrize("n", [1, 2, 5, 6])
def test_slabs_cover_exactly_the_points(family, n):
    # the mesh and its control mesh (degree 4n): the tensor grids that scans
    # find partition the points, one grid per family (two for the parity
    # rule of padua and wam2)
    grids = {"cheb": 1, "padua": 2, "disk": 1, "wam1": 1, "wam2": 2}[family]
    for mesh in (generate_mesh(family, n), control_mesh(family, n)):
        assert _assert_slabs_partition(mesh.points) == grids
    if family == "wam1":
        # shuffled, the z groups no longer share an xy order
        pts = mesh.points[np.random.default_rng(n).permutation(mesh.cardinality)]
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
    with pytest.raises(ValueError):
        generate_mesh("torus", 3)
    with pytest.raises(ValueError):
        wam1(0)
