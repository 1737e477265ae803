import numpy as np
import pytest
import scipy.linalg
from _reference import empirical_wam_ratio, lsq_matrix, traced_peak
from scipy.spatial import cKDTree

from wamcyl import approx, densela, extract, meshgen, polybasis
from wamcyl.approx import (
    build_lsq,
    interpolate,
    lebesgue_constant,
    lsq_fit,
    lsq_norm,
    sup_errors,
)
from wamcyl.errors import DomainError


def _values(coeffs, n, pts):
    return polybasis.vandermonde(polybasis.enumerate_basis(n), pts) @ coeffs


def _evaluate(c, n, pts):
    # the degree-n polynomial of coefficient vector c at pts, by one scan
    return polybasis.evaluate(polybasis.enumerate_basis(n), c[:, None], pts)[:, 0]


def _dense_scan(basis, X, mesh, reduce):
    # reference for polybasis.scan: the whole Vandermonde of the points at
    # once, X @ V.T reduced over row blocks of it in point order
    pts = np.asarray(getattr(mesh, "points", mesh), dtype=float)
    V = polybasis.vandermonde(basis, pts)
    for lo in range(0, len(pts), 8192):
        rows = np.arange(lo, min(lo + 8192, len(pts)))
        yield reduce(rows, X @ V[rows].T)


def _dense_block_scan(basis, blocks, mesh, reduce):
    # _dense_scan in place of polybasis.scan: X (K, N) put back together
    # from its z blocks, blocks[d] the columns of z degree d transposed
    _, m = polybasis._factor_index(basis)
    X = np.empty((blocks[0].shape[1], len(basis)))
    for d, B in enumerate(blocks):
        X[:, m == d] = B.T
    return _dense_scan(basis, X, mesh, reduce)


def test_interpolate_constant():
    sel = extract.select_afp(meshgen.wam1(3), 3)
    c = interpolate(sel, np.ones(sel.count))
    assert c[0] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(c[1:]).max() < 1e-12


def test_interpolate_basis_element():
    sel = extract.select_afp(meshgen.wam1(3), 3)
    samples = np.sqrt(2.0) * sel.nodes[:, 2]
    c = interpolate(sel, samples)
    pos = polybasis.enumerate_basis(3).indices.index((1, 0, 0))
    want = np.zeros(sel.count)
    want[pos] = 1.0
    np.testing.assert_allclose(c, want, atol=1e-12)


@pytest.mark.parametrize("family,method", [("wam1", "afp"), ("wam2", "dlp")])
def test_interpolation_roundtrip_random(family, method):
    n = 5
    mesh = meshgen.generate_mesh(family, n)
    sel = (extract.select_afp if method == "afp" else extract.select_dlp)(mesh, n)
    rng = np.random.default_rng(8)
    c = rng.uniform(-1, 1, sel.count)
    got = interpolate(sel, _values(c, n, sel.nodes))
    assert np.abs(got - c).max() < 1e-9 * np.abs(c).max()


def test_eval_at_own_nodes_reproduces_samples():
    sel = extract.select_dlp(meshgen.wam2(4), 4)
    rng = np.random.default_rng(9)
    samples = rng.standard_normal(sel.count)
    got = _evaluate(interpolate(sel, samples), 4, sel.nodes)
    assert np.abs(got - samples).max() <= 1e-10 * np.abs(samples).max()


def test_constant_interpolant_everywhere():
    sel = extract.select_afp(meshgen.wam1(2), 0, ortho_steps=0)
    c = interpolate(sel, np.ones(1))
    pts = np.array([[0.3, 0.1, -0.7], [0.0, 0.0, 0.0]])
    np.testing.assert_allclose(_evaluate(c, 0, pts), 1.0)


def test_lebesgue_degree0_is_one():
    sel = extract.select_afp(meshgen.wam1(2), 0, ortho_steps=0)
    assert lebesgue_constant(sel, meshgen.wam1(4)) == pytest.approx(1.0)


def test_lebesgue_reference_magnitudes():
    mesh = meshgen.wam1(5)
    ctrl = meshgen.control_mesh("wam1", 5)
    lam_afp = lebesgue_constant(extract.select_afp(mesh, 5, 0), ctrl)
    assert 17.0 / 2 <= lam_afp <= 17.0 * 2
    lam_dlp = lebesgue_constant(extract.select_dlp(mesh, 5, 0), ctrl)
    assert 30.0 / 2 <= lam_dlp <= 30.0 * 2
    assert lam_afp >= 1.0 and lam_dlp >= 1.0


def test_lebesgue_within_fekete_bound():
    # monitored bound: the extracted-node Lebesgue constant stays under
    # N times the measured mesh norm-equivalence ratio
    for family in ("wam1", "wam2"):
        n = 5
        mesh = meshgen.generate_mesh(family, n)
        ctrl = meshgen.control_mesh(family, n)
        lam = lebesgue_constant(extract.select_afp(mesh, n, 0), ctrl)
        ratio = empirical_wam_ratio(family, n, num_polys=50, seed=1).max()
        assert lam <= polybasis.basis_size(n) * max(ratio, 1.0)


def test_lebesgue_blocking_invariance(monkeypatch):
    # the layer-by-layer scans equal the single-shot formulas on the whole
    # control Vandermonde, and build no Vandermonde themselves
    n = 3
    mesh = meshgen.wam2(n)
    sel = extract.select_afp(mesh, n)
    proj = build_lsq(mesh, n)
    ctrl = meshgen.wam2(60)  # 1830 or 1831 points per z layer
    basis = polybasis.enumerate_basis(n)
    rng = np.random.default_rng(13)
    C = rng.uniform(-1, 1, (len(basis), 4))

    def target(pts):
        return np.cos(pts @ np.arange(1.0, 13.0).reshape(3, 4))

    sel.lu  # the node Vandermonde is factored before the scans
    built = []
    build = polybasis.vandermonde
    monkeypatch.setattr(polybasis, "vandermonde",
                        lambda b, pts: built.append(pts) or build(b, pts))
    pts = ctrl.points
    one = (lebesgue_constant(sel, pts), lsq_norm(proj, eval_on=pts), *sup_errors(n, C, target, pts))
    assert built == []  # the scans build no Vandermonde
    # manual single-shot computation
    A = build(basis, sel.nodes)
    B = build(basis, ctrl)
    L = np.linalg.solve(A.T, B.T)
    assert one[0] == pytest.approx(np.abs(L).sum(axis=0).max(), rel=1e-12)
    f = target(ctrl.points)
    np.testing.assert_allclose(one[2], np.abs(B @ C - f).max(axis=0), rtol=1e-12)
    np.testing.assert_allclose(one[3], np.abs(f).max(axis=0), rtol=1e-12)


def _column_sum_max(_, G):
    return np.abs(G).sum(axis=0).max()


# order of the isometry group common to the mesh and its control mesh
_GROUP_ORDERS = {("wam1", 5): 16, ("wam1", 6): 16, ("wam1", 10): 48, ("wam2", 5): 1,
                 ("wam2", 6): 4, ("wam2", 7): 1, ("wam2", 10): 4}


@pytest.mark.parametrize("family,method,n", [("wam1", "afp", 5), ("wam1", "dlp", 6),
                                             ("wam2", "afp", 6), ("wam2", "dlp", 5),
                                             ("wam2", "afp", 7), ("wam1", "afp", 10),
                                             ("wam2", "dlp", 10)])
def test_slab_scans_match_blocked_scans(monkeypatch, family, method, n):
    # the control mesh is scanned tensor grid by tensor grid through the z
    # contraction, and by the dense reference through row blocks of its
    # whole Vandermonde: every sup norm agrees.  The LSQ norm is taken over
    # one control point per orbit of the isometries common to mesh and
    # control mesh (none at odd n on wam2); its reference is the dense
    # maximum over the whole control mesh
    mesh = meshgen.generate_mesh(family, n)
    sel = (extract.select_afp if method == "afp" else extract.select_dlp)(mesh, n)
    proj = build_lsq(mesh, n)
    ctrl = meshgen.control_mesh(family, n)
    orbits = meshgen.orbit_representatives(mesh, ctrl)
    order = _GROUP_ORDERS[family, n]
    assert len(orbits.maps) == order
    assert (orbits.rows.size < ctrl.cardinality) == (order > 1)
    rng = np.random.default_rng(14)
    C = rng.uniform(-1, 1, (polybasis.basis_size(n), 3))

    def target(pts):
        return np.cos(pts @ np.arange(1.0, 10.0).reshape(3, 3))

    def scans():
        return (lebesgue_constant(sel, ctrl), *sup_errors(n, C, target, ctrl),
                empirical_wam_ratio(family, n, num_polys=20, control=ctrl))

    tensor = (lsq_norm(proj, ctrl), *scans())
    monkeypatch.setattr(polybasis, "scan", _dense_block_scan)
    basis = polybasis.enumerate_basis(n)
    dense = (max(_dense_scan(basis, lsq_matrix(proj), ctrl, _column_sum_max)), *scans())
    for a, b in zip(tensor, dense):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)


@pytest.mark.parametrize("family,n,jitter", [("wam1", 5, 0.0), ("wam2", 2, 0.0),
                                              ("wam2", 6, 0.0), ("wam2", 5, 0.0),
                                              ("wam1", 5, 1e-14), ("wam2", 6, 1e-14)])
def test_orbit_representatives_meet_every_orbit(family, n, jitter):
    # every group element maps mesh and control mesh onto themselves, every
    # control point has an image among the kept points and no kept point has
    # another one; control points moved by far less than DEDUP_TOL still
    # verify, with the same row permutations, so the same rows are kept
    mesh, ctrl = meshgen.generate_mesh(family, n), meshgen.control_mesh(family, n)
    exact = meshgen.orbit_representatives(mesh, ctrl)
    pts = ctrl.points.copy()  # z stays exact: the z layers are checked one by one
    pts[:, :2] += jitter * np.random.default_rng(18).uniform(-1, 1, (len(pts), 2))
    ctrl = meshgen.Mesh(family, n, pts)
    orbits = meshgen.orbit_representatives(mesh, ctrl)
    np.testing.assert_array_equal(orbits.maps, exact.maps)
    np.testing.assert_array_equal(orbits.rows, exact.rows)
    kept = cKDTree(ctrl.points[orbits.rows])
    trees = [(s, cKDTree(s)) for s in (mesh.points, ctrl.points)]
    hit = np.zeros(ctrl.cardinality, dtype=bool)
    for M in orbits.maps:
        for s, tree in trees:
            d, i = tree.query(s @ M.T)
            assert d.max() <= 1e-12 and np.unique(i).size == len(s)
        hit |= kept.query(ctrl.points @ M.T)[0] <= 1e-12
        d, i = kept.query(ctrl.points[orbits.rows] @ M.T)
        assert np.all((d > 1e-12) | (i == np.arange(orbits.rows.size)))
    assert hit.all()
    assert (orbits.rows.size < ctrl.cardinality) == (len(orbits.maps) > 1)


def test_orbit_representatives_keep_one_row_per_orbit():
    # a chiral set: r = 0.5, z = 0 at the angles 2*pi*k/4, then at those
    # plus 0.3.  With wam1(5) it has the quarter turns and z -> -z, no
    # reflection, so rows 0..3 are one orbit and rows 4..7 another
    t = np.concatenate([2 * np.pi * np.arange(4) / 4 + d for d in (0.0, 0.3)])
    pts = np.column_stack([0.5 * np.cos(t), 0.5 * np.sin(t), np.zeros(8)])
    orbits = meshgen.orbit_representatives(meshgen.wam1(5), pts)
    np.testing.assert_array_equal(orbits.rows, [0, 4])
    maps = orbits.maps
    assert len(maps) == 8
    np.testing.assert_array_equal(maps[0], np.eye(3))
    np.testing.assert_allclose(maps @ maps.transpose(0, 2, 1) - np.eye(3), 0, atol=1e-15)
    # closed under products: every product is one of the maps
    products = np.einsum("aij,bjk->abik", maps, maps).reshape(-1, 1, 9)
    assert (np.abs(products - maps.reshape(1, -1, 9)).max(axis=2) <= 1e-14).any(axis=1).all()


@pytest.mark.parametrize("family,n,rows,order", [
    ("wam1", 12, 7825, 16), ("wam1", 15, 14911, 16), ("wam1", 20, 34481, 16),
    ("wam2", 12, 15025, 4), ("wam2", 15, 113491, 1), ("wam2", 20, 23001, 12)])
def test_orbit_counts_on_the_control_schedule(family, n, rows, order):
    # beyond _GROUP_ORDERS: the rows kept and the group order on the mesh
    # and control mesh of the degree (the whole control mesh at odd n on wam2)
    ctrl = meshgen.control_mesh(family, n)
    orbits = meshgen.orbit_representatives(meshgen.generate_mesh(family, n), ctrl)
    assert (orbits.rows.size, len(orbits.maps)) == (rows, order)
    assert (rows == ctrl.cardinality) == (order == 1)


def test_orbit_representatives_hold_one_permutation_at_a_time():
    # the 48 row permutations at wam1 n = 10 are made one at a time: the
    # traced peak stays below 8 arrays of M int64 (keeping all 48 needs 48)
    ctrl = meshgen.control_mesh("wam1", 10)
    peak = traced_peak(meshgen.orbit_representatives, meshgen.wam1(10), ctrl)
    assert peak < 8 * 8 * ctrl.cardinality


@pytest.mark.parametrize("family,n", [("wam1", 5), ("wam2", 6)])
def test_every_map_permutes_both_sets(family, n):
    # each verified G gives, on the layers of mesh and control mesh alike,
    # a row permutation with pts[perm] = pts G^T; the least row of each
    # orbit rebuilt from all of them at once is orbits.rows
    mesh, ctrl = meshgen.generate_mesh(family, n), meshgen.control_mesh(family, n)
    orbits = meshgen.orbit_representatives(mesh, ctrl)
    assert len(orbits.maps) > 1
    for pts in (mesh.points, ctrl.points):
        perms = [meshgen._maps_onto(polybasis._slabs(pts), G) for G in orbits.maps]
        for G, perm in zip(orbits.maps, perms):
            np.testing.assert_array_equal(np.sort(perm), np.arange(len(pts)))
            assert np.abs(pts[perm] - pts @ G.T).max() <= 1e-12
    least = np.min(perms, axis=0)  # over the control mesh's permutations
    np.testing.assert_array_equal(np.flatnonzero(least == np.arange(least.size)), orbits.rows)


def test_z_layers_pair_by_the_point_match():
    # z -> -z verifies on wam1(3), whose z layers are symmetric, and not
    # once they are squeezed and shifted to [-0.25, 0.75]
    pts = meshgen.wam1(3).points
    flip = np.diag([1.0, 1.0, -1.0])
    perm = meshgen._maps_onto(polybasis._slabs(pts), flip)
    assert np.abs(pts[perm] - pts * [1.0, 1.0, -1.0]).max() <= 1e-12
    shifted = pts * [1.0, 1.0, 0.5] + [0.0, 0.0, 0.25]
    assert meshgen._maps_onto(polybasis._slabs(shifted), flip) is None


@pytest.mark.parametrize("family,n,order,rows", [
    ("wam1", 2, 32, 4), ("wam1", 5, 48, 9), ("wam1", 10, 96, 36), ("wam1", 20, 176, 121),
    ("wam2", 2, 12, 4), ("wam2", 5, 4, 36), ("wam2", 6, 28, 16), ("wam2", 10, 44, 36),
    ("wam2", 20, 84, 121)])
def test_each_mesh_has_its_own_group(family, n, order, rows):
    # orbit_representatives(mesh, mesh): the mesh's own group, and the rows
    # left of the mesh itself
    mesh = meshgen.generate_mesh(family, n)
    orbits = meshgen.orbit_representatives(mesh, mesh)
    assert (len(orbits.maps), orbits.rows.size) == (order, rows)


def test_nudged_control_mesh_is_scanned_in_full(monkeypatch):
    # one control point moved by 1e-9 breaks every isometry: the LSQ norm
    # is then the maximum over the whole (nudged) control mesh
    n = 5
    mesh = meshgen.wam1(n)
    pts = meshgen.control_mesh("wam1", n).points.copy()
    r = np.hypot(pts[:, 0], pts[:, 1])
    i = int(np.flatnonzero((r > 0.3) & (r < 0.9) & (pts[:, 1] > 0.1) & (pts[:, 2] > 0.2))[0])
    pts[i, 0] += 1e-9
    orbits = meshgen.orbit_representatives(mesh, pts)
    np.testing.assert_array_equal(orbits.maps, [np.eye(3)])
    np.testing.assert_array_equal(orbits.rows, np.arange(len(pts)))
    proj = build_lsq(mesh, n)
    scanned = []
    scan = polybasis.scan

    def recorded(basis, blocks, on, *a):
        if on is not mesh:  # the scan of the mesh that forms Q = V P
            scanned.append(len(on))
        return scan(basis, blocks, on, *a)

    monkeypatch.setattr(polybasis, "scan", recorded)
    got = lsq_norm(proj, pts)
    assert scanned == [len(pts)]
    want = max(_dense_scan(polybasis.enumerate_basis(n), lsq_matrix(proj), pts,
                           _column_sum_max))
    assert got == pytest.approx(want, rel=1e-12)


def test_eval_interpolant_keeps_mesh_order():
    # values come back in the order of the points, also of a shuffled array
    sel = extract.select_afp(meshgen.wam1(3), 3)
    rng = np.random.default_rng(16)
    c = interpolate(sel, rng.standard_normal((sel.count, 2)))
    basis = polybasis.enumerate_basis(3)
    ctrl = meshgen.wam1(12)
    np.testing.assert_array_equal(polybasis.evaluate(basis, c, ctrl),
                                  polybasis.evaluate(basis, c, ctrl.points))
    pts = ctrl.points[rng.permutation(ctrl.cardinality)]
    want = _values(c, 3, pts)
    np.testing.assert_allclose(polybasis.evaluate(basis, c, pts), want, rtol=0,
                               atol=1e-12 * np.abs(want).max())
    assert polybasis.evaluate(basis, c, np.empty((0, 3))).shape == (0, 2)


def test_scan_evaluates_the_ridge_factors_once(monkeypatch):
    # scattered points form one grid per z value; the ridge factors are still
    # evaluated in one call over all of them
    rng = np.random.default_rng(17)
    r, t = np.sqrt(rng.uniform(0, 1, 500)), rng.uniform(0, 2 * np.pi, 500)
    pts = np.column_stack([r * np.cos(t), r * np.sin(t), rng.uniform(-1, 1, 500)])
    sel = extract.select_afp(meshgen.wam1(5), 5)
    c = interpolate(sel, rng.standard_normal(sel.count))
    want = _values(c, 5, pts)
    calls = []
    ridge_factors = polybasis._ridge_factors

    def counted(*args):
        calls.append(args)
        return ridge_factors(*args)

    monkeypatch.setattr(polybasis, "_ridge_factors", counted)
    got = _evaluate(c, 5, pts)
    assert len(calls) == 1
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
    # and so are the Vandermonde's, though it is filled one z value at a time
    np.testing.assert_array_equal(_values(c, 5, pts), want)
    assert len(calls) == 2


def test_scans_reject_points_outside_the_cylinder():
    sel = extract.select_afp(meshgen.wam1(3), 3)
    c = interpolate(sel, np.ones(sel.count))
    pts = np.array([[0.3, 0.1, -0.7], [0.9, 0.5, 0.0]])  # r^2 = 1.06
    with pytest.raises(DomainError):
        _evaluate(c, 3, pts)
    with pytest.raises(DomainError):
        lebesgue_constant(sel, pts)


@pytest.mark.parametrize("column", [0, 1, 2])
def test_non_finite_points_are_outside_the_cylinder(column):
    # every comparison with NaN is false, so the domain test must be one that
    # NaN fails; the message names the offending row
    sel = extract.select_afp(meshgen.wam1(3), 3)
    c = interpolate(sel, np.ones(sel.count))
    proj = build_lsq(meshgen.wam1(3), 3)
    for value in (np.nan, np.inf):
        pts = np.array([[0.3, 0.1, -0.7], [0.0, 0.2, 0.5]])
        pts[1, column] = value
        with pytest.raises(DomainError, match=r"\(row 1\)"):
            polybasis.vandermonde(polybasis.enumerate_basis(3), pts)
        with pytest.raises(DomainError, match=r"\(row 1\)"):
            meshgen.Mesh("wam1", 3, pts)
        with pytest.raises(DomainError, match=r"\(row 1\)"):
            meshgen.orbit_representatives(proj.mesh, pts)
        with pytest.raises(DomainError, match=r"\(row 1\)"):
            lsq_norm(proj, pts)
        with pytest.raises(DomainError):
            _evaluate(c, 3, pts)
        with pytest.raises(DomainError):
            sup_errors(3, c[:, None], lambda p: np.ones((len(p), 1)), pts)
    flat = np.zeros((4, 2))
    with pytest.raises(ValueError, match=r"points must be an \(M, 3\) array"):
        meshgen.orbit_representatives(proj.mesh, flat)
    with pytest.raises(ValueError, match=r"points must be an \(M, 3\) array"):
        lsq_norm(proj, flat)


def test_lebesgue_scale_invariance():
    # Lagrange values are invariant under rescaling the whole basis
    sel = extract.select_afp(meshgen.wam2(3), 3)
    ctrl = meshgen.wam2(6)
    basis = polybasis.enumerate_basis(3)
    A = polybasis.vandermonde(basis, sel.nodes)
    B = polybasis.vandermonde(basis, ctrl)
    lam = np.abs(np.linalg.solve(A.T, B.T)).sum(axis=0).max()
    lam_scaled = np.abs(np.linalg.solve(7.5 * A.T, 7.5 * B.T)).sum(axis=0).max()
    assert lam_scaled == pytest.approx(lam, rel=1e-12)


def test_build_lsq_degree0():
    mesh = meshgen.wam1(2)
    proj = build_lsq(mesh, 0)
    np.testing.assert_allclose(proj.q, np.full((27, 1), 1 / np.sqrt(27)), atol=1e-14)
    assert lsq_norm(proj, proj.mesh) == pytest.approx(1.0)


def test_lsq_orthonormality_defect():
    proj = build_lsq(meshgen.wam1(5), 5)
    G = proj.q.T @ proj.q
    assert np.abs(G - np.eye(56)).max() <= 1e-8


def test_lsq_reproduces_polynomials_and_idempotent():
    n = 4
    mesh = meshgen.wam2(n)
    proj = build_lsq(mesh, n)
    rng = np.random.default_rng(10)
    c = rng.uniform(-1, 1, polybasis.basis_size(n))
    samples = _values(c, n, mesh.points)
    got = lsq_fit(proj, samples)
    assert np.abs(got - c).max() < 1e-8
    refit = lsq_fit(proj, proj.q @ (proj.q.T @ samples))
    assert np.abs(refit - got).max() <= 1e-10


def test_lsq_constant():
    mesh = meshgen.wam1(3)
    proj = build_lsq(mesh, 3)
    got = lsq_fit(proj, np.full(mesh.cardinality, 2.5))
    assert got[0] == pytest.approx(2.5, abs=1e-10)
    assert np.abs(got[1:]).max() < 1e-10


def test_lsq_fit_checks_the_sample_count_before_forming_q(monkeypatch):
    # the count is checked against the mesh, so a misaligned call forms no Q
    proj = build_lsq(meshgen.wam1(3), 3)

    def unbuilt(*args, **kwargs):
        raise AssertionError("formed Q for misaligned samples")

    monkeypatch.setattr(polybasis, "evaluate", unbuilt)
    with pytest.raises(ValueError, match="align with the projector mesh"):
        lsq_fit(proj, np.ones(proj.mesh.cardinality - 1))


def test_lsq_projector_unique_across_steps():
    # the projector is unique; extra orthogonalization steps only improve
    # conditioning (one step is the least that yields orthonormal columns)
    n = 3
    mesh = meshgen.wam1(n)
    rng = np.random.default_rng(11)
    c = rng.uniform(-1, 1, polybasis.basis_size(n))
    samples = _values(c, n, mesh.points)
    P = extract.transform(mesh, n, 1)
    f1 = lsq_fit(approx.LsqProjector(mesh=mesh, degree=n, transform=P), samples)
    f2 = lsq_fit(build_lsq(mesh, n), samples)
    assert np.abs(f1 - f2).max() <= 1e-8


def test_lsq_norm_forms_no_x_and_copies_no_block():
    # the projector keeps only P; lsq_norm forms Q = V P, the z blocks
    # P[m == d] Q^T of X = Q P^T from it, and frees Q before the scan, so
    # Q and the blocks are its only M x N arrays (X and a z-grouped copy of
    # it were two more)
    n = 10
    mesh, ctrl = meshgen.wam1(n), meshgen.control_mesh("wam1", n)
    peak = traced_peak(lambda: lsq_norm(build_lsq(mesh, n), ctrl))
    assert peak < 2.5 * mesh.cardinality * polybasis.basis_size(n) * 8


def test_lsq_norm_reference_magnitude():
    mesh = meshgen.wam1(5)
    proj = build_lsq(mesh, 5)
    v = lsq_norm(proj, eval_on=meshgen.control_mesh("wam1", 5))
    assert 4.8 / 2 <= v <= 4.8 * 2
    # on its own mesh the scan is a single block; the magnitude holds there too
    assert 4.8 / 2 <= lsq_norm(proj, proj.mesh) <= 4.8 * 2


def test_polynomial_reproduction_matrix():
    # interpolation and least squares agree with the generating
    # coefficients on the control mesh
    for family, method, n in (("wam1", "afp", 3), ("wam2", "dlp", 5)):
        mesh = meshgen.generate_mesh(family, n)
        sel = (extract.select_afp if method == "afp" else extract.select_dlp)(mesh, n)
        ctrl = meshgen.control_mesh(family, n)
        rng = np.random.default_rng(12)
        C = rng.uniform(-1, 1, (polybasis.basis_size(n), 5))
        V_nodes = polybasis.vandermonde(polybasis.enumerate_basis(n), sel.nodes)
        C_hat = scipy.linalg.lu_solve(densela.lu_factor_checked(V_nodes), V_nodes @ C)
        V_ctrl = polybasis.vandermonde(polybasis.enumerate_basis(n), ctrl)
        err = np.abs(V_ctrl @ (C_hat - C)).max(axis=0)
        scale = np.abs(V_ctrl @ C).max(axis=0)
        assert (err <= 1e-9 * scale).all()
