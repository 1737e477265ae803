import numpy as np
import pytest
from _reference import cheb_t, cheb_u, wade_eval

from wamcyl import densela, extract, meshgen, polybasis
from wamcyl.errors import DomainError
from wamcyl.polybasis import basis_size, enumerate_basis, vandermonde


def test_cheb_t_values():
    assert cheb_t(3, 0.5) == pytest.approx(-1.0, abs=1e-15)
    assert cheb_t(0, 0.7) == 1.0
    assert cheb_t(2, 0.0) == pytest.approx(-1.0, abs=1e-15)


def test_cheb_u_values():
    assert cheb_u(1, 0.3) == pytest.approx(0.6, abs=1e-15)
    assert cheb_u(0, -0.9) == 1.0
    assert cheb_u(2, 0.5) == pytest.approx(0.0, abs=1e-15)


def test_cheb_domain_clamp():
    # within 1e-14 of the interval is clamped, beyond is rejected
    assert cheb_t(4, 1.0 + 5e-15) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        cheb_t(2, 1.1)
    with pytest.raises(DomainError):
        cheb_u(2, -1.001)
    with pytest.raises(ValueError):
        cheb_t(-1, 0.0)


def test_cheb_against_cos_form():
    # T_m(cos a) = cos(m a); recurrence must track the closed form
    for m in (0, 1, 2, 5, 11, 20):
        for a in np.linspace(0.0, np.pi, 17):
            assert cheb_t(m, np.cos(a)) == pytest.approx(np.cos(m * a), abs=1e-12)


def test_wade_constant_element():
    for p in [(0.0, 0.0, 0.0), (0.3, -0.2, 0.9), (1.0, 0.0, -1.0)]:
        assert wade_eval((0, 0, 0), p) == 1.0


def test_wade_z_element():
    assert wade_eval((1, 0, 0), (0.0, 0.0, 1.0)) == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_wade_ridge_element_frozen():
    # independent oracle: U_2(0.3 cos(pi/3) + 0.4 sin(pi/3)) evaluated with
    # mpmath at 40 digits; the abscissa is 0.15 + 0.2*sqrt(3)
    assert wade_eval((2, 2, 1), (0.3, 0.4, -0.5)) == pytest.approx(
        -0.014307806183469449553, abs=1e-15
    )


def test_wade_against_mpmath_sample():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    rng = np.random.default_rng(42)
    basis = enumerate_basis(4)
    for _ in range(20):
        r = np.sqrt(rng.uniform(0, 1))
        phi = rng.uniform(0, 2 * np.pi)
        p = (r * np.cos(phi), r * np.sin(phi), rng.uniform(-1, 1))
        idx = basis.indices[rng.integers(len(basis))]
        i, k, j = idx
        th = mp.mpf(j) * mp.pi / (k + 1)
        t = mp.mpf(p[0]) * mp.cos(th) + mp.mpf(p[1]) * mp.sin(th)
        ref = mp.chebyu(k, t)
        if i - k > 0:
            ref *= mp.sqrt(2) * mp.chebyt(i - k, mp.mpf(p[2]))
        assert wade_eval(idx, p) == pytest.approx(float(ref), abs=1e-13)


def test_wade_rejects_bad_index_and_point():
    with pytest.raises(ValueError):
        wade_eval((1, 2, 0), (0.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        wade_eval((1, 1, 0), (1.2, 0.0, 0.0))
    with pytest.raises(DomainError):
        wade_eval((1, 0, 0), (0.0, 0.0, 1.1))


def test_enumerate_counts():
    assert len(enumerate_basis(2)) == 10
    assert len(enumerate_basis(5)) == 56
    assert enumerate_basis(0).indices == (polybasis.MultiIndex(0, 0, 0),)


def test_enumerate_count_formula_and_prefix():
    full = enumerate_basis(30)
    for n in range(31):
        assert basis_size(n) == (n + 1) * (n + 2) * (n + 3) // 6
        sub = enumerate_basis(n)
        assert len(sub) == basis_size(n)
        # graded ordering: degree-n set is a prefix of every larger set
        assert full.indices[: len(sub)] == sub.indices


def test_index_invariants():
    for i, k, j in enumerate_basis(12).indices:
        assert 0 <= j <= k <= i <= 12


def test_vandermonde_degree0():
    mesh = meshgen.wam1(2)
    V = vandermonde(enumerate_basis(0), mesh)
    assert V.shape == (27, 1)
    assert np.all(V == 1.0)


def test_vandermonde_shape_wam1_5():
    V = vandermonde(enumerate_basis(5), meshgen.wam1(5))
    assert V.shape == (216, 56)


def test_vandermonde_z_column():
    mesh = meshgen.wam1(3)
    basis = enumerate_basis(3)
    V = vandermonde(basis, mesh)
    pos = basis.indices.index((1, 0, 0))
    np.testing.assert_allclose(V[:, pos], np.sqrt(2.0) * mesh.points[:, 2], atol=1e-15)


def test_vandermonde_matches_scalar_eval():
    mesh = meshgen.wam2(3)
    basis = enumerate_basis(3)
    V = vandermonde(basis, mesh)
    rng = np.random.default_rng(3)
    for _ in range(30):
        r = rng.integers(mesh.cardinality)
        c = rng.integers(len(basis))
        assert V[r, c] == pytest.approx(
            wade_eval(basis.indices[c], mesh.points[r]), abs=1e-14
        )


def test_vandermonde_block_iteration():
    mesh = meshgen.wam1(32)  # 1089 disk points per z node
    basis = enumerate_basis(4)
    V = vandermonde(basis, mesh)
    # the scan reuses one buffer per grid, so the reduction copies it
    blocks = polybasis.z_blocks(basis, np.eye(len(basis)))
    parts = list(polybasis.scan(basis, blocks, mesh.points, lambda rows, R: (rows, R.T.copy())))
    assert [len(rows) for rows, _ in parts] == [1089] * 33  # one block per z layer
    # the identity X gives the Vandermonde rows of each block
    got = np.full_like(V, np.nan)
    for rows, B in parts:
        got[rows] = B
    np.testing.assert_array_equal(got, V)


def _whole_layer_evaluate(basis, C, pts):
    # evaluate as one product per z layer, however large: the reference
    # for the row blocks of polybasis.scan
    blocks = polybasis.z_blocks(basis, C)
    out = np.empty((len(pts), C.shape[1]))
    for A, tz, rows in polybasis._grids(basis.degree, pts):
        for q, layer in enumerate(rows):
            out[layer] = densela._gemm(A, polybasis._contract_z(blocks, tz[:, q]))
    return out


@pytest.mark.parametrize("family", ["wam1", "wam2"])
@pytest.mark.parametrize("n", [5, 8])
def test_evaluate_on_a_mesh_is_one_block_per_layer(family, n):
    # a mesh grid has fewer xy points than N, so U = V P takes one product
    # per layer, bytes as before the row blocks
    mesh = meshgen.generate_mesh(family, n)
    basis = enumerate_basis(n)
    P = extract.transform(mesh, n, 2)
    want = _whole_layer_evaluate(basis, P, mesh.points)
    assert polybasis.evaluate(basis, P, mesh).tobytes() == want.tobytes()


def test_scan_cuts_a_layer_into_blocks_of_at_most_n_squared():
    # at n = 10 (N = 286) a 1681-point layer of the wam1 control mesh is cut
    # into 286-point blocks for K = N, in point order, with the whole
    # layer's values; below SCAN_MIN_BLOCK doubles no layer is cut
    n = 10
    ctrl = meshgen.control_mesh("wam1", n).points
    pts = ctrl[ctrl[:, 2] == ctrl[0, 2]]  # one z layer
    basis = enumerate_basis(n)
    N = len(basis)
    assert len(pts) == 1681 and N * N > polybasis.SCAN_MIN_BLOCK
    X = np.random.default_rng(5).uniform(-1, 1, (N, N))
    parts = list(polybasis.scan(basis, polybasis.z_blocks(basis, X.T), pts,
                                lambda rows, R: (rows, R.T.copy())))
    assert [len(rows) for rows, _ in parts] == [286] * 5 + [251]
    got = np.concatenate([R for _, R in parts])
    assert np.concatenate([rows for rows, _ in parts]).tolist() == list(range(len(pts)))
    np.testing.assert_allclose(got, _whole_layer_evaluate(basis, X.T, pts), rtol=0,
                               atol=1e-13 * np.abs(got).max())
    small = enumerate_basis(4)
    lens = [len(rows) for rows, _ in polybasis.scan(
        small, polybasis.z_blocks(small, np.eye(len(small))), pts, lambda rows, R: (rows, R))]
    assert lens == [1681]


def test_evaluate_with_no_columns_or_more_than_a_block():
    # K = 0: an (M, 0) array, with no product and no zero division in the
    # block rule; K above a block's doubles: one point per block
    mesh = meshgen.wam1(4)
    basis = enumerate_basis(4)
    for order in ("C", "F"):
        assert polybasis.evaluate(basis, np.empty((len(basis), 0)), mesh, order).shape == (
            mesh.cardinality, 0)
    small = enumerate_basis(1)
    C = np.random.default_rng(7).uniform(-1, 1, (len(small), polybasis.SCAN_MIN_BLOCK + 1))
    got = polybasis.evaluate(small, C, meshgen.wam1(1))
    np.testing.assert_allclose(got, vandermonde(small, meshgen.wam1(1)) @ C, rtol=0, atol=1e-14)


def test_scan_of_chunks_finds_the_grids_once(monkeypatch):
    # an iterator of chunks of X's rows is scanned chunk after chunk over
    # one evaluation of the grids: the chunks' products are the rows of the
    # whole X's, and a chunk is drawn only once the one before is done
    n = 5
    basis, pts = enumerate_basis(n), meshgen.control_mesh("wam2", n).points
    X = np.random.default_rng(6).uniform(-1, 1, (7, len(basis)))
    whole = np.empty((len(pts), 7))
    for rows, R in polybasis.scan(basis, polybasis.z_blocks(basis, X.T), pts,
                                  lambda rows, R: (rows, R.T.copy())):
        whole[rows] = R
    calls, drawn = [], []
    ridge_factors = polybasis._ridge_factors
    monkeypatch.setattr(polybasis, "_ridge_factors",
                        lambda *a: calls.append(1) or ridge_factors(*a))

    def chunks():
        for lo, hi in ((0, 4), (4, 7)):
            drawn.append(lo)
            yield polybasis.z_blocks(basis, X[lo:hi].T)

    got, seen = np.full((len(pts), 7), np.nan), []
    for lo, rows, R in polybasis.scan(basis, chunks(), pts,
                                      lambda rows, R: (drawn[-1], rows, R.T.copy())):
        got[rows, lo:lo + R.shape[1]] = R
        seen.append(lo)
    assert calls == [1] and drawn == [0, 4]
    assert seen == sorted(seen)  # every product of the first chunk comes first
    # a narrower product may round differently in the last bit
    np.testing.assert_allclose(got, whole, rtol=0, atol=1e-14 * np.abs(whole).max())


def test_vandermonde_rows_follow_the_points():
    # V is filled z layer by z layer of each tensor grid, yet row r is always
    # point r: a shuffled control mesh, and a mixed set of mesh points and
    # scattered points, give the row-permuted V bitwise
    basis = enumerate_basis(6)
    rng = np.random.default_rng(21)
    ctrl = meshgen.control_mesh("wam2", 6).points
    perm = rng.permutation(len(ctrl))
    np.testing.assert_array_equal(vandermonde(basis, ctrl[perm]).tobytes(),
                                  vandermonde(basis, ctrl)[perm].tobytes())
    r, t = np.sqrt(rng.uniform(0, 1, 300)), rng.uniform(0, 2 * np.pi, 300)
    scattered = np.column_stack([r * np.cos(t), r * np.sin(t), rng.uniform(-1, 1, 300)])
    mixed = np.concatenate([meshgen.wam1(6).points, scattered])
    perm = rng.permutation(len(mixed))
    np.testing.assert_array_equal(vandermonde(basis, mixed[perm]).tobytes(),
                                  vandermonde(basis, mixed)[perm].tobytes())
    assert vandermonde(basis, np.empty((0, 3))).shape == (0, len(basis))


@pytest.mark.parametrize("points", ["wam1", "wam2", "mixed"])
def test_fortran_order_fill_gives_the_same_bytes(points):
    # order="F" fills column by column (vandermonde) or scatters each z
    # layer into the columns of out.T (evaluate); every entry is the same
    # product or GEMM result as in C order
    n = 6
    basis = enumerate_basis(n)
    rng = np.random.default_rng(22)
    if points == "mixed":
        r, t = np.sqrt(rng.uniform(0, 1, 200)), rng.uniform(0, 2 * np.pi, 200)
        pts = np.concatenate([meshgen.wam2(n).points, np.column_stack(
            [r * np.cos(t), r * np.sin(t), rng.uniform(-1, 1, 200)])])
    else:
        pts = meshgen.generate_mesh(points, n).points
    C = rng.standard_normal((len(basis), 9))
    for build, args in ((vandermonde, (basis, pts)), (polybasis.evaluate, (basis, C, pts))):
        want, got = build(*args), build(*args, order="F")
        assert want.flags.c_contiguous and got.flags.f_contiguous
        assert got.tobytes(order="C") == want.tobytes()


@pytest.mark.parametrize("F", [1, 3])
@pytest.mark.parametrize("points", ["wam1-6", "wam2-5", "wam2-6", "nodes"])
def test_moments_are_the_transposed_vandermonde_product(points, F):
    # moments is the adjoint of evaluate over the same grids: V^T S, no V.
    # A selected node set has few points per z value, down to one per grid
    family, n = ("wam2", 5) if points == "nodes" else (points[:4], int(points[5:]))
    pts = meshgen.generate_mesh(family, n).points
    if points == "nodes":
        pts = extract.select_dlp(meshgen.wam2(n), n, 2).nodes
    basis = enumerate_basis(n)
    S = np.random.default_rng(23).standard_normal((len(pts), F))
    want = vandermonde(basis, pts).T @ S
    got = polybasis.moments(basis, pts, S)
    assert got.shape == (len(basis), F)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_moments_and_gram_on_no_points_are_zero():
    basis = enumerate_basis(3)
    np.testing.assert_array_equal(polybasis.moments(basis, np.empty((0, 3)), np.empty((0, 2))),
                                  np.zeros((len(basis), 2)))
    np.testing.assert_array_equal(polybasis.gram(basis, np.empty((0, 3))),
                                  np.zeros((len(basis), len(basis))))


def test_moments_reject_points_outside_the_cylinder():
    pts = np.array([[0.3, 0.1, -0.7], [0.0, 0.2, 0.5], [0.9, 0.5, 0.0]])  # r^2 = 1.06
    with pytest.raises(DomainError, match=r"\(row 2\)"):
        polybasis.moments(enumerate_basis(3), pts, np.ones((3, 1)))


@pytest.mark.parametrize("family,n", [("wam1", 8), ("wam2", 7), ("wam2", 8)])
def test_gram_is_exactly_symmetric(family, n):
    # both factor Gram matrices come from dsyrk and are symmetrized, so every
    # entry of G is the same product as its mirror; the Cholesky steps read
    # G.T as G in Fortran order on that account
    G = polybasis.gram(enumerate_basis(n), meshgen.generate_mesh(family, n))
    assert np.array_equal(G, G.T)


def _gram_reference(n):
    # independent exact quadrature for the weighted inner product:
    # trapezoid angles x Gauss-Legendre radius (with polar jacobian) x
    # Gauss-Chebyshev in z for the (1-z^2)^(-1/2) factor
    q = 4 * n + 8
    zk = np.cos((2 * np.arange(1, q + 1) - 1) * np.pi / (2 * q))
    wz = np.full(q, np.pi / q)
    ang = 2 * np.pi * np.arange(q) / q
    wa = np.full(q, 2 * np.pi / q)
    xr, wr = np.polynomial.legendre.leggauss(q)
    r = (xr + 1) / 2
    wr = wr / 2 * r
    R, A, Z = np.meshgrid(r, ang, zk, indexing="ij")
    W = wr[:, None, None] * wa[None, :, None] * wz[None, None, :]
    pts = np.column_stack([(R * np.cos(A)).ravel(), (R * np.sin(A)).ravel(), Z.ravel()])
    return pts, W.ravel()


def test_wade_basis_is_orthonormal():
    # Gram matrix under the rotation-invariant normalized measure
    # (1/pi^2) (1-z^2)^(-1/2) dx dy dz is the identity
    n = 6
    basis = enumerate_basis(n)
    pts, w = _gram_reference(n)
    V = vandermonde(basis, pts)
    G = (V * w[:, None]).T @ V / np.pi**2
    assert np.abs(G - np.eye(len(basis))).max() < 1e-10


def test_ridge_factor_is_trig_polynomial_on_circles():
    # on a circle of radius r, the ridge factor is a trigonometric
    # polynomial of degree <= k: 2k+2 equispaced samples determine a
    # 4x finer grid by zero-padded Fourier interpolation
    rng = np.random.default_rng(11)
    for k in (1, 2, 4, 7):
        theta = rng.integers(0, k + 1) * np.pi / (k + 1)
        r = rng.uniform(0.2, 1.0)
        m = 2 * k + 2
        phi = 2 * np.pi * np.arange(m) / m
        vals = polybasis._cheb_u_deg(
            k, np.cos(theta) * r * np.cos(phi) + np.sin(theta) * r * np.sin(phi)
        )
        spec = np.fft.rfft(vals)
        pad = np.zeros(2 * m + 1, dtype=complex)
        pad[: spec.size] = spec
        fine = np.fft.irfft(pad, 4 * m) * 4
        phi4 = 2 * np.pi * np.arange(4 * m) / (4 * m)
        direct = polybasis._cheb_u_deg(
            k, np.cos(theta) * r * np.cos(phi4) + np.sin(theta) * r * np.sin(phi4)
        )
        np.testing.assert_allclose(fine, direct, atol=1e-10)
