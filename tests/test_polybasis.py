import numpy as np
import pytest

from wamcyl import meshgen, polybasis
from wamcyl.errors import DomainError
from wamcyl.polybasis import (
    basis_size,
    cheb_t,
    cheb_u,
    enumerate_basis,
    vandermonde,
    wade_eval,
)


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
    V = vandermonde(enumerate_basis(3), mesh)
    pos = polybasis.basis_position((1, 0, 0))
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


def test_vandermonde_block_iteration(monkeypatch):
    mesh = meshgen.wam1(12)  # 2197 points
    basis = enumerate_basis(4)
    V = vandermonde(basis, mesh)
    # an empty value budget drops the scan to its 1024-row floor
    monkeypatch.setattr(polybasis, "_BLOCK_VALUES", 0)
    parts = list(polybasis.scan(basis, np.eye(len(basis)), mesh,
                                lambda rows, R: (rows.start, R.T)))
    assert [lo for lo, _ in parts] == [0, 1024, 2048]
    np.testing.assert_array_equal(np.vstack([b for _, b in parts]), V)


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
