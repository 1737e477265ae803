import numpy as np
import pytest
from _reference import product_rule, rule_level_for_degree

from wamcyl import cubature, extract, meshgen, polybasis
from wamcyl.cubature import apply_rule, cubature_weights, moments_wade, oracle_integral
from wamcyl.errors import ConvergenceError


def test_moment_constant_is_cylinder_volume():
    b = moments_wade(0)
    assert b[0] == pytest.approx(2 * np.pi, abs=1e-14)


def test_moments_vanish_for_ridge_indices():
    basis = polybasis.enumerate_basis(8)
    b = moments_wade(8)
    for pos, (i, k, j) in enumerate(basis.indices):
        if k >= 1:
            assert b[pos] == 0.0


def test_moments_equal_the_per_index_closed_form():
    # the loop over (i, k, j) that moments_wade vectorizes, same arithmetic
    for n in (0, 1, 8, 40):
        basis = polybasis.enumerate_basis(n)
        ref = np.zeros(len(basis))
        for pos, (i, k, _) in enumerate(basis.indices):
            m = i - k
            if k == 0 and m == 0:
                ref[pos] = 2.0 * np.pi
            elif k == 0 and m % 2 == 0:
                ref[pos] = np.pi * np.sqrt(2.0) * 2.0 / (1.0 - m * m)
        assert moments_wade(n).tobytes() == ref.tobytes()


def test_moment_200_frozen():
    # oracle quadrature of sqrt(2) T_2 over the cylinder, mpmath 40 digits
    pos = polybasis.enumerate_basis(2).indices.index((2, 0, 0))
    assert moments_wade(2)[pos] == pytest.approx(-2.9619219587722441647, abs=1e-14)


def test_moments_match_quadrature_oracle():
    # closed forms against the exact product rule, degrees up to 12
    n = 12
    basis = polybasis.enumerate_basis(n)
    pts, w = product_rule(rule_level_for_degree(n))
    V = polybasis.vandermonde(basis, pts)
    quad = V.T @ w
    assert np.abs(quad - moments_wade(n)).max() <= 1e-12


def test_product_rule_weights_are_positive_and_sum_to_volume():
    pts, w = product_rule(5)
    assert np.all(w > 0)
    assert w.sum() == pytest.approx(2 * np.pi, abs=1e-13)
    r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
    assert r2.max() <= 1.0 and np.abs(pts[:, 2]).max() <= 1.0


def test_weights_degree0():
    sel = extract.select_afp(meshgen.wam1(2), 0, ortho_steps=0)
    rule = cubature_weights(sel)
    np.testing.assert_allclose(rule.weights, [2 * np.pi], atol=1e-12)


def test_weights_sum_afp_wam1_5():
    rule = cubature_weights(extract.select_afp(meshgen.wam1(5), 5))
    assert abs(rule.sum_weights - 2 * np.pi) <= 1e-10
    w = rule.weights
    assert np.abs(w).sum() / abs(w.sum()) >= 1.0  # stability ratio
    assert w.min() <= w.max()


def test_rule_integrates_random_polynomials():
    n = 5
    sel = extract.select_dlp(meshgen.wam2(n), n)
    rule = cubature_weights(sel)
    basis = polybasis.enumerate_basis(n)
    pts, w = product_rule(rule_level_for_degree(n))
    Vq = polybasis.vandermonde(basis, pts)
    Vr = polybasis.vandermonde(basis, rule.nodes)
    rng = np.random.default_rng(13)
    for _ in range(20):
        c = rng.uniform(-1, 1, len(basis))
        exact = np.dot(w, Vq @ c)  # independent product-rule integral
        got = np.dot(rule.weights, Vr @ c)
        assert abs(got - exact) <= 1e-9 * max(1.0, abs(exact))


def test_apply_rule_examples():
    sel = extract.select_afp(meshgen.wam1(4), 4)
    rule = cubature_weights(sel)
    assert apply_rule(rule, lambda x, y, z: np.ones_like(x)) == pytest.approx(
        2 * np.pi, abs=1e-10
    )
    assert abs(apply_rule(rule, lambda x, y, z: np.sqrt(2.0) * z)) <= 1e-10


def test_oracle_constant():
    got = oracle_integral(lambda x, y, z: np.ones_like(x), 1e-12)
    assert abs(got - 2 * np.pi) <= 1e-13


def test_oracle_squared_radius():
    got = oracle_integral(lambda x, y, z: x * x + y * y, 1e-12)
    assert got == pytest.approx(np.pi, abs=1e-12)


def test_oracle_smooth_function():
    # rotationally symmetric integrand: closed form via 1D radial integrals
    got = oracle_integral(lambda x, y, z: np.cos(x * x + y * y + z * z), 1e-12)
    ref = _cos_r2_reference()
    assert got == pytest.approx(ref, abs=1e-11)


def _cos_r2_reference():
    # int_K cos(x^2+y^2+z^2) = int_z int_0^1 cos(u + z^2) pi du dz
    #                        = pi * int_-1^1 [sin(1+z^2) - sin(z^2)] dz
    from scipy.integrate import quad

    val, err = quad(lambda z: np.sin(1 + z * z) - np.sin(z * z), -1.0, 1.0,
                    epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-12
    return np.pi * val


def test_oracle_budget_exhaustion(monkeypatch):
    # exact-polynomial integrand never meets a zero tolerance; the point
    # budget guard, read at call time, must trip
    monkeypatch.setattr(cubature, "ORACLE_POINT_BUDGET", 100_000)
    with pytest.raises(ConvergenceError):
        oracle_integral(lambda x, y, z: x * x, 0.0)


def test_oracle_converges_on_point_singularity():
    # distance function with an interior kink: the rule graded toward its
    # declared point reaches 1e-10 at L = 12 (0.5 s on 2 vCPUs, against 42 s
    # by level doubling); two further digits are checked against the
    # converged value
    from wamcyl import testfns

    tf = testfns.get_function("f2")
    got = oracle_integral(tf.fn, tf.oracle_tol, at=tf.singular_point)
    assert got == pytest.approx(6.771336416342, abs=1e-11)


@pytest.mark.parametrize("at", [(0.0, 0.0, 0.0), (0.4, 0.4, 0.4)])
def test_graded_oracle_exact_for_low_degree(at):
    one = oracle_integral(lambda x, y, z: np.ones_like(x), 1e-12, at=at)
    assert abs(one - 2 * np.pi) <= 1e-13
    r2 = oracle_integral(lambda x, y, z: x * x + y * y, 1e-12, at=at)
    assert r2 == pytest.approx(np.pi, abs=1e-12)


def test_graded_oracle_meets_closed_form_at_origin():
    # int_K |p|^3 = 2 pi int_-1^1 int_0^1 (rho^2 + z^2)^(3/2) rho drho dz
    #             = (4 pi / 5) int_0^1 [(1 + z^2)^(5/2) - z^5] dz
    from scipy.integrate import quad

    from wamcyl import testfns

    val, err = quad(lambda z: (1 + z * z) ** 2.5 - z**5, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-12
    ref = 4 * np.pi / 5 * val
    assert ref == pytest.approx(5.23456945697704, abs=1e-13)
    tf = testfns.get_function("f5")
    got = oracle_integral(tf.fn, tf.oracle_tol, at=tf.singular_point)
    assert abs(got - ref) <= 1e-12


def test_graded_oracle_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(cubature, "ORACLE_POINT_BUDGET", 100_000)
    with pytest.raises(ConvergenceError):
        oracle_integral(lambda x, y, z: x * x, 0.0, at=(0.4, 0.4, 0.4))


@pytest.mark.parametrize("at", [(np.nan, 0.0, 0.0), (0.0, 0.0, np.inf), (0.8, 0.8, 0.0),
                                (0.0, 0.0, 1.0 + 1e-9), (0.0, 0.0)])
def test_oracle_rejects_singular_point_outside_cylinder(at):
    def never(x, y, z):
        raise AssertionError("integrand evaluated for an invalid point")

    with pytest.raises(ValueError):
        oracle_integral(never, 1e-10, at=at)


def test_oracle_accepts_point_on_the_boundary_within_tolerance():
    at = (1.0 + 0.5 * polybasis.DOMAIN_TOL, 0.0, -1.0 - 0.5 * polybasis.DOMAIN_TOL)
    got = oracle_integral(lambda x, y, z: np.ones_like(x), 1e-12, at=at)
    assert abs(got - 2 * np.pi) <= 1e-13


def test_rule_level_exactness_bound():
    for d in (0, 1, 2, 7, 12, 13):
        level = rule_level_for_degree(d)
        assert 2 * level + 1 >= d
