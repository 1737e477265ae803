import weakref

import numpy as np
import pytest

from wamcyl import approx, densela, extract, meshgen, polybasis
from wamcyl.approx import (
    Interpolant,
    build_lsq,
    eval_interpolant,
    interpolate,
    lebesgue_constant,
    lsq_fit,
    lsq_norm,
    sup_errors,
)


def _values(coeffs, n, pts):
    return polybasis.vandermonde(polybasis.enumerate_basis(n), pts) @ coeffs


def test_interpolate_constant():
    sel = extract.select_afp(meshgen.wam1(3), 3)
    q = interpolate(sel, np.ones(sel.count))
    assert q.coefficients[0] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(q.coefficients[1:]).max() < 1e-12


def test_interpolate_basis_element():
    sel = extract.select_afp(meshgen.wam1(3), 3)
    samples = np.sqrt(2.0) * sel.nodes[:, 2]
    q = interpolate(sel, samples)
    pos = polybasis.basis_position((1, 0, 0))
    want = np.zeros(sel.count)
    want[pos] = 1.0
    np.testing.assert_allclose(q.coefficients, want, atol=1e-12)


@pytest.mark.parametrize("family,method", [("wam1", "afp"), ("wam2", "dlp")])
def test_interpolation_roundtrip_random(family, method):
    n = 5
    mesh = meshgen.generate_mesh(family, n)
    sel = (extract.select_afp if method == "afp" else extract.select_dlp)(mesh, n)
    rng = np.random.default_rng(8)
    c = rng.uniform(-1, 1, sel.count)
    q = interpolate(sel, _values(c, n, sel.nodes))
    assert np.abs(q.coefficients - c).max() < 1e-9 * np.abs(c).max()


def test_eval_at_own_nodes_reproduces_samples():
    sel = extract.select_dlp(meshgen.wam2(4), 4)
    rng = np.random.default_rng(9)
    samples = rng.standard_normal(sel.count)
    q = interpolate(sel, samples)
    got = eval_interpolant(q, sel.nodes)
    assert np.abs(got - samples).max() <= 1e-10 * np.abs(samples).max()


def test_constant_interpolant_everywhere():
    sel = extract.select_afp(meshgen.wam1(2), 0, ortho_steps=0)
    q = interpolate(sel, np.ones(1))
    pts = np.array([[0.3, 0.1, -0.7], [0.0, 0.0, 0.0]])
    np.testing.assert_allclose(eval_interpolant(q, pts), 1.0)


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
        ratio = meshgen.empirical_wam_ratio(family, n, num_polys=50, seed=1).max()
        assert lam <= polybasis.basis_size(n) * max(ratio, 1.0)


def test_lebesgue_blocking_invariance(monkeypatch):
    n = 3
    mesh = meshgen.wam2(n)
    sel = extract.select_afp(mesh, n)
    proj = build_lsq(mesh, n)
    ctrl = meshgen.wam2(20)  # 4631 points: one block by default
    basis = polybasis.enumerate_basis(n)
    rng = np.random.default_rng(13)
    C = rng.uniform(-1, 1, (len(basis), 4))

    def target(pts):
        return np.cos(pts @ np.arange(1.0, 13.0).reshape(3, 4))

    def scans():
        return (lebesgue_constant(sel, ctrl), lsq_norm(proj, eval_on=ctrl),
                *sup_errors(n, C, target, ctrl))

    one = scans()
    # an empty value budget drops every scan to the 1024-row floor
    monkeypatch.setattr(polybasis, "_BLOCK_VALUES", 0)
    blocks, refs, alive = [], [], []
    build = polybasis.vandermonde

    def counted(b, pts):
        V = build(b, pts)
        if np.shares_memory(pts, ctrl.points):
            # control-mesh blocks built earlier and still referenced now
            alive.append(sum(ref() is not None for ref in refs))
            blocks.append(len(pts))
            refs.append(weakref.ref(V))
        return V

    monkeypatch.setattr(polybasis, "vandermonde", counted)
    many = scans()
    assert blocks.count(1024) == 3 * 4  # per scan: four full blocks, one of 535 rows
    assert max(alive) == 0  # each block is freed before the next is built
    for a, b in zip(one, many):
        np.testing.assert_allclose(b, a, rtol=1e-12)
    # manual single-shot computation
    A = build(basis, sel.nodes)
    B = build(basis, ctrl)
    L = np.linalg.solve(A.T, B.T)
    assert one[0] == pytest.approx(np.abs(L).sum(axis=0).max(), rel=1e-12)
    f = target(ctrl.points)
    np.testing.assert_allclose(one[2], np.abs(B @ C - f).max(axis=0), rtol=1e-12)
    np.testing.assert_allclose(one[3], np.abs(f).max(axis=0), rtol=1e-12)


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
    assert lsq_norm(proj) == pytest.approx(1.0)


def test_lsq_orthonormality_defect():
    proj = build_lsq(meshgen.wam1(5), 5, steps=2)
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


def test_lsq_projector_unique_across_steps():
    # the projector is unique; extra orthogonalization steps only improve
    # conditioning (one step is the least that yields orthonormal columns)
    n = 3
    mesh = meshgen.wam1(n)
    rng = np.random.default_rng(11)
    c = rng.uniform(-1, 1, polybasis.basis_size(n))
    samples = _values(c, n, mesh.points)
    f1 = lsq_fit(build_lsq(mesh, n, steps=1), samples)
    f2 = lsq_fit(build_lsq(mesh, n, steps=2), samples)
    assert np.abs(f1 - f2).max() <= 1e-8


def test_lsq_norm_reference_magnitude():
    mesh = meshgen.wam1(5)
    proj = build_lsq(mesh, 5, steps=2)
    v = lsq_norm(proj, eval_on=meshgen.control_mesh("wam1", 5))
    assert 4.8 / 2 <= v <= 4.8 * 2
    # on its own mesh the scan is a single block; the magnitude holds there too
    assert 4.8 / 2 <= lsq_norm(proj) <= 4.8 * 2


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
        C_hat = densela.solve(V_nodes, V_nodes @ C)
        V_ctrl = polybasis.vandermonde(polybasis.enumerate_basis(n), ctrl)
        err = np.abs(V_ctrl @ (C_hat - C)).max(axis=0)
        scale = np.abs(V_ctrl @ C).max(axis=0)
        assert (err <= 1e-9 * scale).all()
