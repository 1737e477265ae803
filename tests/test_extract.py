import numpy as np
import pytest
import scipy.linalg

from wamcyl import densela, extract, meshgen, polybasis
from wamcyl.errors import RankDeficiencyError
from wamcyl.extract import _householder, precondition, select_afp, select_dlp, select_nodes
from wamcyl.meshgen import Mesh


def _no_householder(V, steps):
    raise AssertionError("precondition fell back to the Householder path")


def orthogonalize(V, steps):
    # the P of the Householder path: V @ P has orthonormal columns
    return _householder(V, steps)[0]


def test_orthogonalize_zero_steps_identity():
    V = np.random.default_rng(0).standard_normal((20, 5))
    P = orthogonalize(V, 0)
    np.testing.assert_array_equal(P, np.eye(5))


def test_orthogonalize_defect_two_steps():
    mesh = meshgen.wam1(5)
    V = polybasis.vandermonde(polybasis.enumerate_basis(5), mesh)
    P = orthogonalize(V, 2)
    Q = V @ P
    assert np.abs(Q.T @ Q - np.eye(56)).max() <= 1e-8


def _explicit_q_transform(V, steps):
    # the reference loop: an explicit Householder Q per step, the
    # signs made canonical (diag(R) > 0), P the product of the R^-1
    n = V.shape[1]
    P, cur = np.eye(n), V
    for _ in range(steps):
        Q, R = np.linalg.qr(cur)
        sign = np.where(np.diag(R) < 0.0, -1.0, 1.0)
        P = P @ scipy.linalg.solve_triangular(R * sign[:, None], np.eye(n))
        cur = Q * sign
    return P


@pytest.mark.parametrize("steps", [1, 2])
@pytest.mark.parametrize("n", [5, 10])
@pytest.mark.parametrize("family", ["wam1", "wam2"])
def test_precondition_matches_explicit_q_reference(family, n, steps, monkeypatch):
    # the WAMs stay on the Gram path: the Householder fallback never runs
    monkeypatch.setattr(extract, "_householder", _no_householder)
    mesh = meshgen.generate_mesh(family, n)
    V = polybasis.vandermonde(polybasis.enumerate_basis(n), mesh)
    P, U = precondition(mesh, n, steps)
    ref = _explicit_q_transform(V, steps)
    assert np.abs(P - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.abs(U - V @ P).max() <= 1e-13
    assert np.abs(U.T @ U - np.eye(U.shape[1])).max() <= 1e-13


def test_precondition_stays_on_the_gram_path_at_degree_20(monkeypatch):
    # wam2 has the larger Gram error bound of the two WAMs (1.6e-13 at
    # n = 20), still far below GRAM_BOUND
    monkeypatch.setattr(extract, "_householder", _no_householder)
    _, U = precondition(meshgen.wam2(20), 20, 2)
    assert np.abs(U.T @ U - np.eye(U.shape[1])).max() <= 1e-13


def test_precondition_falls_back_where_the_gram_matrix_is_inaccurate():
    # wam1(5) squeezed tenfold in z: cond(V^T V) is large enough that Cholesky
    # steps on V^T V leave a defect near 1e-6, so the Householder path runs
    pts = meshgen.wam1(5).points * np.array([1.0, 1.0, 0.1])
    mesh = Mesh("wam1", 5, pts)
    P, U = precondition(mesh, 5, 2)
    assert np.abs(U.T @ U - np.eye(56)).max() <= 1e-13
    V = polybasis.vandermonde(polybasis.enumerate_basis(5), mesh)
    ref_P, ref_U = _householder(V, 2)
    assert np.abs(P - ref_P).max() <= 1e-13 * np.abs(ref_P).max()
    assert np.abs(U - ref_U).max() <= 1e-13


def test_orthogonalize_accepts_graded_conditioning():
    # singular values graded from 1 to 1e-10: the first step still meets the
    # rank check, and the second brings the defect of V P down
    rng = np.random.default_rng(0)
    left, _ = np.linalg.qr(rng.standard_normal((300, 30)))
    right, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    V = (left * np.logspace(0, -10, 30)) @ right.T
    Q = V @ orthogonalize(V, 2)
    assert np.abs(Q.T @ Q - np.eye(30)).max() <= 1e-6
    V[:, 7] = V[:, 3]
    with pytest.raises(RankDeficiencyError):
        orthogonalize(V, 2)


def test_orthogonalize_orthonormal_input():
    rng = np.random.default_rng(1)
    Q, _ = np.linalg.qr(rng.standard_normal((40, 8)))
    P = orthogonalize(Q, 1)
    assert np.abs(np.abs(P) - np.eye(8)).max() < 1e-10  # up to column signs


def test_orthogonalize_negative_steps():
    with pytest.raises(ValueError):
        orthogonalize(np.eye(4), -1)


def test_orthogonalize_rank_deficient():
    V = np.ones((10, 3))
    with pytest.raises(RankDeficiencyError):
        orthogonalize(V, 1)


@pytest.mark.parametrize("family", ["wam1", "wam2"])
def test_extraction_counts_56(family):
    mesh = meshgen.generate_mesh(family, 5)
    assert select_afp(mesh, 5).count == 56
    assert select_dlp(mesh, 5).count == 56


def test_degree0_selects_first_point():
    mesh = meshgen.wam2(3)
    afp = select_afp(mesh, 0, ortho_steps=0)
    dlp = select_dlp(mesh, 0, ortho_steps=0)
    assert list(afp.indices) == [0]
    assert list(dlp.indices) == [0]
    np.testing.assert_array_equal(afp.nodes[0], mesh.points[0])


def test_select_nodes_rejects_unknown_method():
    mesh = meshgen.wam1(2)
    U = precondition(mesh, 2, 0)[1]
    with pytest.raises(ValueError, match="unknown extraction method"):
        select_nodes(mesh, 2, "fekete", U, 0)


def test_selected_vandermonde_nonsingular():
    for family in ("wam1", "wam2"):
        for n in (2, 4, 6):
            mesh = meshgen.generate_mesh(family, n)
            for sel in (select_afp(mesh, n), select_dlp(mesh, n)):
                V = polybasis.vandermonde(polybasis.enumerate_basis(n), sel.nodes)
                x = scipy.linalg.lu_solve(densela.lu_factor_checked(V), np.ones(len(V)))
                assert np.all(np.isfinite(x))
                assert np.unique(sel.indices).size == sel.count


def test_dlp_prefix_same_matrix():
    # first 35 LU pivots of the 56-column matrix equal the pivots of its
    # 35-column restriction, hence degree-4 Leja points prefix degree-5
    mesh = meshgen.wam1(5)
    V = polybasis.vandermonde(polybasis.enumerate_basis(5), mesh)
    P = orthogonalize(V, 2)
    U = V @ P
    n4 = polybasis.basis_size(4)
    full = densela.lu_row_pivot(U).order[:n4]
    part = densela.lu_row_pivot(U[:, :n4]).order[:n4]
    np.testing.assert_array_equal(full, part)


@pytest.mark.parametrize("family", ["wam1", "wam2"])
def test_dlp_prefix_every_degree_preconditioned(family):
    # the same prefix property at every degree boundary of a degree-10
    # matrix after two orthogonalization steps: on V P, and on the iterate
    # U that extraction pivots
    n = 10
    mesh = meshgen.generate_mesh(family, n)
    V = polybasis.vandermonde(polybasis.enumerate_basis(n), mesh)
    for U in (V @ orthogonalize(V, 2), precondition(mesh, n, 2)[1]):
        full = densela.lu_row_pivot(U).order
        for d in range(n):
            nd = polybasis.basis_size(d)
            part = densela.lu_row_pivot(U[:, :nd]).order[:nd]
            np.testing.assert_array_equal(full[:nd], part)


@pytest.mark.parametrize("n", [3, 5, 8, 10])
def test_dlp_degree_nesting_unpreconditioned(n):
    mesh = meshgen.wam1(5) if n <= 5 else meshgen.wam1(10)
    lo = select_dlp(mesh, n - 1, ortho_steps=0)
    hi = select_dlp(mesh, n, ortho_steps=0)
    np.testing.assert_array_equal(hi.indices[: lo.count], lo.indices)


def test_afp_set_invariant_under_mesh_shuffle():
    # tie-free random mesh: shuffling the rows permutes indices but not
    # the selected point set
    rng = np.random.default_rng(5)
    m = 300
    r = np.sqrt(rng.uniform(0, 1, m))
    phi = rng.uniform(0, 2 * np.pi, m)
    pts = np.column_stack([r * np.cos(phi), r * np.sin(phi), rng.uniform(-1, 1, m)])
    mesh = Mesh("wam1", 3, pts)  # selection does not read the family label
    base = select_afp(mesh, 3, ortho_steps=0)
    perm = rng.permutation(m)
    shuffled = Mesh("wam1", 3, pts[perm])
    other = select_afp(shuffled, 3, ortho_steps=0)
    got = {tuple(p) for p in other.nodes}
    want = {tuple(p) for p in base.nodes}
    assert got == want


def test_extraction_bit_deterministic():
    mesh = meshgen.wam2(4)
    a = select_afp(mesh, 4)
    b = select_afp(mesh, 4)
    np.testing.assert_array_equal(a.indices, b.indices)
    d1 = select_dlp(mesh, 4)
    d2 = select_dlp(mesh, 4)
    np.testing.assert_array_equal(d1.indices, d2.indices)


def test_mesh_too_small():
    with pytest.raises(ValueError, match="8 points cannot support 56 basis elements"):
        select_afp(meshgen.wam1(1), 5)
