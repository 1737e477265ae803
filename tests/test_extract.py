import numpy as np
import pytest
import scipy.linalg
from _reference import traced_peak, transformed_vandermonde
from scipy.linalg.blas import dtrmm
from scipy.linalg.lapack import dgeqp3, dtrtri

from wamcyl import densela, meshgen, polybasis
from wamcyl.errors import RankDeficiencyError
from wamcyl.extract import select_afp, select_dlp, select_nodes, transform
from wamcyl.meshgen import Mesh


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
@pytest.mark.parametrize("n", [1, 2, 5, 10])
@pytest.mark.parametrize("family", ["wam1", "wam2"])
def test_precondition_matches_explicit_q_reference(family, n, steps):
    # the WAMs pass the Gram error bound, the smallest meshes included
    mesh = meshgen.generate_mesh(family, n)
    V = polybasis.vandermonde(polybasis.enumerate_basis(n), mesh)
    P, U = transformed_vandermonde(mesh, n, steps)
    ref = _explicit_q_transform(V, steps)
    assert np.abs(P - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.abs(U - V @ P).max() <= 1e-13
    assert np.abs(U.T @ U - np.eye(U.shape[1])).max() <= 1e-13


def test_precondition_stays_on_the_gram_path_at_degree_20():
    # wam2 has the larger Gram error bound of the two WAMs (1.6e-13 at
    # n = 20), still far below GRAM_BOUND
    _, U = transformed_vandermonde(meshgen.wam2(20), 20, 2)
    assert np.abs(U.T @ U - np.eye(U.shape[1])).max() <= 1e-13


def _copying_cholesky_steps(mesh, n, steps):
    # the Cholesky steps out of place, every scipy call copying its input:
    # G summed whole over the grids, P = R^-1, then P <- P R^-1 with
    # R = cholesky(P^T G P)
    basis = polybasis.enumerate_basis(n)
    r, m = polybasis._factor_index(basis)
    G = np.zeros((len(basis), len(basis)))
    for A, tz, _ in polybasis._grids(n, mesh):
        G += densela._gemm(A.T, A)[np.ix_(r, r)] * densela._gemm(tz, tz.T)[np.ix_(m, m)]
    P = dtrtri(scipy.linalg.cholesky(G))[0]
    for _ in range(steps - 1):
        W = dtrmm(1.0, P, dtrmm(1.0, P, G, side=1), trans_a=1)
        P = dtrmm(1.0, dtrtri(scipy.linalg.cholesky(W))[0], P, side=1)
    return G, P


@pytest.mark.parametrize("n", [5, 8])
@pytest.mark.parametrize("family", ["wam1", "wam2"])
def test_in_place_cholesky_steps_give_the_copying_bytes(family, n):
    # gram's row blocks and the in-place factors, inverses and products are
    # the same arithmetic as the copying reference, so G and P agree bitwise
    mesh = meshgen.generate_mesh(family, n)
    for steps in (1, 2, 3):
        G, P = _copying_cholesky_steps(mesh, n, steps)
        assert polybasis.gram(polybasis.enumerate_basis(n), mesh).tobytes() == G.tobytes()
        assert transform(mesh, n, steps).tobytes() == P.tobytes()


def test_transform_holds_at_most_two_gram_sized_arrays():
    # G and P, the only N x N arrays at two steps: the first Cholesky copies
    # G, and the error bound, the later factors and products run on column
    # blocks or in place (the copying steps held five)
    N = polybasis.basis_size(10)
    assert traced_peak(transform, meshgen.wam1(10), 10, 2) < 3 * N * N * 8


@pytest.mark.parametrize("squeeze", ["z tenfold", "one repeated point"])
def test_precondition_rejects_a_mesh_the_gram_bound_cannot_certify(squeeze):
    # wam1(5) squeezed tenfold in z has Gram error bound 1.2e-5; a mesh of
    # one point repeated has a Gram matrix of rank 1.  Neither is a WAM, and
    # Cholesky steps on either would not give an orthonormal U
    if squeeze == "z tenfold":
        pts = meshgen.wam1(5).points * np.array([1.0, 1.0, 0.1])
    else:
        pts = np.tile([0.5, 0.0, 0.25], (100, 1))
    with pytest.raises(RankDeficiencyError, match="GRAM_BOUND"):
        transform(Mesh("wam1", 5, pts), 5, 2)


def test_precondition_checks_its_inputs_before_building_anything(monkeypatch):
    def unbuilt(*args):
        raise AssertionError("built a basis matrix for rejected inputs")

    for name in ("vandermonde", "gram", "evaluate"):
        monkeypatch.setattr(polybasis, name, unbuilt)
    with pytest.raises(ValueError, match="steps must be >= 0, got -1"):
        select_nodes(meshgen.wam1(5), 5, "afp", -1)
    for steps in (0, 2):
        with pytest.raises(ValueError, match="8 points cannot support 56 basis elements"):
            select_nodes(meshgen.wam1(1), 5, "dlp", steps)


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


def test_select_nodes_rejects_unknown_method(monkeypatch):
    # rejected before any basis matrix is built
    def unbuilt(*args):
        raise AssertionError("built a basis matrix for an unknown method")

    for name in ("vandermonde", "gram", "evaluate"):
        monkeypatch.setattr(polybasis, name, unbuilt)
    with pytest.raises(ValueError, match="unknown extraction method"):
        select_nodes(meshgen.wam1(2), 2, "fekete", 0)


def test_selection_holds_at_most_one_working_copy():
    # the factorizations select_nodes runs, on the 0-step U it forms: DLP
    # factors one Fortran-ordered copy of a C-ordered U, which stays intact
    # for the QR below; its largest temporary is the f2py copy of the last
    # panel's 220 x 220 L block (13% of U).
    # AFP factors an owned C-ordered U in its own memory and allocates only
    # the workspace dgeqp3 asks for.  An |LU| temporary or a copy of U
    # would add one more U.nbytes to either.
    U = transformed_vandermonde(meshgen.wam1(10), 10, 0)[1]
    assert traced_peak(densela.lu_row_pivot, U) < 1.2 * U.nbytes
    work = 8 * int(dgeqp3(U.T, lwork=-1, overwrite_a=1)[3][0])
    assert traced_peak(densela.qr_col_pivot, U.T) < work + 0.05 * U.nbytes


def test_zero_steps_form_no_transform():
    # with no P, select_nodes factors the mesh Vandermonde itself
    mesh = meshgen.wam2(4)
    assert transform(mesh, 4, 0) is None
    V = polybasis.vandermonde(polybasis.enumerate_basis(4), mesh)
    N = V.shape[1]
    np.testing.assert_array_equal(select_nodes(mesh, 4, "afp", 0).indices,
                                  densela.qr_col_pivot(V.copy().T).order[:N])  # V kept
    np.testing.assert_array_equal(select_nodes(mesh, 4, "dlp", 0).indices,
                                  densela.lu_row_pivot(V).order[:N])
    with pytest.raises(ValueError, match="steps must be >= 0"):
        transform(mesh, 4, -1)


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
    U = V @ transform(mesh, 5, 2)
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
    P, U = transformed_vandermonde(mesh, n, 2)
    for U in (V @ P, U):
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
