import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from _reference import traced_peak, transformed_vandermonde

import wamcyl
from wamcyl import densela, meshgen
from wamcyl.densela import (
    RANK_TOL,
    PivotRecord,
    _gemm,
    cond_2,
    lu_factor_checked,
    lu_row_pivot,
    qr_col_pivot,
)
from wamcyl.errors import RankDeficiencyError, SingularMatrixError
from wamcyl.polybasis import basis_size


def test_qr_identity_tie_break():
    rec = qr_col_pivot(np.eye(3))
    np.testing.assert_array_equal(rec.order, [0, 1, 2])


def test_qr_hand_computed_pivots():
    # column norms 1, 2, 3 -> first pivot 2; the residual of column 1 is
    # untouched by the first reflector, so it is picked second
    A = np.array([[1.0, 0.0, 3.0], [0.0, 2.0, 0.0]])
    rec = qr_col_pivot(A)
    assert list(rec.order[:2]) == [2, 1]
    np.testing.assert_allclose(rec.magnitudes, [3.0, 2.0])


def test_qr_row_of_ones():
    rec = qr_col_pivot(np.ones((1, 7)))
    assert rec.order[0] == 0


def test_qr_steps_limits_the_checked_pivots():
    # one greedy step per row, each checked: a rank-1 matrix is fine with
    # one row, rank-deficient with two
    A = np.outer([1.0, 2.0], [3.0, 1.0, 2.0])
    rec = qr_col_pivot(A[:1])
    assert rec.order[0] == 0
    with pytest.raises(RankDeficiencyError):
        qr_col_pivot(A)


def test_qr_requires_wide_matrix():
    with pytest.raises(ValueError):
        qr_col_pivot(np.ones((3, 2)))


@pytest.mark.parametrize("steps", [0, 2])
@pytest.mark.parametrize("n", [5, 10])
@pytest.mark.parametrize("family", ["wam1", "wam2"])
def test_qr_matches_scipy_qr_bitwise(family, n, steps):
    # the in-place dgeqp3 call with its queried workspace pivots exactly as
    # scipy.linalg.qr does: same order, same |diag R|
    U = transformed_vandermonde(meshgen.generate_mesh(family, n), n, steps)[1]
    R, piv = scipy.linalg.qr(U.T, mode="r", pivoting=True)
    rec = qr_col_pivot(U.T)
    np.testing.assert_array_equal(rec.order, piv)
    assert rec.magnitudes.tobytes() == np.abs(np.diag(R)).tobytes()


def test_qr_copies_inputs_it_cannot_factor_in_place():
    # a C-ordered matrix, a strided view and a read-only Fortran-ordered
    # matrix are copied once and left as they were; the pivots are those of
    # a Fortran-ordered copy
    rng = np.random.default_rng(2)
    read_only = np.asfortranarray(rng.standard_normal((12, 20)))
    read_only.flags.writeable = False
    for A in (rng.standard_normal((12, 20)), rng.standard_normal((40, 12)).T[:, ::2],
              read_only):
        before = A.copy()
        rec = qr_col_pivot(A)
        np.testing.assert_array_equal(A, before)
        np.testing.assert_array_equal(rec.order, qr_col_pivot(np.asfortranarray(A)).order)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pivoted_factorizations_reject_non_finite_input(bad):
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        lu_row_pivot(np.array([[bad], [1.0], [2.0]]))
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        qr_col_pivot(np.array([[1.0, bad, 2.0]]))


def test_qr_pivot_magnitudes_nonincreasing():
    rng = np.random.default_rng(0)
    for _ in range(30):
        m = rng.integers(2, 40)
        A = rng.standard_normal((m, m + rng.integers(0, 40)))
        mags = qr_col_pivot(A).magnitudes
        assert np.all(mags[1:] <= mags[:-1] * (1 + 1e-12))


def test_lu_identity_and_max_row():
    np.testing.assert_array_equal(lu_row_pivot(np.eye(4)).order, np.arange(4))
    rec = lu_row_pivot(np.array([[1.0], [-5.0], [3.0]]))
    assert rec.order[0] == 1
    assert rec.magnitudes[0] == 5.0


def test_lu_prefix_property_random():
    # pivots on a leading column block equal the leading pivots on the
    # full matrix, bitwise
    rng = np.random.default_rng(1)
    for _ in range(200):
        m = int(rng.integers(3, 51))
        n = int(rng.integers(2, min(m, 30) + 1))
        A = rng.standard_normal((m, n))
        k = int(rng.integers(1, n))
        full = lu_row_pivot(A).order[:k]
        part = lu_row_pivot(A[:, :k]).order[:k]
        np.testing.assert_array_equal(full, part)


def test_lu_singularity():
    with pytest.raises(SingularMatrixError):
        lu_row_pivot(np.zeros((3, 2)))
    A = np.ones((4, 2))  # second column dependent
    with pytest.raises(SingularMatrixError):
        lu_row_pivot(A)


def _lu_unblocked(A):
    """Reference: right-looking elimination, one rank-1 update per column,
    first-max pivot, full-row swap."""
    U = np.array(A, dtype=float)
    n_rows, n_cols = U.shape
    tol_abs = RANK_TOL * np.abs(U).max()
    perm = np.arange(n_rows)
    mags = np.empty(n_cols)
    for k in range(n_cols):
        col = np.abs(U[k:, k])
        p = k + int(np.argmax(col))
        mags[k] = col[p - k]
        if mags[k] < tol_abs:
            raise SingularMatrixError(f"pivot {mags[k]:g} below tolerance at column {k}")
        if p != k:
            U[[k, p]] = U[[p, k]]
            perm[k], perm[p] = perm[p], perm[k]
        mult = U[k + 1 :, k] / U[k, k]
        U[k + 1 :, k + 1 :] -= mult[:, None] * U[k, k + 1 :]
    return perm, mags


def test_lu_matches_unblocked_elimination():
    # widths up to basis_size(6) = 84 cross up to seven degree panels, cut
    # anywhere inside the last one
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(1, basis_size(6) + 1))
        m = int(rng.integers(n, n + 120))
        A = rng.standard_normal((m, n))
        perm, mags = _lu_unblocked(A)  # first: an (m, 1) A is factored in place
        rec = lu_row_pivot(A)
        np.testing.assert_array_equal(rec.order, perm)
        np.testing.assert_allclose(rec.magnitudes, mags, rtol=1e-12, atol=0)


def test_lu_singularity_in_a_later_panel():
    # column 12 lies in the degree-3 panel (columns 10..19), so it is
    # reached through the panel's triangular solve and GEMM
    A = np.random.default_rng(6).standard_normal((30, 20))
    A[:, 12] = A[:, 3]
    with pytest.raises(SingularMatrixError, match="at column 12$"):
        lu_row_pivot(A)


def test_lu_requires_tall_matrix():
    with pytest.raises(ValueError):
        lu_row_pivot(np.ones((2, 3)))


def _owned_u(family, n, steps):
    # a Fortran-ordered U, as select_dlp factors it
    return transformed_vandermonde(meshgen.generate_mesh(family, n), n, steps, order="F")[1]


def test_lu_factors_a_fortran_array_in_place():
    # a Fortran-ordered A is factored in its own memory with the same
    # arithmetic as a copy: the same PivotRecord bytes as the call on a
    # C-ordered copy, and no allocation but the panel temporaries (the f2py
    # copy of the last panel's 220 x 220 L block, 13% of A, is the largest)
    A = _owned_u("wam1", 10, 0)
    want = lu_row_pivot(np.ascontiguousarray(A))
    before, got = A.copy(order="F"), []
    peak = traced_peak(lambda: got.append(lu_row_pivot(A)))
    assert got[0].order.tobytes() == want.order.tobytes()
    assert got[0].magnitudes.tobytes() == want.magnitudes.tobytes()
    assert peak < 0.2 * A.nbytes
    assert not np.array_equal(A, before)  # factored where it lies


def test_lu_copies_inputs_it_cannot_factor_in_place():
    # a C-ordered matrix, a strided view and a read-only Fortran-ordered
    # matrix are copied once and left as they were; the pivots are those of
    # a Fortran-ordered copy.  A writeable Fortran-ordered matrix, an (m, 1)
    # C array (also Fortran-contiguous) included, is overwritten
    rng = np.random.default_rng(9)
    read_only = np.asfortranarray(rng.standard_normal((40, 12)))
    read_only.flags.writeable = False
    c_ordered, strided = rng.standard_normal((40, 12)), rng.standard_normal((80, 30))[::2, 3:15]
    for A in (c_ordered, strided, read_only):
        before = A.copy()
        rec = lu_row_pivot(A)
        np.testing.assert_array_equal(A, before)
        assert rec.order.tobytes() == lu_row_pivot(np.asfortranarray(A)).order.tobytes()
    for A in (np.asfortranarray(rng.standard_normal((40, 12))), rng.standard_normal((40, 1))):
        before = A.copy()
        rec = lu_row_pivot(A)
        assert not np.array_equal(A, before)
        assert rec.order.tobytes() == lu_row_pivot(before).order.tobytes()


def test_both_factorizations_overwrite_only_a_fortran_ordered_argument():
    # one rule for both, on one C-ordered mesh Vandermonde V: QR of a
    # C-ordered V^T and LU of V leave their arguments as they were, and
    # pivot like the Fortran-ordered arguments V.T (QR) and a Fortran copy
    # of V (LU), which are overwritten
    V = transformed_vandermonde(meshgen.wam2(4), 4, 0)[1]
    before, W = V.copy(), np.ascontiguousarray(V.T)
    qr, lu = qr_col_pivot(W), lu_row_pivot(V)
    np.testing.assert_array_equal(W, before.T)
    np.testing.assert_array_equal(V, before)
    F = np.asfortranarray(V)
    assert lu.order.tobytes() == lu_row_pivot(F).order.tobytes()
    assert qr.order.tobytes() == qr_col_pivot(V.T).order.tobytes()
    assert not np.array_equal(F, before)
    assert not np.array_equal(V, before)


@pytest.mark.parametrize("steps", [0, 2])
@pytest.mark.parametrize("family", ["wam1", "wam2"])
def test_direct_triangular_solves_pivot_as_solve_triangular(monkeypatch, family, steps):
    # _unit_lower_solve calls dtrtrs with the arguments that
    # scipy.linalg.solve_triangular passes it; with the wrapper put back
    # the pivots and their magnitudes are the same bytes
    U = _owned_u(family, 10, steps)
    direct = lu_row_pivot(U.copy(order="F"))  # U itself is factored below

    def wrapper(L, B):
        return scipy.linalg.solve_triangular(L, B, lower=True, unit_diagonal=True,
                                             check_finite=False)

    monkeypatch.setattr(densela, "_unit_lower_solve", wrapper)
    wrapped = lu_row_pivot(U)
    assert direct.order.tobytes() == wrapped.order.tobytes()
    assert direct.magnitudes.tobytes() == wrapped.magnitudes.tobytes()


def _lu_solve(A, B):
    return scipy.linalg.lu_solve(lu_factor_checked(A), B)


def test_solve_identity_and_diag():
    B = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(_lu_solve(np.eye(2), B), B)
    np.testing.assert_allclose(_lu_solve(np.array([[2.0]]), np.array([4.0])), [2.0])


def test_solve_reconstructs_known_solution():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((10, 10)) + 5 * np.eye(10)
    X = rng.standard_normal((10, 3))
    assert np.abs(_lu_solve(A, A @ X) - X).max() < 1e-10


def test_lu_factor_checked_singular():
    with pytest.raises(SingularMatrixError):
        lu_factor_checked(np.zeros((2, 2)))
    # nonzero, but its second pivot is zero
    with pytest.raises(SingularMatrixError):
        lu_factor_checked(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_lu_factor_checked_requires_square_matrix():
    with pytest.raises(ValueError):
        lu_factor_checked(np.ones((3, 2)))
    with pytest.raises(ValueError):
        lu_factor_checked(np.ones(3))


def test_cond_2_values():
    assert cond_2(np.eye(5)) == pytest.approx(1.0)
    assert cond_2(np.diag([1.0, 10.0])) == pytest.approx(10.0)


def test_cond_at_extracted_nodes_magnitude():
    # the reference tables' value for this configuration is 18.2; the
    # spectral condition number reproduces it; the infinity-norm one runs
    # an order of magnitude higher (12 to 63 times higher on the wam1 and
    # wam2 AFP and DLP nodes of degrees 5, 10 and 15, unpreconditioned)
    from wamcyl import extract, meshgen, polybasis

    sel = extract.select_afp(meshgen.wam1(5), 5, ortho_steps=0)
    V = polybasis.vandermonde(polybasis.enumerate_basis(5), sel.nodes)
    assert 18.2 / 3 <= cond_2(V) <= 18.2 * 3
    assert np.linalg.cond(V, np.inf) > 3 * 18.2


def test_factorizations_bit_deterministic():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((12, 20))
    r1, r2 = qr_col_pivot(A), qr_col_pivot(A.copy())
    np.testing.assert_array_equal(r1.order, r2.order)
    assert r1.magnitudes.tobytes() == r2.magnitudes.tobytes()
    B = rng.standard_normal((20, 12))
    l1, l2 = lu_row_pivot(B), lu_row_pivot(B.copy())
    np.testing.assert_array_equal(l1.order, l2.order)


def test_pivot_record_rejects_non_permutation():
    with pytest.raises(ValueError):
        PivotRecord(order=np.array([0, 0, 1]), magnitudes=np.ones(3))


def _operands(order, m=70, k=40, n=30):
    rng = np.random.default_rng(8)
    A, B = rng.standard_normal((m, k)), rng.standard_normal((k, n))
    if order == "F":
        return np.asfortranarray(A), np.asfortranarray(B)
    if order == "strided":
        return rng.standard_normal((2 * m, k + 3))[::2, 3:], rng.standard_normal((k, 3 * n))[:, ::3]
    if order == "column":
        return A, B[:, :1].copy()
    return A, B


@pytest.mark.parametrize("order", ["C", "F", "strided", "column"])
def test_gemm_matches_matmul(order):
    A, B = _operands(order)
    want = np.matmul(A, B)
    for X, Y in [(A, B), (A, np.asfortranarray(B)), (np.asfortranarray(A), B)]:
        got = _gemm(X, Y)
        assert got.flags.c_contiguous and got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    # B = A.T, a view of A, takes the symmetric path
    gram, want_gram = _gemm(A, A.T), np.matmul(A, A.T)
    np.testing.assert_array_equal(gram, gram.T)
    assert np.abs(gram - want_gram).max() <= 1e-14 * np.abs(want_gram).max()
    # a given c, C- or F-ordered, is written in place: alpha A B + beta c
    for c in (np.ones(want.shape), np.ones(want.shape, order="F")):
        assert np.shares_memory(_gemm(A, B, c, alpha=-1.0, beta=1.0), c)
        assert np.abs(c - (1.0 - want)).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("order", ["C", "F", "column"])
def test_gemm_copies_no_contiguous_operand(order):
    A, B = _operands(order, m=4000, k=300, n=200)
    out = A.shape[0] * B.shape[1] * 8
    assert traced_peak(_gemm, A, B) <= 1.05 * out
    assert traced_peak(_gemm, A, B, np.empty((len(A), B.shape[1]))) <= 0.05 * out


def _numpy_blas(tree):
    """(line, text) of each product in the tree that would run in numpy's
    BLAS: @, a .dot, .matmul, .inner, .vdot or .tensordot call, and any
    np.linalg attribute but the LinAlgError class."""
    products = {"dot", "matmul", "inner", "vdot", "tensordot"}
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in products:
            yield node.lineno, ast.unparse(node.func)
        elif (isinstance(node, ast.Attribute) and node.attr != "LinAlgError"
              and ast.unparse(node.value) in ("np.linalg", "numpy.linalg")):
            yield node.lineno, ast.unparse(node)


def test_numpy_blas_finder():
    src = """
C = A @ B
C @= A
x = np.dot(a, b) + a.dot(b) + np.tensordot(a, b)
c = np.linalg.cond(A)
try:
    pass
except np.linalg.LinAlgError:
    pass
@dataclass
class C: pass
"""
    assert sorted(line for line, _ in _numpy_blas(ast.parse(src))) == [2, 3, 4, 4, 4, 5]


def test_products_run_in_scipys_blas_only():
    # numpy and scipy each bundle an OpenBLAS with its own thread pool;
    # every product of the package goes through densela._gemm (scipy's),
    # so numpy's pool never wakes to compete for the cores.  Allowed:
    # np.linalg.LinAlgError (an exception class), and
    # np.polynomial.legendre.leggauss in cubature, which calls numpy's
    # eigvalsh for the oracle's Gauss-Legendre nodes at small levels.
    found = [f"{path.name}:{line}: {text}"
             for path in sorted(Path(wamcyl.__file__).parent.glob("*.py"))
             for line, text in _numpy_blas(ast.parse(path.read_text()))]
    assert found == []
