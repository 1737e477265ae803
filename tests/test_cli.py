import csv
import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from _reference import traced_peak, transformed_vandermonde

import wamcyl
from wamcyl import approx, cubature, densela, extract, fileio, meshgen, polybasis, testfns
from wamcyl.cli import DegreeRun, _parse_degrees, main
from wamcyl.errors import SingularMatrixError


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_gen_wam1(tmp_path, capsys):
    assert main(["gen", "--mesh", "wam1", "--degree", "5", "--out", str(tmp_path)]) == 0
    rows = _csv_rows(tmp_path / "wam15.csv")
    assert len(rows) - 1 == 216
    assert "216" in capsys.readouterr().out


def test_gen_wam2(tmp_path):
    assert main(["gen", "--mesh", "wam2", "--degree", "6", "--out", str(tmp_path)]) == 0
    assert len(_csv_rows(tmp_path / "wam26.csv")) - 1 == 172


def test_extract_counts(tmp_path):
    args = ["extract", "--mesh", "wam1", "--degree", "5", "--out", str(tmp_path)]
    assert main(args + ["--method", "afp"]) == 0
    assert len(_csv_rows(tmp_path / "wam15_afp.csv")) - 1 == 56
    assert main(args + ["--method", "dlp"]) == 0
    assert len(_csv_rows(tmp_path / "wam15_dlp.csv")) - 1 == 56


def test_extract_degree0(tmp_path):
    assert main(["extract", "--mesh", "wam2", "--degree", "0", "--method", "afp",
                 "--ortho-steps", "0", "--out", str(tmp_path)]) == 0
    assert len(_csv_rows(tmp_path / "wam20_afp.csv")) - 1 == 1


@pytest.mark.parametrize("method", ["afp", "dlp"])
@pytest.mark.parametrize("family,n", [("wam1", 0), ("wam2", 0), ("wam1", 4), ("wam2", 4)])
def test_extract_writes_the_library_selection(tmp_path, family, n, method):
    # the command selects through select_afp or select_dlp; the files are
    # those of the library call on the degree max(n, 1) mesh, at 0 steps,
    # at 1 (neither 0 nor approx.LSQ_STEPS) and at 2
    select = extract.select_afp if method == "afp" else extract.select_dlp
    for steps in (0, 1, 2):
        cli, lib = tmp_path / f"cli{steps}", tmp_path / f"lib{steps}"
        assert main(["extract", "--mesh", family, "--degree", str(n), "--method", method,
                     "--ortho-steps", str(steps), "--out", str(cli)]) == 0
        sel = select(meshgen.generate_mesh(family, max(n, 1)), n, steps)
        lib.mkdir()
        fileio.write_extraction_csv(lib / f"{family}{n}_{method}.csv", sel)
        for suffix in (".csv", ".json"):
            name = f"{family}{n}_{method}{suffix}"
            assert (cli / name).read_bytes() == (lib / name).read_bytes()


def test_usage_error_exits_1(capsys):
    for argv in (["gen", "--mesh", "moebius", "--degree", "3"],
                 ["metrics", "--mesh", "wam2", "--degree", "10..5"],
                 ["metrics", "--mesh", "wam2", "--degree", "3,,4"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "'10..5'" in err and "'3,,4'" in err
    # nonsensical counts are rejected at parse time, naming the flag
    for argv in (["extract", "--ortho-steps", "-1"], ["errors", "--ortho-steps", "-5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--mesh", "wam2", "--degree", "3"])
        assert exc.value.code == 1
        assert "argument --ortho-steps:" in capsys.readouterr().err
    # every command runs its degrees in one process: there is no --jobs; the
    # control mesh follows its schedule, and the tables extract at 0 steps
    for argv in (["metrics", "--mesh", "wam2", "--degree", "3", "--jobs", "2"],
                 ["errors", "--mesh", "wam2", "--degree", "3", "--control-mult", "6"],
                 ["reproduce", "--table", "1", "--ortho-steps", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def test_module_entry_point_exit_codes(tmp_path):
    # `python -m wamcyl` passes main's exit code to the shell
    src = str(Path(wamcyl.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "wamcyl", *argv, "--out", str(tmp_path)],
                              env=env, capture_output=True, text=True).returncode

    assert run("extract", "--mesh", "wam1", "--degree", "2") == 0
    assert (tmp_path / "wam12_afp.csv").exists()
    assert run("extract", "--mesh", "moebius", "--degree", "2") == 1  # exits in argparse
    assert run("extract", "--mesh", "wam1", "--degree", "5,6") == 1  # main returns 1


def test_errors_checks_degrees_before_any_oracle(tmp_path, monkeypatch):
    def oracle(*args, **kwargs):
        raise AssertionError("oracle reference computed for a rejected degree")

    monkeypatch.setattr(cubature, "oracle_integral", oracle)
    code = main(["errors", "--mesh", "wam1", "--degree", "0", "--out", str(tmp_path)])
    assert code == 1


def test_errors_hands_each_declared_point_to_the_oracle(tmp_path, monkeypatch):
    real, seen = cubature.oracle_integral, {}

    def oracle(f, tol, at=None):
        seen[f] = at
        return real(f, tol, at=at)

    monkeypatch.setattr(cubature, "oracle_integral", oracle)
    code = main(["errors", "--mesh", "wam2", "--degree", "2", "--method", "afp",
                 "--function", "f5", "--function", "f3", "--out", str(tmp_path)])
    assert code == 0
    assert seen == {testfns.get_function("f5").fn: (0.0, 0.0, 0.0),
                    testfns.get_function("f3").fn: None}


def test_degree_list_rejected_by_single_degree_commands(tmp_path):
    for cmd in (["gen"], ["extract", "--method", "afp"]):
        for spec in ("5,6", "5..6"):
            code = main(cmd + ["--mesh", "wam1", "--degree", spec, "--out", str(tmp_path)])
            assert code == 1
    assert not list(tmp_path.iterdir())


def test_wam_factors_are_invalid_mesh_choices(tmp_path, capsys):
    # the disk, Padua and Lobatto sets are factors of the WAMs, not meshes:
    # every command rejects them as usage errors before running
    for command in ("gen", "extract", "metrics", "errors"):
        for family in ("disk", "padua", "cheb"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--mesh", family, "--degree", "3", "--out", str(tmp_path)])
            assert exc.value.code == 1
            assert f"argument --mesh: invalid choice: '{family}'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_numerical_failure_exits_2(tmp_path, capsys, monkeypatch):
    # a library stage that raises a WamcylError is a numerical failure
    def singular(*args, **kwargs):
        raise SingularMatrixError("zero pivot")

    monkeypatch.setattr(densela, "lu_row_pivot", singular)
    code = main(["extract", "--mesh", "wam1", "--degree", "3", "--method", "dlp",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "numerical failure: zero pivot" in capsys.readouterr().err


def test_metrics_rows(tmp_path, capsys):
    code = main(["metrics", "--mesh", "wam2", "--degree", "5", "--method", "afp",
                 "--ortho-steps", "0", "--out", str(tmp_path)])
    assert code == 0
    rows = _csv_rows(tmp_path / "results.csv")
    assert rows[0] == ["n", "method", "mesh", "quantity", "value"]
    by_q = {r[3]: float(r[4]) for r in rows[1:]}
    assert set(by_q) == {"lebesgue", "cond_inf", "lsq_norm"}
    assert 19 / 2 <= by_q["lebesgue"] <= 19 * 2
    assert 19.4 / 2 <= by_q["cond_inf"] <= 19.4 * 2
    assert 7.2 / 2 <= by_q["lsq_norm"] <= 7.2 * 2
    # each row is the library quantity computed on its own
    mesh, control = meshgen.wam2(5), meshgen.control_mesh("wam2", 5)
    sel = extract.select_afp(mesh, 5, ortho_steps=0)
    V = polybasis.vandermonde(polybasis.enumerate_basis(5), sel.nodes)
    assert by_q["lebesgue"] == pytest.approx(approx.lebesgue_constant(sel, control), rel=1e-12)
    assert by_q["cond_inf"] == pytest.approx(densela.cond_2(V), rel=1e-12)
    lsq = approx.lsq_norm(approx.build_lsq(mesh, 5), eval_on=control)
    assert by_q["lsq_norm"] == pytest.approx(lsq, rel=1e-12)


@pytest.mark.parametrize("family", ["wam1", "wam2"])
def test_afp_selection_leaves_the_shared_projector_intact(tmp_path, family):
    # at approx.LSQ_STEPS steps selection and least squares share the
    # projector's P; AFP forms its own U = V P from it and factors U in
    # place, so P, the q it gives and the LSQ norm taken after the
    # selection are those of a fresh projector
    run = DegreeRun(family, 5, "afp", approx.LSQ_STEPS)
    q = run.projector.q.tobytes()
    run.selection
    assert run.projector.q.tobytes() == q
    assert main(["metrics", "--mesh", family, "--method", "afp", "--degree", "5",
                 "--out", str(tmp_path)]) == 0
    got = {r[3]: float(r[4]) for r in _csv_rows(tmp_path / "results.csv")[1:]}
    proj = approx.build_lsq(meshgen.generate_mesh(family, 5), 5)
    assert got["lsq_norm"] == approx.lsq_norm(proj, meshgen.control_mesh(family, 5))


@pytest.mark.parametrize("steps", [0, approx.LSQ_STEPS])
@pytest.mark.parametrize("method", ["afp", "dlp"])
def test_extract_holds_one_m_by_n_array(tmp_path, method, steps):
    # `extract` copies no U: AFP factors a C-ordered U and DLP a
    # Fortran-ordered one, each in its own memory, so beside U there are
    # only the panel temporaries or the QR workspace, and at 2 steps the
    # projector's N x N transform P, alive throughout, and the scan's
    # z-grouped copy of it, alive with U while the scan forms U (the peak)
    n = 10
    P, U = transformed_vandermonde(meshgen.wam1(n), n, steps)
    bound = 1.5 * U.nbytes + (0 if P is None else P.nbytes)
    argv = ["extract", "--mesh", "wam1", "--degree", str(n), "--method", method,
            "--ortho-steps", str(steps), "--out", str(tmp_path)]
    assert traced_peak(main, argv) < bound
    assert (tmp_path / f"wam1{n}_{method}.csv").exists()


@pytest.mark.parametrize("method", ["afp", "dlp"])
@pytest.mark.parametrize("family", ["wam1", "wam2"])
def test_extract_selects_the_nodes_of_the_shared_projector(tmp_path, family, method):
    # `extract` selects through DegreeRun, as `metrics` and `errors` do: at
    # approx.LSQ_STEPS steps from the projector's P, so the same U and the
    # same nodes, and P (so q) is left intact
    n = 10
    assert main(["extract", "--mesh", family, "--degree", str(n), "--method", method,
                 "--ortho-steps", str(approx.LSQ_STEPS), "--out", str(tmp_path / "cli")]) == 0
    run = DegreeRun(family, n, method, approx.LSQ_STEPS)
    q = run.projector.q.tobytes()
    (tmp_path / "shared").mkdir()
    name = f"{family}{n}_{method}.csv"
    fileio.write_extraction_csv(tmp_path / "shared" / name, run.selection)
    assert run.projector.q.tobytes() == q
    assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "shared" / name).read_bytes()


@pytest.mark.parametrize("method", ["afp", "dlp"])
def test_shared_step_selection_holds_one_m_by_n_array(method):
    # at approx.LSQ_STEPS the selection forms its own U = V P from the
    # projector's P, in the order its factorization overwrites, and copies
    # no Q: beside U there are only N x N arrays (P, its z blocks, the
    # projector's Gram steps) and the factorization's temporaries
    n = 10
    run = DegreeRun("wam1", n, method, approx.LSQ_STEPS)
    U_nbytes = meshgen.wam1(n).cardinality * polybasis.basis_size(n) * 8
    assert traced_peak(lambda: run.selection) < 1.9 * U_nbytes


def _blake(pts):
    pts = np.asarray(getattr(pts, "points", pts))
    return hashlib.blake2b(pts.tobytes(), digest_size=16).hexdigest()


def test_pipeline_builds_each_stage_once_per_degree(tmp_path, monkeypatch):
    # per degree under the default --ortho-steps 2: no mesh Vandermonde (the
    # preconditioner works from the mesh's tensor grids) and no Vandermonde
    # ever rebuilt, one transform P (extract.transform) shared by selection
    # and least squares, one LU of the node Vandermonde, two passes over
    # the mesh (U = V P for the selection, then the least-squares pass:
    # the moments V^T S of the fit in `errors`, counted as a scan, or the
    # scan that forms V P P^T for the operator norm in `metrics`; no M x N
    # array is kept between them) and the control passes: `metrics`
    # scans the control mesh for the Lebesgue constant and the orbit
    # representatives for the LSQ norm, or the control mesh again where
    # no isometry verifies (wam2 at odd n = 3); `errors` makes one
    # control pass
    built, counts = {}, {}
    vandermonde, transform = polybasis.vandermonde, extract.transform
    lu_factor_checked, scan = densela.lu_factor_checked, polybasis.scan
    moments = polybasis.moments

    def counted_vandermonde(basis, pts):
        key = (_blake(pts), basis.degree)
        built[key] = built.get(key, 0) + 1
        return vandermonde(basis, pts)

    def counter(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def counted_scan(basis, X, pts, *args, **kwargs):
        key = _blake(pts)
        assert key in passes, ("scan over a point set that is neither mesh, control mesh nor "
                               "its orbit representatives")
        counts[passes[key]] += 1
        return scan(basis, X, pts, *args, **kwargs)

    def counted_moments(basis, pts, S):
        # the fit's pass over the mesh counts as a scan of it
        assert passes.get(_blake(pts)) == "mesh_scan", "moments over a point set other than a mesh"
        counts["mesh_scan"] += 1
        return moments(basis, pts, S)

    monkeypatch.setattr(polybasis, "vandermonde", counted_vandermonde)
    monkeypatch.setattr(extract, "transform", counter("ortho", transform))
    monkeypatch.setattr(densela, "lu_factor_checked", counter("lu", lu_factor_checked))
    monkeypatch.setattr(polybasis, "scan", counted_scan)
    monkeypatch.setattr(polybasis, "moments", counted_moments)
    degrees = (2, 3)
    for argv, control_scans, rep_scans in (
            (["metrics", "--mesh", "wam2", "--method", "afp"], 3, 1),
            (["errors", "--mesh", "wam1", "--method", "dlp", "--function", "f3",
              "--function", "f6"], 2, 0)):
        built.clear()
        counts.update(ortho=0, lu=0, mesh_scan=0, control_scan=0, rep_scan=0)
        meshes = [meshgen.generate_mesh(argv[2], n) for n in degrees]
        controls = [meshgen.control_mesh(argv[2], n) for n in degrees]
        passes = {_blake(m): "mesh_scan" for m in meshes}
        passes.update({_blake(c): "control_scan" for c in controls})
        reduced = [meshgen.orbit_representatives(m, c).rows for m, c in zip(meshes, controls)]
        passes.update({_blake(c.points[rows]): "rep_scan"
                       for c, rows in zip(controls, reduced) if rows.size < c.cardinality})
        assert [rows.size < c.cardinality for c, rows in zip(controls, reduced)] == (
            [True, False] if argv[2] == "wam2" else [True, True])
        assert main(argv + ["--degree", "2,3", "--out", str(tmp_path)]) == 0
        assert not any((_blake(m), m.degree) in built for m in meshes)
        assert len(built) == 2 and max(built.values()) == 1  # the nodes of each degree
        assert counts == {"ortho": 2, "lu": 2, "mesh_scan": 4, "control_scan": control_scans,
                          "rep_scan": rep_scans}


def test_control_scans_build_no_control_vandermonde(tmp_path, monkeypatch):
    # the control scans contract through the tensor grids of the control mesh
    # and the 2-step preconditioner through those of the mesh, so the only
    # Vandermonde a run builds is on rows of its own mesh: the selected nodes
    built = []
    vandermonde = polybasis.vandermonde

    def recorded(basis, pts):
        built.append(np.asarray(getattr(pts, "points", pts)))
        return vandermonde(basis, pts)

    monkeypatch.setattr(polybasis, "vandermonde", recorded)
    for argv in (["metrics", "--mesh", "wam2", "--method", "afp"],
                 ["errors", "--mesh", "wam1", "--method", "dlp", "--function", "f3",
                  "--function", "f6"]):
        built.clear()
        assert main(argv + ["--degree", "2,3", "--out", str(tmp_path)]) == 0
        own = {row.tobytes() for n in (2, 3) for row in meshgen.generate_mesh(argv[2], n).points}
        assert len(built) == 2  # per degree: its nodes
        assert all(row.tobytes() in own for pts in built for row in pts)


def test_reproduce_builds_only_what_its_table_needs(tmp_path, monkeypatch):
    import wamcyl.cli as cli

    monkeypatch.setattr(cli, "REPRODUCE_DEGREES", [3])
    transform = extract.transform

    def forbidden(*args, **kwargs):
        raise AssertionError("stage built for a table that does not use it")

    def no_lsq(mesh, n, steps):
        # tables 1-4 extract with zero steps; only a projector orthogonalizes
        if steps:
            forbidden()
        return transform(mesh, n, steps)

    with monkeypatch.context() as m:
        m.setattr(extract, "transform", no_lsq)
        assert main(["reproduce", "--table", "3", "--out", str(tmp_path)]) == 0
    with monkeypatch.context() as m:
        m.setattr(densela, "qr_col_pivot", forbidden)
        m.setattr(densela, "lu_row_pivot", forbidden)
        assert main(["reproduce", "--table", "5", "--out", str(tmp_path)]) == 0


def test_reproduce_tables_format_the_metrics_numbers(tmp_path, monkeypatch):
    # one pipeline: the table cells are the metrics rows of the same runs
    import wamcyl.cli as cli

    monkeypatch.setattr(cli, "REPRODUCE_DEGREES", [3, 5])
    for table in ("2", "5"):
        assert main(["reproduce", "--table", table, "--out", str(tmp_path)]) == 0
    for mesh in ("wam1", "wam2"):
        assert main(["metrics", "--mesh", mesh, "--method", "afp", "--ortho-steps", "0",
                     "--degree", "3,5", "--out", str(tmp_path / mesh)]) == 0
    value = {(mesh, r[0], r[3]): r[4] for mesh in ("wam1", "wam2")
             for r in _csv_rows(tmp_path / mesh / "results.csv")[1:]}
    degrees = ["3", "5"]
    assert _csv_rows(tmp_path / "table2.csv")[1:] == [
        [n, value["wam2", n, "lebesgue"], value["wam2", n, "cond_inf"]] for n in degrees]
    assert _csv_rows(tmp_path / "table5.csv")[1:] == [
        [n, value["wam1", n, "lsq_norm"], value["wam2", n, "lsq_norm"]] for n in degrees]


@pytest.mark.parametrize("command", [["metrics"], ["errors", "--function", "f3"]])
def test_zero_step_vandermonde_freed_before_lsq_preconditioning(tmp_path, monkeypatch, command):
    # a 0-step selection factors the mesh Vandermonde itself, so that U is
    # freed once the nodes are chosen, before the least-squares projector
    # orthogonalizes on the mesh (extract.transform)
    vandermonde, transform, zero_step = polybasis.vandermonde, extract.transform, []

    def watched(basis, pts, order="C"):
        V = vandermonde(basis, pts, order)
        if len(V) > V.shape[1]:  # a mesh's, not the square node Vandermonde
            zero_step.append(weakref.ref(V))
        return V

    def checked(mesh, n, steps):
        if steps >= 1:
            assert all(ref() is None for ref in zero_step), "a 0-step U is still alive"
        return transform(mesh, n, steps)

    monkeypatch.setattr(polybasis, "vandermonde", watched)
    monkeypatch.setattr(extract, "transform", checked)
    assert main(command + ["--mesh", "wam2", "--method", "afp", "--ortho-steps", "0",
                           "--degree", "3,4", "--out", str(tmp_path)]) == 0
    assert len(zero_step) == 2


def test_repeated_degrees_run_once(tmp_path):
    assert _parse_degrees("5,3,5") == [3, 5]
    assert _parse_degrees("4..6") == [4, 5, 6]
    assert main(["metrics", "--mesh", "wam2", "--method", "afp", "--ortho-steps", "0",
                 "--degree", "3,3", "--out", str(tmp_path)]) == 0
    rows = _csv_rows(tmp_path / "results.csv")[1:]
    assert sorted(r[3] for r in rows) == ["cond_inf", "lebesgue", "lsq_norm"]


def test_errors_const1(tmp_path):
    code = main(["errors", "--mesh", "wam2", "--degree", "3", "--method", "afp",
                 "--function", "const1", "--out", str(tmp_path)])
    assert code == 0
    rows = _csv_rows(tmp_path / "results.csv")
    vals = {r[3]: float(r[4]) for r in rows[1:]}
    assert vals["interp_err_const1"] <= 1e-13
    assert vals["cub_err_const1"] <= 1e-12
    assert vals["lsq_err_const1"] <= 1e-12


def test_errors_rows_match_per_function_formula(tmp_path):
    # the fused control-mesh stream reproduces, per function, the sup norm
    # of the evaluated interpolant and least-squares fit minus the function
    n, fids = 4, ["f1", "f3", "f6"]
    argv = ["errors", "--mesh", "wam1", "--degree", str(n), "--method", "dlp",
            "--out", str(tmp_path)]
    for fid in fids:
        argv += ["--function", fid]
    assert main(argv) == 0
    got = {r[3]: float(r[4]) for r in _csv_rows(tmp_path / "results.csv")[1:]}
    mesh = meshgen.wam1(n)
    control = meshgen.control_mesh("wam1", n)
    sel = extract.select_dlp(mesh, n)
    proj = approx.build_lsq(mesh, n)
    for fid in fids:
        fn = testfns.get_function(fid).fn
        truth = fn(*control.points.T)
        scale = np.abs(truth).max()
        interp = approx.interpolate(sel, fn(*sel.nodes.T))
        fit = approx.lsq_fit(proj, fn(*mesh.points.T))
        for tag, c in (("interp", interp), ("lsq", fit)):
            est = polybasis.evaluate(polybasis.enumerate_basis(n), c[:, None], control)[:, 0]
            want = np.abs(est - truth).max() / scale
            assert got[f"{tag}_err_{fid}"] == pytest.approx(want, rel=1e-12)


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--mesh", "wam2", "--degree", "7", "--out", str(a)]) == 0
    assert main(["gen", "--mesh", "wam2", "--degree", "7", "--out", str(b)]) == 0
    assert (a / "wam27.csv").read_bytes() == (b / "wam27.csv").read_bytes()
    assert (a / "wam27.json").read_bytes() == (b / "wam27.json").read_bytes()


def test_reproduce_writes_tables(tmp_path, monkeypatch):
    import wamcyl.cli as cli

    # trim the degree list for a smoke run; the full degrees run in the
    # acceptance suite and from the command line
    monkeypatch.setattr(cli, "REPRODUCE_DEGREES", [3, 5])
    assert main(["reproduce", "--table", "1", "--out", str(tmp_path)]) == 0
    rows = _csv_rows(tmp_path / "table1.csv")
    assert rows[0] == ["n", "lebesgue", "cond_inf"]
    assert [r[0] for r in rows[1:]] == ["3", "5"]
    lam5, cond5 = float(rows[2][1]), float(rows[2][2])
    assert 17 / 2 <= lam5 <= 17 * 2 and 18.2 / 2 <= cond5 <= 18.2 * 2
    assert main(["reproduce", "--table", "5", "--out", str(tmp_path)]) == 0
    rows5 = _csv_rows(tmp_path / "table5.csv")
    assert rows5[0] == ["n", "lsq_norm_wam1", "lsq_norm_wam2"]
    assert 7.2 / 2 <= float(rows5[2][2]) <= 7.2 * 2
