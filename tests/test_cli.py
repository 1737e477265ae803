import csv
import json

import numpy as np
import pytest

from wamcyl import approx, extract, meshgen, testfns
from wamcyl.cli import main


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_gen_wam1(tmp_path, capsys):
    assert main(["gen", "--mesh", "wam1", "--degree", "5", "--out", str(tmp_path)]) == 0
    rows = _csv_rows(tmp_path / "wam15.csv")
    assert len(rows) - 1 == 216
    assert "216" in capsys.readouterr().out


def test_gen_wam2_and_cheb(tmp_path):
    assert main(["gen", "--mesh", "wam2", "--degree", "6", "--out", str(tmp_path)]) == 0
    assert len(_csv_rows(tmp_path / "wam26.csv")) - 1 == 172
    assert main(["gen", "--mesh", "cheb", "--degree", "2", "--out", str(tmp_path)]) == 0
    assert len(_csv_rows(tmp_path / "cheb2.csv")) - 1 == 3


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


def test_usage_error_exits_1(capsys):
    for argv in (["gen", "--mesh", "moebius", "--degree", "3"],
                 ["metrics", "--mesh", "wam2", "--degree", "10..5"],
                 ["metrics", "--mesh", "wam2", "--degree", "3,,4"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "'10..5'" in err and "'3,,4'" in err


def test_degree_list_rejected_by_single_degree_commands(tmp_path):
    for cmd in (["gen"], ["extract", "--method", "afp"]):
        for spec in ("5,6", "5..6"):
            code = main(cmd + ["--mesh", "wam1", "--degree", spec, "--out", str(tmp_path)])
            assert code == 1
    assert not list(tmp_path.iterdir())


def test_degree_too_large_is_usage_error(tmp_path):
    code = main(["extract", "--mesh", "cheb", "--degree", "5", "--out", str(tmp_path)])
    assert code == 1


def test_numerical_failure_exits_2(tmp_path, capsys):
    # a flat disk mesh cannot support the z-dependent basis element
    code = main(["extract", "--mesh", "disk", "--degree", "1", "--out", str(tmp_path)])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


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
        q = approx.interpolate(sel, fn(*sel.nodes.T))
        fit = approx.Interpolant(degree=n, nodes=sel.nodes,
                                 coefficients=approx.lsq_fit(proj, fn(*mesh.points.T)))
        for tag, p in (("interp", q), ("lsq", fit)):
            want = np.abs(approx.eval_interpolant(p, control) - truth).max() / scale
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


def test_jobs_flag_parses(tmp_path):
    code = main(["metrics", "--mesh", "wam2", "--degree", "3", "--method", "dlp",
                 "--jobs", "1", "--ortho-steps", "0", "--out", str(tmp_path)])
    assert code == 0


def test_parallel_jobs_match_serial(tmp_path):
    serial, parallel = tmp_path / "s", tmp_path / "p"
    base = ["metrics", "--mesh", "wam2", "--degree", "2,3", "--method", "afp",
            "--ortho-steps", "0"]
    assert main(base + ["--jobs", "1", "--out", str(serial)]) == 0
    assert main(base + ["--jobs", "2", "--out", str(parallel)]) == 0
    assert (serial / "results.csv").read_bytes() == (parallel / "results.csv").read_bytes()
    errors = ["errors", "--mesh", "wam1", "--degree", "2,3", "--method", "dlp",
              "--function", "f3", "--function", "const1"]
    assert main(errors + ["--jobs", "1", "--out", str(serial / "e")]) == 0
    assert main(errors + ["--jobs", "2", "--out", str(parallel / "e")]) == 0
    assert ((serial / "e" / "results.csv").read_bytes()
            == (parallel / "e" / "results.csv").read_bytes())
