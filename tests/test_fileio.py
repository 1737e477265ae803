import csv
import json

import numpy as np

from wamcyl import extract, fileio, meshgen


def test_mesh_roundtrip_exact(tmp_path):
    mesh = meshgen.wam2(6)
    path = fileio.write_mesh_csv(tmp_path / "m.csv", mesh)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "z"]
    back = np.array([[float(v) for v in row] for row in rows[1:]])
    assert back.tobytes() == mesh.points.tobytes()


def test_mesh_sidecar(tmp_path):
    mesh = meshgen.wam1(3)
    fileio.write_mesh_csv(tmp_path / "m.csv", mesh)
    meta = json.loads((tmp_path / "m.json").read_text())
    assert meta == {"family": "wam1", "degree": 3, "cardinality": 64}


def test_seventeen_digits_roundtrip():
    for v in (np.pi, 1 / 3, -2.9619219587722441647, 1e-300, 0.1 + 0.2):
        assert float(fileio.fmt(v)) == v


def test_extraction_csv(tmp_path):
    sel = extract.select_afp(meshgen.wam1(4), 4)
    path = fileio.write_extraction_csv(tmp_path / "afp.csv", sel)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "z"]
    assert len(rows) - 1 == sel.count
    got = np.array([[float(v) for v in row] for row in rows[1:]])
    assert got.tobytes() == sel.nodes.tobytes()  # selection order preserved
    meta = json.loads((tmp_path / "afp.json").read_text())
    assert meta["method"] == "afp" and meta["ortho_steps"] == 2
    assert meta["mesh_family"] == "wam1" and meta["cardinality"] == sel.count


def test_results_append(tmp_path):
    path = tmp_path / "results.csv"
    fileio.append_results(path, [(5, "afp", "wam1", "lebesgue", 15.87)])
    fileio.append_results(path, [(5, "afp", "wam1", "cond_inf", 18.48)])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(fileio.RESULTS_HEADER)
    assert len(rows) == 3
    assert rows[1][3] == "lebesgue"


def test_writer_creates_the_directory(tmp_path):
    path = fileio.write_table_csv(tmp_path / "a" / "b" / "t.csv", ("n", "v"), [(5, 0.5)])
    assert path.read_text().splitlines() == ["n,v", "5,0.5"]
