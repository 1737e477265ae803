"""CSV / JSON emission for meshes, nodes, tables and results.

All floating-point fields are written with 17 significant digits, which
round-trips IEEE doubles exactly.  Every file goes through one writer,
which also creates its directory; the public writers hold the formats:
headers and sidecar schemas.
"""

import csv
import json
from pathlib import Path

RESULTS_HEADER = ("n", "method", "mesh", "quantity", "value")


def fmt(x):
    return format(float(x), ".17g")


def _write(path, header, rows, meta=None, mode="w"):
    """Write rows under header, floats through fmt and the header only when
    the file starts empty; write meta to a JSON sidecar when given.  The
    directory is created first, with its parents."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open(mode, newline="") as fh:
        w = csv.writer(fh)
        if fh.tell() == 0:
            w.writerow(header)
        for row in rows:
            w.writerow([fmt(v) if isinstance(v, float) else v for v in row])
    if meta is not None:
        path.with_suffix(".json").write_text(json.dumps(meta, indent=2) + "\n")
    return path


def write_mesh_csv(path, mesh):
    meta = {"family": mesh.family, "degree": mesh.degree, "cardinality": mesh.cardinality}
    return _write(path, ("x", "y", "z"), mesh.points, meta)


def write_extraction_csv(path, result):
    meta = {
        "method": result.method,
        "degree": result.degree,
        "mesh_family": result.mesh_family,
        "ortho_steps": result.ortho_steps,
        "cardinality": result.count,
    }
    return _write(path, ("x", "y", "z"), result.nodes, meta)


def append_results(path, rows):
    """Append (n, method, mesh, quantity, value) rows, writing the header
    when the file is new."""
    return _write(path, RESULTS_HEADER, rows, mode="a")


def write_table_csv(path, header, rows):
    return _write(path, header, rows)
