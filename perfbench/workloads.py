"""Workload definitions and per-cell result checks.

A workload is a list of `wamcyl` CLI commands (one pass) plus a check that
turns the pass's output directory into pass/fail verdicts per result cell.
The seed only reorders commands (and the functions of `error-curves`); the
program always receives ordinary CLI arguments.  All three workloads are
closed loop with a single caller: each command starts when the previous
one returns.

Checks run in the pass's child process after the timed region and import
the library under test, so they must only read its output files and call
its public API.
"""

import csv
import math
import random
from pathlib import Path

# criterion 4 (tests/test_acceptance.py TABLE_TARGETS): AFP Lebesgue constants
LEBESGUE_TARGETS = {("wam1", 5): 17.0, ("wam1", 10): 83.0,
                    ("wam2", 5): 19.0, ("wam2", 10): 76.0}
# criterion 5 (tests/test_acceptance.py): LSQ operator norms on control meshes
LSQ_NORM_TARGETS = {("wam1", 5): 4.8, ("wam1", 10): 10.2,
                    ("wam2", 5): 7.2, ("wam2", 10): 15.3}

NAMES = ("leja-extract", "control-scan", "error-curves")
EXTRACT_MESHES = ("wam1", "wam2")
EXTRACT_DEGREES = (5, 10, 15)
EXTRACT_METHODS = ("afp", "dlp")
SCAN_DEGREES = (5, 10, 12)
ERROR_DEGREES = (5, 10, 15)
# f2 is left out: its oracle alone needs level 1024 (about 36 s) and would
# swamp every other layer
ERROR_FUNCTIONS = ("f1", "f3", "f5", "f6")
MONOTONE_FUNCTIONS = ("f3", "f6")


def _degrees(ds):
    return ",".join(str(d) for d in ds)


def commands(name, seed):
    """Ordered (command key, argv without --out) list for one pass."""
    rng = random.Random(f"{name}:{seed}")
    if name == "leja-extract":
        cmds = [((mesh, n, method),
                 ["extract", "--mesh", mesh, "--degree", str(n), "--method", method])
                for mesh in EXTRACT_MESHES for n in EXTRACT_DEGREES
                for method in EXTRACT_METHODS]
    elif name == "control-scan":
        cmds = [((mesh,),
                 ["metrics", "--mesh", mesh, "--method", "afp", "--ortho-steps", "0",
                  "--degree", _degrees(SCAN_DEGREES)])
                for mesh in EXTRACT_MESHES]
    elif name == "error-curves":
        fids = list(ERROR_FUNCTIONS)
        rng.shuffle(fids)
        argv = ["errors", "--mesh", "wam2", "--method", "afp", "--ortho-steps", "0",
                "--degree", _degrees(ERROR_DEGREES)]
        for fid in fids:
            argv += ["--function", fid]
        cmds = [(("wam2",), argv)]
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(cmds)
    return cmds


def cells(name, key):
    """Result cells one command of the workload produces."""
    if name == "leja-extract":
        return [key]
    if name == "control-scan":
        return [(key[0], n) for n in SCAN_DEGREES]
    return [(n, fid) for n in ERROR_DEGREES for fid in ERROR_FUNCTIONS]


def _read_results(path):
    """{(n, method, mesh, quantity): value} from a results.csv."""
    out = {}
    if not path.exists():
        return out
    with path.open(newline="") as fh:
        for row in csv.DictReader(fh):
            out[(int(row["n"]), row["method"], row["mesh"], row["quantity"])] = float(row["value"])
    return out


def _finite(v):
    return v is not None and math.isfinite(v)


def _check_leja(out, key):
    # imported here so that run.py, which only needs the command lists,
    # never loads numpy or the library
    import numpy as np
    from wamcyl import cubature, densela, extract, meshgen, polybasis

    mesh_name, n, method = key
    path = out / f"{mesh_name}{n}_{method}.csv"
    if not path.exists():
        return f"missing {path.name}"
    nodes = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    basis = polybasis.enumerate_basis(n)
    if nodes.shape != (len(basis), 3):
        return f"{nodes.shape[0]} nodes, dim P_{n} = {len(basis)}"
    if not np.all(np.isfinite(nodes)):
        return "non-finite node"
    mesh = meshgen.generate_mesh(mesh_name, n)
    index = {row.tobytes(): i for i, row in enumerate(mesh.points)}
    idx = [index.get(row.tobytes()) for row in nodes]
    if any(i is None for i in idx):
        return "node not a row of the generated mesh"
    if len(set(idx)) != len(idx):
        return "repeated node"
    densela.lu_factor_checked(polybasis.vandermonde(basis, nodes))
    sel = extract.ExtractionResult(method=method, degree=n, ortho_steps=2,
                                   mesh_family=mesh_name, indices=np.array(idx),
                                   nodes=nodes)
    dev = abs(cubature.cubature_weights(sel).sum_weights - 2 * math.pi)
    if not dev <= 1e-10:
        return f"cubature weights sum off 2pi by {dev:.2e}"
    return None


def _within2(v, target):
    return _finite(v) and 0.5 * target <= v <= 2.0 * target


def _check_scan(results, mesh_name, n):
    vals = {q: results.get((n, m, mesh_name, q))
            for m, q in (("afp", "lebesgue"), ("afp", "cond_inf"), ("lsq", "lsq_norm"))}
    for q, v in vals.items():
        if not (_finite(v) and v > 0):
            return f"{q} missing or not finite positive"
    key = (mesh_name, n)
    if key in LEBESGUE_TARGETS and not _within2(vals["lebesgue"], LEBESGUE_TARGETS[key]):
        return f"lebesgue {vals['lebesgue']:.4g} not within 2x of {LEBESGUE_TARGETS[key]}"
    if key in LSQ_NORM_TARGETS and not _within2(vals["lsq_norm"], LSQ_NORM_TARGETS[key]):
        return f"lsq_norm {vals['lsq_norm']:.4g} not within 2x of {LSQ_NORM_TARGETS[key]}"
    return None


def _monotone3(seq):
    # criterion 6: each step may rise by at most a factor 3, and the curve
    # must end below where it starts
    return all(b <= 3.0 * a for a, b in zip(seq, seq[1:])) and seq[-1] < seq[0]


def _check_errors(results):
    verdicts = {}
    for n in ERROR_DEGREES:
        for fid in ERROR_FUNCTIONS:
            vals = [results.get((n, "afp", "wam2", f"{tag}_err_{fid}"))
                    for tag in ("interp", "lsq", "cub")]
            ok = all(_finite(v) for v in vals)
            verdicts[(n, fid)] = None if ok else "error missing or not finite"
    for fid in MONOTONE_FUNCTIONS:
        for tag in ("interp", "cub"):
            seq = [results.get((n, "afp", "wam2", f"{tag}_err_{fid}")) for n in ERROR_DEGREES]
            if all(_finite(v) for v in seq) and not _monotone3(seq):
                for n in ERROR_DEGREES:
                    verdicts[(n, fid)] = verdicts[(n, fid)] or f"{tag}_err_{fid} not decreasing"
    return verdicts


def check(name, out, done):
    """{cell: None or failure reason} for one pass.

    `done` maps each command key to its exit code; a nonzero code fails
    every cell of that command.
    """
    out = Path(out)
    results = _read_results(out / "results.csv")
    verdicts = {}
    if name == "error-curves":
        verdicts.update(_check_errors(results))
    for key, code in done.items():
        for cell in cells(name, key):
            if code != 0:
                verdicts[cell] = f"exit code {code}"
            elif name == "leja-extract":
                try:
                    verdicts[cell] = _check_leja(out, cell)
                except Exception as exc:  # a failed check is a failed cell
                    verdicts[cell] = f"check raised {exc!r}"
            elif name == "control-scan":
                verdicts[cell] = _check_scan(results, *cell)
    return verdicts
