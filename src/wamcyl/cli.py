"""Command-line interface: mesh generation, node extraction, metrics,
error curves, and table reproduction.

Exit codes: 0 success, 1 usage error, 2 numerical failure.  The
WAMCYL_SEED environment variable is reserved; every computation here is
deterministic and ignores it.
"""

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import approx, cubature, densela, extract, fileio, meshgen, polybasis, testfns
from .errors import WamcylError

MESH_CHOICES = ("wam1", "wam2", "disk", "padua", "cheb")
METHOD_CHOICES = ("afp", "dlp")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _parse_degrees(spec):
    """Accept '7', '5,8,12' or '5..20'."""
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            degrees = list(range(int(lo), int(hi) + 1))
        else:
            degrees = [int(tok) for tok in spec.split(",")]
    except ValueError:
        degrees = []
    if not degrees:
        raise argparse.ArgumentTypeError(
            f"invalid degree spec {spec!r}: expected 'n', 'a,b,c' or 'lo..hi' with lo <= hi"
        )
    return degrees


def _select(mesh, n, method, steps):
    if method == "afp":
        return extract.select_afp(mesh, n, steps)
    return extract.select_dlp(mesh, n, steps)


def _samples(fns, pts):
    """(m, F) values of the functions at an (m, 3) array of points."""
    return np.column_stack(
        [np.asarray(fn(pts[:, 0], pts[:, 1], pts[:, 2]), dtype=float) for fn in fns]
    )


def _single_degree(args):
    if len(args.degree) != 1:
        raise ValueError(f"{args.command} takes a single degree")
    return args.degree[0]


def cmd_gen(args):
    n = _single_degree(args)
    mesh = meshgen.generate_mesh(args.mesh, n)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = fileio.write_mesh_csv(out / f"{args.mesh}{n}.csv", mesh)
    print(f"{mesh.family} degree {mesh.degree}: {mesh.cardinality} points -> {path}")
    return 0


def cmd_extract(args):
    n = _single_degree(args)
    # a degree-0 extraction still needs a real mesh to select from
    mesh = meshgen.generate_mesh(args.mesh, max(n, 1))
    sel = _select(mesh, n, args.method, args.ortho_steps)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = fileio.write_extraction_csv(
        out / f"{args.mesh}{n}_{args.method}.csv", sel
    )
    print(f"{args.method} degree {sel.degree} from {mesh.family}: {sel.count} nodes -> {path}")
    return 0


def _meshes(family, n, mult):
    return meshgen.generate_mesh(family, n), meshgen.control_mesh(family, n, mult)


def _node_metrics(mesh, control, method, steps):
    """Lebesgue constant on the control mesh and cond_2 of the node Vandermonde."""
    n = mesh.degree
    sel = _select(mesh, n, method, steps)
    lam = approx.lebesgue_constant(sel, control)
    V = polybasis.vandermonde(polybasis.enumerate_basis(n), sel.nodes)
    return lam, densela.cond_2(V)


def _lsq_norm(mesh, control):
    """Operator norm on the control mesh of the least-squares projector."""
    proj = approx.build_lsq(mesh, mesh.degree, steps=2)
    return approx.lsq_norm(proj, eval_on=control)


def _metrics_rows(family, n, method, steps, mult):
    mesh, control = _meshes(family, n, mult)
    lam, kappa = _node_metrics(mesh, control, method, steps)
    return [
        (n, method, family, "lebesgue", lam),
        (n, method, family, "cond_inf", kappa),
        (n, "lsq", family, "lsq_norm", _lsq_norm(mesh, control)),
    ]


def _error_rows(family, n, method, steps, mult, fids, refs):
    """Interpolation, least-squares and cubature errors of every function.

    The interpolation and least-squares coefficients of all functions are
    stacked, so a single stream over the control mesh yields every sup norm.
    """
    mesh, control = _meshes(family, n, mult)
    sel = _select(mesh, n, method, steps)
    rule = cubature.cubature_weights(sel)
    fns = [testfns.get_function(fid).fn for fid in fids]
    interp = approx.interpolate(sel, _samples(fns, sel.nodes)).coefficients
    fit = approx.lsq_fit(approx.build_lsq(mesh, n, steps=2), _samples(fns, mesh.points))
    err, sup_f = approx.sup_errors(
        n, np.hstack([interp, fit]), lambda pts: np.tile(_samples(fns, pts), 2), control
    )
    rel = (err / sup_f).reshape(2, len(fns))
    rows = []
    for i, (fid, fn) in enumerate(zip(fids, fns)):
        cub_err = abs(cubature.apply_rule(rule, fn) - refs[fid]) / abs(refs[fid])
        rows.extend([
            (n, method, family, f"interp_err_{fid}", rel[0, i]),
            (n, method, family, f"lsq_err_{fid}", rel[1, i]),
            (n, method, family, f"cub_err_{fid}", cub_err),
        ])
    return rows


def _write_rows(args, row_fn, jobs):
    """Run row_fn(*job) for every job, in args.jobs processes; sort, append
    to results.csv and print the rows."""
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            parts = list(pool.map(row_fn, *zip(*jobs)))
    else:
        parts = [row_fn(*job) for job in jobs]
    rows = sorted((row for part in parts for row in part), key=lambda r: (r[0], r[1], r[3]))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = fileio.append_results(out / "results.csv", rows)
    for row in rows:
        print(f"{row[3]} n={row[0]} {row[2]}/{row[1]}: {row[4]:.6g}")
    print(f"appended {len(rows)} rows -> {path}")
    return 0


def cmd_metrics(args):
    if min(args.degree) < 1:
        raise ValueError("metrics needs degree >= 1")
    jobs = [(args.mesh, n, args.method, args.ortho_steps, args.control_mult)
            for n in args.degree]
    return _write_rows(args, _metrics_rows, jobs)


def cmd_errors(args):
    if min(args.degree) < 1:
        raise ValueError("errors needs degree >= 1")
    # oracle references do not depend on the degree: computed once, here
    tfs = {fid: testfns.get_function(fid) for fid in args.function}
    refs = {fid: cubature.oracle_integral(tf.fn, tf.oracle_tol) for fid, tf in tfs.items()}
    jobs = [(args.mesh, n, args.method, args.ortho_steps, args.control_mult,
             args.function, refs) for n in args.degree]
    return _write_rows(args, _error_rows, jobs)


_TABLE_CONFIG = {
    1: ("wam1", "afp"),
    2: ("wam2", "afp"),
    3: ("wam1", "dlp"),
    4: ("wam2", "dlp"),
}

REPRODUCE_DEGREES = [5, 10, 15, 20]
REPRODUCE_SLOW_EXTRA = [25, 30]


def cmd_reproduce(args):
    degrees = REPRODUCE_DEGREES + (REPRODUCE_SLOW_EXTRA if args.slow else [])
    # extraction without preconditioning mirrors the source experiments;
    # --ortho-steps overrides
    steps = args.ortho_steps if args.ortho_steps is not None else 0
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.table == 5:
        rows = []
        for n in degrees:
            vals = [n] + [_lsq_norm(*_meshes(family, n, args.control_mult))
                          for family in ("wam1", "wam2")]
            rows.append(vals)
            print(f"n={n}: wam1 {vals[1]:.4g}  wam2 {vals[2]:.4g}")
        path = fileio.write_table_csv(out / "table5.csv",
                                      ("n", "lsq_norm_wam1", "lsq_norm_wam2"), rows)
    else:
        family, method = _TABLE_CONFIG[args.table]
        rows = []
        for n in degrees:
            mesh, control = _meshes(family, n, args.control_mult)
            lam, kappa = _node_metrics(mesh, control, method, steps)
            rows.append((n, lam, kappa))
            print(f"n={n}: lebesgue {lam:.4g}  cond {kappa:.4g}")
        path = fileio.write_table_csv(out / f"table{args.table}.csv",
                                      ("n", "lebesgue", "cond_inf"), rows)
    print(f"table {args.table} -> {path}")
    return 0


def build_parser():
    parser = _Parser(prog="wamcyl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, method=False, scans=False, degrees="5"):
        p.add_argument("--mesh", choices=MESH_CHOICES, required=True)
        p.add_argument("--degree", type=_parse_degrees, default=_parse_degrees(degrees),
                       help="degree, list '5,10' or range '5..20'")
        if method:
            p.add_argument("--method", choices=METHOD_CHOICES, default="afp")
            p.add_argument("--ortho-steps", type=int, default=2,
                           help="orthogonalization steps for extraction (default 2)")
        if scans:
            p.add_argument("--control-mult", type=int, default=None,
                           help="override the control-mesh degree multiplier")
            p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--out", default="out")

    p = sub.add_parser("gen", help="generate a mesh CSV + JSON sidecar")
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("extract", help="extract AFP/DLP nodes to CSV")
    common(p, method=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("metrics", help="lebesgue / condition / operator norm rows")
    common(p, method=True, scans=True)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("errors", help="interpolation / least-squares / cubature errors")
    common(p, method=True, scans=True, degrees="5..20")
    p.add_argument("--function", action="append", default=None,
                   choices=sorted(testfns.REGISTRY), help="repeatable; default f3")
    p.set_defaults(func=cmd_errors)

    p = sub.add_parser("reproduce", help="reproduce a results table")
    p.add_argument("--table", type=int, choices=(1, 2, 3, 4, 5), required=True)
    p.add_argument("--slow", action="store_true", help="include degrees 25 and 30")
    p.add_argument("--ortho-steps", type=int, default=None,
                   help="extraction preconditioning steps (default 0 here)")
    p.add_argument("--control-mult", type=int, default=None)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "function", "skip") is None:
        args.function = ["f3"]
    try:
        return args.func(args)
    except WamcylError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
