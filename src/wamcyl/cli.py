"""Command-line interface: mesh generation, node extraction, metrics,
error curves, and table reproduction.

Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

import argparse
import sys
from functools import cached_property
from pathlib import Path

import numpy as np

from . import approx, cubature, densela, extract, fileio, meshgen, testfns
from .errors import WamcylError

METHOD_CHOICES = ("afp", "dlp")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _parse_degrees(spec):
    """Accept '7', '5,8,12' or '5..20'; the distinct degrees, ascending."""
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
    return sorted(set(degrees))


def _samples(fns, pts):
    """(m, F) values of the functions at an (m, 3) array of points."""
    return np.column_stack(
        [np.asarray(fn(pts[:, 0], pts[:, 1], pts[:, 2]), dtype=float) for fn in fns]
    )


def _at_least(lo):
    """argparse type: an integer >= lo."""

    def integer(text):
        value = int(text)  # argparse reports a ValueError as an invalid integer
        if value < lo:
            raise argparse.ArgumentTypeError(f"expected an integer >= {lo}, got {value}")
        return value

    return integer


def _single_degree(args):
    if len(args.degree) != 1:
        raise ValueError(f"{args.command} takes a single degree")
    return args.degree[0]


def cmd_gen(args):
    n = _single_degree(args)
    mesh = meshgen.generate_mesh(args.mesh, n)
    path = fileio.write_mesh_csv(Path(args.out) / f"{args.mesh}{n}.csv", mesh)
    print(f"{mesh.family} degree {mesh.degree}: {mesh.cardinality} points -> {path}")
    return 0


def cmd_extract(args):
    n = _single_degree(args)
    sel = DegreeRun(args.mesh, n, args.method, args.ortho_steps).selection
    path = fileio.write_extraction_csv(Path(args.out) / f"{args.mesh}{n}_{args.method}.csv", sel)
    print(f"{args.method} degree {sel.degree} from {sel.mesh_family}: {sel.count} nodes -> {path}")
    return 0


class DegreeRun:
    """One degree of one mesh family, each stage built on first use and at
    most once; the pipeline behind every command but `gen`.  The selection
    is one call of extract.select_afp or select_dlp, which forms and
    factors U = V P, the only M x N array it holds, freed once the nodes
    are chosen; when selection and projector both take approx.LSQ_STEPS
    steps it passes the projector's P.  The selection holds the one LU of
    its node Vandermonde."""

    def __init__(self, family, degree, method="afp", ortho_steps=0):
        self.family, self.degree, self.method = family, degree, method
        self.ortho_steps = ortho_steps

    @cached_property
    def mesh(self):
        # a degree-0 selection still needs a real mesh to select from
        return meshgen.generate_mesh(self.family, max(self.degree, 1))

    @cached_property
    def projector(self):
        return approx.build_lsq(self.mesh, self.degree)

    @cached_property
    def selection(self):
        # looked up now, not at import: a tracer swaps the module attributes
        select = {"afp": extract.select_afp, "dlp": extract.select_dlp}[self.method]
        P = self.projector.transform if self.ortho_steps == approx.LSQ_STEPS else None
        return select(self.mesh, self.degree, self.ortho_steps, P)

    @cached_property
    def control(self):
        return meshgen.control_mesh(self.family, self.degree)

    def node_metrics(self):
        """Lebesgue constant and 2-norm condition number of the selection."""
        sel = self.selection
        return approx.lebesgue_constant(sel, self.control), densela.cond_2(sel.vandermonde)

    def lsq_norm(self):
        return approx.lsq_norm(self.projector, self.control)

    def metrics_rows(self):
        n, method, family = self.degree, self.method, self.family
        lam, kappa = self.node_metrics()
        return [
            (n, method, family, "lebesgue", lam),
            (n, method, family, "cond_inf", kappa),
            (n, "lsq", family, "lsq_norm", self.lsq_norm()),
        ]

    def error_rows(self, refs):
        """Interpolation, least-squares and cubature errors of the functions
        in refs, which maps function ids to reference integrals.

        The interpolation and least-squares coefficients of all functions
        are stacked, so a single stream over the control mesh yields every
        sup norm.
        """
        n, method, family, sel = self.degree, self.method, self.family, self.selection
        fns = [testfns.get_function(fid).fn for fid in refs]
        rule = cubature.cubature_weights(sel)
        interp = approx.interpolate(sel, _samples(fns, sel.nodes))
        fit = approx.lsq_fit(self.projector, _samples(fns, self.mesh.points))
        err, sup_f = approx.sup_errors(n, np.hstack([interp, fit]),
                                       lambda pts: np.tile(_samples(fns, pts), 2), self.control)
        rel = (err / sup_f).reshape(2, len(fns))
        rows = []
        for i, (fid, fn) in enumerate(zip(refs, fns)):
            cub_err = abs(cubature.apply_rule(rule, fn) - refs[fid]) / abs(refs[fid])
            rows.extend([
                (n, method, family, f"interp_err_{fid}", rel[0, i]),
                (n, method, family, f"lsq_err_{fid}", rel[1, i]),
                (n, method, family, f"cub_err_{fid}", cub_err),
            ])
        return rows


def _runs(args):
    """The DegreeRun of every degree, each built as it is consumed."""
    if min(args.degree) < 1:
        raise ValueError(f"{args.command} needs degree >= 1")
    return (DegreeRun(args.mesh, n, args.method, args.ortho_steps) for n in args.degree)


def _write_rows(args, row_fn, runs):
    """Run row_fn(run) for every DegreeRun as it is consumed, so a finished
    degree is freed before the next is built; sort, append to results.csv
    and print the rows."""
    rows = sorted((row for run in runs for row in row_fn(run)), key=lambda r: (r[0], r[1], r[3]))
    path = fileio.append_results(Path(args.out) / "results.csv", rows)
    for row in rows:
        print(f"{row[3]} n={row[0]} {row[2]}/{row[1]}: {row[4]:.6g}")
    print(f"appended {len(rows)} rows -> {path}")
    return 0


def cmd_metrics(args):
    return _write_rows(args, DegreeRun.metrics_rows, _runs(args))


def cmd_errors(args):
    runs = _runs(args)  # checks the degrees before any oracle runs
    # oracle references do not depend on the degree: computed once, here
    tfs = {fid: testfns.get_function(fid) for fid in args.function or ["f3"]}
    refs = {fid: cubature.oracle_integral(tf.fn, tf.oracle_tol, at=tf.singular_point)
            for fid, tf in tfs.items()}
    return _write_rows(args, lambda run: run.error_rows(refs), runs)


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
    if args.table == 5:
        header, line = ("n", "lsq_norm_wam1", "lsq_norm_wam2"), "n={}: wam1 {:.4g}  wam2 {:.4g}"

        def values(n):  # each family's run lives only while its norm is taken
            return [DegreeRun(family, n).lsq_norm() for family in ("wam1", "wam2")]
    else:
        header, line = ("n", "lebesgue", "cond_inf"), "n={}: lebesgue {:.4g}  cond {:.4g}"
        family, method = _TABLE_CONFIG[args.table]

        def values(n):  # 0 steps: extraction from V itself mirrors the source experiments
            return DegreeRun(family, n, method, ortho_steps=0).node_metrics()
    rows = []
    for n in degrees:
        rows.append((n, *values(n)))
        print(line.format(*rows[-1]))
    path = fileio.write_table_csv(Path(args.out) / f"table{args.table}.csv", header, rows)
    print(f"table {args.table} -> {path}")
    return 0


def build_parser():
    parser = _Parser(prog="wamcyl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, method=False, degrees="5"):
        p.add_argument("--mesh", choices=meshgen.FAMILIES, required=True)
        p.add_argument("--degree", type=_parse_degrees, default=_parse_degrees(degrees),
                       help="degree, list '5,10' or range '5..20'")
        if method:
            p.add_argument("--method", choices=METHOD_CHOICES, default="afp")
            p.add_argument("--ortho-steps", type=_at_least(0), default=2,
                           help="orthogonalization steps for extraction (default 2)")
        p.add_argument("--out", default="out")

    p = sub.add_parser("gen", help="generate a mesh CSV + JSON sidecar")
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("extract", help="extract AFP/DLP nodes to CSV")
    common(p, method=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("metrics", help="lebesgue / condition / operator norm rows")
    common(p, method=True)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("errors", help="interpolation / least-squares / cubature errors")
    common(p, method=True, degrees="5..20")
    p.add_argument("--function", action="append", default=None,
                   choices=sorted(testfns.REGISTRY), help="repeatable; default f3")
    p.set_defaults(func=cmd_errors)

    p = sub.add_parser("reproduce", help="reproduce a results table")
    p.add_argument("--table", type=int, choices=(1, 2, 3, 4, 5), required=True)
    p.add_argument("--slow", action="store_true", help="include degrees 25 and 30")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
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
