"""wamcyl benchmark: three CLI workloads, checked, timed end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload leja-extract --seed 1 --seconds 40 --trace 0

Each pass of a workload runs in a fresh child process (perfbench/child.py)
that imports wamcyl from ./src, warms up, runs the workload's commands
through `wamcyl.cli.main(argv)` one after another, and checks every result
cell afterwards, untimed.  Passes run one at a time until the next one
would overrun --seconds (at least one).  Extra set-up-only children make
up SETUP_SAMPLES set-up measurements.

--trace 0 prints the end-to-end metrics: wall_s (median seconds per pass,
set-up excluded), setup_s (median seconds from child start to the end of
`import wamcyl` plus one warm-up extraction), peak_rss_mb (median peak RSS
of a pass child).  fail_ratio is printed with them; it is not in the JSON
metrics because it is 0 on correct code.

--trace 1 runs one untraced pass, then traced passes, and prints per-layer
metrics from spans recorded around every public function of each wamcyl
module (perfbench/spans.py), plus the tracing overhead.  There is a single
caller and no queue, so no layer waits: no waiting time is reported.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A result file with the
environment record goes to .bench_out/results/.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 7
# a run must end within 180 s; children still running at this point are killed
RUN_LIMIT_S = 170.0
# per-layer self times must sum to the traced pass time within this share;
# the rest is the pass loop between commands
SELF_SUM_SLACK = 0.01

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "self_s": "s", "cpu_s": "s",
         "untraced_wall_s": "s", "gflop_per_s": "GFLOP/s", "mentries_per_s": "Mentries/s",
         "bytes": "bytes", "points": "count", "entries": "count", "calls": "count",
         "errors": "count", "blas_threads": "count"}


def _unit(name):
    return UNITS.get(name.rsplit(".", 1)[-1], "ratio")


def _child(spec, workdir, tag, deadline):
    """Run one child; returns (report or None, seconds from start to ready)."""
    spec = dict(spec, report=os.path.join(workdir, f"{tag}.report.json"),
                out=os.path.join(workdir, tag))
    log_path = os.path.join(workdir, f"{tag}.log")
    argv = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)]
    with open(log_path, "w") as log:
        t0 = time.monotonic()
        with subprocess.Popen(argv, stdout=log) as proc:
            try:
                code = proc.wait(timeout=max(1.0, deadline - t0))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                if proc.poll() is None:
                    proc.kill()
    if code != 0 or not os.path.exists(spec["report"]):
        print(f"child {tag} ended with code {code}; log {log_path}", file=sys.stderr)
        return None, None
    with open(spec["report"]) as fh:
        report = json.load(fh)
    if os.path.realpath(report["wamcyl"]) != os.path.realpath(
            os.path.join("src", "wamcyl", "__init__.py")):
        sys.exit(f"child imported wamcyl from {report['wamcyl']}, not ./src")
    return report, report["ready"] - t0


def _describe(name, values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return (f"{name}: median {med:.6g} {_unit(name)} "
            f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")


def _passes(spec, workdir, seconds, tag, traced, deadline):
    """Passes until the next would overrun `seconds`; at least one.

    Returns (reports, set-up seconds per pass, passes lost to a crash)."""
    start = time.monotonic()
    reports, setups = [], []
    while True:
        report, setup = _child(dict(spec, mode="pass", trace=traced), workdir,
                               f"{tag}{len(reports)}", deadline)
        if report is None:
            return reports, setups, 1
        reports.append(report)
        setups.append(setup)
        now = time.monotonic()
        per_pass = (now - start) / len(reports)
        if now - start + per_pass > seconds or now + per_pass > deadline:
            return reports, setups, 0


def _failures(name, reports, lost):
    """(attempted, failed) cells; a lost pass fails all of its cells."""
    per_pass = sum(len(workloads.cells(name, key)) for key, _ in workloads.commands(name, 0))
    attempted = per_pass * (len(reports) + lost)
    for r in reports:
        for cell, why in r["failures"].items():
            print(f"FAILED {name} {cell}: {why}", file=sys.stderr)
    return attempted, attempted - sum(r["passed"] for r in reports)


def run_untraced(spec, workdir, seconds, deadline):
    reports, setups, lost = _passes(spec, workdir, seconds, "pass", False, deadline)
    while len(setups) < SETUP_SAMPLES and time.monotonic() < deadline:
        _, setup = _child(dict(spec, mode="setup"), workdir, f"setup{len(setups)}", deadline)
        if setup is None:
            break
        setups.append(setup)
    attempted, failed = _failures(spec["workload"], reports, lost)
    samples = {"wall_s": [r["wall_s"] for r in reports],
               "setup_s": setups,
               "peak_rss_mb": [r["peak_rss_mb"] for r in reports]}
    metrics = {}
    for name, values in samples.items():
        if values:
            print(_describe(name, values))
            metrics[name] = statistics.median(values)
    print(f"fail_ratio: {failed / attempted:.6g} ratio ({failed} of {attempted} cells)")
    return reports, attempted, failed, metrics, {"samples": samples}


def run_traced(spec, workdir, seconds, deadline):
    start = time.monotonic()
    base, _ = _child(dict(spec, mode="pass", trace=False), workdir, "untraced", deadline)
    traced, _, lost = _passes(spec, workdir, seconds - (time.monotonic() - start),
                              "traced", True, deadline)
    reports = ([base] if base else []) + traced
    attempted, failed = _failures(spec["workload"], reports, lost + (base is None))
    if base is None or not traced:
        return reports, attempted, max(failed, 1), {}, {}
    metrics = {key: statistics.median(r["layers"][key] for r in traced)
               for key in traced[0]["layers"]}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    self_sum = statistics.median(r["self_sum_s"] / r["wall_s"] for r in traced)
    metrics.update({
        "proc.cpu_s": base["cpu_s"],
        "proc.blas_threads": base["env"]["blas_threads_numpy"] or 0,
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": base["wall_s"],
        "trace.overhead_ratio": traced_wall / base["wall_s"],
        "trace.self_sum_ratio": self_sum,
    })
    print(f"traced wall {traced_wall:.4g} s against untraced {base['wall_s']:.4g} s "
          f"(overhead ratio {traced_wall / base['wall_s']:.4f}); self times cover "
          f"{self_sum:.4f} of the traced pass (slack {SELF_SUM_SLACK})")
    top = sorted(((v, k) for k, v in metrics.items()
                  if k.endswith(".self_s") and k.count(".") == 2 and v > 0), reverse=True)
    for v, k in top[:8]:
        print(f"  {k}: {v:.4g} s ({100 * v / traced_wall:.1f}% of the traced pass)")
    cells = traced[0]["cells"]
    for cell, secs in sorted(cells.items()):
        print(f"  cell {cell}: {secs:.4g} s inclusive")
    detail = {"extraction_cells_s": cells,
              "self_sum_ok": 1.0 - SELF_SUM_SLACK <= self_sum <= 1.0 + 1e-9}
    return reports, attempted, failed, metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "wamcyl", "cli.py")):
        print("no wamcyl sources at ./src/wamcyl; run from the root of a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = os.path.join(".bench_out", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    spec = {"workload": args.workload, "seed": args.seed}
    run = run_traced if args.trace else run_untraced
    reports, attempted, failed, metrics, detail = run(spec, workdir, args.seconds, deadline)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "attempted": attempted, "failed": failed,
              "env": reports[0]["env"] if reports else None, "metrics": metrics,
              "failures": [r["failures"] for r in reports], **detail}
    os.makedirs(os.path.join(".bench_out", "results"), exist_ok=True)
    path = os.path.join(".bench_out", "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    spans_path = os.path.join(workdir, "traced0", "spans.json")
    if os.path.exists(spans_path):
        shutil.move(spans_path, path.replace(".json", ".spans.json"))
    shutil.rmtree(workdir, ignore_errors=True)
    print(f"result file: {path}")

    complete = bool(metrics) and all(math.isfinite(v) for v in metrics.values())
    print(json.dumps({"correct": failed == 0 and complete and detail.get("self_sum_ok", True),
                      "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
