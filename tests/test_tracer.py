"""Smoke test of the benchmark's span tracer (perfbench/spans.py) against
the current library: it records shape-derived work from the positional
arguments of some functions, so a signature drift there would crash every
traced benchmark pass."""

import importlib.util
from pathlib import Path

from wamcyl import approx, cli, extract, meshgen

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_runs_cli_commands(tmp_path):
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        base = ["--mesh", "wam2", "--degree", "3", "--ortho-steps", "0", "--out", str(tmp_path)]
        assert cli.main(["extract", "--method", "dlp"] + base) == 0
        assert cli.main(["metrics", "--method", "afp"] + base) == 0
        assert cli.main(["errors", "--method", "afp", "--function", "f1"] + base) == 0
        # the functions whose arguments the tracer unpacks, called as the
        # library documents them
        mesh, control = meshgen.wam2(3), meshgen.control_mesh("wam2", 3)
        approx.lebesgue_constant(extract.select_afp(mesh, 3), control)
        approx.lsq_norm(approx.build_lsq(mesh, 3), eval_on=control)
    finally:
        tracer.uninstall()
    assert tracer.spans
    assert not [s[2] for s in tracer.spans if s[5]]
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["cli.calls"] > 0 and metrics["approx.lebesgue_constant.self_s"] > 0
    # `extract` selects through select_dlp, whose spans key the cells
    assert "dlp wam2:3" in spans.cells(tracer.spans)


def test_tracer_records_the_metrics_norm_spans(tmp_path):
    # `metrics` on its own: its Lebesgue constant and LSQ norm come from the
    # library calls the tracer keys its per-layer metrics on
    spans = _load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["metrics", "--mesh", "wam1", "--method", "afp", "--degree", "3",
                         "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    assert not [s[2] for s in tracer.spans if s[5]]
    for name in ("approx.lebesgue_constant", "approx.lsq_norm"):
        recorded = [s for s in tracer.spans if s[2] == name]
        assert len(recorded) == 1 and recorded[0][6]
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["approx.lebesgue_constant.self_s"] > 0
    assert metrics["approx.lsq_norm.self_s"] > 0 and metrics["approx.lsq_norm.gflop_per_s"] > 0
    # the 2-step selection passes the projector's P to select_afp, whose
    # span keys the extraction cell
    assert "afp wam1:3" in spans.cells(tracer.spans)
