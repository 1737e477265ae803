"""Spans around the public functions of each wamcyl module.

`Tracer.install()` swaps every public function of the layer modules for a
wrapper that records a span (name, start, end, parent span) plus a few
shape-derived work counts; `Tracer.uninstall()` puts the originals back.
Nothing in the library changes: calls between modules go through module
attributes, so a swapped attribute sees every cross-module call and the
intra-module calls that look the name up as a global.

Spans stay in memory and are written out once, at the end of the traced
run.  `layer_metrics` turns them into per-layer self times and counts.
"""

import hashlib
import importlib
import inspect
import os
import time
from dataclasses import replace

LAYERS = ("meshgen", "polybasis", "densela", "extract", "approx", "cubature",
          "testfns", "fileio", "cli")

# per-point or per-value helpers whose cost is below the tracer's own; their
# time stays in the calling span
SKIP = {"polybasis.basis_position", "polybasis.basis_size", "polybasis.cheb_t",
        "polybasis.cheb_u", "polybasis.wade_eval", "testfns.eval_test", "fileio.fmt"}


def _points(obj):
    return getattr(obj, "points", obj)


def _work(name, args, kwargs, result):
    """Shape-derived work figures recorded on a span."""
    if name == "polybasis.vandermonde":
        basis, mesh = args[0], args[1]
        pts = _points(mesh)
        key = hashlib.blake2b(pts.tobytes(), digest_size=16).hexdigest()
        return {"m": int(pts.shape[0]), "n": len(basis), "key": f"{key}:{basis.degree}"}
    if name in ("densela.lu_row_pivot", "densela.qr_col_pivot"):
        m, n = args[0].shape
        return {"m": int(max(m, n)), "n": int(min(m, n))}
    if name == "extract.orthogonalize":
        m, n = args[0].shape
        steps = args[1] if len(args) > 1 else kwargs["steps"]
        return {"m": int(m), "n": int(n), "steps": int(steps)}
    if name == "approx.lebesgue_constant":
        nodes, control = args
        return {"n": int(nodes.nodes.shape[0]), "mc": int(_points(control).shape[0])}
    if name == "approx.lsq_norm":
        proj = args[0]
        on = kwargs.get("eval_on", args[1] if len(args) > 1 else None)
        on = proj.mesh if on is None else on
        m, n = proj.q.shape
        return {"m": int(m), "n": int(n), "mc": int(_points(on).shape[0])}
    if name in ("extract.select_afp", "extract.select_dlp"):
        return {"cell": f"{args[0].family}:{args[1]}"}
    if name.startswith("meshgen.") and hasattr(result, "cardinality"):
        return {"points": int(result.cardinality)}
    if name.startswith("testfns.") and hasattr(args[0], "shape"):
        return {"points": int(args[0].size)}
    return None


def _file_bytes(path):
    total = 0
    for p in (path, os.path.splitext(path)[0] + ".json"):
        try:
            total += os.path.getsize(p)
        except OSError:
            pass
    return total


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []  # [id, parent, name, start, end, error, work]
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        is_file = name.startswith("fileio.write") or name == "fileio.append_results"

        def traced(*args, **kwargs):
            before = _file_bytes(os.fspath(args[0])) if is_file else 0
            span = [len(spans), stack[-1][0] if stack else -1, name, 0.0, 0.0, False, None]
            spans.append(span)
            stack.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[4] = clock()
                stack.pop()
            span[6] = _work(name, args, kwargs, result)
            if is_file:
                span[6] = {"bytes": _file_bytes(os.fspath(result)) - before}
            return result

        return traced

    def _swap(self, obj, attr, value):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        for layer in LAYERS:
            mod = importlib.import_module(f"wamcyl.{layer}")
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in SKIP or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or inspect.isgeneratorfunction(fn)):
                    continue
                self._swap(mod, attr, self._wrap(name, fn))
            if layer == "testfns":
                # the test functions are reached through the registry, not
                # through module attributes
                wrapped = {fid: replace(tf, fn=self._wrap(f"testfns.{fid}", tf.fn))
                           for fid, tf in mod.REGISTRY.items()}
                self._swap(mod, "REGISTRY", wrapped)

    def uninstall(self):
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)


def _gflops(flop, seconds):
    return flop / seconds / 1e9 if seconds > 0 else 0.0


def layer_metrics(spans):
    """Per-layer metrics of one traced pass.

    Self time is a span's duration minus that of its direct children
    (spans nest: the pass is single-threaded).  Flop figures are computed
    from shapes, not counted.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[1] >= 0:
            child[s[1]] += s[4] - s[3]
    self_t = [s[4] - s[3] - child[s[0]] for s in spans]

    def fn_self(name):
        return sum(self_t[s[0]] for s in spans if s[2] == name)

    def fn_spans(name):
        return [s for s in spans if s[2] == name]

    m = {}
    for layer in LAYERS:
        mine = [s for s in spans if s[2].split(".", 1)[0] == layer]
        m[f"{layer}.calls"] = len(mine)
        m[f"{layer}.self_s"] = sum(self_t[s[0]] for s in mine)
        m[f"{layer}.errors"] = sum(1 for s in mine if s[5])

    lu = fn_spans("densela.lu_row_pivot")
    m["densela.lu_row_pivot.calls"] = len(lu)
    m["densela.lu_row_pivot.self_s"] = fn_self("densela.lu_row_pivot")
    m["densela.lu_row_pivot.gflop_per_s"] = _gflops(
        sum(w["m"] * w["n"] ** 2 - w["n"] ** 3 / 3 for w in (s[6] for s in lu) if w),
        m["densela.lu_row_pivot.self_s"])
    qr = fn_spans("densela.qr_col_pivot")
    m["densela.qr_col_pivot.self_s"] = fn_self("densela.qr_col_pivot")
    m["densela.qr_col_pivot.gflop_per_s"] = _gflops(
        sum(2 * w["m"] * w["n"] ** 2 - 2 * w["n"] ** 3 / 3 for w in (s[6] for s in qr) if w),
        m["densela.qr_col_pivot.self_s"])
    m["densela.lu_factor_checked.calls"] = len(fn_spans("densela.lu_factor_checked"))
    m["densela.cond_2.self_s"] = fn_self("densela.cond_2")

    # per step: QR with Q formed (4MN^2 - 4N^3/3), triangular inverse (N^3)
    # and the transform update (2N^3)
    orth = fn_spans("extract.orthogonalize")
    m["extract.orthogonalize.self_s"] = fn_self("extract.orthogonalize")
    m["extract.orthogonalize.gflop_per_s"] = _gflops(
        sum(w["steps"] * (4 * w["m"] * w["n"] ** 2 + 5 * w["n"] ** 3 / 3)
            for w in (s[6] for s in orth) if w),
        m["extract.orthogonalize.self_s"])

    vdm = [s[6] for s in fn_spans("polybasis.vandermonde") if s[6]]
    entries = sum(w["m"] * w["n"] for w in vdm)
    distinct = {w["key"]: w["m"] * w["n"] for w in vdm}
    m["polybasis.vandermonde.self_s"] = fn_self("polybasis.vandermonde")
    m["polybasis.vandermonde.entries"] = entries
    m["polybasis.vandermonde.mentries_per_s"] = (
        entries / m["polybasis.vandermonde.self_s"] / 1e6
        if m["polybasis.vandermonde.self_s"] > 0 else 0.0)
    m["polybasis.vandermonde.rebuild_ratio"] = (
        entries / sum(distinct.values()) if distinct else 0.0)

    leb = fn_spans("approx.lebesgue_constant")
    m["approx.lebesgue_constant.self_s"] = fn_self("approx.lebesgue_constant")
    m["approx.lebesgue_constant.gflop_per_s"] = _gflops(
        sum(2 * w["n"] ** 2 * w["mc"] for w in (s[6] for s in leb) if w),
        m["approx.lebesgue_constant.self_s"])
    lsq = fn_spans("approx.lsq_norm")
    m["approx.lsq_norm.self_s"] = fn_self("approx.lsq_norm")
    m["approx.lsq_norm.gflop_per_s"] = _gflops(
        sum(2 * w["mc"] * w["n"] * (w["n"] + w["m"]) for w in (s[6] for s in lsq) if w),
        m["approx.lsq_norm.self_s"])
    for fn in ("approx.build_lsq", "approx.eval_interpolant", "approx.interpolate",
               "approx.lsq_fit", "cubature.oracle_integral", "cubature.cubature_weights"):
        m[f"{fn}.self_s"] = fn_self(fn)

    # oracle points: test-function evaluations inside oracle_integral; one
    # level evaluates planes of one shape, the accepted level the largest
    points = useful = 0
    for s in fn_spans("cubature.oracle_integral"):
        sizes = [c[6]["points"] for c in spans if c[1] == s[0] and c[6] and "points" in c[6]]
        if sizes:
            points += sum(sizes)
            useful += sum(v for v in sizes if v == max(sizes))
    m["cubature.oracle.points"] = points
    m["cubature.oracle.useful_ratio"] = useful / points if points else 0.0

    layer_of = [s[2].split(".", 1)[0] for s in spans]
    m["meshgen.points"] = sum(
        s[6]["points"] for s in spans
        if layer_of[s[0]] == "meshgen" and s[6] and (s[1] < 0 or layer_of[s[1]] != "meshgen"))
    m["testfns.points"] = sum(s[6]["points"] for s in spans
                              if layer_of[s[0]] == "testfns" and s[6])
    m["fileio.bytes"] = sum(s[6]["bytes"] for s in spans
                            if layer_of[s[0]] == "fileio" and s[6] and "bytes" in s[6])
    return m


def cells(spans):
    """Inclusive seconds of each node extraction, keyed 'method mesh:n'."""
    out = {}
    for s in spans:
        if s[2] in ("extract.select_afp", "extract.select_dlp") and s[6]:
            key = f"{s[2].rsplit('_', 1)[1]} {s[6]['cell']}"
            out[key] = out.get(key, 0.0) + s[4] - s[3]
    return out


def total_self(spans):
    child = sum(s[4] - s[3] for s in spans if s[1] >= 0)
    return sum(s[4] - s[3] for s in spans) - child
