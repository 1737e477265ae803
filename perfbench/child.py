"""One benchmark child process: set-up, then optionally one pass.

Usage: python3 perfbench/child.py '<json spec>'  (started by run.py from the
root of a checkout).  The spec holds the mode ("setup" or "pass"), the
workload, seed, output directory, whether to trace, and the report path.
The child writes its report as JSON to that path and exits 0; the
workload's own failures are reported, not raised.
"""

import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
import traceback


def _set_up():
    """Import the library and warm it up; the end of set-up is returned."""
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import wamcyl
    from wamcyl import extract, meshgen

    extract.select_afp(meshgen.wam1(5), 5)
    return time.monotonic(), wamcyl.__file__


def _blas_threads(package):
    """OpenBLAS thread count of the library bundled with a package, or None."""
    mod = __import__(package)
    libdir = os.path.join(os.path.dirname(mod.__file__), os.pardir, f"{package}.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _mem_total_kb():
    for line in (_read("/proc/meminfo") or "").splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1])
    return None


def _git_commit():
    head = _read(".git/HEAD")
    if head and head.startswith("ref: "):
        return _read(os.path.join(".git", head[5:]))
    return head


def environment(seed):
    """Machine and library facts recorded in every result file."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "mem_total_kb": _mem_total_kb(),
        "cgroup_cpu_max": _read("/sys/fs/cgroup/cpu.max"),
        "cgroup_memory_max": _read("/sys/fs/cgroup/memory.max"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_numpy": _blas_threads("numpy"),
        "blas_threads_scipy": _blas_threads("scipy"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(spec):
    import spans
    import workloads
    from wamcyl import cli

    out = spec["out"]
    os.makedirs(out, exist_ok=True)
    cmds = workloads.commands(spec["workload"], spec["seed"])
    tracer = spans.Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
    done = {}
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for key, argv in cmds:
        try:
            done[key] = cli.main(argv + ["--out", out])
        except SystemExit as exc:
            done[key] = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # any other crash fails the command's cells
            traceback.print_exc()
            done[key] = -1
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    if tracer:
        tracer.uninstall()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdicts = workloads.check(spec["workload"], out, done)
    report = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_mb,
        "failures": {repr(k): v for k, v in verdicts.items() if v},
        "passed": sum(1 for v in verdicts.values() if v is None),
    }
    if tracer:
        with open(os.path.join(out, "spans.json"), "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "error", "work"],
                       "spans": tracer.spans}, fh)
        report["layers"] = spans.layer_metrics(tracer.spans)
        report["cells"] = spans.cells(tracer.spans)
        report["self_sum_s"] = spans.total_self(tracer.spans)
    return report


def main():
    spec = json.loads(sys.argv[1])
    ready, lib = _set_up()
    report = {"ready": ready, "wamcyl": lib}
    if spec["mode"] == "pass":
        report.update(run_pass(spec))
        report["env"] = environment(spec["seed"])
    with open(spec["report"], "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
