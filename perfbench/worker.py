"""Run one job (a list of CLI invocations) in this fresh interpreter.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

SPEC.json holds ``{"src": ..., "trace": bool, "ops": [argv, ...]}``.  The
worker imports ``casimir_stability.cli`` from ``src``, calls ``cli.run`` on
each argv in order and writes its timings, peak memory, environment and,
when traced, the per-layer metrics to RESULT.json.  An untraced job also
times the reference kernel before the first op and after every op, outside
the op times.  BLAS thread variables must already be set in the
environment, because numpy reads them on import.
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


def _blas_threads(numpy):
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
    }


def main(spec_path, result_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    t0 = time.perf_counter()
    from casimir_stability import cli

    import_s = time.perf_counter() - t0
    from reference import reference_s

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"casimir_stability was imported from {cli.__file__}, not {src}")

    tracer = None
    refs = []
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    else:
        refs.append(reference_s())
    codes, seconds = [], []
    try:
        for argv in spec["ops"]:
            t = time.perf_counter()
            try:
                codes.append(cli.run(argv))
            except Exception:  # an op that crashes counts as failed
                traceback.print_exc()
                codes.append(-1)
            seconds.append(time.perf_counter() - t)
            if tracer is None:
                refs.append(reference_s())
    finally:
        if tracer is not None:
            tracer.restore()
    result = {
        "import_s": import_s,
        "op_s": seconds,
        "reference_s": refs,
        "exit_codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        result["ops"] = spans.op_breakdown(tracer)
        result["spans"] = len(tracer)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
