"""One zenolab CLI call, timed inside a fresh process.

Usage: python3 worker.py <src dir> <trace 0|1> <spans file or -> <zenolab argv...>

Prints one JSON object: the exit code and captured stdout of
``zenolab.cli.main(argv)``, ``setup_s`` (importing numpy, scipy, yaml and
zenolab.cli), ``wall_s`` (the call itself), ``peak_rss_mb`` of this process,
the thread count after numpy is loaded, and the library versions. The
parent sets the BLAS/OpenMP thread variables before starting this process.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def _threads() -> int:
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise RuntimeError("no Threads: line in /proc/self/status")


def _blas(numpy) -> str:
    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{info.get('name')} {info.get('version')}"


def main() -> None:
    src = os.path.abspath(sys.argv[1])
    trace = sys.argv[2] == "1"
    spans_file = sys.argv[3]
    argv = sys.argv[4:]

    start = time.perf_counter()
    sys.path.insert(0, src)
    import numpy
    import scipy
    import yaml  # noqa: F401
    import zenolab.cli

    setup_s = time.perf_counter() - start
    if not os.path.abspath(zenolab.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"zenolab was imported from {zenolab.cli.__file__}, not from {src}")
    threads = _threads()
    tracer = None
    if trace:
        from tracer import Tracer  # this script's directory leads sys.path

        tracer = Tracer()
        tracer.install()

    out = io.StringIO()
    error = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            rc = zenolab.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed operation, reported to the parent
            rc = None
            error = f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "rc": rc,
        "error": error,
        "stdout": out.getvalue(),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "threads": threads,
        "nproc": os.cpu_count(),
        "blas": _blas(numpy),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if spans_file != "-":
            with open(spans_file, "w", encoding="utf-8") as f:
                json.dump(tracer.spans, f)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
