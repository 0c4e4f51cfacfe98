"""Child process of the benchmark: one program invocation per process.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py probe
    python3 perfbench/child.py setup CONFIG
    python3 perfbench/child.py cli TRACE RESULT -- CLI-ARGS...

``probe`` imports the package and prints where it came from and the
library versions.  ``setup`` times what a run does before its first
step: ``import euler_spectra.cli``, ``parse_config``, ``Grid(n)`` and
``InitSpec.build``.  ``cli`` calls ``euler_spectra.cli.main`` with
CLI-ARGS, the same entry point as the ``euler-spectra`` script, and
writes its exit code, timing and peak RSS to RESULT; with TRACE=1 the
spans of every traced layer go there too.
"""

import json
import resource
import sys
import time

from tracer import Tracer


def _usage():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # ru_maxrss is in KiB on Linux.
    return {"peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
            "cpu_s": usage.ru_utime + usage.ru_stime}


def probe():
    import euler_spectra.cli  # noqa: F401
    import numpy
    import scipy
    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    print(json.dumps({
        "package_file": sys.modules["euler_spectra"].__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": has_numba,
    }))
    return 0


def setup(config_path):
    start = time.perf_counter()
    import euler_spectra.cli  # noqa: F401
    from euler_spectra.config import parse_config
    from euler_spectra.grid import Grid
    imported = time.perf_counter()
    with open(config_path) as fh:
        text = fh.read()
    read = time.perf_counter()
    cfg = parse_config(text)
    grid = Grid(cfg.n)
    cfg.initial.build(grid)
    end = time.perf_counter()
    print(json.dumps({"import_s": imported - start,
                      "setup_s": (imported - start) + (end - read)}))
    return 0


def cli(trace, result_path, argv):
    start = time.perf_counter()
    import euler_spectra.cli
    imported = time.perf_counter()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.span("cli.import", start, imported)
        tracer.install()
    code = euler_spectra.cli.main(argv)
    end = time.perf_counter()
    result = {"exit_code": code, "window_s": end - start, **_usage()}
    if tracer is None:
        with open(result_path, "w") as fh:
            json.dump(result, fh)
    else:
        tracer.dump(result_path, **result)
    return code


def main(argv):
    mode = argv[0] if argv else ""
    if mode == "probe":
        return probe()
    if mode == "setup" and len(argv) == 2:
        return setup(argv[1])
    if mode == "cli" and len(argv) >= 4 and argv[3] == "--":
        return cli(argv[1] == "1", argv[2], argv[4:])
    print(__doc__, file=sys.stderr)
    return 64


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
