"""One benchmark run process: set up amfem, call ``amfem run`` once, report.

Started by ``run.py`` with a single JSON argument::

    {"launched": <time.monotonic() just before launch>, "problem": ...,
     "max_dofs": ..., "argv": [...arguments after "run"...], "trace": bool}

and prints one JSON line with the set-up, wall and CPU times, the peak
resident memory and, for a traced run, the per-layer metrics.  On Linux
``time.monotonic`` reads one clock for all processes, so the set-up time
counts from the launch in the parent.
"""

import contextlib
import io
import json
import resource
import sys
import time


def main(spec):
    import numpy
    import scipy

    import amfem
    from amfem import cli, mesh, problems

    tracer = None
    run = cli.main
    if spec["trace"]:
        from tracer import Tracer, install
        tracer = Tracer(spec["max_dofs"])
        run = install(tracer)
    problem = problems.builtin(spec["problem"])
    mesh.create_initial(problem.domain)
    setup_s = time.monotonic() - spec["launched"]

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = run(["run"] + spec["argv"])
    wall_s = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    out = {
        "rc": rc, "setup_s": setup_s, "wall_s": wall_s,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,    # ru_maxrss is in KiB on Linux
        "versions": {"amfem": amfem.__version__, "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None and rc == 0:
        out["layers"] = tracer.metrics()
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
