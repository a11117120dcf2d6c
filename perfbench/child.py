"""One benchmark sample: a single ``qnls6`` CLI scenario in a fresh interpreter.

    python3 perfbench/child.py <spec.json>

The spec names the scenario, config, output directory, seed, the ``src``
directory to import ``qnls6`` from, whether to trace, and where to write the
result.  The scenario runs through ``qnls6.cli.main``, the function behind
the ``qnls6`` command.  Entry to and return from that call are stamped with
the system-wide monotonic clock, so the parent can split set-up (launch to
entry: interpreter start and imports) from wall time (the call: argument and
config parsing, well under a millisecond, then the scenario).  With tracing
on, the package's layer boundaries are wrapped as well (see ``tracing.py``)
and the spans are written with the result.
"""

from __future__ import annotations

import glob
import json
import os
import sys
import time
import traceback


def _blas_info() -> dict:
    """BLAS build info from numpy and the thread count each loaded OpenBLAS
    reports.  Runs after the scenario, outside the timed window."""
    import ctypes
    import numpy as np
    import scipy
    info = {"numpy": np.__version__, "scipy": scipy.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    threads = {}
    for pkg in (np, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                              pkg.__name__ + ".libs")
        for path in glob.glob(os.path.join(libdir, "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    threads[os.path.basename(path)] = int(fn())
                    break
    info["blas_threads_in_use"] = threads
    return info


def main(argv) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import qnls6.cli as cli

    entry = cli.main
    tracer = None
    if spec["trace"]:
        from tracing import SCENARIO_SPAN, Tracer, install
        tracer = Tracer()
        install(tracer)
        entry = tracer.wrap(SCENARIO_SPAN, entry)
    result = {}
    result["enter"] = time.monotonic()
    try:
        result["rc"] = entry([spec["scenario"], "--config", spec["config"],
                              "--out", spec["out"], "--seed", str(spec["seed"])])
    except Exception:  # the result file must still be written
        result["rc"] = -1
        result["error"] = traceback.format_exc()
    result["exit"] = time.monotonic()
    result["provenance"] = _blas_info()
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if result["rc"] == 0 else 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
