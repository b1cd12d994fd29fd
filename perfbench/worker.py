"""One pass over a workload's jobs, in this process, through ``algebroid.cli.run``.

Usage (``run.py`` starts it with ``PYTHONPATH`` pointing at ``src``)::

    python3 perfbench/worker.py '{"jobs": [[name, argv], ...], "out_dir": DIR, "trace": false}'

Each job writes its report to ``DIR/<name>.json``.  The worker prints one
JSON object: per-job exit codes and seconds, the pass wall time, the peak
resident memory of this process, the linear-algebra backend and, when
traced, the per-layer statistics.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import traceback
from time import perf_counter


def run_pass(jobs, out_dir, tracer=None) -> dict:
    from algebroid import cli

    if tracer is not None:
        tracer.install()
    results = []
    started = perf_counter()
    try:
        for name, argv in jobs:
            out = os.path.join(out_dir, name + ".json")
            error = None
            t = perf_counter()
            try:
                code = cli.run(list(argv) + ["--output", out])
            except SystemExit as exc:  # argparse rejects a bad argv this way
                code = exc.code
            except Exception:  # a crash is this job's failure, not the pass's
                code = None
                error = traceback.format_exc(limit=3)
            results.append({"name": name, "exit": code, "seconds": perf_counter() - t,
                            "error": error})
        wall = perf_counter() - started
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"wall_s": wall, "jobs": results}


def main(spec_text: str) -> int:
    spec = json.loads(spec_text)
    os.makedirs(spec["out_dir"], exist_ok=True)
    import algebroid.cli  # noqa: F401  (imported before the clock and the tracer)
    from algebroid import linalg

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    result = run_pass(spec["jobs"], spec["out_dir"], tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["backend"] = getattr(linalg, "BACKEND", "absent")
    result["trace"] = tracer.snapshot() if tracer is not None else None
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
