"""Pin the sha256 of every report at the default seed into ``digests.json``.

    python3 perfbench/pin_digests.py

The pins define correct output: a later change whose reports differ in any
byte at the default seed fails the benchmark's gate.  Re-pin only in a
change whose purpose is to alter report bytes, and say so in its history.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import gate
import run
import workloads


def main() -> int:
    env = run.worker_env()
    pins = {}
    for workload in workloads.WORKLOADS:
        work = os.path.join(run.OUT, f"pin-{os.getpid()}")
        try:
            jobs = workloads.build(workload, workloads.DEFAULT_SEED, os.path.join(work, "docs"))
            result = run.run_worker(jobs, os.path.join(work, "reports"), False, env, timeout=600)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        failures = run.gate_passes(jobs, [result], None)
        if failures:
            print(f"{workload}: not pinned, the gate fails: {failures}", file=sys.stderr)
            return 1
        pins[workload] = {job.name: gate.sha256(result["reports"][job.name]) for job in jobs}
    with open(run.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
