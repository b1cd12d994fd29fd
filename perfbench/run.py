"""The algebroid benchmark: real CLI jobs, checked, timed end to end and per layer.

    python3 perfbench/run.py --workload cohomology --seed 1729 --seconds 40 --trace 0

Run from the root of a checkout.  The workload's model documents are
generated from ``--seed`` (see ``workloads.py``).  Each pass runs every job
of the workload through ``algebroid.cli.run``, one after another, in one
fresh worker process (a closed loop with one client).  Passes repeat until
``--seconds`` would be exceeded, with at least two, and every report is
checked by ``gate.py``.

``--trace 0`` reports the end-to-end metrics, means over the passes (see
``end_to_end_metrics``).
``--trace 1`` runs one untraced pass and then traced passes, and reports the
per-layer metrics of ``tracer.py`` (self times are medians over the traced
passes, counts must repeat exactly) and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable summary.  The full result, with the environment and the
per-layer statistics of every traced pass, is written once at the end to
``.perfbench-out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from statistics import geometric_mean, mean, median
from time import perf_counter

import gate
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")

# A run must end within 180 s: start no pass after HARD_LIMIT_S, and kill a
# worker still running at KILL_AFTER_S.
HARD_LIMIT_S = 150
KILL_AFTER_S = 175
SETUP_PER_PASS = 2

END_TO_END = (
    ("wall_s", "s"),
    ("job_geomean_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _fn(name, *extra):
    return [(f"{name}.calls", "count"), (f"{name}.self_s", "s")] + [
        (f"{name}.{key}", unit) for key, unit in extra
    ]


PER_LAYER = (
    _fn("linalg.rank", ("cells", "count"), ("nnz", "count"), ("fill", "ratio"))
    + _fn("linalg.nullspace")
    + _fn("linalg.row_space_contains")
    + _fn("linalg.rank_generic", ("cells", "count"))
    + _fn("linalg.nullspace_generic")
    + [("cohomology.assemble_s", "s"), ("cohomology.columns", "count"),
       ("cohomology.agreement_trials_s", "s")]
    + _fn("poly.mul", ("terms_out", "count"))
    + _fn("poly.add")
    + _fn("poly.pow")
    + _fn("poly.partial")
    + _fn("poly.exact_div", ("terms_out", "count"))
    + _fn("exterior.de_rham") + _fn("exterior.interior_product") + _fn("exterior.lie_bracket")
    + _fn("exterior.wedge")
    + _fn("algebroids.ce_differential") + _fn("algebroids.contravariant_differential")
    + [("algebroids.check_algebroid_axioms.self_s", "s"),
       ("symplectic.check_weak_symplectic.self_s", "s"),
       ("symplectic.poisson_bracket.self_s", "s"),
       ("courant.check_courant_axioms.self_s", "s"),
       ("courant.check_dirac.self_s", "s"),
       ("courant.orthogonal_complement.self_s", "s")]
    + _fn("dsl.parse_document")
    + [("dsl.render_value.self_s", "s"),
       ("sampling.Sampler.self_s", "s"),
       ("trace.overhead_ratio", "ratio")]
)


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def worker_env() -> dict:
    """The worker's environment: ``src`` first on the path, no thread setting."""
    env = dict(os.environ)
    env.pop("ALGEBROID_THREADS", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def time_import(env) -> float:
    """Seconds for a fresh interpreter to ``import algebroid.cli``."""
    code = ("import time; t = time.perf_counter(); import algebroid.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchmarkError(f"cannot import algebroid.cli: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout)


def run_worker(jobs, out_dir, trace, env, timeout) -> dict:
    """One pass in a fresh worker; adds the report bytes under ``reports``."""
    spec = json.dumps({"jobs": [[job.name, list(job.argv)] for job in jobs],
                       "out_dir": out_dir, "trace": bool(trace)})
    proc = subprocess.run([sys.executable, WORKER, spec], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["reports"] = {}
    for job in jobs:
        path = os.path.join(out_dir, job.name + ".json")
        try:
            with open(path, "rb") as handle:
                result["reports"][job.name] = handle.read()
        except FileNotFoundError:
            result["reports"][job.name] = None
    return result


def load_pins(workload, seed):
    """Pinned report digests at the default seed; None at any other seed."""
    if seed != workloads.DEFAULT_SEED:
        return None
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle).get(workload, {})


def gate_passes(jobs, passes, pins) -> list:
    """Every failed job execution as (pass index, job name, problems)."""
    failures = []
    first = {}
    for index, result in enumerate(passes):
        outcome = {entry["name"]: entry for entry in result["jobs"]}
        for job in jobs:
            entry = outcome[job.name]
            report = result["reports"].get(job.name)
            pinned = None if pins is None else pins.get(job.name)
            problems = gate.check_job(job, entry["exit"], report, pinned, first.get(job.name))
            if pins is not None and pinned is None:
                problems.append("no pinned digest for the default seed")
            if entry.get("error"):
                problems.append(entry["error"].strip().splitlines()[-1])
            if report is not None and job.name not in first:
                first[job.name] = gate.sha256(report)
            if problems:
                failures.append((index, job.name, problems))
    return failures


def end_to_end_metrics(passes, setup_s) -> dict:
    """Mean pass and job times over the run.

    Every pass does the same work: its reports are byte-identical and its
    per-layer counts repeat exactly.  What varies between passes is the
    shared host, whose speed swings by up to 2x and holds either speed for
    seconds to minutes.  A median over the passes jumps to whichever speed
    held for most of the run, and a minimum to the fastest moment, if there
    was one; the mean moves with the share of the run spent at each speed,
    so it spreads least from run to run.
    """
    per_job = zip(*([j["seconds"] for j in p["jobs"]] for p in passes))
    return {
        "wall_s": mean(p["wall_s"] for p in passes),
        "job_geomean_s": geometric_mean([mean(seconds) for seconds in per_job]),
        "setup_s": setup_s,
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
    }


def layer_values(trace) -> dict:
    """Per-layer values of one traced pass (without the overhead ratio)."""
    values = {}
    for name, stat in trace["stats"].items():
        values[f"{name}.calls"] = stat["calls"]
        values[f"{name}.self_s"] = stat["self_s"]
    values.update(trace["counts"])
    values.update(trace["derived"])
    cells = values.get("linalg.rank.cells", 0)
    values["linalg.rank.fill"] = values.get("linalg.rank.nnz", 0) / cells if cells else 0.0
    return values


def per_layer_metrics(untraced, traced):
    """(metrics, counts_repeat): medians of times, counts from the first pass."""
    per_pass = [layer_values(p["trace"]) for p in traced]
    metrics = {}
    counts_repeat = True
    for name, unit in PER_LAYER:
        values = [v.get(name, 0) for v in per_pass]
        if name == "trace.overhead_ratio":
            metrics[name] = (median(p["wall_s"] for p in traced)
                             / median(p["wall_s"] for p in untraced))
        elif unit == "s":
            metrics[name] = median(values)
        else:
            metrics[name] = values[0]
            counts_repeat = counts_repeat and all(v == values[0] for v in values)
    return metrics, counts_repeat


def run(args) -> dict:
    started = perf_counter()
    if not os.path.isfile(os.path.join(SRC, "algebroid", "cli.py")):
        raise BenchmarkError(f"no algebroid sources under {SRC}")
    work = os.path.join(OUT, f"work-{os.getpid()}")
    env = worker_env()
    try:
        jobs = workloads.build(args.workload, args.seed, os.path.join(work, "docs"))
        pins = load_pins(args.workload, args.seed)
        setup = []
        if not args.trace:
            # Not counted: the first import may compile the bytecode cache,
            # which a user pays once, not on every call.
            time_import(env)

        untraced, traced = [], []
        measure_from = perf_counter()

        def one_pass(trace):
            remaining = KILL_AFTER_S - (perf_counter() - started)
            out_dir = os.path.join(work, f"pass{len(untraced) + len(traced)}")
            t = perf_counter()
            if not args.trace:
                # Set-up is sampled between the passes, so that its median
                # sees the host at the speeds the passes see.
                setup.extend(time_import(env) for _ in range(SETUP_PER_PASS))
            result = run_worker(jobs, out_dir, trace, env, timeout=max(remaining, 1))
            result["pass_s"] = perf_counter() - t
            (traced if trace else untraced).append(result)

        def more(kind, minimum):
            if len(kind) < minimum:
                return True
            now = perf_counter()
            return (now - measure_from + kind[-1]["pass_s"] <= args.seconds
                    and now - started + kind[-1]["pass_s"] <= HARD_LIMIT_S)

        if args.trace:
            one_pass(False)
            while more(traced, 1):
                one_pass(True)
        else:
            while more(untraced, 2):
                one_pass(False)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = untraced + traced
    failures = gate_passes(jobs, passes, pins)
    backends = sorted({p["backend"] for p in passes})
    notes = []
    if len(backends) > 1:
        notes.append(f"passes ran on different backends {backends}")
    if args.trace:
        metrics, counts_repeat = per_layer_metrics(untraced, traced)
        units = dict(PER_LAYER)
        if not counts_repeat:
            notes.append("exact per-layer counts differ between traced passes")
    else:
        metrics = end_to_end_metrics(untraced, median(setup))
        units = dict(END_TO_END)
    attempted = len(jobs) * len(passes)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {
            "backend": backends[0] if len(backends) == 1 else backends,
            "python": platform.python_version(),
            "git_sha": git_sha(),
            "nproc": len(os.sched_getaffinity(0)),
        },
        "passes": [
            {"traced": p["trace"] is not None, "wall_s": p["wall_s"],
             "peak_rss_mb": p["peak_rss_mb"],
             "jobs": [{k: j[k] for k in ("name", "exit", "seconds")} for j in p["jobs"]],
             "trace": p["trace"]}
            for p in passes
        ],
        "failures": [{"pass": i, "job": name, "problems": problems}
                     for i, name, problems in failures],
        "notes": notes,
        "correct": not failures and not notes,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def write_result(result) -> str:
    directory = os.path.join(OUT, "results")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory, f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except (BenchmarkError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = write_result(result)
    env = result["env"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(result['passes'])}  backend {env['backend']}  python {env['python']}  "
          f"git {env['git_sha'][:12]}  nproc {env['nproc']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_ratio':<44} {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} jobs)")
    for failure in result["failures"]:
        print(f"  FAILED pass {failure['pass']} {failure['job']}: {'; '.join(failure['problems'])}")
    for note in result["notes"]:
        print(f"  NOT CORRECT: {note}")
    print(f"  result written to {os.path.relpath(path, ROOT)}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
