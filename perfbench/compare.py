"""Compare two benchmark results written by ``run.py``.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Two results are comparable only when they measure the same workload in the
same trace mode with the same linear-algebra backend: the compiled
elimination kernel runs at 0.9-2.1x the speed of the pure-Python one, so a
backend change would pass for a code change.  Anything else is refused with
exit code 2.  Comparable results print each metric before and after, with
the ratio after/before.
"""

from __future__ import annotations

import json
import sys


def refusal(before, after):
    """Why two results cannot be compared, or None when they can."""
    for key in ("workload", "trace"):
        if before[key] != after[key]:
            return f"different {key}: {before[key]!r} against {after[key]!r}"
    backends = (before["env"]["backend"], after["env"]["backend"])
    if backends[0] != backends[1] or not isinstance(backends[0], str):
        return f"different linear-algebra backends: {backends[0]!r} against {backends[1]!r}"
    return None


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python3 perfbench/compare.py BEFORE.json AFTER.json", file=sys.stderr)
        return 2
    results = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            results.append(json.load(handle))
    before, after = results
    reason = refusal(before, after)
    if reason is not None:
        print(f"not comparable: {reason}", file=sys.stderr)
        return 2
    for side, result in (("before", before), ("after", after)):
        env = result["env"]
        print(f"{side}: seed {result['seed']}  git {env['git_sha'][:12]}  python {env['python']}  "
              f"nproc {env['nproc']}  correct {result['correct']}")
    for name, metric in before["metrics"].items():
        old = metric["value"]
        new = after["metrics"].get(name, {}).get("value")
        shown = "-" if new is None else f"{new:.6g}"
        ratio = f"{new / old:.3f}" if new is not None and old else "-"
        print(f"  {name:<44} {old:<12.6g} {shown:<12} {ratio} {metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
