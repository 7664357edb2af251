"""Benchmark entry point: one workload, one seed, one process, no threads.

    python3 perfbench/run.py --workload tri-hub-grow --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Prints a report, then as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
With ``--trace 1`` the span dump goes to ``.perfbench_out/`` in the
checkout. Exits 1 when the engine's answers are wrong, 2 when the library
cannot be found or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _report(result: dict, trace: bool) -> list[str]:
    from harness import END_TO_END, PER_LAYER, READS

    info = result["info"]
    lines = [f"workload {info['workload']}  seed {info['seed']}  "
             f"replays {info['reps']} of {info['replay_s']:.2f} s  "
             f"updates {info['updates']}  checks {result['attempted']}  "
             f"failed {result['failed']}  "
             f"failed_frac {result['failed'] / result['attempted']:.4f}"]
    lines += [f"  failure: {f}" for f in info["failures"]]
    e2e = result["end_to_end"]
    for name, unit in END_TO_END:
        lines.append(f"  {name:<24} {e2e[name]:>16.6g} {unit}")
    lines.append(f"  update latency samples {info['update_samples']}, "
                 f"worst update #{info['worst_update']}")
    for name, unit in READS:
        if name in result["reads"]:
            lines.append(f"  {name:<24} {result['reads'][name]:>16.6g} {unit}")
    if result["reads"]:
        lines.append(f"  read tuple samples {info['read_samples']}")
    counts = info["counts"]
    lines.append("  counts " + " ".join(f"{k}={v}" for k, v in counts["ops"].items())
                 + f" space_entries={counts['space_entries']}"
                 + f" views_entries={counts['views_entries']}")
    if trace:
        lines.append(f"  per-layer (traced replay, {info.get('spans', 0)} spans"
                     f" in {info.get('span_dump', '-')})")
        for name, unit in PER_LAYER:
            lines.append(f"  {name:<44} {result['per_layer'][name]:>14.6g} {unit}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "skewivm", "__init__.py")):
        print(f"skewivm sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    harness.steady_allocator()
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         dump_dir=os.path.join(ROOT, ".perfbench_out"))
    print("\n".join(_report(result, bool(args.trace))), flush=True)
    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in harness.PER_LAYER}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit in harness.END_TO_END}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
