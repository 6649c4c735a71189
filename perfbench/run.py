"""End-to-end benchmark of the DP-Sync reproduction.

One coordinator process replays each workload's grid cells in a closed loop:
simulated time advances as fast as the program can go and nothing arrives on
a wall-clock schedule.  It reports work per second at the stated input size,
the latency of the two operations users wait on (an owner's sync and an
analyst's query), set-up time and peak memory, and it checks every cell's
output.  Run from the repository root::

    python3 perfbench/run.py --workload fig2-oblidb --seed 1 --seconds 20 --trace 0

``--trace 1`` instead runs one untraced reference pass and then traced passes,
and reports the per-layer split (see ``perfbench/README.md``).  ``--smoke``
shrinks every input to a few hundred time units for the benchmark's own test;
``--record-digests`` runs one pass and stores the cells' output digests for
the seed in ``perfbench/digests.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def declared_units(kind: str) -> dict[str, str]:
    """``{metric: unit}`` for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, required=True,
        help="measure whole passes over the workload's cells until this much wall time",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    parser.add_argument(
        "--record-digests", action="store_true",
        help="run one pass and store its per-cell digests for this seed",
    )
    return parser.parse_args(argv)


def print_layer_table(table) -> None:
    wall = table["wall_s"]
    print(f"traced wall per pass {wall:.3f} s (untraced {table['reference_wall_s']:.3f} s)")
    print(f"  {'layer':<24}{'self s':>10}{'share':>9}")
    for layer, seconds in table["self_s"].items():
        name = "simulation (residual)" if layer == "simulation" else layer
        print(f"  {name:<24}{seconds:>10.4f}{seconds / wall:>9.1%}")
    print(f"  {'sum':<24}{sum(table['self_s'].values()):>10.4f}")
    for name, share in table["shares"].items():
        print(f"  {name} share of wall: {share:.1%}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)

    from bench import DIGESTS, environment, measure
    from checks import StderrCapture
    from workloads import WORKLOAD_NAMES

    if args.workload not in WORKLOAD_NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; known: {', '.join(WORKLOAD_NAMES)}",
              file=sys.stderr)
        return 2
    with StderrCapture(scratch / f"stderr-{os.getpid()}.log") as capture:
        outcome = measure(args, capture.wait_for_other_writers)
    bench = outcome["bench"]
    if outcome.get("record"):
        return record_digests(args, bench, DIGESTS)

    units = declared_units("per_layer" if args.trace else "end_to_end")
    values = outcome["values"]
    correct = bench.failed == 0 and not bench.problems
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "cells": [cell.cell_id for cell in bench.cells],
        "digests": bench.digests,
        "digests_recorded": bool(bench.expected),
        "resource_tracker_warnings": capture.tracker_warnings,
        "problems": bench.problems,
        **outcome["detail"],
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={report['passes']} cells={len(report['cells'])}")
    print("environment: " + json.dumps(report["environment"]))
    for name, unit in units.items():
        print(f"  {name:<38}{values[name]:>16.6g} {unit}")
    if args.trace:
        print_layer_table(report["layers"])
    else:
        print("samples: " + json.dumps(report["samples"]))
    print(f"cpu steal during the run: {report['steal_s']:.2f} s (other guests on the host)")
    print(f"checks: attempted={bench.attempted} failed={bench.failed} "
          f"digests_recorded={report['digests_recorded']} "
          f"resource_tracker_warnings={capture.tracker_warnings} (not leaks)")
    for problem in bench.problems:
        print(f"  PROBLEM {problem}")
    print("report: " + json.dumps(report, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def record_digests(args, bench, digests: Path) -> int:
    if bench.problems:
        for problem in bench.problems:
            print(f"PROBLEM {problem}", file=sys.stderr)
        return 1
    with open(digests, "a+") as handle:
        # Locked read-modify-write: recordings may run side by side.
        fcntl.flock(handle, fcntl.LOCK_EX)
        handle.seek(0)
        text = handle.read()
        recorded = json.loads(text) if text.strip() else {}
        recorded.setdefault(bench.digest_key, {})[str(args.seed)] = bench.digests
        handle.seek(0)
        handle.truncate()
        handle.write(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(json.dumps({bench.digest_key: {str(args.seed): bench.digests}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
