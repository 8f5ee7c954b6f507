"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Prints a readable summary, then as its
last line one JSON object: correct, attempted and failed (sweep cells) and
the metrics, end-to-end ones with --trace 0 and per-layer ones with
--trace 1. Workloads and their parameters are in perfbench/workloads.json.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, help="default: the workload's first seed")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so a running sweep is killed and reaped
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "cdrhomes" / "__init__.py").is_file():
        print(f"perfbench: package source {SRC}/cdrhomes not found", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench

    workloads = bench.load_workloads()
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads)}", file=sys.stderr)
        return 2
    spec = workloads[args.workload]
    seed = spec["seeds"][0] if args.seed is None else args.seed
    result = bench.run_workload(args.workload, spec, seed, args.seconds, bool(args.trace))
    saved = bench.save_result(result)

    sweeps = result["samples"]["sweeps"]
    print(f"workload {args.workload} seed {seed} trace {args.trace}: {len(sweeps)} timed sweeps; "
          f"before each, load {[s['load_1min'] for s in sweeps]}, "
          f"probe ms {[round(s['probe_ms'], 1) for s in sweeps]}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_ratio':28s} {result['fail_ratio']:>16.6g} "
          f"({result['failed']} of {result['attempted']} cells failed)")
    for problem in result["samples"]["setup_problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    for sweep in [result["samples"]["warmup"]] + sweeps + [result["samples"]["traced"] or {}]:
        for problem in sweep.get("problems", []):
            print(f"perfbench: {problem}", file=sys.stderr)
    print(f"full result set: {saved}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
