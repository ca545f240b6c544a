#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics; see perfbench/README.md.

    python3 perfbench/run.py --workload greedy-tee-m5 --seed 7 --seconds 34 --trace 0

Run it from anywhere inside a source tree: it imports netinfer from the
tree's own `src/`. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload (simulate) seed")
    parser.add_argument("--seconds", type=float, default=34.0,
                        help="window for the ops: run them until the next one "
                             "would end past it, and at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "netinfer" / "__init__.py").is_file():
        print(f"perfbench: no netinfer sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    if not Path(bench.cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: netinfer was imported from {bench.cli.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    with bench.work_dir(str(os.getpid())) as work:
        result, lines = bench.run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
            work, bench.expected_for(bench.load_expected(), args.workload,
                                     args.seed))

    metrics = result["metrics"]
    if metrics and set(metrics) != set(units):
        lines.append(f"failure: metrics {sorted(set(metrics) ^ set(units))} "
                     "do not match BENCHMARK.json")
        result["correct"] = False
    result["metrics"] = {name: {"value": value, "unit": units[name]}
                         for name, value in metrics.items() if name in units}
    for line in lines:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
