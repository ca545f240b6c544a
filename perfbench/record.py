#!/usr/bin/env python3
"""Rewrite expected.json: the output digests and shd of each workload per seed.

    python3 perfbench/record.py 0 24

records seeds 0 to 24 (and the default seed 7) with one untimed op each.
Run it only for a change that is meant to alter output bytes, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main(first: int, last: int) -> int:
    seeds = sorted(set(range(first, last + 1)) | {DEFAULT_SEED})
    expected = {}
    with bench.work_dir("record") as work:
        for name, workload in WORKLOADS.items():
            expected[name] = {}
            for seed in seeds:
                shutil.rmtree(work, ignore_errors=True)
                (work / "out").mkdir(parents=True)
                bench.setup(workload, seed, work, 1)
                op = bench.run_op(workload.infer_argv(
                    str(work / "data" / "data.csv"), str(work / "out")),
                    work / "out")
                if op.digests is None:
                    print(f"{name} seed {seed}: {op.error}", file=sys.stderr)
                    return 1
                expected[name][str(seed)] = {"digests": op.digests,
                                             "shd": bench.shd_of(work)}
                print(name, seed, expected[name][str(seed)]["shd"], flush=True)
    bench.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n",
                                   encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
