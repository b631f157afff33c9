#!/usr/bin/env python3
"""Fingerprint every run of the benchmark grids, one line per run.

    python3 scripts/grid_fingerprints.py > after.txt                # all 306 runs
    python3 scripts/grid_fingerprints.py --workload tunnel-mab --runs 6

Plans each run once, exactly as `perfbench/run.py` does (its `plan_once`
and `workloads`), and prints the workload, gap, seed, planner, the run's
fingerprint tuple (outcome, iterations, tree size, repr(r*), SHA-256 of
tree points, parents and path) and its arm pulls and rewards. A change
that claims to keep every seeded trajectory is checked against its parent
commit by running this script in both checkouts and comparing the outputs
with `diff`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402  (puts this checkout's src/ first on sys.path)
import workloads  # noqa: E402
from narrowpass.planner import TAG_FOR_ARM  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+", choices=tuple(workloads.WORKLOADS),
                    default=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1, help="workload seed: the order of the grid")
    ap.add_argument("--runs", type=int, default=None, help="only the first RUNS runs of each grid")
    args = ap.parse_args(argv)
    scenes = workloads.build_scenes()
    for workload in args.workload:
        for r in workloads.run_list(workload, args.seed)[:args.runs]:
            o = run.plan_once(scenes, r, workloads.BUDGET)
            res = o.result
            pulls = {TAG_FOR_ARM[a]: n for a, n in res.arm_pulls.items()} if res else {}
            rewards = {TAG_FOR_ARM[a]: repr(x) for a, x in res.arm_rewards.items()} if res else {}
            print(f"{workload} gap {r.gap:g} seed {r.seed} {r.planner} {o.fingerprint} "
                  f"pulls {pulls} rewards {rewards}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
