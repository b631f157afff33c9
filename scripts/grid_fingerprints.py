#!/usr/bin/env python3
"""Fingerprint every run of the benchmark grids, one line per run.

    python3 scripts/grid_fingerprints.py > after.txt                # all 306 runs
    python3 scripts/grid_fingerprints.py --workload tunnel-mab --runs 6
    python3 scripts/grid_fingerprints.py --against before.txt       # compare with an earlier output

Plans each run once, exactly as `perfbench/run.py` does (its `plan_once`
and `workloads`), and prints the workload, gap, seed, planner, the run's
fingerprint tuple (outcome, iterations, tree size, repr(r*), SHA-256 of
tree points, parents and path) and its arm pulls and rewards. A change
that claims to keep every seeded trajectory is checked against its parent
commit by running this script in both checkouts and comparing the outputs
with `diff`.

With --against FILE, an earlier output of this script, it prints instead,
per workload, how many runs are unchanged, shorter, longer or changed at
the same length than in FILE, and each run that lost or gained a solve. It
only reports: a behaviour change may move runs both ways.
"""

from __future__ import annotations

import argparse
import ast
import sys
from collections import Counter
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
    ap.add_argument("--against", type=Path, default=None, metavar="FILE",
                    help="compare with FILE, an earlier output of this script, instead of printing the runs")
    args = ap.parse_args(argv)
    before = read_lines(args.against) if args.against else None
    scenes = workloads.build_scenes()
    for workload in args.workload:
        counts, moved = Counter(), []
        for r in workloads.run_list(workload, args.seed)[:args.runs]:
            o = run.plan_once(scenes, r, workloads.BUDGET)
            res = o.result
            pulls = {TAG_FOR_ARM[a]: n for a, n in res.arm_pulls.items()} if res else {}
            rewards = {TAG_FOR_ARM[a]: repr(x) for a, x in res.arm_rewards.items()} if res else {}
            key = f"{workload} gap {r.gap:g} seed {r.seed} {r.planner}"
            line = f"{key} {o.fingerprint} pulls {pulls} rewards {rewards}"
            if before is None:
                print(line, flush=True)
                continue
            if key not in before:
                counts["not in FILE"] += 1
                continue
            (was, m), (now, n) = fingerprint_of(before[key], key)[:2], o.fingerprint[:2]
            if before[key] == line:
                counts["unchanged"] += 1
            else:
                counts["shorter" if n < m else "longer" if n > m else "changed at the same length"] += 1
            if (was == "solved") != (now == "solved"):
                moved.append(f"  {key}: {was} in {m} iterations, now {now} in {n}")
        if before is not None:
            kinds = ("unchanged", "shorter", "longer", "changed at the same length", "not in FILE")
            print(f"{workload}: " + ", ".join(f"{k} {counts[k]}" for k in kinds)
                  + f"; lost or gained a solve {len(moved)}", *moved, sep="\n", flush=True)
    return 0


def read_lines(path: Path) -> dict:
    """An earlier output of this script, as {run key: line}."""
    lines = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        words = line.split(" ", 6)
        lines[" ".join(words[:6])] = line
    return lines


def fingerprint_of(line: str, key: str) -> tuple:
    """The fingerprint tuple of a line of this script's output."""
    return ast.literal_eval(line[len(key) + 1:line.index(" pulls ")])


if __name__ == "__main__":
    sys.exit(main())
