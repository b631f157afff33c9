#!/usr/bin/env python3
"""Iteration counts of MAB-RRT and uniform RRT on six seed windows.

    python3 scripts/seed_windows.py            # 102 runs per window, about a minute
    python3 scripts/seed_windows.py --runs 6   # a smoke run
    python3 scripts/seed_windows.py --bases 7000 8000 9000 10000 11000 12000   # held-out windows

Each window is a copy of the benchmark grid (`perfbench/workloads.py`) with
its seeds moved: run i plans gap GAPS[i % 3] with planner seed BASE + i,
budget BUDGET iterations, for BASE in 1000, 2000, ..., 6000 (3000 is the
benchmark's own grid) or in the bases --bases names. Windows that no change
was tuned on, such as 7000 to 12000, give a claim on the grid an
out-of-sample check. Every run goes through perfbench's `plan_once`, so a
run counts as solved only if its path passes the exact path check, and an
unsolved run counts at the budget. For each window and planner the
script prints the solved runs, iterations p50 / p90 over the window by
perfbench's Harrell-Davis estimator (window 3000 gives the benchmark's
iters_p50 / iters_p90), and per gap p50 / p90 by linear interpolation.
It also prints, by the same estimator, the iterations to escape the tunnel
(a run that never left it counts at the budget, as in perfbench's
escape_iters_p50 / escape_iters_p90) and the iterations after escape, a
run's counted iterations minus its counted escape iteration.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402  (puts this checkout's src/ first on sys.path)
import workloads  # noqa: E402

BASES = (1000, 2000, 3000, 4000, 5000, 6000)
PLANNERS = ("mab-rrt", "rrt-uniform")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=workloads.RUNS, help="runs per window, from its first seed")
    ap.add_argument("--bases", type=int, nargs="+", default=BASES, help="first seed of each window")
    args = ap.parse_args(argv)
    scenes = workloads.build_scenes()
    gaps = workloads.GAPS
    for base in args.bases:
        for planner in PLANNERS:
            grid = [workloads.Run(gaps[i % len(gaps)], base + i, planner) for i in range(args.runs)]
            outcomes = [run.plan_once(scenes, r, workloads.BUDGET) for r in grid]
            iters = [o.iterations if o.status == "solved" else workloads.BUDGET for o in outcomes]
            escape = [workloads.BUDGET if o.escape is None else o.escape for o in outcomes]
            after = [n - e for n, e in zip(iters, escape)]
            solved = sum(o.status == "solved" for o in outcomes)
            per_gap = []
            for gap in gaps:
                x = [n for r, n in zip(grid, iters) if r.gap == gap]
                per_gap.append(f"gap {gap:g} {np.percentile(x, 50):g} / {np.percentile(x, 90):g}")
            print(f"window {base} {planner:11s} solved {solved}/{len(grid)} "
                  f"iters p50 / p90 {run.pct(iters, 50):.1f} / {run.pct(iters, 90):.1f}; "
                  f"escape {run.pct(escape, 50):.2f} / {run.pct(escape, 90):.2f}; "
                  f"after escape {run.pct(after, 50):.1f} / {run.pct(after, 90):.1f}; " + "; ".join(per_gap),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
