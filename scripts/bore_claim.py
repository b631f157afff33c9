#!/usr/bin/env python3
"""MAB-RRT against uniform RRT on a 3-D square bore, in solved runs and iterations.

    python3 scripts/bore_claim.py            # 20 + 30 seeds per planner, a few minutes
    python3 scripts/bore_claim.py --runs 2   # a smoke run

The bore runs along +x from x = -30 to its mouth at x = 0, with a gap x gap
square section, inside bounds [-50, 50]^3. Four walls 5 thick surround it
and a cap closes it over x in [-35, -30]: five boxes. The start is
(-28, 0, 0) and the goal is an escape to distance 32 from the start, which
only a node past the mouth reaches. Each planner plans every seed with a
budget of BUDGET iterations on two cases: gap 0.1 with a steer step of 0.1,
seeds 1000-1019, and gap 0.5 with the default steer step, seeds 1000-1029.
Every returned path is checked edge by edge with `check_motion`, which is
exact on boxes; the script exits 1 if any edge crosses a wall. It prints
each planner's solved runs and median iterations, with an unsolved run
counted at the budget.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from narrowpass import Bounds, Box, GoalSpec, PlannerParams, Scene, check_motion, goal_satisfied
from narrowpass.planner import run_planner
from narrowpass.rng import RngStream

BUDGET = 5000
FIRST_SEED = 1000
PLANNERS = ("mab-rrt", "rrt-uniform")
# (gap, steer step or None for the default, seeds)
CASES = ((0.1, 0.1, 20), (0.5, None, 30))


def bore_scene(gap: float) -> Scene:
    h, t = gap / 2.0, 5.0
    x0, x1 = -35.0, 0.0
    walls = (
        Box([x0, h, -h - t], [x1, h + t, h + t]),       # +y
        Box([x0, -h - t, -h - t], [x1, -h, h + t]),     # -y
        Box([x0, -h, h], [x1, h, h + t]),               # +z
        Box([x0, -h, -h - t], [x1, h, -h]),             # -z
        Box([x0, -h, -h], [-30.0, h, h]),               # cap
    )
    return Scene(name=f"bore-gap{gap:g}", bounds=Bounds([-50.0] * 3, [50.0] * 3), start=(-28.0, 0.0, 0.0),
                 goal=GoalSpec("escape", threshold=32.0), obstacles=walls)


def path_is_safe(scene: Scene, path) -> bool:
    return goal_satisfied(scene, path[-1]) and all(check_motion(scene, a, b) for a, b in zip(path, path[1:]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=None, help="only the first RUNS seeds of each case")
    args = ap.parse_args(argv)
    unsafe = 0
    for gap, eta, seeds in CASES:
        scene = bore_scene(gap)
        params = PlannerParams(eta=eta, timeout=1e9, max_iterations=BUDGET)
        n = seeds if args.runs is None else min(args.runs, seeds)
        for planner in PLANNERS:
            iters, solved = [], 0
            for seed in range(FIRST_SEED, FIRST_SEED + n):
                result = run_planner(scene, planner, params, RngStream(seed))
                if result.solved and not path_is_safe(scene, result.path):
                    unsafe += 1
                    print(f"unsafe path: gap {gap:g} {planner} seed {seed}", file=sys.stderr)
                solved += result.solved
                iters.append(result.iterations if result.solved else BUDGET)
            step = "default" if eta is None else f"{eta:g}"
            print(f"bore gap {gap:g} eta {step} {planner:11s} solved {solved}/{n} "
                  f"median iterations {statistics.median(iters):g}", flush=True)
    return 1 if unsafe else 0


if __name__ == "__main__":
    sys.exit(main())
