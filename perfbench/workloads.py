"""The three tunnel workloads and the run grid they plan over.

Every workload plans over the same fixed grid of RUNS (gap, planner seed)
pairs: run i uses gap GAPS[i % 3] and planner seed SEED_BASE + i, so the
grid holds 34 seeds per gap and at least ten runs lie beyond its p90. The
workload seed draws the order in which the grid is run, not its contents.
Iteration counts on these tunnels are heavy-tailed (MAB-RRT is bimodal:
p50 45 against p90 4060 on gap 5, seeds 0-39), so a seed-dependent sample of 300
runs moves iters_p50 by 20-100 % between workload seeds; a fixed grid makes
the iteration, escape and solve counts repeat exactly on every seed, and
leaves only the wall-clock metrics to vary.

Runs are budgeted by iterations, not by the planner's wall-clock timeout,
so a loaded machine cannot turn a solve into a timeout.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from narrowpass.bench import run_planner
from narrowpass.planner import PlannerParams, PlannerResult
from narrowpass.rng import RngStream
from narrowpass.scenes import generate_tunnel_scene

GAPS = (5.0, 10.0, 15.0)
RUNS = 102
SEED_BASE = 3000
# Above every uniform-RRT run on the grid; a few MAB-RRT runs stall past it.
BUDGET = 5000
# Far above any run's length, so only the iteration budget ends a run.
NO_TIMEOUT = 1e9

WORKLOADS = {
    # The paper's planner; the only one that runs scale search, PCA and the bandit.
    "tunnel-mab": ("mab-rrt",),
    # Same segment checks and nearest-neighbour search, no bandit or PCA work;
    # the paper's baseline, and where a bandit or PCA change must not show.
    "tunnel-uniform": ("rrt-uniform",),
    # Reach the validity checker through several single-point calls per
    # iteration, so per-call overhead shows here. rrt-obstacle is left out:
    # it solves almost nothing within the budget at ~2 ms per iteration.
    "tunnel-biased": ("rrt-gaussian", "rrt-bridge"),
}


@dataclass(frozen=True)
class Run:
    gap: float
    seed: int
    planner: str


def build_scenes() -> dict:
    return {gap: generate_tunnel_scene(gap) for gap in GAPS}


def run_list(workload: str, workload_seed: int, runs: int = RUNS) -> list[Run]:
    """The grid for `workload`, in the order drawn by `workload_seed`."""
    planners = WORKLOADS[workload]
    grid = [Run(GAPS[i % len(GAPS)], SEED_BASE + i, planners[i % len(planners)]) for i in range(runs)]
    random.Random(workload_seed).shuffle(grid)
    return grid


def plan(scenes: dict, run: Run, budget: int = BUDGET) -> PlannerResult:
    params = PlannerParams(timeout=NO_TIMEOUT, max_iterations=budget)
    return run_planner(scenes[run.gap], run.planner, params, RngStream(run.seed))
