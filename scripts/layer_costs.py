#!/usr/bin/env python3
"""Cost of one call of each layer of a planner iteration, in µs.

    PYTHONPATH=src python3 scripts/layer_costs.py

Times each layer of a planner iteration on fixed inputs and prints the
best of 9 repeats, in µs per call. Each repeat makes enough calls to take
at least 10 ms. The inputs are the gap-5 tunnel and fixed seeds: uniform
draws and cylinder draws in its bounds and around its escape axis,
`Tree.nearest` on trees of 100 and 1,000 uniform nodes, one RRT step from
the start (`steer`), a motion along the corridor and one into its wall
(`check_motion`), a bandit whose window is full (`select_arm`,
`BanditState.update`), the power step and the progress along the axis, one
scale search from the start and `principal_axis` of its burn-in samples.
The axis layers also run on 14 fixed rows in 3-D. A scale search and the
draws advance one stream from call to call, so their figures average over
its samples. The figures are wall time on the machine that runs the script,
whose architecture and versions the first line names; the script takes no
options and gates nothing.
"""

from __future__ import annotations

import platform
import time

import numpy as np

from narrowpass.bandit import ARMS, Arm, BanditState, select_arm
from narrowpass.cspace import check_motion
from narrowpass.pca import axis_progress, principal_axis, recalibrate_axis, sample_cylinder_with_height
from narrowpass.planner import PlannerParams, Tree, steer
from narrowpass.rng import RngStream
from narrowpass.samplers import sample_uniform
from narrowpass.scale_search import find_entropy_scale
from narrowpass.scenes import generate_tunnel_scene

REPEATS = 9
MIN_REPEAT_S = 0.01


def best_us(fn) -> float:
    """Best of REPEATS repeats of fn(), in µs per call."""
    clock, number = time.perf_counter, 1
    while True:
        t0 = clock()
        for _ in range(number):
            fn()
        if clock() - t0 >= MIN_REPEAT_S:
            break
        number *= 10
    best = float("inf")
    for _ in range(REPEATS):
        t0 = clock()
        for _ in range(number):
            fn()
        best = min(best, clock() - t0)
    return best / number * 1e6


def tree_of(scene, size: int, seed: int) -> Tree:
    rng, tree = RngStream(seed), Tree(scene.start)
    while tree.size < size:
        tree.add(sample_uniform(scene.bounds, rng), 0, "uniform")
    return tree


def axis_layers(dim: str, axis, step) -> list:
    """The per-pull axis layers around axis, with step the node a pull adds."""
    rng = RngStream(3)
    return [
        (f"sample_cylinder_with_height ({dim})", lambda: sample_cylinder_with_height(axis, +1, 4.0, 8.0, 1.0, rng)),
        (f"recalibrate_axis ({dim})", lambda: recalibrate_axis(axis, step)),
        (f"axis_progress ({dim})", lambda: axis_progress(axis, step)),
    ]


def main() -> int:
    scene = generate_tunnel_scene(5.0)
    eta = PlannerParams().effective_eta(scene)
    uniform_rng, search_rng = RngStream(1), RngStream(2)
    burnin = find_entropy_scale(scene, scene.start, RngStream(1)).valid_samples
    axis2 = principal_axis(burnin, scene.start)
    rows3 = (RngStream(4).standard_normal((14, 3)) * (3.0, 1.0, 0.5)).tolist()
    origin3 = (0.0, 0.0, 0.0)
    axis3 = principal_axis(rows3, origin3)
    small, large = tree_of(scene, 100, 5), tree_of(scene, 1000, 6)
    query = (-10.0, 1.0)
    start = scene.start
    inside = (start[0] + eta, start[1])          # along the corridor
    into_wall = (start[0] + eta, start[1] + 3.0)  # ends in the wall above
    bandit, bandit_rng = BanditState(), RngStream(7)
    for i in range(bandit.window_size):
        bandit.update(ARMS[i % len(ARMS)], float(i % 3 == 0))

    layers = [
        ("sample_uniform", lambda: sample_uniform(scene.bounds, uniform_rng)),
        ("Tree.nearest (100 nodes)", lambda: small.nearest(query)),
        ("Tree.nearest (1,000 nodes)", lambda: large.nearest(query)),
        ("steer", lambda: steer(start, query, eta)),
        ("check_motion (valid)", lambda: check_motion(scene, start, inside)),
        ("check_motion (invalid)", lambda: check_motion(scene, start, into_wall)),
        ("select_arm", lambda: select_arm(bandit, ARMS, bandit_rng)),
        ("BanditState.update", lambda: bandit.update(Arm.PC_POSITIVE, 1.0)),
        *axis_layers("2-D", axis2, inside),
        *axis_layers("3-D", axis3, (1.0, 0.5, -0.25)),
        ("find_entropy_scale", lambda: find_entropy_scale(scene, start, search_rng)),
        (f"principal_axis (2-D, {len(burnin)} rows)", lambda: principal_axis(burnin, start)),
        (f"principal_axis (3-D, {len(rows3)} rows)", lambda: principal_axis(rows3, origin3)),
    ]
    print(f"# {platform.machine()}, Python {platform.python_version()}, numpy {np.__version__}; "
          f"best of {REPEATS}, µs per call")
    width = max(len(name) for name, _ in layers)
    for name, fn in layers:
        print(f"{name:<{width}}  {best_us(fn):9.2f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
