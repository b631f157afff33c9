#!/usr/bin/env python3
"""Radius-search robustness sweep: start the grow-shrink search from a grid of
initial radii on one scene and report where each run lands."""

import argparse

import numpy as np

from narrowpass.rng import RngStream
from narrowpass.scale_search import R_MAX, R_MIN, find_entropy_scale
from narrowpass.scenes import resolve_scene_spec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scene", default="tunnel:gap=5")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--points", type=int, default=9, help="log-spaced initial radii")
    args = ap.parse_args()

    scene = resolve_scene_spec(args.scene)
    print(f"{'r0':>10s} {'r*':>10s} {'steps':>5s} converged")
    for r0 in np.geomspace(R_MIN, R_MAX, args.points):
        res = find_entropy_scale(scene, scene.start, RngStream(args.seed), r0=float(r0))
        print(f"{r0 * scene.bounds.diagonal:10.3g} {res.r_star:10.4g} {len(res.history):5d} {res.converged}")


if __name__ == "__main__":
    main()
