"""Seeded runs must reproduce committed fingerprints bit for bit.

Each fingerprint records a run's outcome, iteration count, repr(r_star) and
SHA-256 digests of the tree points, the parent links and the path, so any
change to a trajectory, however small, fails here. Each trace digest is the
SHA-256 of a traced run's canonical `trace_document` JSON (rows, tags, birth
iterations, arm pulls and rewards, diagnostics, scale history), taken on the
tunnel grid and on edge scenes: a burn-in solve, a start inside the goal, a
sealed pocket, a timeout before iteration 0, a 3-D and a 4-D box window, and
a 3-D window in bounds whose diagonal is not exact in floats. The 4-D window
also has MAB-RRT fingerprints, whose cylinder draws add three or more
products, and the last window has MAB-RRT and uniform RRT fingerprints.

Every planner carries configurations, moments and axes as Python floats and
passes no value through BLAS or LAPACK, so no entry depends on the BLAS
kernel: CI runs this whole file under OPENBLAS_CORETYPE=Prescott as well,
and once more with numpy's AVX-512 loops switched off. The last window's
diagonal sets the step η; as a BLAS dot product it came out one ulp apart
under the two kernels, and every planner's tree moved with it.

Regenerate the file only from a commit whose trajectories are the reference:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from narrowpass.bench import run_planner, trace_document
from narrowpass.cspace import GoalSpec, Scene
from narrowpass.planner import PlannerParams
from narrowpass.rng import RngStream
from narrowpass.scenes import generate_tunnel_scene, open_scene

from conftest import make_box_scene

GOLDEN = Path(__file__).parent / "data" / "golden_fingerprints.json"
PLANNERS = ("mab-rrt", "rrt-uniform", "rrt-gaussian", "rrt-bridge", "rrt-obstacle")
GAPS = (5.0, 10.0, 15.0)
SEEDS = (3000, 3001)
BUDGET = 400


def _sha256(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def fingerprint(planner: str, where: str, seed: int) -> dict:
    params = PlannerParams(timeout=1e9, max_iterations=BUDGET)
    res = run_planner(_scene(where), planner, params, RngStream(seed))
    return {
        "outcome": res.outcome,
        "iterations": res.iterations,
        "r_star": repr(res.r_star),
        "points_sha256": _sha256(res.tree.points),
        "parents_sha256": _sha256(np.asarray(res.tree.parents, dtype=np.int64)),
        "path_sha256": None if res.path is None else _sha256(np.asarray(res.path)),
    }


def _key(planner: str, where: str, seed: int) -> str:
    return f"{planner}/{where}/seed{seed}"


def _burnin_scene() -> Scene:
    # The scale search's burn-in samples lie past the escape threshold, so
    # MAB-RRT solves at iteration 0.
    return dataclasses.replace(generate_tunnel_scene(5.0), name="burnin",
                               goal=GoalSpec("escape", threshold=3.0))


def _start_in_goal_scene() -> Scene:
    return dataclasses.replace(open_scene(), name="start-in-goal",
                               goal=GoalSpec("ball", center=np.zeros(2), tolerance=1.0))


def _pocket_scene() -> Scene:
    # A free pocket smaller than the scale search's radius clamp (r_min on
    # this diagonal, about 2e-7): the burn-in finds nothing valid and MAB-RRT
    # disables its cylinder arms.
    w = 1e-7
    return make_box_scene([((-10, -10), (10, -w)), ((-10, w), (10, 10)),
                           ((-10, -w), (-w, w)), ((w, -w), (10, w))], start=(0, 0))


def _box3d_scene() -> Scene:
    # A wall at x in [-2, 2] with a 2x2 window around the x axis.
    return make_box_scene([((-2, -10, -10), (2, -1, 10)), ((-2, 1, -10), (2, 10, 10)),
                           ((-2, -1, -10), (2, 1, -1)), ((-2, -1, 1), (2, 1, 10))],
                          start=(-6, 0, 0), bounds=((-10,) * 3, (10,) * 3),
                          goal=GoalSpec("ball", center=np.array([6.0, 0.0, 0.0]), tolerance=1.5))


def _box3d_skew_scene() -> Scene:
    # A wall at y in [0.1, 0.5] with a window 0.6 wide in x and 0.5 in z. The
    # squared spans 2.4000000000000004², 5.199999999999999² and 1.6² do not
    # sum exactly, so the diagonal, and with it η, is one rounding of fsum.
    return make_box_scene([((-1.1, 0.1, -0.7), (-0.3, 0.5, 0.9)), ((0.3, 0.1, -0.7), (1.3, 0.5, 0.9)),
                           ((-0.3, 0.1, -0.7), (0.3, 0.5, -0.15)), ((-0.3, 0.1, 0.35), (0.3, 0.5, 0.9))],
                          start=(0.0, -1.8, 0.1), bounds=((-1.1, -2.3, -0.7), (1.3, 2.9, 0.9)),
                          goal=GoalSpec("ball", center=(0.0, 2.3, 0.1), tolerance=0.4))


def _box4d_scene() -> Scene:
    # A wall at x in [-2, 2] with a window |x_i| < 2 in the other coordinates.
    boxes = []
    for i in (1, 2, 3):
        for side in ((-10, -2), (2, 10)):
            lo, hi = [-2, -10, -10, -10], [2, 10, 10, 10]
            lo[i], hi[i] = side
            boxes.append((lo, hi))
    return make_box_scene(boxes, start=(-6, 0, 0, 0), bounds=((-10,) * 4, (10,) * 4),
                          goal=GoalSpec("ball", center=np.array([6.0, 0.0, 0.0, 0.0]), tolerance=3.0))


# (name, scene factory, timeout); a 1 ns timeout expires before iteration 0.
EDGE_SCENES = {
    "burnin": (_burnin_scene, 1e9),
    "start-in-goal": (_start_in_goal_scene, 1e9),
    "pocket": (_pocket_scene, 1e9),
    "timeout": (lambda: generate_tunnel_scene(5.0), 1e-9),
    "box3d": (_box3d_scene, 1e9),
    "box4d": (_box4d_scene, 1e9),
    "box3d-skew": (_box3d_skew_scene, 1e9),
}


def _scene(where: str) -> Scene:
    if where in EDGE_SCENES:
        return EDGE_SCENES[where][0]()
    return generate_tunnel_scene(float(where.removeprefix("gap")))


def _trace_sha256(scene: Scene, planner: str, seed: int, timeout: float = 1e9) -> str:
    params = PlannerParams(timeout=timeout, max_iterations=BUDGET)
    res = run_planner(scene, planner, params, RngStream(seed), record_trace=True)
    text = json.dumps(trace_document(res), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def trace_digest(planner: str, where: str, seed: int) -> str:
    timeout = EDGE_SCENES[where][1] if where in EDGE_SCENES else 1e9
    return _trace_sha256(_scene(where), planner, seed, timeout)


RUNS = ([(p, f"gap{g:g}", s) for p in PLANNERS for g in GAPS for s in SEEDS] + [("mab-rrt", "box4d", s) for s in SEEDS]
        + [(p, "box3d-skew", s) for p in ("mab-rrt", "rrt-uniform") for s in SEEDS])
TRACES = [(p, w, s) for p in PLANNERS for w in (*(f"gap{g:g}" for g in GAPS), *EDGE_SCENES) for s in SEEDS]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("planner,where,seed", RUNS, ids=[_key(*r) for r in RUNS])
def test_seeded_run_matches_golden(golden, planner, where, seed):
    assert fingerprint(planner, where, seed) == golden["runs"][_key(planner, where, seed)]


@pytest.mark.parametrize("planner,where,seed", TRACES, ids=[_key(*t) for t in TRACES])
def test_seeded_trace_matches_golden(golden, planner, where, seed):
    assert trace_digest(planner, where, seed) == golden["traces"][_key(planner, where, seed)]


if __name__ == "__main__":
    doc = {
        "numpy": np.__version__,
        "budget": BUDGET,
        "runs": {_key(*r): fingerprint(*r) for r in RUNS},
        "traces": {_key(*t): trace_digest(*t) for t in TRACES},
    }
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(RUNS)} fingerprints and {len(TRACES)} trace digests to {GOLDEN}")
