"""Seeded runs must reproduce committed fingerprints bit for bit.

Each fingerprint records a run's outcome, iteration count, repr(r_star) and
SHA-256 digests of the tree points, the parent links and the path, so any
change to a trajectory, however small, fails here. Each trace digest is the
SHA-256 of a traced run's canonical `trace_document` JSON (rows, tags, birth
iterations, arm pulls and rewards, diagnostics, scale history), taken on the
tunnel grid and on edge scenes: a burn-in solve, a start inside the goal, a
sealed pocket, a timeout before iteration 0 and a 3-D box window.

The baseline planners carry configurations as Python floats and pass no
value through BLAS, so their entries do not depend on the BLAS kernel (CI
checks them under OPENBLAS_CORETYPE=Prescott). MAB-RRT runs still pass
through BLAS and LAPACK in principal_axis (disp.T @ disp and eigh), whose
last bits may differ between numpy builds and CPU kernels; on a numpy version
other than the recorded one only those entries are skipped.

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
LAPACK_PLANNERS = ("mab-rrt",)


def _sha256(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def fingerprint(planner: str, gap: float, seed: int) -> dict:
    params = PlannerParams(timeout=1e9, max_iterations=BUDGET)
    res = run_planner(generate_tunnel_scene(gap), planner, params, RngStream(seed))
    return {
        "outcome": res.outcome,
        "iterations": res.iterations,
        "r_star": repr(res.r_star),
        "points_sha256": _sha256(res.tree.points),
        "parents_sha256": _sha256(np.asarray(res.tree.parents, dtype=np.int64)),
        "path_sha256": None if res.path is None else _sha256(np.asarray(res.path)),
    }


def _key(planner: str, gap: float, seed: int) -> str:
    return f"{planner}/gap{gap:g}/seed{seed}"


def _burnin_scene() -> Scene:
    # The scale search's burn-in samples lie past the escape threshold, so
    # MAB-RRT solves at iteration 0.
    return dataclasses.replace(generate_tunnel_scene(5.0), name="burnin",
                               goal=GoalSpec("escape", threshold=3.0))


def _start_in_goal_scene() -> Scene:
    return dataclasses.replace(open_scene(), name="start-in-goal",
                               goal=GoalSpec("ball", center=np.zeros(2), tolerance=1.0))


def _pocket_scene() -> Scene:
    # A free pocket far smaller than the scale search's radius clamp: the
    # burn-in finds nothing valid and MAB-RRT disables its cylinder arms.
    w = 5e-7
    return make_box_scene([((-10, -10), (10, -w)), ((-10, w), (10, 10)),
                           ((-10, -w), (-w, w)), ((w, -w), (10, w))], start=(0, 0))


def _box3d_scene() -> Scene:
    # A wall at x in [-2, 2] with a 2x2 window around the x axis.
    return make_box_scene([((-2, -10, -10), (2, -1, 10)), ((-2, 1, -10), (2, 10, 10)),
                           ((-2, -1, -10), (2, 1, -1)), ((-2, -1, 1), (2, 1, 10))],
                          start=(-6, 0, 0), bounds=((-10,) * 3, (10,) * 3),
                          goal=GoalSpec("ball", center=np.array([6.0, 0.0, 0.0]), tolerance=1.5))


# (name, scene factory, timeout); a 1 ns timeout expires before iteration 0.
EDGE_SCENES = {
    "burnin": (_burnin_scene, 1e9),
    "start-in-goal": (_start_in_goal_scene, 1e9),
    "pocket": (_pocket_scene, 1e9),
    "timeout": (lambda: generate_tunnel_scene(5.0), 1e-9),
    "box3d": (_box3d_scene, 1e9),
}


def _trace_sha256(scene: Scene, planner: str, seed: int, timeout: float = 1e9) -> str:
    params = PlannerParams(timeout=timeout, max_iterations=BUDGET)
    res = run_planner(scene, planner, params, RngStream(seed), record_trace=True)
    text = json.dumps(trace_document(res), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def trace_digest(planner: str, where: str, seed: int) -> str:
    if where in EDGE_SCENES:
        make, timeout = EDGE_SCENES[where]
        return _trace_sha256(make(), planner, seed, timeout)
    return _trace_sha256(generate_tunnel_scene(float(where.removeprefix("gap"))), planner, seed)


RUNS = [(p, g, s) for p in PLANNERS for g in GAPS for s in SEEDS]
TRACES = [(p, w, s) for p in PLANNERS for w in (*(f"gap{g:g}" for g in GAPS), *EDGE_SCENES) for s in SEEDS]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def _skip_lapack(golden, planner):
    if planner in LAPACK_PLANNERS and golden["numpy"] != np.__version__:
        pytest.skip(f"{planner} goes through LAPACK; fingerprints were recorded "
                    f"with numpy {golden['numpy']}, this is numpy {np.__version__}")


@pytest.mark.parametrize("planner,gap,seed", RUNS, ids=[_key(*r) for r in RUNS])
def test_seeded_run_matches_golden(golden, planner, gap, seed):
    _skip_lapack(golden, planner)
    assert fingerprint(planner, gap, seed) == golden["runs"][_key(planner, gap, seed)]


@pytest.mark.parametrize("planner,where,seed", TRACES, ids=[f"{p}/{w}/seed{s}" for p, w, s in TRACES])
def test_seeded_trace_matches_golden(golden, planner, where, seed):
    _skip_lapack(golden, planner)
    assert trace_digest(planner, where, seed) == golden["traces"][f"{planner}/{where}/seed{seed}"]


if __name__ == "__main__":
    doc = {
        "numpy": np.__version__,
        "budget": BUDGET,
        "runs": {_key(*r): fingerprint(*r) for r in RUNS},
        "traces": {f"{p}/{w}/seed{s}": trace_digest(p, w, s) for p, w, s in TRACES},
    }
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(RUNS)} fingerprints and {len(TRACES)} trace digests to {GOLDEN}")
