"""Seeded runs must reproduce committed fingerprints bit for bit.

Each fingerprint records a run's outcome, iteration count, repr(r_star) and
SHA-256 digests of the tree points, the parent links and the path, so any
change to a trajectory, however small, fails here. MAB-RRT runs pass through
LAPACK (eigh, qr), whose last bits may differ between numpy builds; on a
numpy version other than the recorded one only those entries are skipped.

Regenerate the file only from a commit whose trajectories are the reference:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from narrowpass.bench import run_planner
from narrowpass.planner import PlannerParams
from narrowpass.rng import RngStream
from narrowpass.scenes import generate_tunnel_scene

GOLDEN = Path(__file__).parent / "data" / "golden_fingerprints.json"
PLANNERS = ("mab-rrt", "rrt-uniform", "rrt-gaussian", "rrt-bridge")
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


RUNS = [(p, g, s) for p in PLANNERS for g in GAPS for s in SEEDS]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("planner,gap,seed", RUNS, ids=[_key(*r) for r in RUNS])
def test_seeded_run_matches_golden(golden, planner, gap, seed):
    if planner in LAPACK_PLANNERS and golden["numpy"] != np.__version__:
        pytest.skip(f"{planner} goes through LAPACK; fingerprints were recorded "
                    f"with numpy {golden['numpy']}, this is numpy {np.__version__}")
    assert fingerprint(planner, gap, seed) == golden["runs"][_key(planner, gap, seed)]


if __name__ == "__main__":
    doc = {
        "numpy": np.__version__,
        "budget": BUDGET,
        "runs": {_key(*r): fingerprint(*r) for r in RUNS},
    }
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(RUNS)} fingerprints to {GOLDEN}")
