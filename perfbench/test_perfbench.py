"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import narrowpass.planner  # noqa: E402
import pathcheck  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TUNNEL = workloads.build_scenes()[10.0]  # walls at |y| in [5, 10]
WALL_LO, WALL_HI = (-35.0, 5.0), (0.0, 10.0)


def test_rejects_the_known_corner_cut():
    assert pathcheck.segment_hits_box((-0.341, 4.939), (1.707, 7.821), WALL_LO, WALL_HI)


@pytest.mark.parametrize("a, b", [((-10.0, 0.0), (5.0, 0.0)),        # along the corridor
                                  ((-0.341, 4.0), (1.707, 4.9)),     # below the wall
                                  ((0.1, 5.0), (0.1, 10.0))])        # just past its end
def test_accepts_clear_edges(a, b):
    assert not pathcheck.segment_hits_box(a, b, WALL_LO, WALL_HI)


def test_boxes_are_closed():
    assert pathcheck.segment_hits_box((-1.0, 4.0), (-1.0, 5.0), WALL_LO, WALL_HI)
    assert pathcheck.segment_hits_box((0.0, 7.0), (0.0, 7.0), WALL_LO, WALL_HI)


def test_path_problems():
    start = TUNNEL.start
    clear = [start, (-10.0, 0.0), (0.0, 0.0), (9.0, 0.0)]
    assert pathcheck.path_problem(TUNNEL, clear) is None
    assert "begin" in pathcheck.path_problem(TUNNEL, clear[1:])
    assert "goal" in pathcheck.path_problem(TUNNEL, clear[:-1])
    assert "crosses box" in pathcheck.path_problem(TUNNEL, [start, (-0.341, 0.0), (-0.341, 4.939),
                                                           (1.707, 7.821), (9.0, 0.0)])


def test_grid_is_fixed_and_the_seed_orders_it():
    a, b = workloads.run_list("tunnel-biased", 1), workloads.run_list("tunnel-biased", 2)
    assert a == workloads.run_list("tunnel-biased", 1) and a != b
    assert sorted(a, key=lambda r: r.seed) == sorted(b, key=lambda r: r.seed)
    assert {r.planner for r in a} == {"rrt-gaussian", "rrt-bridge"}
    assert {r.gap for r in a} == set(workloads.GAPS)


def test_self_times_account_for_the_plan_time():
    tracer = tracing.Tracer()
    original = narrowpass.planner.check_motion
    scenes = workloads.build_scenes()
    with tracing.patched(tracer):
        tracer.run(7, workloads.plan, scenes, workloads.Run(5.0, 7, "mab-rrt"), 300)
    assert narrowpass.planner.check_motion is original
    totals = tracer.totals()
    plan_s = totals[tracing.ROOT][1]
    assert sum(own for _, _, own in totals.values()) == pytest.approx(plan_s, rel=1e-9)
    assert totals["cspace.states_valid"][0] > totals["cspace.check_motion"][0] > 0
    assert set(tracer.run_id) == {7}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(workload, trace):
    out = run.measure(workload, 1, 0.01, trace, runs=6, budget=200, setup_repeats=1)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["attempted"] == 6
    assert list(out["metrics"]) == [m["name"] for m in wanted]
    assert all(isinstance(m["value"], (int, float)) for m in out["metrics"].values())


def test_refuses_to_run_without_the_program():
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, Path(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__", "out"))
        done = subprocess.run([*SPEC["command"], "--workload", "tunnel-mab", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_spec_keeps_to_its_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
