"""Acceptance suite: one test per shipped claim, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import statistics
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats as sstats

from narrowpass import (Arm, BanditState, PlannerParams, check_motion,
                        mab_rrt_plan, rrt_plan, select_arm)
from narrowpass.pca import principal_axis, recalibrate_axis, sample_cylinder_with_height
from narrowpass.planner import Tree
from narrowpass.rng import RngStream
from narrowpass.scale_search import R_MAX, R_MIN, find_entropy_scale
from narrowpass.scenes import generate_tunnel_scene, open_scene


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} ({name}): {status}"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert ok, line


SEEDS = list(range(2000, 2020))


def test_criterion_1_tunnel_benchmark():
    """MAB-RRT solves all gap-5/10/15 tunnels in 10 s on 20 seeds, and on gap 5
    it beats uniform RRT by 2x in median solve time (or uniform fails a seed)."""
    params = PlannerParams(timeout=10.0)
    mab_times = {}
    all_solved = True
    for gap in (5.0, 10.0, 15.0):
        scene = generate_tunnel_scene(gap)
        times = []
        for seed in SEEDS:
            res = mab_rrt_plan(scene, params, RngStream(seed))
            all_solved &= res.solved
            times.append(res.wall_time)
        mab_times[gap] = times
    uniform5 = [rrt_plan(generate_tunnel_scene(5.0), "uniform", params, RngStream(s))
                for s in SEEDS]
    uniform_solved = sum(r.solved for r in uniform5)
    mab_median = statistics.median(mab_times[5.0])
    if uniform_solved == len(SEEDS):
        uni_median = statistics.median(r.wall_time for r in uniform5)
        speed_ok = mab_median * 2.0 <= uni_median
        detail = f"gap-5 median {mab_median:.3f}s vs uniform {uni_median:.3f}s"
    else:
        speed_ok = True
        detail = f"uniform solved only {uniform_solved}/{len(SEEDS)}"
    report(1, "tunnel benchmark", all_solved and speed_ok,
           f"MAB 60/60 solved={all_solved}; {detail}")


def _monte_carlo_alpha(scene, radius, rng, n=10_000):
    # Independent validity-rate oracle: fresh uniform sphere-surface samples,
    # one check_motion call each.
    dirs = rng.standard_normal((n, scene.dimension))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = np.array(scene.start) + radius * dirs
    return sum(check_motion(scene, scene.start, p) for p in pts) / n


def test_criterion_2_scale_search_robustness():
    factor_cap = max(math.exp(0.9), math.exp(0.7)) ** 2
    ok = True
    details = []
    for gap in (5.0, 10.0, 15.0):
        scene = generate_tunnel_scene(gap)
        radii = []
        # From r0 = R_MIN and r0 = R_MAX: 1e-6 and 25 on the tunnels.
        for i, r0 in enumerate((R_MIN, R_MAX)):
            res = find_entropy_scale(scene, scene.start, RngStream(310 + i), r0=r0)
            ok &= res.converged
            radii.append(res.r_star)
            alpha = _monte_carlo_alpha(scene, res.r_star, RngStream(410 + i))
            half = 1.96 * math.sqrt(max(alpha * (1 - alpha), 1e-12) / 10_000)
            ok &= alpha - half <= 0.5 and alpha + half >= 0.1
        ratio = max(radii) / min(radii)
        ok &= ratio <= factor_cap
        details.append(f"gap{gap:g}: r={radii[0]:.3g}/{radii[1]:.3g} ratio {ratio:.2f}")
    report(2, "scale-search robustness", ok, "; ".join(details))


def test_criterion_3_bandit_dynamics():
    scene = generate_tunnel_scene(5.0)
    res = mab_rrt_plan(scene, PlannerParams(timeout=10.0), RngStream(1),
                       record_trace=True)
    tree = res.tree
    exit_iters = [tree.birth_iters[i] for i in range(tree.size) if tree.node(i)[0] > 0]
    first_exit = min(exit_iters)
    cum = {"uniform": 0.0, "pc-positive": 0.0, "pc-negative": 0.0}
    cum_at_exit = None
    for row in res.trace:
        cum[row.arm] += row.reward
        if row.iteration == first_exit and cum_at_exit is None:
            cum_at_exit = dict(cum)
    a = all(row.reward == float(row.valid) for row in res.trace)
    b = cum_at_exit["pc-positive"] > cum_at_exit["uniform"] + cum_at_exit["pc-negative"]
    pulls = res.arm_pulls
    c = pulls[Arm.PC_POSITIVE] > pulls[Arm.PC_NEGATIVE]
    report(3, "bandit dynamics", res.solved and a and b and c,
           f"rewards are validity: {a}; pre-escape pc+ {cum_at_exit['pc-positive']:g} vs "
           f"uni {cum_at_exit['uniform']:g} + pc- {cum_at_exit['pc-negative']:g}; "
           f"pulls pc+ {pulls[Arm.PC_POSITIVE]} vs pc- {pulls[Arm.PC_NEGATIVE]}")


def test_criterion_4_cylinder_statistics():
    samples = np.zeros((2, 3))
    samples[0] = [1.0, 0.0, 0.0]
    samples[1] = [2.0, 0.0, 0.0]
    axis = principal_axis(samples, np.zeros(3))
    rng = RngStream(11)
    heights, radial = [], []
    invariants = True
    a = np.array(axis.axis)
    for _ in range(10_000):
        q = sample_cylinder_with_height(axis, +1, 1.0, 2.0, 1.0, rng)
        h = float(np.dot(q, a))  # the height: the projection on the axis from the origin 0
        heights.append(h)
        r = float(np.linalg.norm(q - h * a))
        radial.append(r)
        invariants &= 1.0 <= h <= 2.0 and r <= 1.0 + 1e-12
    counts, _ = np.histogram(heights, bins=10, range=(1.0, 2.0))
    p_axial = sstats.chisquare(counts).pvalue
    mean_r = float(np.mean(radial))
    se = float(np.std(radial, ddof=1)) / math.sqrt(len(radial))
    radial_ok = abs(mean_r - 2.0 / 3.0) <= 3 * se
    report(4, "cylinder sampler statistics",
           invariants and p_axial > 0.01 and radial_ok,
           f"chi2 p={p_axial:.3f}, mean radial {mean_r:.4f} (target 2/3, 3se={3*se:.4f})")


def test_criterion_5_oracle_equivalence():
    g = RngStream(21)

    # select_arm vs a brute-force argmax of Beta(valid + 1, pulls - valid + 1)
    # draws from a same-seed generator, on randomized windows.
    bandit_ok = True
    for trial in range(1000):
        state = BanditState(window_size=int(g.integers(1, 64)))
        for _ in range(int(g.integers(0, 128))):
            state.update(Arm(int(g.integers(0, 3))), float(g.integers(0, 2)))
        window = list(state.window)
        oracle, rng = RngStream(trial), RngStream(trial)
        draws = []
        for a in Arm:
            pulls = sum(1 for w, _ in window if w == a)
            valid = int(sum(r for w, r in window if w == a))
            draws.append(oracle.beta(valid + 1, pulls - valid + 1))
        best = Arm(draws.index(max(draws)))
        bandit_ok &= select_arm(state, tuple(Arm), rng) == best and rng.random() == oracle.random()

    # nearest vs linear scan.
    pts = g.uniform(-50, 50, (1000, 3))
    tree = Tree(pts[0])
    for p in pts[1:]:
        tree.add(p, 0, "uniform")
    queries = g.uniform(-50, 50, (1000, 3))
    nearest_ok = all(
        tree.nearest(q) == int(np.argmin(np.linalg.norm(pts - q, axis=1)))
        for q in queries)

    # incremental axis recalibration vs power iteration on batch moments:
    # after k displacements, a_k = S_k a_(k-1) / |S_k a_(k-1)| with S_k the
    # sum of their outer products, from the batch eigenvector of the first 5.
    pca_ok = True
    for trial in range(100):
        dim = int(g.integers(2, 7))
        stream = g.standard_normal((40, dim)) * g.uniform(0.5, 3.0, dim)
        origin = g.uniform(-1, 1, dim)
        axis = principal_axis(origin + stream[:5], origin)
        disp = (origin + stream) - origin
        oracle = axis.axis
        for k, q in enumerate(origin + stream[5:], start=6):
            axis = recalibrate_axis(axis, q)
            step = disp[:k].T @ disp[:k] @ oracle
            oracle = step / np.linalg.norm(step)
        pca_ok &= np.linalg.norm(axis.axis - oracle) <= 1e-9
    report(5, "oracle equivalence", bandit_ok and nearest_ok and pca_ok,
           f"bandit={bandit_ok} nearest={nearest_ok} pca={pca_ok}")


def test_criterion_6_completeness_retention():
    scene = open_scene()
    params = PlannerParams(timeout=5.0, arms=(Arm.UNIFORM,))
    results = [mab_rrt_plan(scene, params, RngStream(s)) for s in SEEDS]
    solved = sum(r.solved for r in results)
    no_pc = all(r.arm_pulls.get(Arm.PC_POSITIVE, 0) == 0
                and r.arm_pulls.get(Arm.PC_NEGATIVE, 0) == 0 for r in results)
    report(6, "completeness retention (uniform arm only)",
           solved == len(SEEDS) and no_pc, f"{solved}/{len(SEEDS)} solved in 5 s")


def test_criterion_7_determinism(tmp_path):
    outs = []
    for name in ("run1.json", "run2.json"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "narrowpass", "plan", "--scene", "tunnel:gap=5",
             "--planner", "mab-rrt", "--seed", "99", "--trace", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(path.read_bytes())
    report(7, "determinism", outs[0] == outs[1],
           f"{len(outs[0])}-byte traces byte-identical")
