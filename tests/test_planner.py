import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from narrowpass import (Arm, PlannerParams, Tree, check_motion, distance, extract_path,
                        goal_satisfied, mab_rrt_plan, rrt_plan, steer)
from narrowpass import cli, planner
from narrowpass.bench import trace_document, write_trace
from narrowpass.cspace import scene_to_document
from narrowpass.planner import PLANNER_NAMES, run_planner
from narrowpass.rng import RngStream
from narrowpass.scenes import generate_tunnel_scene, open_scene

from conftest import make_box_scene

DISABLED = "scale search produced no valid samples; cylinder arms disabled"


def pocket_scene():
    """A free pocket far smaller than the scale search's radius clamp."""
    w = 5e-7
    return make_box_scene(
        [((-10, -10), (10, -w)), ((-10, w), (10, 10)),
         ((-10, -w), (-w, w)), ((w, -w), (10, w))],
        start=(0, 0))


def build_tree(rows: np.ndarray) -> Tree:
    tree = Tree(rows[0])
    for q in rows[1:]:
        tree.add(q, 0, "uniform")
    return tree


def einsum_d2(rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared distances as a row-major einsum computes them."""
    diff = rows - q
    return np.einsum("ij,ij->i", diff, diff)


def coordinate_order_d2(rows: np.ndarray, q: np.ndarray) -> list[float]:
    """Squared distances summed one coordinate at a time, in Python floats."""
    out = []
    for p in rows.tolist():
        s = 0.0
        for pj, qj in zip(p, q.tolist()):
            s += (pj - qj) * (pj - qj)
        out.append(s)
    return out


def tie_clusters(g: np.random.Generator, dim: int, clusters: int = 75):
    """(rows, centres): four nodes around each centre that tie in exact
    arithmetic but whose squares need up to 58 bits, so the rounding of the
    sum of squares decides which is nearest. In 2-D the four are the two ways
    of writing (a² + b²)(c² + d²) as a sum of two squares; in more dimensions
    they are permutations of one integer offset. Centres lie 2³² apart on the
    first axis, and every coordinate is an integer below 2⁵³."""
    rows, centres = [], []
    for k in range(clusters):
        centre = np.zeros(dim)
        centre[0] = k * 2.0**32
        if dim == 2:
            a, b, c, d = g.integers(1, 2**14, 4, endpoint=True).tolist()
            u, w = (a * c - b * d, a * d + b * c), (a * c + b * d, a * d - b * c)
            offsets = [u, w, w, u]
        else:
            v = g.integers(-2**28, 2**28, dim)
            offsets = [g.permutation(v) for _ in range(4)]
        rows += [centre + np.asarray(o, dtype=float) for o in offsets]
        centres.append(centre)
    return np.array(rows), centres


@st.composite
def tree_cases(draw, dims):
    """(rows, queries) for 1 to 300 nodes. Most rows are the first query plus
    a sign-flipped, coordinate-permuted copy of one of a few offsets, so
    distances tie exactly, tie up to rounding, or repeat; the rest, and one
    query, are uniform. The second query is a node."""
    dim = draw(st.sampled_from(dims))
    n = draw(st.integers(1, 300))
    # Zero or at least 1e-3 in magnitude: no squared difference underflows.
    coord = st.one_of(st.integers(-3, 3).map(float),
                      st.floats(-50.0, 50.0).map(lambda x: x if abs(x) >= 1e-3 else 0.0))
    vector = st.lists(coord, min_size=dim, max_size=dim)
    q = np.array(draw(vector))
    offsets = np.array(draw(st.lists(vector, min_size=1, max_size=4)))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    picks = offsets[g.integers(0, len(offsets), n)]
    perms = g.permuted(np.tile(np.arange(dim), (n, 1)), axis=1)
    rows = q + np.take_along_axis(picks, perms, axis=1) * g.choice([-1.0, 1.0], (n, dim))
    uniform = g.random(n) < 0.25
    rows[uniform] = g.uniform(-50.0, 50.0, (int(uniform.sum()), dim))
    return rows, [q, rows[g.integers(n)].copy(), g.uniform(-50.0, 50.0, dim)]


class TestTreeNearest:
    def test_singleton(self):
        tree = Tree(np.zeros(2))
        assert tree.nearest(np.array([5.0, 5.0])) == 0

    def test_two_nodes(self):
        tree = Tree(np.zeros(2))
        tree.add(np.array([10.0, 0.0]), 0, "uniform")
        assert tree.nearest(np.array([6.0, 0.0])) == 1

    def test_matches_linear_scan_oracle(self):
        rng = RngStream(1)
        tree = Tree(rng.gen.uniform(-10, 10, 2))
        for _ in range(999):
            tree.add(rng.gen.uniform(-10, 10, 2), 0, "uniform")
        pts = tree.points.copy()
        for _ in range(1000):
            q = rng.gen.uniform(-10, 10, 2)
            dists = [float(np.linalg.norm(p - q)) for p in pts]
            expected = min(range(len(dists)), key=lambda i: (dists[i], i))
            assert tree.nearest(q) == expected

    # Rows of up to 300 nodes cross the capacity doublings at 64, 128 and 256.
    @settings(max_examples=150, deadline=None)
    @given(case=tree_cases(dims=(1, 2)))
    def test_low_dimensions_match_row_major_einsum(self, case):
        rows, queries = case
        tree = build_tree(rows)
        for q in queries:
            assert tree.nearest(q) == int(einsum_d2(rows, q).argmin())

    @pytest.mark.parametrize("dim", range(2, 9))
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_rounding_decides_exact_ties_like_the_reference(self, dim, seed):
        rows, centres = tie_clusters(np.random.default_rng(seed), dim)
        tree = build_tree(rows)
        for q in centres:
            if dim == 2:
                assert tree.nearest(q) == int(einsum_d2(rows, q).argmin())
            else:
                d2 = coordinate_order_d2(rows, q)
                assert tree.nearest(q) == min(range(len(d2)), key=d2.__getitem__)

    def test_exact_ties_go_to_lowest_index(self):
        rng = RngStream(3)
        tree = Tree(np.array([40.0, 40.0]))
        for _ in range(299):
            tree.add(rng.gen.uniform(10, 50, 2), 0, "uniform")
        ring = [tree.add(np.array(p), 0, "uniform") for p in [(3.0, -4.0), (-4.0, 3.0), (0.0, 5.0), (3.0, -4.0)]]
        assert tree.nearest(np.zeros(2)) == ring[0]
        assert tree.nearest(np.array([3.0, -4.0])) == ring[0]

    @settings(max_examples=100, deadline=None)
    @given(case=tree_cases(dims=range(3, 9)))
    def test_higher_dimensions_sum_in_coordinate_order(self, case):
        rows, queries = case
        tree = build_tree(rows)
        k = rows.shape[1] - 1  # additions per squared distance
        u = 2.0 ** -53
        for q in queries:
            i = tree.nearest(q)
            d2 = coordinate_order_d2(rows, q)
            assert i == min(range(len(d2)), key=d2.__getitem__)
            # Both sums add the same rounded squares, each within k*u of
            # their exact sum, so the pick is nearly an einsum minimum.
            e = einsum_d2(rows, q)
            assert e[i] <= e.min() * ((1 + k * u) / (1 - k * u)) ** 2

    @settings(max_examples=60, deadline=None)
    @given(case=tree_cases(dims=range(1, 9)))
    def test_points_and_nodes_are_the_inserted_rows(self, case):
        rows, _ = case
        tree = build_tree(rows)
        assert tree.points.shape == rows.shape
        assert tree.points.tobytes() == rows.tobytes()
        for i in range(len(rows)):
            q = tree.node(i)
            assert type(q) is tuple and np.array(q).tobytes() == rows[i].tobytes()


def reference_steer(a, b, eta):
    """steer in plain Python floats: the target itself within eta of a, else
    a + (eta / |b - a|)·(b - a), with |b - a| the hypot of the differences."""
    diff = [y - x for x, y in zip(a, b)]
    d = math.hypot(*diff)
    if d <= eta:
        return tuple(b)
    return tuple(x + (eta / d) * v for x, v in zip(a, diff))


signed = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e3, 1e3))


class TestSteer:
    @settings(max_examples=400, deadline=None)
    @given(case=st.integers(1, 5).flatmap(lambda n: st.tuples(*[st.lists(signed, min_size=n, max_size=n)] * 2)),
           eta=st.one_of(st.floats(1e-9, 2e3), st.sampled_from([0.5, 1.0, 10.0])))
    @example(case=([0.0, -0.0], [-0.0, 0.0]), eta=1.0)
    @example(case=([0.0, -0.0], [10.0, -0.0]), eta=1.0)
    @example(case=([-0.0, 3.0], [-0.0, -4.0]), eta=7.0)
    def test_matches_plain_float_reference_byte_for_byte(self, case, eta):
        a, b = (tuple(v) for v in case)
        want = reference_steer(a, b, eta)
        got = steer(a, b, eta)
        assert type(got) is tuple and np.array(got).tobytes() == np.array(want).tobytes()
        assert np.array(steer(np.array(a), np.array(b), eta)).tobytes() == np.array(want).tobytes()
        if math.dist(a, b) <= eta:
            assert got is b  # the target itself, ±0.0 included

    def test_within_step_returns_target(self):
        assert np.allclose(steer(np.zeros(2), np.array([3.0, 4.0]), 10.0), [3.0, 4.0])

    def test_truncates_to_eta(self):
        assert np.allclose(steer(np.zeros(2), np.array([3.0, 4.0]), 2.5), [1.5, 2.0])

    def test_identity(self):
        q = np.array([1.0, 1.0])
        assert np.allclose(steer(q, q, 1.0), q)


class TestExtractPath:
    def test_linear_chain(self):
        tree = Tree(np.zeros(2))
        a = tree.add(np.array([1.0, 0.0]), 0, "uniform")
        b = tree.add(np.array([2.0, 0.0]), a, "uniform")
        path = extract_path(tree, b)
        assert np.allclose(path, [[0, 0], [1, 0], [2, 0]])

    def test_root_only(self):
        tree = Tree(np.zeros(2))
        assert len(extract_path(tree, 0)) == 1

    def test_structural_parent_links(self):
        rng = RngStream(2)
        tree = Tree(np.zeros(2))
        for i in range(99):
            parent = int(rng.gen.integers(0, tree.size))
            tree.add(rng.gen.uniform(-5, 5, 2), parent, "uniform")
        leaf = tree.size - 1
        path = extract_path(tree, leaf)
        assert np.allclose(path[0], tree.node(0))
        idx = leaf
        chain = [idx]
        while tree.parents[idx] != idx:
            idx = tree.parents[idx]
            chain.append(idx)
        assert len(path) == len(chain)


def assert_solved_path_valid(scene, result):
    assert result.solved
    path = result.path
    assert np.allclose(path[0], scene.start)
    assert goal_satisfied(scene, path[-1])
    for a, b in zip(path[:-1], path[1:]):
        assert check_motion(scene, a, b)


class TestPlannerParams:
    # Rejected at construction, before any planning starts.
    @pytest.mark.parametrize("name, value, message", [
        ("max_iterations", -5, "max_iterations must be non-negative"),
        ("window_size", 0, "window_size must be >= 1"),
        ("kappa", -0.25, "kappa must be non-negative"),
    ])
    def test_bad_value_rejected_up_front(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            PlannerParams(**{name: value})

    def test_boundary_values_accepted(self, open2d):
        params = PlannerParams(timeout=1e9, max_iterations=0, window_size=1, kappa=0.0)
        result = mab_rrt_plan(open2d, params, RngStream(0))
        assert result.iterations == 0 and result.outcome in ("solved", "exhausted")


class TestRrtPlan:
    def test_open_scene_solved(self, open2d):
        result = rrt_plan(open2d, "uniform", PlannerParams(timeout=5.0), RngStream(1))
        assert_solved_path_valid(open2d, result)

    def test_sealed_start_times_out(self):
        scene = make_box_scene(
            [((-5, -5), (5, -1)), ((-5, 1), (5, 5)), ((-5, -1), (-1, 1)), ((1, -1), (5, 1))],
            start=(0, 0))
        result = rrt_plan(scene, "uniform", PlannerParams(timeout=0.3), RngStream(2))
        assert result.outcome in ("timeout", "exhausted")

    @pytest.mark.parametrize("sampler", ["gaussian", "bridge", "obstacle"])
    def test_biased_samplers_solve_open_scene(self, open2d, sampler):
        result = rrt_plan(open2d, sampler, PlannerParams(timeout=5.0), RngStream(3))
        assert_solved_path_valid(open2d, result)

    def test_wide_tunnel_uniform_succeeds_sometimes(self):
        scene = generate_tunnel_scene(15.0)
        solved = sum(
            rrt_plan(scene, "uniform", PlannerParams(timeout=10.0), RngStream(100 + s)).solved
            for s in range(5))
        assert solved > 0

    def test_unknown_sampler_rejected(self, open2d):
        with pytest.raises(ValueError):
            rrt_plan(open2d, "magic", PlannerParams(), RngStream(0))


class TestMabRrtPlan:
    def test_tunnel_solved_with_valid_path(self, tunnel5):
        result = mab_rrt_plan(tunnel5, PlannerParams(timeout=10.0), RngStream(1))
        assert_solved_path_valid(tunnel5, result)
        assert result.r_star is not None

    def test_escape_goal_solved_in_burn_in(self):
        # Burn-in samples of the scale search lie past an escape threshold of
        # 3 in the gap-5 tunnel, so the seeded tree solves before any pull.
        from narrowpass import GoalSpec
        scene = dataclasses.replace(generate_tunnel_scene(5.0), goal=GoalSpec("escape", threshold=3.0))
        result = mab_rrt_plan(scene, PlannerParams(timeout=5.0), RngStream(2))
        assert result.solved
        assert result.iterations == 0
        assert len(result.scale_result.valid_samples) == 16
        assert result.arm_pulls == {}

    def test_tree_edges_all_valid(self, tunnel5):
        result = mab_rrt_plan(tunnel5, PlannerParams(timeout=10.0), RngStream(3))
        tree = result.tree
        for i in range(1, tree.size):
            assert check_motion(tunnel5, tree.node(tree.parents[i]), tree.node(i))

    def test_determinism(self, tunnel5):
        a = mab_rrt_plan(tunnel5, PlannerParams(timeout=10.0), RngStream(4), record_trace=True)
        b = mab_rrt_plan(tunnel5, PlannerParams(timeout=10.0), RngStream(4), record_trace=True)
        assert a.outcome == b.outcome
        assert a.iterations == b.iterations
        assert np.array_equal(a.tree.points, b.tree.points)
        assert [(r.arm, r.valid, r.reward) for r in a.trace] == \
               [(r.arm, r.valid, r.reward) for r in b.trace]

    @pytest.mark.parametrize("gap, seed", [(5.0, 5), (10.0, 3002), (15.0, 3006)])
    def test_each_arm_keeps_its_own_reach(self, monkeypatch, gap, seed):
        # Replays the reach rule on every cylinder draw: a draw outside the
        # bounds steps only its own arm's reach back, by 1 + delta, to no
        # less than r_min; a valid draw added untruncated ratchets the arm's
        # reach up to the drawn height, to no more than the bounds diagonal;
        # anything else leaves it. The draw's interval and radius follow it.
        scene = generate_tunnel_scene(gap)
        params = PlannerParams(timeout=1e9, max_iterations=600)
        draws = []
        draw = planner.sample_cylinder_with_height

        def spy(axis, direction, h_min, h_max, radius, rng):
            q, h = draw(axis, direction, h_min, h_max, radius, rng)
            draws.append((direction, h_min, h_max, radius, q, h))
            return q, h

        monkeypatch.setattr(planner, "sample_cylinder_with_height", spy)
        result = mab_rrt_plan(scene, params, RngStream(seed), record_trace=True)
        rows = [row for row in result.trace if row.arm != "uniform"]
        assert len(rows) == len(draws) > 0
        born = {b: result.tree.node(i) for i, b in enumerate(result.tree.birth_iters) if b >= 0}
        r_min, diagonal = params.scale.r_min, scene.bounds.diagonal
        reach = {+1: result.scale_result.r_star, -1: result.scale_result.r_star}
        moves = {"back": 0, "up": 0}
        for row, (sign, h_min, h_max, radius, q, h) in zip(rows, draws):
            assert row.arm == ("pc-positive" if sign > 0 else "pc-negative")
            assert (h_min, h_max, radius) == (reach[sign], reach[sign] + params.delta * reach[sign],
                                              params.kappa * reach[sign])
            if not scene.bounds.contains(q)[0]:
                reach[sign] = max(reach[sign] / (1.0 + params.delta), r_min)
                moves["back"] += 1
            elif row.valid and np.array(born[row.iteration]).tobytes() == np.array(q).tobytes():
                moves["up"] += h > reach[sign]
                reach[sign] = min(max(reach[sign], h), diagonal)
            assert r_min <= reach[sign] <= diagonal
            assert row.r_star == max(reach.values())
        assert result.reach == {Arm.PC_POSITIVE: reach[+1], Arm.PC_NEGATIVE: reach[-1]}
        assert result.r_star == max(reach.values())
        assert moves["back"] > 0 and moves["up"] > 0, moves

    def test_uniform_only_reduces_to_rrt(self, open2d):
        params = PlannerParams(timeout=5.0, arms=(Arm.UNIFORM,))
        result = mab_rrt_plan(open2d, params, RngStream(6))
        assert result.solved
        assert result.arm_pulls.get(Arm.PC_POSITIVE, 0) == 0
        assert result.arm_pulls.get(Arm.PC_NEGATIVE, 0) == 0

    def test_degenerate_scale_search_falls_back_to_uniform(self):
        # Pocket smaller than the radius clamp: burn-in finds nothing valid,
        # the cylinder arms are disabled, and a diagnostic is recorded.
        result = mab_rrt_plan(pocket_scene(), PlannerParams(timeout=0.3), RngStream(7))
        assert not result.solved
        assert any("cylinder arms disabled" in d for d in result.diagnostics)
        assert result.arm_pulls.get(Arm.PC_POSITIVE, 0) == 0

    def test_diagnostics_reach_the_trace(self, tmp_path):
        params = PlannerParams(timeout=1e9, max_iterations=300)
        traces = []
        for name in ("a.json", "b.json"):
            result = mab_rrt_plan(pocket_scene(), params, RngStream(7), record_trace=True)
            assert trace_document(result)["diagnostics"] == [DISABLED] == result.diagnostics
            write_trace(result, str(tmp_path / name))
            traces.append((tmp_path / name).read_bytes())
        assert traces[0] == traces[1]
        assert json.loads(traces[0])["diagnostics"] == [DISABLED]
        clean = mab_rrt_plan(open_scene(), PlannerParams(timeout=5.0), RngStream(3))
        assert trace_document(clean)["diagnostics"] == []

    def test_diagnostics_reach_the_plan_line(self, tmp_path, capsys):
        scene_file = tmp_path / "pocket.json"
        scene_file.write_text(json.dumps(scene_to_document(pocket_scene())))
        args = ["plan", "--scene", str(scene_file), "--planner", "mab-rrt", "--seed", "7", "--timeout", "0.3"]
        assert cli.main(args) == 0
        assert capsys.readouterr().out.rstrip("\n").endswith(f" diagnostics={DISABLED}")
        assert cli.main(["plan", "--scene", "open", "--planner", "mab-rrt", "--seed", "3"]) == 0
        assert "diagnostics=" not in capsys.readouterr().out

    def test_directional_rewards_in_corridor(self, tunnel5):
        # Escape runs along +x: the positive cylinder arm must out-earn the
        # negative one by solve time.
        result = mab_rrt_plan(tunnel5, PlannerParams(timeout=10.0), RngStream(8))
        assert result.solved
        assert result.arm_rewards[Arm.PC_POSITIVE] > result.arm_rewards[Arm.PC_NEGATIVE]

    def test_one_dimensional_scene_rejected(self):
        # The cylinder arms sample an (N-1)-ball, which 1-D lacks; the plain
        # RRT baselines still solve the same line.
        from narrowpass import Bounds, GoalSpec, Scene
        scene = Scene(name="line", bounds=Bounds([-10.0], [10.0]), start=np.zeros(1),
                      goal=GoalSpec("ball", center=np.array([8.0]), tolerance=1.0))
        with pytest.raises(ValueError, match="mab-rrt.*dimension.*got 1"):
            mab_rrt_plan(scene, PlannerParams(timeout=5.0), RngStream(0))
        assert rrt_plan(scene, "uniform", PlannerParams(timeout=5.0), RngStream(0)).solved


# The layers each planner reaches through a `narrowpass.planner` attribute,
# looked up at call time; perfbench's tracer swaps exactly these attributes.
SHARED_LAYERS = {"check_motion", "goal_satisfied", "steer", "extract_path", "Tree.nearest"}
LAYERS = {
    "mab-rrt": SHARED_LAYERS | {"find_entropy_scale", "principal_axis", "select_arm", "sample_uniform",
                                "sample_cylinder_with_height", "recalibrate_axis", "compute_reward"},
    "rrt-uniform": SHARED_LAYERS | {"baseline_stddev", "sample_uniform"},
    "rrt-gaussian": SHARED_LAYERS | {"baseline_stddev", "sample_gaussian_obstacle"},
    "rrt-bridge": SHARED_LAYERS | {"baseline_stddev", "sample_bridge"},
    "rrt-obstacle": SHARED_LAYERS | {"baseline_stddev", "sample_near_obstacle"},
}


@pytest.mark.parametrize("name", PLANNER_NAMES)
def test_every_layer_is_reached_through_the_planner_module(monkeypatch, name):
    calls = dict.fromkeys(LAYERS[name], 0)

    def counting(layer, fn):
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)
        return wrapper

    for layer in calls:
        owner, attr = (planner.Tree, "nearest") if layer == "Tree.nearest" else (planner, layer)
        monkeypatch.setattr(owner, attr, counting(layer, getattr(owner, attr)))
    scene = generate_tunnel_scene(10.0) if name == "mab-rrt" else open_scene()
    result = run_planner(scene, name, PlannerParams(timeout=1e9, max_iterations=5000), RngStream(3000))
    assert result.solved
    assert [layer for layer, n in calls.items() if n == 0] == []


# Seed windows fixed before the measurement; each holds 20 consecutive seeds.
CLAIM_WINDOWS = (1000, 2000, 3000, 4000, 5000)


@pytest.mark.parametrize("first_seed", CLAIM_WINDOWS)
def test_mab_rrt_halves_uniform_median_iterations_on_gap5(first_seed):
    # The paper's claim in deterministic counts: on the gap-5 tunnel with a
    # 5000-iteration budget, MAB-RRT solves every seed of the window in at
    # most half the median iterations of uniform RRT. A uniform run that
    # exhausts the budget counts its 5000 iterations.
    scene = generate_tunnel_scene(5.0)
    params = PlannerParams(timeout=1e9, max_iterations=5000)
    seeds = range(first_seed, first_seed + 20)
    mab = [mab_rrt_plan(scene, params, RngStream(s)) for s in seeds]
    uniform = [rrt_plan(scene, "uniform", params, RngStream(s)) for s in seeds]
    assert [s for s, r in zip(seeds, mab) if not r.solved] == []
    mab_median = float(np.median([r.iterations for r in mab]))
    uniform_median = float(np.median([r.iterations for r in uniform]))
    assert 2.0 * mab_median <= uniform_median, (mab_median, uniform_median)
