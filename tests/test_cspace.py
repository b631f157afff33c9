import copy
import dataclasses
import json
import math
import pickle
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from narrowpass import (Bounds, Box, GoalSpec, Scene, SceneParseError, SceneSemanticError, check_motion,
                        distance, goal_on_motion, goal_satisfied, is_state_valid, load_scene)
from narrowpass import cspace
from narrowpass.bandit import Arm
from narrowpass.cspace import as_point, motions_valid_fan, states_valid
from narrowpass.planner import PlannerParams, Tree, run_planner, steer
from narrowpass.rng import RngStream
from narrowpass.scenes import generate_tunnel_scene, resolve_scene_spec

from conftest import contains, make_box_scene, reference_states_valid, scaled_scene, scene_to_document


# The row scans a scene's compiled checks (cspace._compile_checks) must
# match: row 0 is the bounds, rows 1..K the boxes.


def _box_clear(p, rows_lo: tuple, rows_hi: tuple) -> bool:
    """True iff the point p (N Python floats) lies in the closed row 0 and in
    no other closed row: inside the closed bounds and outside every closed Box.

    The scan leaves each row at the first coordinate outside it. A NaN
    coordinate fails every comparison and an infinite one lies outside the
    finite bounds, so either fails row 0.
    """
    rows = zip(rows_lo, rows_hi)
    for x, l, h in zip(p, *next(rows)):
        if not l <= x <= h:
            return False
    for lo, hi in rows:
        for x, l, h in zip(p, lo, hi):
            if not l <= x <= h:
                break  # outside this row along this coordinate
        else:
            return False
    return True


def _segment_clear(a, b, rows_lo: tuple, rows_hi: tuple) -> bool:
    """True iff the closed segment a-b (sequences of N finite floats) lies inside
    row 0 and meets no other row, in real arithmetic, so symmetric in a and b.

    Row 0, the bounds, is convex: it holds the segment iff it holds both ends.
    Other rows go to _slab_meets unless both ends lie beyond one face.
    """
    rows = zip(rows_lo, rows_hi)
    for x, y, l, h in zip(a, b, *next(rows)):
        if not (l <= x <= h and l <= y <= h):
            return False
    for lo, hi in rows:
        for x, y, l, h in zip(a, b, lo, hi):
            if (x < l and y < l) or (x > h and y > h):
                break  # separated along this coordinate
        else:
            if cspace._slab_meets(a, b, lo, hi):
                return False
    return True


coords = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
points2d = st.tuples(coords, coords).map(lambda t: np.array(t))


class TestStateValidity:
    def test_empty_world_valid(self, empty_scene):
        assert is_state_valid(empty_scene, np.array([0.0, 0.0]))

    def test_inside_box_invalid(self, box_scene):
        assert not is_state_valid(box_scene, np.array([0.5, 0.0]))

    def test_out_of_bounds_invalid(self, empty_scene):
        assert not is_state_valid(empty_scene, np.array([11.0, 0.0]))

    def test_dimension_mismatch_raises(self, empty_scene):
        with pytest.raises(ValueError):
            is_state_valid(empty_scene, np.array([0.0, 0.0, 0.0]))

class TestCheckMotion:
    def test_empty_world(self, empty_scene):
        assert check_motion(empty_scene, np.array([0.0, 0.0]), np.array([5.0, 5.0]))

    def test_segment_through_box(self):
        scene = make_box_scene([((2, -1), (3, 1))], start=(0, 0))
        assert not check_motion(scene, np.array([0.0, 0.0]), np.array([5.0, 0.0]))

    def test_segment_clears_box(self):
        # The segment y = 0, x in [-3, 3] passes 1 below the box's lower face y = 1.
        scene = make_box_scene([((-1, 1), (1, 3))], start=(-3, 0))
        assert check_motion(scene, np.array([-3.0, 0.0]), np.array([3.0, 0.0]))

    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(a=points2d, b=points2d)
    def test_symmetry(self, empty_scene, box_scene, a, b):
        for scene in (empty_scene, box_scene):
            assert check_motion(scene, a, b) == check_motion(scene, b, a)

    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(q=points2d)
    def test_degenerate_segment_equals_state_validity(self, box_scene, q):
        assert check_motion(box_scene, q, q) == is_state_valid(box_scene, q)

    def test_subsumption_on_random_segments(self, box_scene):
        # Every point 0.1 apart along a valid motion must be valid.
        rng = RngStream(11)
        checked = 0
        for _ in range(1000):
            a = rng.uniform(-10, 10, 2)
            b = rng.uniform(-10, 10, 2)
            if not check_motion(box_scene, a, b):
                continue
            checked += 1
            n = max(1, math.ceil(distance(a, b) / 0.1))
            for t in np.linspace(0, 1, n + 1):
                assert is_state_valid(box_scene, a + t * (b - a))
        assert checked > 100


class TestDistance:
    def test_345(self):
        assert distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0

    def test_identity(self):
        assert distance(np.ones(3), np.ones(3)) == 0.0

    def test_sqrt2(self):
        assert distance(np.zeros(2), np.ones(2)) == pytest.approx(math.sqrt(2), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(a=points2d, b=points2d, c=points2d)
    def test_triangle_inequality(self, a, b, c):
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9


class TestGoals:
    def test_ball_goal_inside(self, empty_scene):
        scene = Scene(name="g", bounds=empty_scene.bounds, start=np.zeros(2),
                      goal=GoalSpec("ball", center=np.array([5.0, 5.0]), tolerance=0.5))
        assert goal_satisfied(scene, np.array([5.2, 5.1]))  # distance ~0.2236

    def test_escape_goal_at_threshold(self):
        scene = Scene(name="g", bounds=Bounds([-20.0, -20.0], [20.0, 20.0]), start=np.zeros(2),
                      goal=GoalSpec("escape", threshold=10.0))
        assert goal_satisfied(scene, np.array([6.0, 8.0]))
        assert not goal_satisfied(scene, np.array([0.0, 0.0]))


class TestSceneValues:
    """Scene types hold tuples of Python floats: they compare and hash by
    value, and their derived lengths need no BLAS."""

    def test_diagonal_is_one_rounding_of_the_exact_sum(self):
        # The squares of (2.4000000000000004, 5.199999999999999, 1.6) do not
        # sum exactly in floats; a BLAS dot product may round them otherwise.
        assert Bounds((-1.1, -2.3, -0.7), (1.3, 2.9, 0.9)).diagonal == float.fromhex("0x1.7c9244a4fb68bp+2")
        assert Bounds([-50.0, -50.0], [50.0, 50.0]).diagonal == math.sqrt(20000.0)

    def test_scenes_compare_and_hash(self):
        a, b = generate_tunnel_scene(5.0), generate_tunnel_scene(5.0)
        assert a == b and hash(a) == hash(b)
        assert a != generate_tunnel_scene(10.0)
        assert Bounds([0, 0], [1, 1]) == Bounds([0, 0], [1, 1])
        assert hash(Bounds([0, 0], [1, 1])) == hash(Bounds((0.0, 0.0), (1.0, 1.0)))
        assert len({a.bounds, b.bounds, a.goal, b.goal, *a.obstacles, *b.obstacles}) == 2 + len(a.obstacles)

    def test_fields_are_tuples_of_python_floats(self):
        scene = make_box_scene([((2, -1), (3, np.float64(1)))], start=np.zeros(2),
                               goal=GoalSpec("ball", center=np.array([5, 0]), tolerance=1.0))
        values = [scene.start, scene.goal.center, scene.bounds.lo, scene.bounds.hi, scene.bounds.span,
                  *(v for o in scene.obstacles for v in (o.lo, o.hi))]
        assert all(type(v) is tuple and all(type(x) is float for x in v) for v in values)
        assert type(scene.bounds.diagonal) is float

    @pytest.mark.parametrize("which", range(3))
    def test_scenes_pickle_copy_and_replace(self, which):
        # The compiled checks do not pickle themselves: each copy builds its
        # own from the five fields and decides as the original.
        scene = [generate_tunnel_scene(5.0), many_box_scene(3, 30, 113),
                 make_box_scene([((-1.0, 1.0), (1.0, 3.0))], start=(0.0, 0.0),
                                goal=GoalSpec("ball", center=(5.0, 0.0), tolerance=0.5))][which]
        other_goal = GoalSpec("escape", threshold=7.0)
        moved = dataclasses.replace(scene, goal=other_goal)
        assert moved.goal == other_goal and moved != scene and moved._rows_lo == scene._rows_lo
        copies = [pickle.loads(pickle.dumps(scene)), copy.deepcopy(scene), dataclasses.replace(moved, goal=scene.goal)]
        probes = boundary_and_special_points(scene, RngStream(71), per_box=4)
        free = [p for p in probes if scene._clear_point(p)]
        for twin in copies:
            assert twin == scene and hash(twin) == hash(scene)
            assert (twin._goal_from, twin._rows_lo, twin._rows_hi) == (scene._goal_from, scene._rows_lo, scene._rows_hi)
            assert twin._clear_point is not scene._clear_point
            assert [twin._clear_point(p) for p in probes] == [scene._clear_point(p) for p in probes]
            for p in free:
                assert twin._clear_segment(scene.start, p) is scene._clear_segment(scene.start, p)

    def test_unpickled_scene_plans_the_same(self):
        scene = generate_tunnel_scene(5.0)
        twin = pickle.loads(pickle.dumps(scene))
        params = PlannerParams(timeout=1e9, max_iterations=400)

        def fingerprint(s):
            res = run_planner(s, "mab-rrt", params, RngStream(3001))
            return (res.outcome, res.iterations, repr(res.r_star), res.tree.points.tobytes(),
                    tuple(res.tree.parents), None if res.path is None else np.asarray(res.path).tobytes())

        assert fingerprint(twin) == fingerprint(scene)

    @pytest.mark.parametrize("make", [lambda v: GoalSpec("ball", center=(0.0, 0.0), tolerance=v),
                                      lambda v: GoalSpec("escape", threshold=v)])
    def test_nan_goal_length_rejected(self, make):
        for v in (math.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="> 0"):
                make(v)


class TestLoadScene:
    def test_tunnel_roundtrip(self, tunnel5):
        # Gap-5 tunnel: corridor walls at y = +-2.5.
        doc = scene_to_document(tunnel5)
        scene = load_scene(json.dumps(doc))
        assert any(np.isclose(w.lo[1], 2.5) for w in scene.obstacles)
        assert any(np.isclose(w.hi[1], -2.5) for w in scene.obstacles)

    def test_start_inside_obstacle_rejected(self):
        doc = {
            "name": "bad", "dimension": 2,
            "bounds": {"lo": [-10, -10], "hi": [10, 10]},
            "obstacles": [{"kind": "box", "lo": [-2, -2], "hi": [2, 2]}],
            "start": [0, 0],
            "goal": {"kind": "escape", "threshold": 5.0},
        }
        with pytest.raises(SceneSemanticError):
            load_scene(json.dumps(doc))

    def test_missing_goal_rejected(self):
        doc = {
            "name": "bad", "dimension": 2,
            "bounds": {"lo": [-10, -10], "hi": [10, 10]},
            "obstacles": [], "start": [0, 0],
        }
        with pytest.raises(SceneParseError):
            load_scene(json.dumps(doc))

    def test_unknown_obstacle_kind_rejected(self):
        # Boxes are the only kind: spheres and capsules are unknown too.
        for obstacle in ({"kind": "torus", "center": [0, 0], "radius": 1.0},
                         {"kind": "sphere", "center": [0, 0], "radius": 1.0},
                         {"kind": "capsule", "a": [0, 0], "b": [1, 1], "radius": 1.0}):
            doc = {
                "name": "bad", "dimension": 2,
                "bounds": {"lo": [-10, -10], "hi": [10, 10]},
                "obstacles": [obstacle],
                "start": [5, 5],
                "goal": {"kind": "escape", "threshold": 5.0},
            }
            with pytest.raises(SceneSemanticError, match=f"unknown obstacle kind '{obstacle['kind']}'"):
                load_scene(json.dumps(doc))

    def test_obstacles_and_grid_mutually_exclusive(self):
        doc = {
            "name": "bad", "dimension": 2,
            "bounds": {"lo": [0, 0], "hi": [3, 1]},
            "obstacles": [],
            "grid": {"width": 3, "height": 1, "resolution": 1.0, "origin": [0, 0], "rows": ["..."]},
            "start": [0.5, 0.5],
            "goal": {"kind": "escape", "threshold": 2.0},
        }
        # With or without obstacles, a grid is rejected.
        for d in (doc, {k: v for k, v in doc.items() if k != "obstacles"}):
            with pytest.raises(SceneParseError, match="unsupported grid"):
                load_scene(json.dumps(d))

    # A document with every required key but obstacles, and a box across the
    # segment from (1, 1) to (9, 9).
    DOC = {"name": "box", "dimension": 2, "bounds": {"lo": [0, 0], "hi": [10, 10]},
           "start": [1, 1], "goal": {"kind": "escape", "threshold": 5.0}}
    BOX = {"kind": "box", "lo": [4, 4], "hi": [6, 6]}

    def test_missing_obstacles_rejected(self):
        with pytest.raises(SceneParseError, match="scene document missing 'obstacles'"):
            load_scene(json.dumps(self.DOC))

    def test_invalid_json_reports_position(self):
        with pytest.raises(SceneParseError, match="line"):
            load_scene("{not json")

    @pytest.mark.parametrize("start", [[1, 1], [20, 20]])
    @pytest.mark.parametrize("obstacle, message", [
        ({"kind": "sphere", "center": [3, 3, 3], "radius": 1}, "unknown obstacle kind 'sphere'"),
        ({"kind": "sphere", "center": [3], "radius": 1}, "unknown obstacle kind 'sphere'"),
        ({"kind": "capsule", "a": [3, 3, 3], "b": [4, 4, 4], "radius": 1}, "unknown obstacle kind 'capsule'"),
        ({"kind": "capsule", "a": [3, 3], "b": [4, 4, 4], "radius": 1}, "unknown obstacle kind 'capsule'"),
        ({"kind": "box", "lo": [3, 3], "hi": [4, 4, 4]}, "box lo/hi dimension mismatch"),
        ({"kind": "box", "lo": [3, 3, 3], "hi": [4, 4, 4]}, "box dimension"),
    ])
    def test_obstacle_of_wrong_dimension_rejected(self, obstacle, message, start):
        # Checked before the start, so an out-of-bounds start cannot hide it,
        # and the row scans, which zip coordinates, never see a row of the
        # wrong length.
        doc = {"name": "bad", "dimension": 2, "bounds": {"lo": [0, 0], "hi": [10, 10]},
               "obstacles": [obstacle], "start": start, "goal": {"kind": "escape", "threshold": 5.0}}
        with pytest.raises(SceneSemanticError, match=message):
            load_scene(json.dumps(doc))

    def test_non_finite_span_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Bounds([-1e308, 0.0], [1e308, 1.0])
        doc = {"name": "huge", "dimension": 1, "bounds": {"lo": [-1e308], "hi": [1e308]},
               "obstacles": [], "start": [0.0], "goal": {"kind": "escape", "threshold": 1.0}}
        with pytest.raises(SceneSemanticError, match="finite"):
            load_scene(json.dumps(doc))

    @pytest.mark.parametrize("change, message", [
        ({"bounds": {"lo": [0, 0], "hi": [10, 10, 10]}}, "bounds lo/hi dimension mismatch"),
        ({"bounds": {"lo": [0, 10], "hi": [10, 10]}}, "bounds require lo < hi componentwise"),
        ({"obstacles": [{"kind": "box", "lo": [4, 6], "hi": [6, 6]}]}, "box requires lo < hi componentwise"),
        ({"goal": {"kind": "cone", "threshold": 5.0}}, "unknown goal kind 'cone'"),
        ({"start": [1, 1, 1]}, "start dimension does not match bounds"),
        ({"goal": {"kind": "ball", "center": [9, 9, 9], "tolerance": 1.0}},
         "goal center dimension does not match bounds"),
    ], ids=["bounds-lengths", "bounds-order", "box-order", "goal-kind", "start-dimension", "goal-dimension"])
    def test_inconsistent_scene_rejected(self, change, message):
        with pytest.raises(SceneSemanticError, match=f"^{message}$"):
            load_scene(json.dumps({**self.DOC, "obstacles": [self.BOX], **change}))

    @pytest.mark.parametrize("change, message", [
        ({"bounds": [0, 1]}, "bounds must be a JSON object, got list"),
        ({"obstacles": 5}, "obstacles must be a JSON array, got int"),
        ({"obstacles": [5]}, "obstacle must be a JSON object, got int"),
        ({"goal": 3}, "goal must be a JSON object, got int"),
    ], ids=["bounds", "obstacles", "obstacle", "goal"])
    def test_value_of_the_wrong_json_type_is_a_parse_error(self, change, message):
        with pytest.raises(SceneParseError, match=f"^{message}$") as info:
            load_scene(json.dumps({**self.DOC, "obstacles": [self.BOX], **change}))
        assert info.type is SceneParseError

    def test_goal_spec_rejects_an_unknown_kind(self):
        # The one place the rule is written: load_scene passes an unknown
        # kind to GoalSpec and reports its refusal as a SceneSemanticError.
        with pytest.raises(ValueError, match="^unknown goal kind 'cone'$"):
            GoalSpec("cone", threshold=5.0)

    @pytest.mark.parametrize("value", [1, 1.0, 0.5, 1e-3])
    def test_resolution_fraction_in_unit_interval_accepted(self, value):
        # Like any other unknown key, resolution_fraction is ignored, whatever its value.
        doc = {**self.DOC, "obstacles": [self.BOX]}
        for extra in (value, -1, 0, -0.0, 2, "0.01", None, True, [0.01], math.inf, -math.inf, math.nan):
            scene = load_scene(json.dumps({**doc, "resolution_fraction": extra}))  # NaN and Infinity too
            assert scene_to_document(scene) == scene_to_document(load_scene(json.dumps(doc)))
            assert not check_motion(scene, np.array([1.0, 1.0]), np.array([9.0, 9.0]))


def _scene_text(**change) -> str:
    return json.dumps({**TestLoadScene.DOC, "obstacles": [TestLoadScene.BOX], **change})


# Raise lines no other test reaches, each with its class and whole message.
@pytest.mark.parametrize("call, exc_type, message", [
    (lambda: load_scene("[1]"), SceneParseError, "scene document must be an object"),
    (lambda: load_scene(_scene_text(dimension=3)), SceneSemanticError, "declared dimension does not match bounds"),
    (lambda: load_scene(_scene_text(bounds={"lo": [0, 0]})), SceneParseError, "bounds missing field 'hi'"),
    (lambda: load_scene(_scene_text(goal={"kind": "ball", "center": [9, 9]})), SceneParseError,
     "goal of kind 'ball' missing field 'tolerance'"),
    (lambda: load_scene(_scene_text(goal={"kind": "escape"})), SceneParseError,
     "goal of kind 'escape' missing field 'threshold'"),
    (lambda: load_scene(_scene_text(obstacles=[{"kind": "box", "lo": [4, 4]}])), SceneParseError,
     "obstacle of kind 'box' missing field 'hi'"),
    (lambda: load_scene(_scene_text(goal={"kind": "ball", "center": [9, 9], "tolerance": "x"})), SceneParseError,
     "goal of kind 'ball': '>' not supported between instances of 'str' and 'int'"),
    (lambda: PlannerParams(arms=(Arm.PC_POSITIVE,)), ValueError, "arms must include UNIFORM first"),
    (lambda: steer((0.0, 0.0), (1.0, 1.0), 0.0), ValueError, "eta must be positive"),
], ids=["document-not-object", "dimension", "bounds-hi", "ball-tolerance", "escape-threshold", "box-hi",
        "tolerance-not-number", "arms-uniform-first", "steer-eta"])
def test_error_class_and_message(call, exc_type, message):
    with pytest.raises(exc_type, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.type is exc_type


class TestTunnelGenerator:
    @pytest.mark.parametrize("gap", [5.0, 10.0, 15.0])
    def test_wall_positions(self, gap):
        scene = generate_tunnel_scene(gap)
        ys = sorted({w.lo[1] for w in scene.obstacles} | {w.hi[1] for w in scene.obstacles})
        assert gap / 2 in ys and -gap / 2 in ys

    def test_zero_gap_rejected(self):
        with pytest.raises(ValueError):
            generate_tunnel_scene(0.0)

    @pytest.mark.parametrize("kwargs, name", [
        ({"gap": math.nan}, "gap"), ({"gap": math.inf}, "gap"), ({"gap": -math.inf}, "gap"),
        ({"gap": 5.0, "length": math.nan}, "length"), ({"gap": 5.0, "length": math.inf}, "length"),
        ({"gap": 5.0, "bounds_half_extent": math.nan}, "bounds_half_extent"),
        ({"gap": 5.0, "bounds_half_extent": math.inf}, "bounds_half_extent"),
        ({"gap": 5.0, "bounds_half_extent": -math.inf}, "bounds_half_extent"),
        ({"gap": 5.0, "bounds_half_extent": 1e308}, "bounds_half_extent")])
    def test_non_finite_parameter_named(self, kwargs, name):
        # NaN and ±inf fail each check, so the message names the parameter
        # and its value rather than a finiteness check of the built scene.
        with pytest.raises(ValueError, match=f"^tunnel {name} .*{re.escape(repr(kwargs[name]))}"):
            generate_tunnel_scene(**kwargs)

    @pytest.mark.parametrize("spec, name, value", [
        ("tunnel:gap=abc", "gap", "abc"), ("tunnel:gap", "gap", ""),
        ("tunnel:gap=5,length=x", "length", "x"), ("tunnel:gap=5,length", "length", ""),
        ("tunnel:gap=5,bounds_half_extent=1e", "bounds_half_extent", "1e")])
    def test_spec_parameter_not_a_number_named(self, spec, name, value):
        with pytest.raises(ValueError, match=f"^tunnel {name} must be a number, got {re.escape(repr(value))}$"):
            resolve_scene_spec(spec)

    def test_start_valid_goal_outside(self):
        scene = generate_tunnel_scene(5.0)
        assert is_state_valid(scene, scene.start)
        assert scene.goal.center[0] > 0


def box_boundary_points(boxes, rng, per_box=40):
    """Corners, points on faces and points just inside/outside each face."""
    out = []
    for box in boxes:
        lo, hi = box.lo, box.hi
        n = len(lo)
        for corner in np.array(np.meshgrid(*zip(lo, hi))).T.reshape(-1, n):
            out.append(corner)
        for _ in range(per_box):
            p = rng.uniform(lo, hi)
            j = int(rng.integers(0, n))
            face = lo[j] if rng.uniform() < 0.5 else hi[j]
            for v in (face, np.nextafter(face, -np.inf), np.nextafter(face, np.inf)):
                q = p.copy()
                q[j] = v
                out.append(q)
    return np.array(out)


class TestFusedStatesValid:
    """The fused box test must agree exactly with the per-obstacle loop."""

    def scenes(self):
        bounds = Bounds([-10.0, -10.0], [10.0, 10.0])
        goal = GoalSpec("escape", threshold=100.0)
        boxes = (Box([-6.0, -1.0], [-4.0, 3.0]), Box([1.0, 1.0], [2.0, 9.0]), Box([-2.0, -8.0], [5.0, -7.5]))
        box_only = Scene(name="boxes", bounds=bounds, start=np.array([-9.0, -9.0]), goal=goal, obstacles=boxes)
        return [box_only, generate_tunnel_scene(5.0)]

    def test_matches_reference_on_random_and_boundary_points(self):
        rng = RngStream(31)
        for scene in self.scenes():
            lo, hi = scene.bounds.lo, scene.bounds.hi
            pts = [rng.uniform(np.array(lo) - 1.0, np.array(hi) + 1.0, (2000, 2))]
            boxes = [*scene.obstacles, Box(lo, hi)]  # the bounds' faces and corners too
            pts.append(box_boundary_points(boxes, rng))
            pts = np.concatenate(pts)
            assert np.array_equal(states_valid(scene, pts), reference_states_valid(scene, pts))
            for q in pts[::37]:
                assert is_state_valid(scene, q) == bool(reference_states_valid(scene, q[None, :])[0])

    def test_single_point_matches_reference(self):
        # One configuration, as an array, a list or a tuple, and a sequence
        # of one: the reference's answer, with its shape and dtype.
        rng = RngStream(37)
        values = [np.nan, np.inf, -np.inf, 0.0]
        non_finite = [np.array([a, b]) for a in values for b in values][:-1]  # all but (0, 0)
        for scene in self.scenes():
            lo, hi = scene.bounds.lo, scene.bounds.hi
            boxes = [*scene.obstacles, Box(lo, hi)]
            pts = [*rng.uniform(np.array(lo) - 1.0, np.array(hi) + 1.0, (500, 2)),
                   *box_boundary_points(boxes, rng, per_box=20), *non_finite]
            for q in pts:
                expected = reference_states_valid(scene, q[None, :])
                got = states_valid(scene, [q])
                arr = np.array(got)
                assert np.array_equal(got, expected) and arr.shape == (1,) and arr.dtype == expected.dtype
                assert type(got) is list and type(got[0]) is bool
                assert np.array_equal(states_valid(scene, (tuple(q.tolist()),)), expected)
                assert is_state_valid(scene, q) is bool(expected[0])
                assert is_state_valid(scene, q.tolist()) is bool(expected[0])

    def test_single_point_wrong_length_raises(self):
        for scene in self.scenes():
            for q in (np.zeros(1), np.zeros(3)):
                for block in ([q], q[None, :]):
                    with pytest.raises(ValueError, match="dimension mismatch"):
                        states_valid(scene, block)
                with pytest.raises(ValueError, match="dimension mismatch"):
                    is_state_valid(scene, q)

    def test_one_configuration_is_not_a_sequence(self):
        # states_valid takes a sequence of configurations only.
        for scene in self.scenes():
            for q in (np.zeros(2), scene.start):
                with pytest.raises(ValueError, match="1-D|array"):
                    states_valid(scene, q)

    def test_closed_boxes(self):
        scene = make_box_scene([((2, -1), (3, 1))], start=(0, 0))
        for q in ([2.0, -1.0], [3.0, 1.0], [2.5, 1.0], [3.0, 0.0]):
            assert not is_state_valid(scene, np.array(q))
        assert is_state_valid(scene, np.array([np.nextafter(2.0, 0.0), 0.0]))

    def test_box_dimension_mismatch_rejected(self):
        with pytest.raises(SceneSemanticError):
            make_box_scene([((2, -1, 0), (3, 1, 1))], start=(0, 0))


class TestExactShortcuts:
    """Hot-path replacements must reproduce the numpy routines bit for bit."""

    def test_scene_input_rejects_non_finite_and_non_vectors(self):
        # Every scene value goes through as_point and one finiteness check.
        makers = (lambda q: Bounds(q, [1.0] * 3), lambda q: Bounds([-1.0] * 3, q), lambda q: Box(q, [1.0] * 3),
                  lambda q: GoalSpec("ball", center=q, tolerance=1.0),
                  lambda q: make_box_scene([], start=q, bounds=([-1] * 3, [1] * 3)))
        for bad in (np.nan, np.inf, -np.inf):
            for j in range(3):
                q = np.zeros(3)
                q[j] = bad
                for make in makers:
                    for value in (q, q.tolist(), tuple(q.tolist())):
                        with pytest.raises(ValueError, match="finite"):
                            make(value)
        for shape in ((1, 2), (2, 2), ()):
            with pytest.raises(ValueError, match="1-D"):
                as_point(np.zeros(shape))
            for make in makers:
                with pytest.raises(ValueError, match="1-D"):
                    make(np.zeros(shape))
        big = np.finfo(float).max
        box = Box(np.array([-big, -big, 5e-324, 0.0]), [big, big, 1.0, np.float64(1.0)])
        assert box.lo == (-big, -big, 5e-324, 0.0) and box.hi == (big, big, 1.0, 1.0)
        assert all(type(x) is float for x in box.lo + box.hi)

    def test_distance_matches_norm(self):
        rng = RngStream(43)
        for dim in (1, 2, 3, 7, 20):
            scale = 10.0 ** rng.uniform(-8, 8, (2000, 1))
            a = rng.standard_normal((2000, dim)) * scale
            b = rng.standard_normal((2000, dim)) * scale
            for x, y in zip(a, b):
                # math.dist, within one rounding of numpy's dot-then-sqrt, on
                # arrays and on tuples alike.
                d = distance(x, y)
                assert d == distance(tuple(x.tolist()), tuple(y.tolist())) == math.dist(x, y)
                assert math.isclose(d, float(np.linalg.norm(x - y)), rel_tol=dim * 2.0**-52)

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(range(len(TestFusedStatesValid().scenes()))),
           st.lists(st.one_of(st.floats(-11, 11), st.sampled_from(
               [-10.0, -8.0, -7.5, -6.0, -4.0, -2.0, 0.0, -0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0,
                math.nextafter(10.0, 0.0), math.nextafter(10.0, 11.0), math.nextafter(-6.0, 0.0),
                math.inf, -math.inf, math.nan])), min_size=2, max_size=2))
    def test_is_state_valid_matches_states_valid(self, which, q):
        # Box and tunnel scenes.
        scene = _FUSED[which]
        q = np.array(q)
        got = is_state_valid(scene, q)
        assert got is bool(states_valid(scene, [q])[0])
        assert got is bool(states_valid(scene, q[None, :])[0])  # the array path

    def test_is_state_valid_calls_no_states_valid_for_one_configuration(self, monkeypatch, tunnel5):
        calls = []
        monkeypatch.setattr(cspace, "states_valid", lambda *args: calls.append(args))
        assert is_state_valid(tunnel5, tunnel5.start) is True
        assert is_state_valid(tunnel5, [-10.0, 5.0]) is False
        assert calls == []


def shifted_scene(scene, offset):
    """A box-only scene translated by `offset`, to put its coordinates near 1e9."""
    return Scene(name=scene.name + "-far", bounds=Bounds(scene.bounds.lo + offset, scene.bounds.hi + offset),
                 start=scene.start + offset, goal=GoalSpec("escape", threshold=100.0),
                 obstacles=tuple(Box(o.lo + offset, o.hi + offset) for o in scene.obstacles))


def random_box_scene(dim, seed):
    rng = RngStream(seed)
    boxes = []
    for _ in range(3):
        lo = rng.uniform(-8.0, 6.0, dim)
        boxes.append((lo, lo + rng.uniform(0.5, 4.0, dim)))
    return make_box_scene(boxes, start=[-9.5] * dim, bounds=([-10.0] * dim, [10.0] * dim))


_FUSED = TestFusedStatesValid().scenes()
MOTION_SCENES = (_FUSED + [shifted_scene(_FUSED[0], np.array([1e9, -1e9])),
                           shifted_scene(_FUSED[1], np.array([1e9, 3.0]))]
                 + [random_box_scene(dim, 60 + dim) for dim in (1, 2, 3, 4)])


def face_values(scene, j):
    """Every bounds and box face coordinate along axis j."""
    return sorted({float(r[j]) for r in scene._rows_lo} | {float(r[j]) for r in scene._rows_hi})


def ulps(v, k):
    """v moved k representable doubles up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        v = np.nextafter(v, math.copysign(math.inf, k))
    return float(v)


@st.composite
def segments(draw, scenes=st.sampled_from(MOTION_SCENES)):
    """(scene, a, b) for a scene drawn from `scenes`, with endpoints on and a
    few ulps around faces, segments parallel to faces, segments through box
    corners, and a == b."""
    scene = draw(scenes)
    lo, hi = scene.bounds.lo, scene.bounds.hi
    n = scene.dimension
    nudge = st.integers(-5, 5)

    def coord(j):
        if draw(st.booleans()):
            v = draw(st.sampled_from(face_values(scene, j)))
        else:
            v = draw(st.floats(float(lo[j]) - 1.0, float(hi[j]) + 1.0))
        return ulps(v, draw(nudge))

    a = np.array([coord(j) for j in range(n)])
    mode = draw(st.sampled_from(("free", "parallel", "corner", "same")))
    if mode == "same":
        return scene, a, a.copy()
    if mode == "corner":
        row = draw(st.integers(0, len(scene._rows_lo) - 1))
        corner = np.where(draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                          scene._rows_lo[row], scene._rows_hi[row])
        return scene, a, np.array([ulps(v, draw(nudge)) for v in 2.0 * corner - a])
    b = np.array([coord(j) for j in range(n)])
    if mode == "parallel":
        j = draw(st.integers(0, n - 1))
        face = draw(st.sampled_from(face_values(scene, j)))
        a[j], b[j] = ulps(face, draw(nudge)), ulps(face, draw(nudge))
    return scene, a, b


def reference_box_clear(lo, hi, table_lo, table_hi):
    """The numpy closed-box test the row scan replaced, on the box [lo, hi]
    (a point q is [q, q]): the definition it must match."""
    lo, hi, table_lo, table_hi = (np.asarray(x, dtype=float) for x in (lo, hi, table_lo, table_hi))
    if not all(((lo >= table_lo[0]) & (hi <= table_hi[0])).tolist()):
        return False
    return not any(map(all, ((hi >= table_lo[1:]) & (lo <= table_hi[1:])).tolist()))


def many_box_scene(dim, count, seed):
    """`count` random boxes in [-10, 10]^dim; every third has a face at +0.0 or -0.0."""
    rng = RngStream(seed)
    boxes = []
    for k in range(count):
        lo = rng.uniform(-9.0, 8.0, dim)
        hi = lo + rng.uniform(0.1, 3.0, dim)
        if k % 3 == 0:
            j = k % dim
            lo[j], hi[j] = (-hi[j] + lo[j], -0.0) if k % 2 else (0.0, hi[j] - lo[j])
        boxes.append((lo, hi))
    return make_box_scene(boxes, start=[-9.5] * dim, bounds=([-10.0] * dim, [10.0] * dim))


ORACLE_SCENES = [many_box_scene(dim, count, 80 + 10 * dim + count) for dim in (2, 3) for count in (1, 3, 30)]
ORACLE_SCENES += MOTION_SCENES


SPECIAL_COORDS = (0.0, -0.0, math.inf, -math.inf, math.nan)


@st.composite
def point_queries(draw):
    """(p, rows_lo, rows_hi): a scene's closed-box rows and a point with
    coordinates on and a few ulps around their faces, inside one row, ±0.0,
    ±inf and NaN."""
    scene = draw(st.sampled_from(ORACLE_SCENES))
    rows_lo, rows_hi = scene._rows_lo, scene._rows_hi
    row = draw(st.integers(0, len(rows_lo) - 1))

    def coord(j):
        kind = draw(st.sampled_from(("face", "face", "inside", "any", "special")))
        if kind == "face":
            faces = sorted({r[j] for r in rows_lo} | {r[j] for r in rows_hi})
            return ulps(draw(st.sampled_from(faces)), draw(st.integers(-3, 3)))
        if kind == "inside":
            return draw(st.floats(rows_lo[row][j], rows_hi[row][j]))
        if kind == "special":
            return draw(st.sampled_from(SPECIAL_COORDS))
        return draw(st.floats(-12.0, 12.0))

    return [coord(j) for j in range(scene.dimension)], rows_lo, rows_hi


def boundary_and_special_points(scene, rng, per_box):
    """box_boundary_points of the bounds and every box, and each of them again
    with one coordinate replaced by each of SPECIAL_COORDS."""
    boxes = list(scene.obstacles) + [Box(scene.bounds.lo, scene.bounds.hi)]
    pts = box_boundary_points(boxes, rng, per_box=per_box).tolist()
    out = list(pts)
    for k, p in enumerate(pts):
        for v in SPECIAL_COORDS:
            q = list(p)
            q[k % len(q)] = v
            out.append(q)
    return out


class TestBoxClearRowScan:
    """_box_clear's Python row scan of one point must give the numpy test's answer exactly."""

    @settings(max_examples=1500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(query=point_queries())
    def test_matches_numpy_reference(self, query):
        p, rows_lo, rows_hi = query
        assert _box_clear(p, rows_lo, rows_hi) is reference_box_clear(p, p, rows_lo, rows_hi)

    def test_matches_numpy_reference_on_every_face(self):
        # Deterministic sweep over corners and faces (and one ulp either side)
        # of the bounds and of every box, so that row 0's reject, the later
        # rows' break and their for-else all run in every scene.
        rng = RngStream(53)
        for scene in ORACLE_SCENES:
            branches = Counter()
            rows_lo, rows_hi = scene._rows_lo, scene._rows_hi
            for q in boundary_and_special_points(scene, rng, per_box=6):
                expected = reference_box_clear(q, q, rows_lo, rows_hi)
                assert _box_clear(q, rows_lo, rows_hi) is expected
                if expected:
                    branches["clear"] += 1
                elif reference_box_clear(q, q, rows_lo[:1], rows_hi[:1]):
                    branches["meets a box"] += 1
                else:
                    branches["outside the bounds"] += 1
            assert len(branches) == 3, (scene.name, branches)

    def test_box_clear_uses_closed_boxes(self):
        # On the scene's own rows, _box_clear must agree with the per-obstacle
        # closed-box test (conftest.contains) on faces and corners.
        rng = RngStream(47)
        for scene in MOTION_SCENES:
            boxes = list(scene.obstacles) + [Box(scene.bounds.lo, scene.bounds.hi)]
            for q in box_boundary_points(boxes, rng, per_box=20):
                expected = bool(reference_states_valid(scene, q[None, :])[0])
                assert _box_clear(q.tolist(), scene._rows_lo, scene._rows_hi) is expected

    def test_matches_degenerate_segment(self):
        # A point is the segment from itself to itself: the point scan and the
        # slab test must agree on it, NaN and ±inf (which fail row 0) included.
        rng = RngStream(61)
        for scene in ORACLE_SCENES:
            rows = scene._rows_lo, scene._rows_hi
            answers = Counter()
            for q in boundary_and_special_points(scene, rng, per_box=10):
                got = _box_clear(q, *rows)
                assert got is _segment_clear(q, q, *rows), (scene.name, q)
                answers[got] += 1
            assert len(answers) == 2, (scene.name, answers)


def reference_block_states_valid(scene, pts):
    """The (M, K + 1, N) broadcast the block path replaced, boxes and bounds only."""
    p = np.atleast_2d(pts)[:, None, :]
    inside = ((p >= np.array(scene._rows_lo)) & (p <= np.array(scene._rows_hi))).all(axis=2)
    return inside[:, 0] & ~inside[:, 1:].any(axis=1)


BLOCK_SCENES = ORACLE_SCENES + [many_box_scene(dim, count, 90 + dim) for dim, count in ((1, 3), (4, 10))]


class TestBlockStatesValid:
    """A block of points, tested one point at a time, must give the broadcast's answer."""

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(scene=st.sampled_from(BLOCK_SCENES), data=st.data())
    def test_matches_broadcast_reference(self, scene, data):
        n = scene.dimension
        faces = [sorted({float(r[j]) for r in scene._rows_lo} | {float(r[j]) for r in scene._rows_hi})
                 for j in range(n)]

        def coord(j):
            kind = data.draw(st.sampled_from(("face", "face", "any", "special")))
            if kind == "face":
                return ulps(data.draw(st.sampled_from(faces[j])), data.draw(st.integers(-2, 2)))
            if kind == "special":
                return data.draw(st.sampled_from(SPECIAL_COORDS))
            return data.draw(st.floats(-12.0, 12.0))

        m = data.draw(st.integers(0, 40))
        pts = np.array([[coord(j) for j in range(n)] for _ in range(m)]).reshape(m, n)
        got = states_valid(scene, pts)
        expected = reference_block_states_valid(scene, pts)
        assert type(got) is list and np.array(got, dtype=bool).shape == (m,) and all(type(v) is bool for v in got)
        assert np.array_equal(got, expected)

    def test_matches_broadcast_reference_on_every_face(self):
        rng = RngStream(59)
        for scene in BLOCK_SCENES:
            boxes = list(scene.obstacles) + [Box(scene.bounds.lo, scene.bounds.hi)]
            pts = box_boundary_points(boxes, rng, per_box=10)
            got = states_valid(scene, pts)
            assert np.array_equal(got, reference_block_states_valid(scene, pts))
            assert any(got) and not all(got), scene.name
            # A transposed view (the layout a caller may build) reads the same.
            assert np.array_equal(states_valid(scene, np.ascontiguousarray(pts.T).T), got)


def fraction_meets(a, b, lo, hi):
    """Does the closed segment a-b meet the closed box [lo, hi]? The slab
    test on exact rationals."""
    t_in, t_out = Fraction(0), Fraction(1)
    for x, y, l, h in zip(*([Fraction(float(c)) for c in v] for v in (a, b, lo, hi))):
        if x == y:
            if x < l or x > h:
                return False
        else:
            u, v = (l - x) / (y - x), (h - x) / (y - x)
            t_in, t_out = max(t_in, min(u, v)), min(t_out, max(u, v))
    return t_in <= t_out


def oracle_check_motion(scene, a, b):
    """check_motion's definition: both ends in the bounds and no Box met, in
    exact arithmetic."""
    if not contains(scene.bounds, np.array([a, b])).all():
        return False
    return not any(fraction_meets(a, b, o.lo, o.hi) for o in scene.obstacles)


# A wall 0.01 thick: points 0.141 apart along the diagonal, such as x = 0.0
# and 0.1, fall either side of it.
THIN_WALL = (make_box_scene([((0.02, -10), (0.03, 10))], start=(-5, -5)),
             np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
# An edge of the rrt-uniform path for gap 10, seed 3007, of perfbench's
# tunnel-uniform grid that the sampled check accepted: it cuts the corner
# (0, 5) of the upper wall.
CORNER_CUT = (generate_tunnel_scene(10.0), np.array([-0.3413581996299557, 4.9391452431984995]),
              np.array([1.706793610391053, 7.820997800687808]))


class TestSegmentBox:
    """check_motion decides bounds and boxes exactly, with the slab test."""

    @settings(max_examples=1500, deadline=None)
    @given(seg=segments())
    @example(seg=THIN_WALL)
    @example(seg=CORNER_CUT)
    def test_matches_fraction_oracle(self, seg):
        assert check_motion(*seg) == oracle_check_motion(*seg)

    @settings(max_examples=600, deadline=None)
    @given(seg=segments())
    def test_symmetric_and_degenerate(self, seg):
        scene, a, b = seg
        assert check_motion(scene, a, b) == check_motion(scene, b, a)
        assert check_motion(scene, a, a) == is_state_valid(scene, a)

    @settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_fan_matches_check_motion(self, data):
        # Scenes of 1-4 dimensions: the motion scenes, or boxes whose faces lie
        # on a shared grid with both zeros. The origin and the targets lie on
        # faces, a few ulps off them, on corners, at ±0.0 or anywhere; only a
        # valid origin reaches the scene's compiled checks.
        scene = data.draw(st.one_of(st.sampled_from(MOTION_SCENES), kernel_scenes()))
        _, q0, b = data.draw(segments(st.just(scene)))
        q0 = data.draw(st.sampled_from((tuple(q0.tolist()), scene.start, data.draw(kernel_points(scene)))))
        others = data.draw(st.lists(st.one_of(segments(st.just(scene)).map(lambda seg: tuple(seg[2].tolist())),
                                              kernel_points(scene)), max_size=8))
        targets = [tuple(b.tolist()), q0, *others]
        want = [check_motion(scene, q0, t) for t in targets]
        for given_targets in (targets, np.array(targets)):
            fan = motions_valid_fan(scene, q0, given_targets)
            assert type(fan) is list and all(type(v) is bool for v in fan) and fan == want

    def test_thin_wall_crossed_on_a_diagonal(self):
        scene, a, b = THIN_WALL
        assert not check_motion(scene, a, b) and not check_motion(scene, b, a)
        assert not motions_valid_fan(scene, a, b[None, :])[0]

    def test_corner_cut_rejected(self):
        scene, a, b = CORNER_CUT
        assert not check_motion(scene, a, b) and not check_motion(scene, b, a)
        assert is_state_valid(scene, a) and is_state_valid(scene, b)

    def test_dimension_mismatch_still_raises(self, tunnel5):
        with pytest.raises(ValueError, match="dimension mismatch: scene is 2-D"):
            check_motion(tunnel5, np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            check_motion(tunnel5, np.zeros(2), np.ones(3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            check_motion(tunnel5, np.zeros(3), tunnel5.start)
        # The end point lies in a wall: the lengths are compared before it is tested.
        assert not is_state_valid(tunnel5, (-10.0, 5.0))
        with pytest.raises(ValueError, match="dimension mismatch"):
            check_motion(tunnel5, (0.0, 0.0, 0.0), (-10.0, 5.0))
        with pytest.raises(ValueError, match="dimension mismatch"):
            motions_valid_fan(tunnel5, np.zeros(3), [tunnel5.start])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("end", [0, 1])
    def test_non_finite_end_rejected_before_the_box(self, value, end):
        # Every comparison with NaN is false, so a NaN end must never reach
        # the slab test.
        scene = ORACLE_SCENES[0]
        ends = [np.array(scene.start), np.array(scene.start) + 0.25]
        ends[end][0] = value
        with pytest.raises(ValueError, match="finite"):
            check_motion(scene, *ends)


FAN_SCENES = [generate_tunnel_scene(gap) for gap in (5.0, 10.0, 15.0)] + [many_box_scene(3, 30, 113)]


def scalar_fan(scene, q0, targets):
    """_segment_clear from q0 to each target, the reference for box-only scenes."""
    rows = scene._rows_lo, scene._rows_hi
    return [_segment_clear(as_point(q0), t, *rows) for t in np.atleast_2d(targets).tolist()]


def fan_origins(scene, g, count):
    """Valid origins: the start, random free points and points on box faces."""
    out = [scene.start]
    while len(out) < count:
        q = g.uniform(scene.bounds.lo, scene.bounds.hi)
        if len(out) % 2:
            j = int(g.integers(scene.dimension))
            q[j] = g.choice(face_values(scene, j))
        if is_state_valid(scene, q):
            out.append(q)
    return out


class TestVectorFan:
    """motions_valid_fan runs the scene's compiled checks on each target: the
    answer must be the row scan's."""

    @pytest.mark.parametrize("scene", FAN_SCENES, ids=lambda s: s.name)
    def test_matches_segment_clear_on_random_fans(self, scene):
        g = np.random.default_rng(7)
        for q0 in fan_origins(scene, g, 12):
            for radius in (0.5, 3.0, 12.0, 60.0):
                dirs = g.standard_normal((64, scene.dimension))
                targets = q0 + radius * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
                assert motions_valid_fan(scene, q0, targets) == scalar_fan(scene, q0, targets)

    @pytest.mark.parametrize("scene", FAN_SCENES, ids=lambda s: s.name)
    def test_matches_segment_clear_on_face_touching_fans(self, scene):
        # Target coordinates on faces and a few ulps off them, equal to the
        # origin's (a zero displacement, on a face or not), and box corners.
        g = np.random.default_rng(11)
        n = scene.dimension
        for q0 in fan_origins(scene, g, 12):
            targets = g.uniform(np.array(scene.bounds.lo) - 1.0, np.array(scene.bounds.hi) + 1.0, (96, n))
            for t in targets[:64]:
                for j in np.flatnonzero(g.random(n) < 0.6):
                    t[j] = ulps(g.choice(face_values(scene, j)), int(g.integers(-2, 3)))
            same = g.random((96, n)) < 0.2
            targets[same] = np.broadcast_to(q0, (96, n))[same]
            rows = g.integers(0, len(scene._rows_lo), 16)
            pick = g.random((16, n)) < 0.5
            targets[80:] = np.where(pick, np.array(scene._rows_lo)[rows], np.array(scene._rows_hi)[rows])
            assert motions_valid_fan(scene, q0, targets) == scalar_fan(scene, q0, targets)

    def test_scenes_in_turn_keep_their_own_checks(self):
        # Fans over two scenes with other boxes and bounds, called in turn,
        # must each use their own scene's checks.
        tunnel = FAN_SCENES[0]
        other = make_box_scene([((-4.0, 1.0), (3.0, 2.5)), ((-4.0, -6.0), (-1.0, -0.5))], start=(0.0, 0.0),
                               bounds=((-7.0, -8.0), (9.0, 6.0)))
        g = np.random.default_rng(5)
        for scene in (tunnel, other, tunnel, other, tunnel):
            for radius in (1.0, 3.0, 8.0):
                dirs = g.standard_normal((64, 2))
                targets = scene.start + radius * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
                got = motions_valid_fan(scene, scene.start, targets)
                assert got == [check_motion(scene, scene.start, t) for t in targets]
                assert 0 < sum(got) < 64 or radius == 1.0

    def test_corner_of_a_wall_is_not_crossed(self):
        # From above the upper wall of the gap-5 tunnel: through its corner
        # (0, 7.5), where the slab ends meet, and straight up, clear of it.
        scene = FAN_SCENES[0]
        q1, ends = np.array([-10.0, 10.0]), np.array([[10.0, 5.0], [-10.0, 20.0]])
        assert motions_valid_fan(scene, q1, ends) == [False, True]


# Box faces on a coarse grid, so that drawn boxes share and touch faces; the
# grid holds both zeros.
KERNEL_FACES = (-8.0, -5.0, -2.5, -0.0, 0.0, 1.0, 2.5, 5.0, 7.5)


@st.composite
def kernel_scenes(draw):
    """One of ORACLE_SCENES (up to 30 boxes), or a scene of 1-4 dimensions in
    [-10, 10] with 0-6 boxes whose faces lie on KERNEL_FACES."""
    if draw(st.booleans()):
        return draw(st.sampled_from(ORACLE_SCENES))
    dim = draw(st.integers(1, 4))
    face_pairs = st.lists(st.sampled_from(KERNEL_FACES), min_size=2, max_size=2, unique=True).map(sorted)
    boxes = [tuple(zip(*draw(st.lists(face_pairs, min_size=dim, max_size=dim))))
             for _ in range(draw(st.integers(0, 6)))]
    return make_box_scene(boxes, start=[-9.5] * dim, bounds=([-10.0] * dim, [10.0] * dim))


@st.composite
def kernel_points(draw, scene):
    """A point of `scene` with coordinates on faces, on a face's next float
    either way, at ±0.0, inside one row or anywhere; or a row's corner."""
    row = draw(st.integers(0, len(scene._rows_lo) - 1))
    if draw(st.integers(0, 4)) == 0:
        return tuple(draw(st.sampled_from((l, h))) for l, h in zip(scene._rows_lo[row], scene._rows_hi[row]))

    def coord(j):
        kind = draw(st.sampled_from(("face", "face", "next", "zero", "inside", "any")))
        if kind in ("face", "next"):
            face = draw(st.sampled_from(face_values(scene, j)))
            return face if kind == "face" else ulps(face, draw(st.sampled_from((-1, 1))))
        if kind == "zero":
            return draw(st.sampled_from((0.0, -0.0)))
        if kind == "inside":
            return draw(st.floats(scene._rows_lo[row][j], scene._rows_hi[row][j]))
        return draw(st.floats(-12.0, 12.0))

    return tuple(coord(j) for j in range(scene.dimension))


def float_constants(fn):
    """The float constants of fn's code, alone or in tuples, as (value, sign) pairs."""
    values = [v for c in fn.__code__.co_consts for v in (c if type(c) is tuple else (c,))]
    return {(v, math.copysign(1.0, v)) for v in values if type(v) is float}


class TestCompiledChecks:
    """A scene's compiled checks must return the row scans' own bool objects."""

    @settings(max_examples=1500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_point_check_is_the_row_scan(self, data):
        scene = data.draw(kernel_scenes())
        p = data.draw(kernel_points(scene))
        assert scene._clear_point(p) is _box_clear(p, scene._rows_lo, scene._rows_hi)

    @settings(max_examples=1500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_segment_check_is_the_row_scan(self, data):
        scene, a, b = data.draw(segments(kernel_scenes()))
        a, b = tuple(a.tolist()), tuple(b.tolist())
        if data.draw(st.booleans()):
            b = data.draw(kernel_points(scene))
        rows = scene._rows_lo, scene._rows_hi
        assert scene._clear_segment(a, b) is _segment_clear(a, b, *rows)
        assert scene._clear_segment(b, a) is _segment_clear(b, a, *rows)

    def test_near_ties_take_the_exact_rule(self, monkeypatch):
        # Segments through a wall corner of the gap-5 tunnel, and one ulp
        # either side of it: both checks re-decide them on Fractions.
        scene = FAN_SCENES[0]
        cases = [((-10.0, 10.0), (10.0, 5.0), False), ((-2.0, 0.5), (2.0, 4.5), False),
                 ((-2.0, 0.5), (2.0, math.nextafter(4.5, 5.0)), False),
                 ((-2.0, 0.5), (2.0, math.nextafter(4.5, 4.0)), True)]
        exact = []
        slab = cspace._slab
        monkeypatch.setattr(cspace, "_slab", lambda *args: exact.append(type(args[0][0]) is Fraction) or slab(*args))
        for a, b, clear in cases:
            for x, y in ((a, b), (b, a)):
                del exact[:]
                assert scene._clear_segment(x, y) is clear
                assert exact == [False, True]
                assert _segment_clear(x, y, scene._rows_lo, scene._rows_hi) is clear
                assert exact == [False, True] * 2

    def test_zero_dimensional_scene(self):
        # No coordinate: the bounds hold the one point, and a box covers it.
        scene = Scene(name="0-D", bounds=Bounds((), ()), start=(), goal=GoalSpec("escape", threshold=1.0))
        assert scene._clear_point(()) is True and scene._clear_segment((), ()) is True
        with pytest.raises(SceneSemanticError, match="not collision-free"):
            dataclasses.replace(scene, obstacles=(Box((), ()),))

    def test_extreme_faces_round_trip(self):
        # Faces at the smallest subnormal, at -0.0 and at the largest double:
        # the compiled source must read each back as the same float.
        tiny, big = 5e-324, 1.7976931348623157e308
        scene = make_box_scene([((-0.0, -0.0), (tiny, 1.0)), ((1.0, 1.0), (big, 2.0)), ((-big, -3.0), (-2.0, -0.0))],
                               start=(-0.5, -0.5), bounds=((-3.0, -3.0), (3.0, 3.0)))
        faces = {(v, math.copysign(1.0, v)) for row in scene._rows_lo + scene._rows_hi for v in row}
        assert (-0.0, -1.0) in faces and (tiny, 1.0) in faces and (big, 1.0) in faces
        assert float_constants(scene._clear_point) == faces
        assert float_constants(scene._clear_segment) == faces
        assert scene._clear_point((tiny, 0.5)) is False and scene._clear_point((2 * tiny, 0.5)) is True
        assert scene._clear_point((-tiny, 0.5)) is True and scene._clear_point((-0.0, 0.5)) is False
        rows = scene._rows_lo, scene._rows_hi
        pts = [(x, y) for x in (-tiny, -0.0, 0.0, tiny, 2 * tiny, 1.0, -2.0, 2.5)
               for y in (-0.0, tiny, 0.5, 1.0, 1.5, -2.5)]
        for p in pts:
            assert scene._clear_point(p) is _box_clear(p, *rows)
            for q in pts:
                assert scene._clear_segment(p, q) is _segment_clear(p, q, *rows)


def _result(fn, *args):
    """fn's result as a plain value, or its ValueError's message."""
    try:
        out = fn(*args)
    except ValueError as exc:
        return "ValueError: " + str(exc)
    return out.tolist() if isinstance(out, np.ndarray) else out


def _as_tuple(q):
    q = np.asarray(q, dtype=float)
    return tuple(q.tolist()) if q.ndim == 1 else tuple(map(tuple, q.tolist()))


class TestTupleAndArrayInputs:
    """A planner's loop passes tuples of Python floats; every check must give
    a tuple the answer, or the ValueError, that it gives the same array."""

    @staticmethod
    def inputs(scene, rng):
        lo, hi = scene.bounds.lo, scene.bounds.hi
        boxes = [*scene.obstacles, Box(lo, hi)]
        pts = [*rng.uniform(np.array(lo) - 1.0, np.array(hi) + 1.0, (60, 2)),
               *box_boundary_points(boxes, rng, per_box=4)]
        pts += [np.array(v) for v in ([-0.0, 0.0], [math.nan, 0.0], [0.0, math.inf], [-math.inf, 1.0])]
        return pts

    def test_same_answers(self):
        rng = RngStream(59)
        tree = Tree(np.zeros(2))
        for q in rng.uniform(-10.0, 10.0, (40, 2)):
            tree.add(q, 0, "uniform")
        for scene in TestFusedStatesValid().scenes():
            pts = self.inputs(scene, rng)
            for a, b in zip(pts, pts[1:] + pts[:1]):
                ta, tb = _as_tuple(a), _as_tuple(b)
                assert type(ta) is tuple and type(ta[0]) is float
                assert _result(check_motion, scene, ta, tb) == _result(check_motion, scene, a, b)
                assert _result(check_motion, scene, ta, b) == _result(check_motion, scene, a, tb)
                assert _result(states_valid, scene, [ta]) == _result(states_valid, scene, [a])
                assert _result(is_state_valid, scene, ta) == _result(is_state_valid, scene, a)
                assert _result(goal_satisfied, scene, ta) == _result(goal_satisfied, scene, a)
                assert _result(goal_on_motion, scene, ta, tb) == _result(goal_on_motion, scene, a, b)
                assert _result(tree.nearest, ta) == _result(tree.nearest, a)
            block = np.array(pts[:5])
            assert _result(states_valid, scene, _as_tuple(block)) == _result(states_valid, scene, block)
            assert _result(is_state_valid, scene, _as_tuple(block)) == _result(is_state_valid, scene, block)

    @pytest.mark.parametrize("bad, message", [
        (np.array([math.nan, 0.0]), "finite"), (np.array([0.0, -math.inf]), "finite"),
        (np.array([[0.0, 0.0], [1.0, 1.0]]), "1-D"), (np.zeros(3), "dimension mismatch"),
        (np.zeros(1), "dimension mismatch")])
    def test_same_errors(self, tunnel5, bad, message):
        start, tree = tunnel5.start, Tree(tunnel5.start)
        calls = [(check_motion, tunnel5, bad, start), (check_motion, tunnel5, start, bad)]
        if message != "finite":  # the other checks answer for a non-finite configuration
            calls += [(goal_satisfied, tunnel5, bad), (tree.nearest, bad), (is_state_valid, tunnel5, bad),
                      (lambda q: states_valid(tunnel5, [q]), bad)]
        for fn, *args in calls:
            want = _result(fn, *args)
            assert want.startswith("ValueError") and message in want
            args = [_as_tuple(x) if x is bad else x for x in args]
            assert _result(fn, *args) == want


class TestPowerOfTwoEquivariance:
    """Multiplying a scene and its configurations by 2^k is exact in binary
    floating point, so steer, goal_satisfied and check_motion must give the
    scaled answer bit for bit."""

    @pytest.mark.parametrize("gap", [5.0, 10.0, 15.0])
    def test_tunnels(self, gap):
        base = generate_tunnel_scene(gap)
        scenes = [base, dataclasses.replace(base, goal=GoalSpec("escape", threshold=20.0))]
        rng = RngStream(61)
        boxes = list(base.obstacles)
        ends = [*rng.uniform(base.bounds.lo, base.bounds.hi, (40, 2)), *box_boundary_points(boxes, rng, per_box=4)]
        ends += [base.goal.center + base.goal.tolerance * np.array([math.cos(t), math.sin(t)])
                 for t in rng.uniform(0.0, 2.0 * math.pi, 8)]
        origins = [base.start + rng.uniform(-1.0, 1.0, 2) for _ in ends]
        eta = PlannerParams().effective_eta(base)
        steps = [(tuple(a.tolist()), steer(tuple(a.tolist()), tuple(b.tolist()), eta)) for a, b in zip(origins, ends)]
        steps += [(tuple(a.tolist()), tuple(b.tolist())) for a, b in zip(ends, ends[1:])]
        for scene in scenes:
            want = [(steer(a, b, eta), goal_satisfied(scene, b), check_motion(scene, a, b), goal_on_motion(scene, a, b))
                    for a, b in steps]
            for k in range(-30, 31):
                s = 2.0 ** k
                big = scaled_scene(scene, s)
                for (a, b), (x, goal, valid, meet) in zip(steps, want):
                    sa, sb = tuple(v * s for v in a), tuple(v * s for v in b)
                    assert np.array(steer(sa, sb, eta * s)).tobytes() == (np.array(x) * s).tobytes()
                    assert goal_satisfied(big, sb) is goal
                    assert check_motion(big, sa, sb) is valid
                    assert goal_on_motion(big, sa, sb) == (None if meet is None else tuple(v * s for v in meet))


def exact_gap2(a, b, c) -> Fraction:
    """The squared distance from c to the closed segment a-b, in exact rationals."""
    a, b, c = ([Fraction(v) for v in p] for p in (a, b, c))
    ab = [y - x for x, y in zip(a, b)]
    den = sum(v * v for v in ab)
    t = min(max(sum((z - x) * v for x, z, v in zip(a, c, ab)) / den, 0), 1) if den else 0
    return sum((x + t * v - z) ** 2 for x, v, z in zip(a, ab, c))


@st.composite
def ball_goal_motions(draw):
    """(scene, a, b): a random box scene of 1 to 4 dimensions with a ball
    goal, and a motion from a point a towards the ball, past it or
    short of it, and off its centre."""
    dim = draw(st.integers(1, 4))
    scene = random_box_scene(dim, draw(st.integers(0, 30)))
    lo, hi = scene.bounds.lo, scene.bounds.hi
    c = [draw(st.floats(l, h)) for l, h in zip(lo, hi)]
    scene = dataclasses.replace(scene, goal=GoalSpec("ball", center=c, tolerance=draw(st.floats(0.01, 4.0))))
    a = [draw(st.floats(l, h)) for l, h in zip(lo, hi)]
    s = draw(st.floats(0.0, 2.5))
    b = [min(max(x + s * (z - x) + draw(st.floats(-1.0, 1.0)), l), h) for x, z, l, h in zip(a, c, lo, hi)]
    return scene, tuple(a), tuple(b)


class TestGoalOnMotion:
    """goal_on_motion: where a validated motion first meets the goal."""

    @pytest.fixture
    def ball(self, empty_scene):
        return empty_scene  # a ball of radius 0.5 at (5, 0) in an empty [-10, 10]^2

    def test_crossing_segment_returns_the_closest_point(self, ball):
        a, b = (3.0, 0.1), (7.0, 0.1)
        assert not goal_satisfied(ball, a) and not goal_satisfied(ball, b)
        q = goal_on_motion(ball, a, b)
        assert q == (5.0, 0.1) and goal_satisfied(ball, q)
        # Off the axis and at an angle: the point is on the segment and in the ball.
        a, b = (2.0, -1.3), (7.5, 1.1)
        q = goal_on_motion(ball, a, b)
        assert distance(q, ball.goal.center) <= ball.goal.tolerance
        assert distance(a, q) + distance(q, b) == pytest.approx(distance(a, b), rel=1e-15)

    @pytest.mark.parametrize("a, b", [((0.0, 0.0), (4.0, 0.0)),     # stops short
                                      ((3.0, 1.0), (7.0, 1.0)),     # passes beside
                                      ((6.0, 0.0), (9.0, 0.0)),     # leaves it behind
                                      ((-9.0, 0.0), (-8.0, 0.0))])  # far away
    def test_segment_that_misses_returns_none(self, ball, a, b):
        assert goal_on_motion(ball, a, b) is None

    def test_far_segment_makes_no_check(self, ball, monkeypatch):
        calls = []
        monkeypatch.setattr(cspace, "check_motion", lambda *args: calls.append(args) or True)
        assert goal_on_motion(ball, (0.0, 0.0), (3.0, 0.0)) is None
        assert goal_on_motion(ball, (0.0, 0.0), (4.4, 0.0)) is None  # within reach: the closest point is b
        assert calls == []
        assert goal_on_motion(ball, (3.0, 0.1), (7.0, 0.1)) == (5.0, 0.1)
        assert calls == [(ball, (3.0, 0.1), (5.0, 0.1))]

    def test_sub_motion_check_decides(self, ball, monkeypatch):
        monkeypatch.setattr(cspace, "check_motion", lambda *args: False)
        assert goal_on_motion(ball, (3.0, 0.1), (7.0, 0.1)) is None
        assert goal_on_motion(ball, (3.0, 0.1), (5.0, 0.1)) == (5.0, 0.1)  # b itself is not re-checked

    def test_end_point_in_the_goal_is_returned(self, ball):
        assert goal_on_motion(ball, (3.0, 0.0), (5.2, 0.1)) == (5.2, 0.1)
        assert goal_on_motion(ball, np.array([3.0, 0.0]), np.array([5.2, 0.1])) == (5.2, 0.1)

    def test_degenerate_motion(self, ball):
        assert goal_on_motion(ball, (1.0, 1.0), (1.0, 1.0)) is None
        assert goal_on_motion(ball, (5.0, 0.25), (5.0, 0.25)) == (5.0, 0.25)

    def test_escape_goal_tests_the_end_point_only(self):
        scene = Scene(name="g", bounds=Bounds([-20.0, -20.0], [20.0, 20.0]), start=np.zeros(2),
                      goal=GoalSpec("escape", threshold=10.0))
        rng = RngStream(67)
        for a, b in rng.uniform(-20.0, 20.0, (500, 2, 2)).tolist():
            a, b = tuple(a), tuple(b)
            assert goal_on_motion(scene, a, b) == (b if goal_satisfied(scene, b) else None)
        assert goal_on_motion(scene, (0.0, 0.0), (6.0, 8.0)) == (6.0, 8.0)  # exactly at the threshold

    @settings(max_examples=400, deadline=None)
    @given(ball_goal_motions())
    def test_returned_point_meets_the_goal_on_a_valid_motion(self, case):
        scene, a, b = case
        assume(check_motion(scene, a, b))
        q = goal_on_motion(scene, a, b)
        tol = scene.goal.tolerance
        if q is not None:
            assert goal_satisfied(scene, q) and check_motion(scene, a, q)
        elif exact_gap2(a, b, scene.goal.center) <= Fraction(tol * (1.0 - 1e-9)) ** 2:
            pytest.fail("a motion that passes well inside the ball was not found")
