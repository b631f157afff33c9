import numpy as np
import pytest

from narrowpass import Bounds, GoalSpec, Scene, Box
from narrowpass.scenes import generate_tunnel_scene, open_scene


@pytest.fixture
def empty_scene():
    return Scene(
        name="empty",
        bounds=Bounds([-10.0, -10.0], [10.0, 10.0]),
        start=np.zeros(2),
        goal=GoalSpec("ball", center=np.array([5.0, 0.0]), tolerance=0.5),
    )


@pytest.fixture
def box_scene():
    return Scene(
        name="box",
        bounds=Bounds([-10.0, -10.0], [10.0, 10.0]),
        start=np.array([-5.0, 0.0]),
        goal=GoalSpec("escape", threshold=8.0),
        obstacles=(Box([-1.0, -1.0], [1.0, 1.0]),),
    )


@pytest.fixture
def tunnel5():
    return generate_tunnel_scene(5.0)


@pytest.fixture
def open2d():
    return open_scene()


def make_box_scene(boxes, start, bounds=((-10, -10), (10, 10)), goal=None):
    return Scene(
        name="boxes",
        bounds=Bounds(list(map(float, bounds[0])), list(map(float, bounds[1]))),
        start=np.asarray(start, dtype=float),
        goal=goal or GoalSpec("escape", threshold=100.0),
        obstacles=tuple(Box(list(map(float, lo)), list(map(float, hi))) for lo, hi in boxes),
    )


def scaled_scene(scene, s):
    """scene with every coordinate and length multiplied by s."""
    g = scene.goal
    goal = (GoalSpec("ball", center=np.array(g.center) * s, tolerance=g.tolerance * s) if g.kind == "ball"
            else GoalSpec("escape", threshold=g.threshold * s))
    bounds = Bounds(np.array(scene.bounds.lo) * s, np.array(scene.bounds.hi) * s)
    return Scene(name=scene.name, bounds=bounds, start=np.array(scene.start) * s, goal=goal,
                 obstacles=tuple(Box(np.array(o.lo) * s, np.array(o.hi) * s) for o in scene.obstacles))


def contains(box, pts) -> np.ndarray:
    """Which rows of pts lie in the closed box [box.lo, box.hi] (a Bounds or
    a Box), in numpy: the oracle the validity checks are tested against."""
    pts = np.atleast_2d(pts)
    return np.all((pts >= np.array(box.lo)) & (pts <= np.array(box.hi)), axis=1)


def reference_states_valid(scene, pts) -> np.ndarray:
    """Per-obstacle validity loop over the rows of pts, the definition the
    fused row scan must match."""
    ok = contains(scene.bounds, pts)
    for obs in scene.obstacles:
        ok &= ~contains(obs, pts)
    return ok


def scene_to_document(scene) -> dict:
    """Inverse of load_scene, for generated scenes."""
    doc: dict = {
        "name": scene.name,
        "dimension": scene.dimension,
        "bounds": {"lo": list(scene.bounds.lo), "hi": list(scene.bounds.hi)},
        "start": list(scene.start),
        "obstacles": [{"kind": "box", "lo": list(o.lo), "hi": list(o.hi)} for o in scene.obstacles],
    }
    if scene.goal.kind == "ball":
        doc["goal"] = {"kind": "ball", "center": list(scene.goal.center), "tolerance": scene.goal.tolerance}
    else:
        doc["goal"] = {"kind": "escape", "threshold": scene.goal.threshold}
    return doc
