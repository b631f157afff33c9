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
