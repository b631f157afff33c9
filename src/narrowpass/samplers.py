"""Sampling strategies: uniform, sphere batches, and classical biased samplers."""

from __future__ import annotations

import functools
import math
import numpy as np

from .cspace import Bounds, Scene, is_state_valid

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0
GOLDEN_ANGLE = 2.0 * math.pi * (1.0 - 1.0 / GOLDEN_RATIO)

# Bounded retries for the obstacle-boundary sampler.
OBSTACLE_SAMPLER_RETRIES = 100

# Default baseline stddev as a fraction of the bounds diagonal.
BASELINE_STDDEV_FRACTION = 0.05

# The obstacle-boundary sampler's bisection step as a fraction of the bounds diagonal.
NEAR_OBSTACLE_STEP_FRACTION = 0.005


def sample_uniform(bounds: Bounds, rng: np.random.Generator) -> tuple:
    lo = bounds.lo
    u = rng.random(len(lo)).tolist()
    return tuple([l + s * x for l, s, x in zip(lo, bounds.span, u)])


def _uniform_on_sphere(n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """n uniform unit vectors as rows; a zero draw stays zero."""
    v = rng.standard_normal((n, dim))
    # np.linalg.norm(v, axis=1, keepdims=True)'s own arithmetic for real v, without its wrapper.
    norms = np.sqrt(np.add.reduce(v * v, axis=1, keepdims=True))
    norms[norms == 0.0] = 1.0
    return v / norms


@functools.lru_cache(maxsize=16)
def _fibonacci_lattice(count: int, dim: int) -> np.ndarray:
    """The unit golden-angle Fibonacci lattice of count points on the circle
    (dim 2) or the sphere (dim 3), as dim read-only rows of coordinates,
    built once per count and dim in Python floats."""
    phi = [i * GOLDEN_ANGLE for i in range(count)]
    if dim == 2:
        rows = [list(map(math.cos, phi)), list(map(math.sin, phi))]
    else:
        z = [1.0 - 2.0 * (i + 0.5) / count for i in range(count)]
        s = [math.sqrt(max(0.0, 1.0 - x * x)) for x in z]
        rows = [[r * math.cos(p) for r, p in zip(s, phi)], [r * math.sin(p) for r, p in zip(s, phi)], z]
    lattice = np.array(rows)
    lattice.flags.writeable = False
    return lattice


def _random_rotation(dim: int, rng: np.random.Generator) -> list[list[float]]:
    """A uniformly random rotation of the plane or of space, as dim rows of
    Python floats: in 2-D by the angle 2π·u for one double u, in 3-D from the
    unit quaternion of four standard normals (the identity if all are zero)."""
    if dim == 2:
        theta = 2.0 * math.pi * rng.random()
        c, s = math.cos(theta), math.sin(theta)
        return [[c, -s], [s, c]]
    q = rng.standard_normal(4).tolist()
    n = math.sqrt(math.fsum([x * x for x in q]))
    w, x, y, z = [v / n for v in q] if n > 0.0 else (1.0, 0.0, 0.0, 0.0)
    return [[1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
            [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
            [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)]]


def sample_sphere_batch(center, radius: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """count points on the sphere of the given radius around center, as rows.

    In 2-D and 3-D the directions are the Fibonacci lattice of count points
    turned by one uniformly random rotation (a Cranley-Patterson rotation):
    coordinate i of point k is (R_i0·L_0k + R_i1·L_1k) + R_i2·L_2k, in that
    order, elementwise. In every other dimension each direction is a
    uniform draw. The arguments are unchecked: the scale search passes
    a clamped radius and its constant batch size.
    """
    dim = len(center)
    if dim not in (2, 3):
        dirs = _uniform_on_sphere(count, dim, rng)
    else:
        rot = np.array(_random_rotation(dim, rng))
        lattice = _fibonacci_lattice(count, dim)
        cols = rot[:, :1] * lattice[0]
        for j in range(1, dim):
            cols += rot[:, j:j + 1] * lattice[j]
        dirs = cols.T
    # center + radius * dirs in place: IEEE * and + commute, so the same doubles.
    dirs *= radius
    return np.add(dirs, center, out=dirs)


def sample_gaussian_obstacle(scene: Scene, stddev: float, rng: np.random.Generator) -> tuple | None:
    """Gaussian obstacle-boundary sampler: keep the valid one of a
    (uniform, Gaussian-perturbed) pair iff exactly one is valid."""
    if not stddev > 0:
        raise ValueError("stddev must be positive")
    q1 = sample_uniform(scene.bounds, rng)
    q2 = tuple([x + stddev * z for x, z in zip(q1, rng.standard_normal(len(q1)).tolist())])
    if not all(l <= x <= h for l, x, h in zip(scene.bounds.lo, q2, scene.bounds.hi)):
        # The domain edge is not an obstacle boundary; reject the pair.
        return None
    v1 = is_state_valid(scene, q1)
    v2 = is_state_valid(scene, q2)
    if v1 == v2:
        return None
    return q1 if v1 else q2


def sample_bridge(scene: Scene, stddev: float, rng: np.random.Generator) -> tuple | None:
    """Bridge test: midpoint of two invalid endpoints, if the midpoint is valid."""
    if not stddev > 0:
        raise ValueError("stddev must be positive")
    q1 = sample_uniform(scene.bounds, rng)
    if is_state_valid(scene, q1):
        return None
    q2 = tuple([x + stddev * z for x, z in zip(q1, rng.standard_normal(len(q1)).tolist())])
    if is_state_valid(scene, q2):
        return None
    mid = tuple([0.5 * (x + y) for x, y in zip(q1, q2)])
    return mid if is_state_valid(scene, mid) else None


def sample_near_obstacle(scene: Scene, rng: np.random.Generator) -> tuple | None:
    """Obstacle-boundary sampler: bisect an invalid/valid uniform pair down to
    NEAR_OBSTACLE_STEP_FRACTION of the bounds diagonal and return the valid end."""
    step = NEAR_OBSTACLE_STEP_FRACTION * scene.bounds.diagonal
    for _ in range(OBSTACLE_SAMPLER_RETRIES):
        q_bad = sample_uniform(scene.bounds, rng)
        q_good = sample_uniform(scene.bounds, rng)
        if is_state_valid(scene, q_bad) or not is_state_valid(scene, q_good):
            continue
        while math.dist(q_good, q_bad) > step:
            mid = tuple([0.5 * (x + y) for x, y in zip(q_good, q_bad)])
            if is_state_valid(scene, mid):
                q_good = mid
            else:
                q_bad = mid
        return q_good
    return None


def baseline_stddev(scene: Scene) -> float:
    return BASELINE_STDDEV_FRACTION * scene.bounds.diagonal
