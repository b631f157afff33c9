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


def _unit_rows(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """v's rows over their norms, written to out if given; a zero row stays zero."""
    # np.linalg.norm(v, axis=1, keepdims=True)'s own arithmetic for real v, without its wrapper.
    norms = np.sqrt(np.add.reduce(v * v, axis=1, keepdims=True))
    # Resample degenerate draws (numerically zero norm) is overkill; nudge instead.
    norms[norms == 0.0] = 1.0
    return np.divide(v, norms, out=out)


def _uniform_on_sphere(n: int, dim: int, rng: np.random.Generator, out: np.ndarray | None = None) -> np.ndarray:
    """n uniform unit vectors as rows, written to out if it is given."""
    return _unit_rows(rng.standard_normal((n, dim)), out)


@functools.lru_cache(maxsize=16)
def _golden_angles(count: int) -> np.ndarray:
    """np.arange(count) * GOLDEN_ANGLE, built once per count and read-only."""
    angles = np.arange(count) * GOLDEN_ANGLE
    angles.flags.writeable = False
    return angles


def _fibonacci_circle(count: int, jitter: float, rng: np.random.Generator) -> np.ndarray:
    angles = _golden_angles(count)
    if jitter > 0:
        # Generator.uniform(-jitter, jitter, count)'s own arithmetic, low +
        # (high - low) * next_double, on the same draws, without its checks.
        angles = angles + (-jitter + (jitter - -jitter) * rng.random(count))
    # Contiguous rows, so cos and sin run the loops they ran before; the caller copies the transpose.
    out = np.empty((2, count))
    np.cos(angles, out=out[0])
    np.sin(angles, out=out[1])
    return out.T


def _fibonacci_sphere(count: int, jitter: float, rng: np.random.Generator) -> np.ndarray:
    i = np.arange(count)
    z = 1.0 - 2.0 * (i + 0.5) / count
    phi = _golden_angles(count)
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.column_stack([s * np.cos(phi), s * np.sin(phi), z])
    if jitter > 0:
        pts = _jitter_rotate(pts, jitter, rng)
    return pts


def _jitter_rotate(pts: np.ndarray, jitter: float, rng: np.random.Generator) -> np.ndarray:
    """Rotate each unit vector by a random angle in [-jitter, jitter] about a
    random tangent axis (Rodrigues' formula)."""
    n = len(pts)
    raw = rng.standard_normal((n, 3))
    # Project onto each point's tangent plane to get a tangent rotation axis.
    tangent = raw - np.einsum("ij,ij->i", raw, pts)[:, None] * pts
    k = _unit_rows(tangent)
    theta = rng.uniform(-jitter, jitter, size=n)[:, None]
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    kxp = np.cross(k, pts)
    kdp = np.einsum("ij,ij->i", k, pts)[:, None]
    return pts * cos_t + kxp * sin_t + k * kdp * (1.0 - cos_t)


def sample_sphere_batch(center, radius: float, count: int, jitter: float, rng: np.random.Generator) -> np.ndarray:
    """count points on the sphere of the given radius around center, as rows.

    In 2-D and 3-D, even indices are uniform-on-sphere draws and odd indices
    come from the Fibonacci lattice, its angles jittered by up to jitter. In
    every other dimension there is no lattice, and every index is a uniform
    draw. The arguments are unchecked: the scale search's ScaleParams checks
    them.
    """
    dim = len(center)
    dirs = np.empty((count, dim))
    if dim not in (2, 3):
        _uniform_on_sphere(count, dim, rng, dirs)
    else:
        _uniform_on_sphere((count + 1) // 2, dim, rng, dirs[0::2])
        lattice = _fibonacci_circle if dim == 2 else _fibonacci_sphere
        dirs[1::2] = lattice(count // 2, jitter, rng)
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
