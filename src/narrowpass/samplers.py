"""Sampling strategies: uniform, sphere batches, and classical biased samplers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cspace import Bounds, Config, Scene, as_config, is_state_valid
from .rng import RngStream

GOLDEN_RATIO = (1.0 + math.sqrt(5.0)) / 2.0
GOLDEN_ANGLE = 2.0 * math.pi * (1.0 - 1.0 / GOLDEN_RATIO)

# Bounded retries for the obstacle-boundary sampler.
OBSTACLE_SAMPLER_RETRIES = 100

# Default baseline stddev as a fraction of the bounds diagonal.
BASELINE_STDDEV_FRACTION = 0.05

# The obstacle-boundary sampler's bisection step as a fraction of the bounds diagonal.
NEAR_OBSTACLE_STEP_FRACTION = 0.005


@dataclass(frozen=True)
class SphereBatchSpec:
    center: Config
    radius: float
    batch_size: int
    jitter: float = math.pi / 8.0

    def __post_init__(self):
        object.__setattr__(self, "center", as_config(self.center))
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.batch_size < 2:
            raise ValueError("batch size must be at least 2")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")


def sample_uniform(bounds: Bounds, rng: RngStream) -> tuple:
    u = rng.gen.random(bounds.dimension).tolist()
    return tuple([l + s * x for l, s, x in zip(bounds.lo.tolist(), bounds.span.tolist(), u)])


def _uniform_on_sphere(n: int, dim: int, rng: RngStream) -> np.ndarray:
    v = rng.gen.standard_normal((n, dim))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    # Resample degenerate draws (numerically zero norm) is overkill; nudge instead.
    norms[norms == 0.0] = 1.0
    return v / norms


def _fibonacci_circle(count: int, jitter: float, rng: RngStream) -> np.ndarray:
    angles = np.arange(count) * GOLDEN_ANGLE
    if jitter > 0:
        # Generator.uniform(-jitter, jitter, count)'s own arithmetic, low +
        # (high - low) * next_double, on the same draws, without its checks.
        angles = angles + (-jitter + (jitter - -jitter) * rng.gen.random(count))
    # column_stack's array, filled a column at a time from the same
    # contiguous cos and sin results.
    out = np.empty((count, 2))
    out[:, 0] = np.cos(angles)
    out[:, 1] = np.sin(angles)
    return out


def _fibonacci_sphere(count: int, jitter: float, rng: RngStream) -> np.ndarray:
    i = np.arange(count)
    z = 1.0 - 2.0 * (i + 0.5) / count
    phi = i * GOLDEN_ANGLE
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.column_stack([s * np.cos(phi), s * np.sin(phi), z])
    if jitter > 0:
        pts = _jitter_rotate(pts, jitter, rng)
    return pts


def _jitter_rotate(pts: np.ndarray, jitter: float, rng: RngStream) -> np.ndarray:
    """Rotate each unit vector by a random angle in [-jitter, jitter] about a
    random tangent axis (Rodrigues' formula)."""
    n = len(pts)
    raw = rng.gen.standard_normal((n, 3))
    # Project onto each point's tangent plane to get a tangent rotation axis.
    tangent = raw - np.einsum("ij,ij->i", raw, pts)[:, None] * pts
    norms = np.linalg.norm(tangent, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    k = tangent / norms
    theta = rng.gen.uniform(-jitter, jitter, size=n)[:, None]
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    kxp = np.cross(k, pts)
    kdp = np.einsum("ij,ij->i", k, pts)[:, None]
    return pts * cos_t + kxp * sin_t + k * kdp * (1.0 - cos_t)


def fibonacci_lattice(count: int, dim: int, jitter: float, rng: RngStream) -> np.ndarray:
    """Low-discrepancy unit directions; defined for dim 2 and 3 only."""
    if dim == 2:
        return _fibonacci_circle(count, jitter, rng)
    if dim == 3:
        return _fibonacci_sphere(count, jitter, rng)
    raise ValueError("fibonacci lattice is defined for dimensions 2 and 3")


def sample_sphere_batch(spec: SphereBatchSpec, rng: RngStream) -> np.ndarray:
    """Batch of points on the sphere around spec.center.

    In 2-D and 3-D, even indices are uniform-on-sphere draws and odd indices
    come from the jittered Fibonacci lattice. In every other dimension there
    is no lattice (fibonacci_lattice), and every index is a uniform draw.
    """
    dim = spec.center.shape[0]
    b = spec.batch_size
    if dim not in (2, 3):
        dirs = _uniform_on_sphere(b, dim, rng)
    else:
        n_uniform = (b + 1) // 2
        n_lattice = b // 2
        uni = _uniform_on_sphere(n_uniform, dim, rng)
        lat = fibonacci_lattice(n_lattice, dim, spec.jitter, rng)
        dirs = np.empty((b, dim))
        dirs[0::2] = uni
        dirs[1::2] = lat
    return spec.center + spec.radius * dirs


def sample_gaussian_obstacle(scene: Scene, stddev: float, rng: RngStream) -> tuple | None:
    """Gaussian obstacle-boundary sampler: keep the valid one of a
    (uniform, Gaussian-perturbed) pair iff exactly one is valid."""
    if stddev <= 0:
        raise ValueError("stddev must be positive")
    q1 = sample_uniform(scene.bounds, rng)
    q2 = tuple([x + stddev * z for x, z in zip(q1, rng.gen.standard_normal(len(q1)).tolist())])
    if not all(l <= x <= h for l, x, h in zip(scene._rows_lo[0], q2, scene._rows_hi[0])):
        # The domain edge is not an obstacle boundary; reject the pair.
        return None
    v1 = is_state_valid(scene, q1)
    v2 = is_state_valid(scene, q2)
    if v1 == v2:
        return None
    return q1 if v1 else q2


def sample_bridge(scene: Scene, stddev: float, rng: RngStream) -> tuple | None:
    """Bridge test: midpoint of two invalid endpoints, if the midpoint is valid."""
    if stddev <= 0:
        raise ValueError("stddev must be positive")
    q1 = sample_uniform(scene.bounds, rng)
    if is_state_valid(scene, q1):
        return None
    q2 = tuple([x + stddev * z for x, z in zip(q1, rng.gen.standard_normal(len(q1)).tolist())])
    if is_state_valid(scene, q2):
        return None
    mid = tuple([0.5 * (x + y) for x, y in zip(q1, q2)])
    return mid if is_state_valid(scene, mid) else None


def sample_near_obstacle(scene: Scene, rng: RngStream) -> tuple | None:
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
