"""Principal escape direction and the axis-aligned cylinder sampler.

The escape direction is the leading eigenvector of the second moments of
displacements from the start configuration, taken once by `principal_axis`.
After that it is tracked by power steps: each new valid sample updates the
running moments S, and the axis a becomes S·a / |S·a|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .cspace import Config, as_config
from .rng import RngStream


class DegenerateAxisError(ValueError):
    """No direction can be extracted (all displacements are zero)."""


@dataclass(frozen=True)
class PrincipalAxis:
    axis: Config          # unit escape direction
    origin: Config        # anchor (start configuration)
    count: int            # number of accumulated displacements
    disp_sum: Config      # sum of displacements
    outer_sum: np.ndarray  # sum of displacement outer products

def principal_axis(samples: np.ndarray, origin: Config) -> PrincipalAxis:
    """Leading direction of the displacement second moments about the origin.

    The sign points toward the mean displacement; when the mean is
    orthogonal to the axis, its first nonzero component is positive.
    """
    origin = as_config(origin)
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.size == 0:
        raise DegenerateAxisError("no samples")
    disp = samples - origin
    outer_sum = disp.T @ disp
    if not outer_sum.any():
        raise DegenerateAxisError("all samples coincide with the origin")
    disp_sum = disp.sum(axis=0)
    vec = np.linalg.eigh(outer_sum)[1][:, -1]
    d = float(vec @ disp_sum)
    if d < 0 or (d == 0 and vec[np.flatnonzero(vec)[0]] < 0):
        vec = -vec
    return PrincipalAxis(axis=vec, origin=origin, count=len(disp), disp_sum=disp_sum, outer_sum=outer_sum)


def recalibrate_axis(prev: PrincipalAxis, new_sample: Config) -> PrincipalAxis:
    """Fold one displacement into the running moments S and take one power
    step from the previous axis: a <- S·a / |S·a|, or a kept when S·a = 0.

    S is positive semidefinite, so a·(S·a) >= 0: the axis never turns
    against its predecessor, and there is no sign to fix.
    """
    d = as_config(new_sample) - prev.origin
    # np.outer(d, d) is this same broadcast multiply, bit for bit.
    outer_sum = prev.outer_sum + d[:, None] * d
    sa = outer_sum.dot(prev.axis).tolist()
    norm = math.hypot(*sa)
    axis = prev.axis if norm == 0.0 else np.array([x / norm for x in sa])
    return PrincipalAxis(axis=axis, origin=prev.origin, count=prev.count + 1,
                         disp_sum=prev.disp_sum + d, outer_sum=outer_sum)


def orthonormal_basis(a: Config) -> np.ndarray:
    """N x (N-1) matrix whose columns are orthonormal and orthogonal to a:
    columns 2..N of the Householder reflection H = I - 2vv^T/v^Tv with
    v = q + sign(q0)·e1, q = a/|a|, which maps q to -sign(q0)·e1."""
    v = np.array(a, dtype=float)
    norm = math.sqrt(v.dot(v))
    if norm == 0.0:
        raise DegenerateAxisError("cannot build a basis orthogonal to the zero vector")
    v /= norm
    v[0] += math.copysign(1.0, v[0])
    return np.eye(len(v))[:, 1:] - (2.0 / v.dot(v)) * np.outer(v, v[1:])


def _reflect(a: list[float], b: list[float]) -> list[float]:
    """H·[0, b] in O(N) floats for orthonormal_basis's H of a unit vector a:
    [0, b] - c·v with c = 2 v·[0, b] / v^Tv, where v = a + sign(a0)·e1
    shares a's components from the second on. For a unit vector,
    v^Tv = 2 (1 + |a0|), so c = v·[0, b] / (1 + |a0|). It equals
    orthonormal_basis(a) @ b."""
    a0, *rest = a
    c = sum(map(mul, rest, b)) / (1.0 + abs(a0))
    return [-c * (a0 + math.copysign(1.0, a0)), *[y - c * x for x, y in zip(rest, b)]]


@dataclass(frozen=True)
class CylinderSpec:
    """Checked arguments of sample_cylinder_with_height."""
    axis: PrincipalAxis
    direction: int        # +1 along the axis, -1 against it
    h_min: float
    h_max: float
    radius: float

    def __post_init__(self):
        if self.direction not in (+1, -1):
            raise ValueError("direction must be +1 or -1")
        if not (0.0 <= self.h_min <= self.h_max < math.inf):
            raise ValueError("require 0 <= h_min <= h_max < inf")
        if self.radius < 0:
            raise ValueError("radius must be non-negative")

    def sample(self, rng: RngStream) -> tuple[Config, float]:
        return sample_cylinder_with_height(self.axis, self.direction, self.h_min, self.h_max, self.radius, rng)


def sample_cylinder_with_height(axis: PrincipalAxis, direction: int, h_min: float, h_max: float,
                                radius: float, rng: RngStream) -> tuple[Config, float]:
    """Uniform sample in the cylinder of the given radius around the signed
    axis, at heights h_min to h_max from its origin; also returns the drawn
    height. The arguments are those of CylinderSpec, unchecked."""
    a = axis.axis.tolist()
    gen = rng.gen
    # Two uniform doubles, as Generator.uniform draws them, without its checks.
    f, u = gen.random(2).tolist()
    h = h_min + (h_max - h_min) * f
    # Uniform draw b in the (N-1)-ball: radius corrected for volume density.
    t = gen.standard_normal(len(a) - 1).tolist()
    tn = math.sqrt(sum(map(mul, t, t)))
    if tn == 0.0:
        t, tn = [1.0] + [0.0] * (len(t) - 1), 1.0
    p = radius * u ** (1.0 / len(t)) / tn
    # The frame is the unsigned axis's, for both directions. Negating h is
    # exact, so s·a_i is direction·h·a_i, ±0.0 included.
    offset = _reflect(a, [p * x for x in t])
    s = h if direction > 0 else -h
    return np.array([o + s * x + y for o, x, y in zip(axis.origin.tolist(), a, offset)]), h


def sample_cylinder(spec: CylinderSpec, rng: RngStream) -> Config:
    return spec.sample(rng)[0]
