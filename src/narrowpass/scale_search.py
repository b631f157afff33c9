"""Grow-shrink search for a sampling radius with an informative validity rate.

At a useful scale roughly half the batch of sphere samples admits a valid
straight motion from the start; radii where almost all or almost none do are
uninformative. The search shrinks when too few samples are valid and grows
when too many are, stopping once the measured rate lands in the target
interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .cspace import Scene, as_point, is_state_valid, motions_valid_fan
from .samplers import sample_sphere_batch


# The bounds diagonal of the built-in tunnels, sqrt(2)·100: the defaults
# below resolve on them to exactly 1.0, 1e-6 and 25.0.
_TUNNEL_DIAGONAL = math.sqrt(2.0) * 100.0


@dataclass(frozen=True)
class ScaleParams:
    """Search parameters; r0, r_min and r_max are fractions of the bounds
    diagonal, and `resolve` turns them into lengths for find_entropy_scale."""
    r0: float = 1.0 / _TUNNEL_DIAGONAL
    alpha_min: float = 0.1
    alpha_max: float = 0.5
    # Step magnitudes in log space: effective shrink divisor exp(shrink_log),
    # effective grow multiplier exp(grow_log). Both must be positive so that
    # "grow" grows and "shrink" shrinks.
    shrink_log: float = 0.9
    grow_log: float = 0.7
    r_min: float = 1e-6 / _TUNNEL_DIAGONAL
    r_max: float = 25.0 / _TUNNEL_DIAGONAL
    batch_size: int = 64
    max_steps: int = 50

    def __post_init__(self):
        # Every check is written so that NaN fails it; type(True) is bool, so bools fail the int checks.
        if not 0.0 < self.r0 < math.inf:
            raise ValueError("require 0 < r0 < inf")
        if not (0.0 < self.alpha_min < self.alpha_max <= 1.0):
            raise ValueError("require 0 < alpha_min < alpha_max <= 1")
        if not (self.shrink_log > 0 and self.grow_log > 0):
            raise ValueError("step magnitudes must be positive")
        if not (0.0 < self.r_min <= self.r_max):
            raise ValueError("require 0 < r_min <= r_max")
        if not (type(self.batch_size) is type(self.max_steps) is int) or self.batch_size < 2 or self.max_steps < 1:
            raise ValueError("batch_size >= 2 and max_steps >= 1 required, as ints")

    def resolve(self, diagonal: float) -> "ScaleParams":
        """These parameters with r0, r_min and r_max multiplied by `diagonal`."""
        return replace(self, r0=self.r0 * diagonal, r_min=self.r_min * diagonal, r_max=self.r_max * diagonal)

    @property
    def shrink_factor(self) -> float:
        return math.exp(self.shrink_log)

    @property
    def grow_factor(self) -> float:
        return math.exp(self.grow_log)


@dataclass
class ScaleSearchResult:
    r_star: float
    valid_samples: tuple  # k points as tuples of Python floats, motions from the start all valid
    converged: bool
    history: list[tuple[float, float]] = field(default_factory=list)  # (radius, alpha)

    def history_csv(self) -> str:
        lines = ["step,radius,alpha"]
        for i, (r, a) in enumerate(self.history):
            lines.append(f"{i},{r!r},{a!r}")
        return "\n".join(lines) + "\n"


def find_entropy_scale(scene: Scene, q0, params: ScaleParams, rng: np.random.Generator) -> ScaleSearchResult:
    """Search radii by grow/shrink factors until the batch validity rate falls
    inside [alpha_min, alpha_max], or until the radius sits at the clamp the
    next step would push against; returns the radius and the valid samples
    accumulated along the way. The radii in `params` are lengths: pass
    `ScaleParams(...).resolve(scene.bounds.diagonal)`."""
    q0 = as_point(q0)
    if not is_state_valid(scene, q0):
        raise ValueError("scale search requires a valid start configuration")

    r = min(max(params.r0, params.r_min), params.r_max)
    collected: list[tuple] = []
    history: list[tuple[float, float]] = []
    converged = False

    for _ in range(params.max_steps):
        batch = sample_sphere_batch(q0, r, params.batch_size, rng)
        valid = motions_valid_fan(scene, q0, batch)
        # valid.mean() sums the bools as float64, exactly, and divides by the
        # length: the same correctly rounded division of the same two integers.
        alpha = int(np.count_nonzero(valid)) / len(valid)
        history.append((r, alpha))

        if params.alpha_min <= alpha <= params.alpha_max:
            collected.extend(map(tuple, batch[valid].tolist()))
            converged = True
            break
        if alpha < params.alpha_min:
            collected.extend(map(tuple, batch[valid].tolist()))
            if r <= params.r_min:
                break  # shrinking again is a no-op under the clamp
            r = max(r / params.shrink_factor, params.r_min)
        else:
            if r >= params.r_max:
                collected.extend(map(tuple, batch[valid].tolist()))
                break  # growing again is a no-op under the clamp
            r = min(r * params.grow_factor, params.r_max)

    r_star = history[-1][0]  # the last radius measured, also when max_steps ends the search
    return ScaleSearchResult(r_star=r_star, valid_samples=tuple(collected), converged=converged, history=history)
