"""Grow-shrink search for a sampling radius with an informative validity rate.

At a useful scale roughly half the batch of sphere samples admits a valid
straight motion from the start; radii where almost all or almost none do are
uninformative. The search shrinks when too few samples are valid and grows
when too many are, stopping once the measured rate lands in the target
interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress

from .cspace import Scene, as_point, is_state_valid, motions_valid_fan
from .samplers import sample_sphere_batch


# The bounds diagonal of the built-in tunnels, sqrt(2)·100: the radii below
# resolve on them to exactly 1.0, 1e-6 and 25.0.
_TUNNEL_DIAGONAL = math.sqrt(2.0) * 100.0

# The starting radius and the clamp, as fractions of the bounds diagonal.
R0 = 1.0 / _TUNNEL_DIAGONAL
R_MIN = 1e-6 / _TUNNEL_DIAGONAL
R_MAX = 25.0 / _TUNNEL_DIAGONAL
# The band of batch validity rates the search stops in.
ALPHA_MIN, ALPHA_MAX = 0.1, 0.5
# The divisor of a shrink step and the multiplier of a grow step.
SHRINK = math.exp(0.9)
GROW = math.exp(0.7)
BATCH_SIZE = 64
MAX_STEPS = 50


@dataclass
class ScaleSearchResult:
    r_star: float
    valid_samples: tuple  # k points as tuples of Python floats, motions from the start all valid
    converged: bool
    history: list[tuple[float, float]] = field(default_factory=list)  # (radius, alpha)


def find_entropy_scale(scene: Scene, q0, rng, r0: float = R0) -> ScaleSearchResult:
    """Search radii by grow/shrink factors until the batch validity rate falls
    inside [ALPHA_MIN, ALPHA_MAX], or until the radius sits at the clamp the
    next step would push against; returns the radius and the valid samples
    accumulated along the way. `r0`, like the clamp, is a fraction of the
    bounds diagonal, so a scene scaled by a power of two searches the scaled
    radii."""
    if not 0.0 < r0 < math.inf:  # NaN fails too
        raise ValueError("require 0 < r0 < inf")
    q0 = as_point(q0)
    if not is_state_valid(scene, q0):
        raise ValueError("scale search requires a valid start configuration")

    diagonal = scene.bounds.diagonal
    r_min, r_max = R_MIN * diagonal, R_MAX * diagonal
    r = min(max(r0 * diagonal, r_min), r_max)
    collected: list[tuple] = []
    history: list[tuple[float, float]] = []
    converged = False

    for _ in range(MAX_STEPS):
        batch = sample_sphere_batch(q0, r, BATCH_SIZE, rng)
        valid = motions_valid_fan(scene, q0, batch)
        alpha = sum(valid) / len(valid)
        history.append((r, alpha))
        if alpha <= ALPHA_MAX or r >= r_max:
            collected.extend(compress(batch, valid))
        if ALPHA_MIN <= alpha <= ALPHA_MAX:
            converged = True
            break
        if alpha < ALPHA_MIN:
            if r <= r_min:
                break  # shrinking again is a no-op under the clamp
            r = max(r / SHRINK, r_min)
        else:
            if r >= r_max:
                break  # growing again is a no-op under the clamp
            r = min(r * GROW, r_max)

    r_star = history[-1][0]  # the last radius measured, also when MAX_STEPS ends the search
    return ScaleSearchResult(r_star=r_star, valid_samples=tuple(collected), converged=converged, history=history)
