"""Built-in benchmark scenes."""

from __future__ import annotations

import math

from .cspace import Bounds, Box, GoalSpec, Scene

WALL_THICKNESS = 5.0


def generate_tunnel_scene(gap: float, length: float = 30.0, bounds_half_extent: float = 50.0) -> Scene:
    """2-D tunnel: a horizontal corridor of width `gap` walled above and below,
    capped at its inner (left) end, opening into free space at x = 0.

    The start sits near the capped end; the goal is a ball just outside the
    mouth, so escape runs along +x.
    """
    # Each check is written so that NaN and ±inf fail it, the bounds first.
    if not 0 < 2 * bounds_half_extent < math.inf:
        raise ValueError(f"tunnel bounds_half_extent must be positive with a finite span, got {bounds_half_extent!r}")
    if not 0 < gap < 2 * bounds_half_extent:
        raise ValueError(f"tunnel gap must be positive and fit inside the bounds, got {gap!r}")
    if not (0 < length and length + WALL_THICKNESS < bounds_half_extent):
        raise ValueError(f"tunnel length must be positive and fit inside the bounds with its end wall, got {length!r}")
    half = gap / 2.0
    x_inner = -length
    walls = (
        Box([x_inner - WALL_THICKNESS, half], [0.0, half + WALL_THICKNESS]),
        Box([x_inner - WALL_THICKNESS, -half - WALL_THICKNESS], [0.0, -half]),
        Box([x_inner - WALL_THICKNESS, -half], [x_inner, half]),  # end cap
    )
    start = (x_inner + 2.0, 0.0)
    goal = GoalSpec("ball", center=(10.0, 0.0), tolerance=2.0)
    return Scene(
        name=f"tunnel-gap{gap:g}",
        bounds=Bounds([-bounds_half_extent, -bounds_half_extent], [bounds_half_extent, bounds_half_extent]),
        start=start,
        goal=goal,
        obstacles=walls,
    )


def open_scene() -> Scene:
    """Obstacle-free 2-D scene, [-20, 20]², with a ball goal at (10, 0); trivial connectivity."""
    return Scene(
        name="open",
        bounds=Bounds([-20.0, -20.0], [20.0, 20.0]),
        start=(0.0, 0.0),
        goal=GoalSpec("ball", center=(10.0, 0.0), tolerance=1.0),
    )


def resolve_scene_spec(spec: str) -> Scene:
    """Resolve a builtin scene spec string like 'tunnel:gap=5' or 'open',
    or fall through to loading a scene file path."""
    from .cspace import load_scene_file

    if spec == "open":
        return open_scene()
    if spec.startswith("tunnel:"):
        kwargs = {}
        for part in spec[len("tunnel:"):].split(","):
            key, _, value = part.partition("=")
            if key not in ("gap", "length", "bounds_half_extent"):
                raise ValueError(f"unknown tunnel parameter {key!r}")
            if key in kwargs:
                raise ValueError(f"tunnel parameter {key!r} given twice")
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise ValueError(f"tunnel {key} must be a number, got {value!r}") from None
        if "gap" not in kwargs:
            raise ValueError("tunnel spec requires gap=<units>")
        return generate_tunnel_scene(**kwargs)
    return load_scene_file(spec)
