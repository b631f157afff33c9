"""Built-in benchmark scenes."""

from __future__ import annotations

from .cspace import Bounds, Box, GoalSpec, Scene

WALL_THICKNESS = 5.0


def generate_tunnel_scene(gap: float, length: float = 30.0, bounds_half_extent: float = 50.0) -> Scene:
    """2-D tunnel: a horizontal corridor of width `gap` walled above and below,
    capped at its inner (left) end, opening into free space at x = 0.

    The start sits near the capped end; the goal is a ball just outside the
    mouth, so escape runs along +x.
    """
    if gap <= 0 or gap >= 2 * bounds_half_extent:
        raise ValueError("gap must be positive and fit inside the bounds")
    if length <= 0:
        raise ValueError("length must be positive")
    if length + WALL_THICKNESS >= bounds_half_extent:
        raise ValueError("corridor does not fit inside the bounds")
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


def open_scene(half_extent: float = 20.0, goal_offset: float = 10.0) -> Scene:
    """Obstacle-free 2-D scene with a ball goal; trivial connectivity."""
    return Scene(
        name="open",
        bounds=Bounds([-half_extent, -half_extent], [half_extent, half_extent]),
        start=(0.0, 0.0),
        goal=GoalSpec("ball", center=(goal_offset, 0.0), tolerance=1.0),
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
            kwargs[key] = float(value)
        if "gap" not in kwargs:
            raise ValueError("tunnel spec requires gap=<units>")
        return generate_tunnel_scene(**kwargs)
    return load_scene_file(spec)
