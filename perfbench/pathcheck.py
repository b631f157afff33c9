"""Exact collision check of returned paths, independent of the planner's own.

The planner validates motions by sampling points along each segment, so a
segment can clip a wall corner between two samples. Here every edge is
tested against every box as a continuous segment with the slab method
(Kay & Kajiya 1986; Williams et al., JGT 2005), with closed boxes, as
`Box.contains` treats them.
"""

from __future__ import annotations

import math

from narrowpass.cspace import Box, Scene


def segment_hits_box(a, b, lo, hi) -> bool:
    """True iff some point of the closed segment a-b lies in the closed box [lo, hi]."""
    t_enter, t_exit = 0.0, 1.0
    for ak, bk, lk, hk in zip(a, b, lo, hi):
        ak, dk = float(ak), float(bk) - float(ak)
        if dk == 0.0:
            if ak < lk or ak > hk:
                return False
            continue
        t0, t1 = (lk - ak) / dk, (hk - ak) / dk
        if t0 > t1:
            t0, t1 = t1, t0
        t_enter, t_exit = max(t_enter, t0), min(t_exit, t1)
        if t_enter > t_exit:
            return False
    return True


def path_problem(scene: Scene, path) -> str | None:
    """Why `path` is not a collision-free start-to-goal path in `scene`, or None if it is.

    Only box obstacles and ball goals occur in the tunnel scenes; anything
    else is reported as unchecked rather than passed.
    """
    if not path:
        return "empty path"
    if any(len(q) != scene.dimension for q in path):
        return "vertex of the wrong dimension"
    if [float(x) for x in path[0]] != [float(x) for x in scene.start]:
        return "path does not begin at the start"
    goal = scene.goal
    if goal.kind != "ball":
        return f"unchecked goal kind {goal.kind!r}"
    if math.dist(path[-1], goal.center) > goal.tolerance:
        return "path does not end in the goal ball"
    lo, hi = scene.bounds.lo, scene.bounds.hi
    for q in path:
        if any(x < l or x > h for x, l, h in zip(q, lo, hi)):
            return f"vertex {_fmt(q)} lies outside the bounds"
    if scene.grid is not None:
        return "unchecked occupancy grid"
    for obs in scene.obstacles:
        if not isinstance(obs, Box):
            return f"unchecked obstacle type {type(obs).__name__}"
    for a, b in zip(path[:-1], path[1:]):
        for obs in scene.obstacles:
            if segment_hits_box(a, b, obs.lo, obs.hi):
                return f"edge {_fmt(a)}->{_fmt(b)} crosses box {_fmt(obs.lo)}-{_fmt(obs.hi)}"
    return None


def _fmt(q) -> str:
    return "(" + ", ".join(f"{float(x):.3f}" for x in q) + ")"
