"""Configuration space: scenes of axis-aligned boxes and their exact validity checks.

A configuration is a 1-D float array or a tuple of Python floats: the
planners carry tuples from draw to tree, and every check below takes either.
Scenes are immutable after construction and safe to share across concurrent
planner runs; all validity checks are pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

Config = np.ndarray

# Computed slab ends closer than this are decided again on exact rationals.
SLAB_TIE = 1e-14


class SceneError(ValueError):
    """Base class for scene document problems."""


class SceneParseError(SceneError):
    """Document is malformed or violates the schema."""


class SceneSemanticError(SceneError):
    """Document parses but describes an inconsistent scene."""


def as_config(x) -> Config:
    q = np.asarray(x, dtype=float)
    if q.ndim != 1:
        raise ValueError(f"configuration must be 1-D, got shape {q.shape}")
    # tolist() gives Python floats, so math.isfinite is exact here and far
    # cheaper than np.isfinite(q).all() on the short vectors planners pass.
    if not all(map(math.isfinite, q.tolist())):
        raise ValueError("configuration entries must be finite")
    return q


def as_point(q) -> tuple:
    """q as a tuple of Python floats: a tuple that starts with one is taken
    as it is, anything else goes through numpy once and must be 1-D."""
    if type(q) is tuple and q and type(q[0]) is float:
        return q
    q = np.asarray(q, dtype=float)
    if q.ndim != 1:
        raise ValueError(f"configuration must be 1-D, got shape {q.shape}")
    return tuple(q.tolist())


@dataclass(frozen=True)
class Bounds:
    lo: Config
    hi: Config
    span: Config = field(init=False, repr=False, compare=False)  # hi - lo
    diagonal: float = field(init=False, repr=False, compare=False)  # |hi - lo|

    def __post_init__(self):
        object.__setattr__(self, "lo", as_config(self.lo))
        object.__setattr__(self, "hi", as_config(self.hi))
        if self.lo.shape != self.hi.shape:
            raise ValueError("bounds lo/hi dimension mismatch")
        if not np.all(self.lo < self.hi):
            raise ValueError("bounds require lo < hi componentwise")
        with np.errstate(over="ignore"):
            object.__setattr__(self, "span", self.hi - self.lo)
        if not np.isfinite(self.span).all():
            raise ValueError("bounds span hi - lo must be finite")
        object.__setattr__(self, "diagonal", float(np.linalg.norm(self.span)))

    @property
    def dimension(self) -> int:
        return self.lo.shape[0]

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.all((pts >= self.lo) & (pts <= self.hi), axis=1)


@dataclass(frozen=True)
class Box:
    lo: Config
    hi: Config

    def __post_init__(self):
        object.__setattr__(self, "lo", as_config(self.lo))
        object.__setattr__(self, "hi", as_config(self.hi))
        if self.lo.shape != self.hi.shape:
            raise ValueError("box lo/hi dimension mismatch")
        if not np.all(self.lo < self.hi):
            raise ValueError("box requires lo < hi componentwise")

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.all((pts >= self.lo) & (pts <= self.hi), axis=1)


@dataclass(frozen=True)
class GoalSpec:
    kind: str  # "ball" | "escape"
    center: Config | None = None
    tolerance: float | None = None
    threshold: float | None = None

    def __post_init__(self):
        if self.kind == "ball":
            if self.center is None or self.tolerance is None or self.tolerance <= 0:
                raise ValueError("ball goal requires center and tolerance > 0")
            object.__setattr__(self, "center", as_config(self.center))
        elif self.kind == "escape":
            if self.threshold is None or self.threshold <= 0:
                raise ValueError("escape goal requires threshold > 0")
        else:
            raise ValueError(f"unknown goal kind {self.kind!r}")


@dataclass(frozen=True)
class Scene:
    name: str
    bounds: Bounds
    start: Config
    goal: GoalSpec
    obstacles: tuple[Box, ...] = ()
    # Read by perfbench/pathcheck.py, which reports a scene with a grid as unchecked.
    grid: ClassVar[None] = None
    # Derived at construction: as Python floats, the point goal_satisfied
    # measures from, the bounds (row 0) and every Box (rows 1..K); the box
    # faces for motions_valid_fan.
    _goal_from: tuple = field(init=False, repr=False, compare=False)
    _rows_lo: list = field(init=False, repr=False, compare=False)
    _rows_hi: list = field(init=False, repr=False, compare=False)
    _slab_faces: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "start", as_config(self.start))
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        n = self.bounds.dimension
        if self.start.shape[0] != n:
            raise SceneSemanticError("start dimension does not match bounds")
        if self.goal.kind == "ball" and self.goal.center.shape[0] != n:
            raise SceneSemanticError("goal center dimension does not match bounds")
        if any(box.lo.shape[0] != n for box in self.obstacles):
            raise SceneSemanticError("box dimension does not match bounds")
        object.__setattr__(self, "_goal_from", as_point(self.goal.center if self.goal.kind == "ball" else self.start))
        object.__setattr__(self, "_rows_lo", [self.bounds.lo.tolist()] + [b.lo.tolist() for b in self.obstacles])
        object.__setattr__(self, "_rows_hi", [self.bounds.hi.tolist()] + [b.hi.tolist() for b in self.obstacles])
        # (N, 2K, 1): per coordinate, every box's lo faces and then its hi faces.
        faces = np.array(self._rows_lo[1:] + self._rows_hi[1:]).reshape(-1, n)
        object.__setattr__(self, "_slab_faces", faces.T[:, :, None])
        if not is_state_valid(self, self.start):
            raise SceneSemanticError("start configuration is not collision-free")

    @property
    def dimension(self) -> int:
        return self.bounds.dimension


def states_valid(scene: Scene, pts) -> np.ndarray:
    """Validity of each row of a (M, N) block of configurations. One
    configuration (an (N,) array or a tuple) gives a length-1 result."""
    p = _one_point(scene, pts)
    if p is not None:
        return np.array([_box_clear(p, scene._rows_lo, scene._rows_hi)])
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if pts.shape[1] != scene.dimension:
        raise ValueError(f"dimension mismatch: scene is {scene.dimension}-D, points are {pts.shape[1]}-D")
    rows = scene._rows_lo, scene._rows_hi
    return np.array([_box_clear(q, *rows) for q in pts.tolist()], dtype=bool)


def _one_point(scene: Scene, q):
    """as_point(q) if q is one configuration of the scene's dimension, else None."""
    try:
        q = as_point(q)
    except ValueError:  # not 1-D: a block of configurations, or not numbers
        return None
    return q if len(q) == scene.dimension else None


def is_state_valid(scene: Scene, q) -> bool:
    """bool(states_valid(scene, q)[0]); one configuration of the scene's
    dimension goes straight to the one-point test, without the length-1 array."""
    p = _one_point(scene, q)
    return _box_clear(p, scene._rows_lo, scene._rows_hi) if p is not None else bool(states_valid(scene, q)[0])


def distance(a, b) -> float:
    a, b = as_point(a), as_point(b)
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    return math.dist(a, b)


def _box_clear(p, rows_lo: list, rows_hi: list) -> bool:
    """True iff the point p (N Python floats) lies in the closed row 0 and in
    no other closed row: inside the bounds and outside every Box, closed as in
    Bounds.contains and Box.contains.

    The scan leaves each row at the first coordinate outside it. A NaN
    coordinate fails every comparison and an infinite one lies outside the
    finite bounds, so either fails row 0.
    """
    rows = zip(rows_lo, rows_hi)
    for x, l, h in zip(p, *next(rows)):
        if not l <= x <= h:
            return False
    for lo, hi in rows:
        for x, l, h in zip(p, lo, hi):
            if not l <= x <= h:
                break  # outside this row along this coordinate
        else:
            return False
    return True


def _segment_clear(a: list, b: list, rows_lo: list, rows_hi: list) -> bool:
    """True iff the closed segment a-b (lists of N finite floats) lies inside
    row 0 and meets no other row, in real arithmetic, so symmetric in a and b.

    Row 0, the bounds, is convex: it holds the segment iff it holds both ends.
    Other rows go to _slab unless both ends lie beyond one face. Its quotients
    are within 4 * 2**-53 (relative) of their real values, so where [t_enter,
    t_exit] decides, inside [0, 1], the computed ends are within 1e-15 of the
    real ones: beyond SLAB_TIE floats decide, inside it exact rationals.
    """
    rows = zip(rows_lo, rows_hi)
    for x, y, l, h in zip(a, b, *next(rows)):
        if not (l <= x <= h and l <= y <= h):
            return False
    for lo, hi in rows:
        for x, y, l, h in zip(a, b, lo, hi):
            if (x < l and y < l) or (x > h and y > h):
                break  # separated along this coordinate
        else:
            t0, t1 = _slab(a, b, lo, hi)
            if t0 - t1 > SLAB_TIE:
                continue
            if t1 - t0 <= SLAB_TIE:
                from fractions import Fraction  # imported on the first near-tie only: it costs about 2 ms

                t0, t1 = _slab(*([Fraction(v) for v in w] for w in (a, b, lo, hi)))
                if t0 > t1:
                    continue
            return False
    return True


def _slab(a, b, lo, hi):
    """(t_enter, t_exit) of the segment a + t (b - a), t in [0, 1], in the
    closed box [lo, hi], with no coordinate's ends both beyond one face: the
    slab test (Kay & Kajiya 1986; Williams et al., JGT 2005) in the arguments'
    arithmetic, floats or Fractions. They meet iff t_enter <= t_exit."""
    t0, t1 = 0, 1
    for x, y, l, h in zip(a, b, lo, hi):
        if not (l <= x <= h and l <= y <= h):  # a slab holding both ends admits every t; here y != x
            u, v = (l - x) / (y - x), (h - x) / (y - x)
            t0, t1 = max(t0, min(u, v)), min(t1, max(u, v))
    return t0, t1


def check_motion(scene: Scene, a, b) -> bool:
    """True iff the straight segment a-b lies inside the bounds and meets no
    Box, exactly."""
    a, b = as_point(a), as_point(b)
    if not all(map(math.isfinite, a + b)):
        raise ValueError("configuration entries must be finite")
    if not states_valid(scene, b)[0]:  # the cheapest reject: most invalid steps end in a wall
        return False
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    return _segment_clear(a, b, scene._rows_lo, scene._rows_hi)


def motions_valid_fan(scene: Scene, q0: Config, targets: np.ndarray) -> np.ndarray:
    """check_motion from q0 to each target row: _segment_clear for every
    (box, target) pair at once, on the same float quotients.

    No motion leaves an invalid q0, and the bounds are convex, so they hold
    a segment iff they hold both its ends. Against a box, a coordinate whose
    ends both lie inside its slab gives quotients at most 0 and at least 1
    (or -inf and inf when the ends coincide), so it cannot move [t_enter,
    t_exit] off [0, 1], and one whose ends lie beyond one face gives t_enter
    >= t_exit: neither needs _segment_clear's own branch. A target whose
    slab ends come within SLAB_TIE of each other on some box, or are NaN
    (0/0: the ends coincide on a face), is decided by _segment_clear itself.
    """
    q0 = as_config(q0)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if targets.shape[1:] != q0.shape or q0.shape[0] != scene.dimension:
        raise ValueError("dimension mismatch")
    cols = targets.T
    ok = np.logical_and.reduce((cols >= scene.bounds.lo[:, None]) & (cols <= scene.bounds.hi[:, None]), axis=0)
    k = len(scene._rows_lo) - 1
    if not states_valid(scene, q0)[0]:
        ok[:] = False
    elif k:
        with np.errstate(all="ignore"):  # inf and NaN quotients are the same in Python floats
            t = (scene._slab_faces - q0[:, None, None]) / np.subtract(cols, q0[:, None], order="C")[:, None]
        lo, hi = t[:, :k], t[:, k:]  # (N, K, M) each: every reduction below runs over the N coordinates
        gap = (np.maximum.reduce(np.minimum(lo, hi), axis=0, initial=0.0)
               - np.minimum.reduce(np.maximum(lo, hi), axis=0, initial=1.0))
        gap = np.minimum.reduce(gap, axis=0)  # per target, over the boxes; NaN if any box's is
        ok &= ~(gap < -SLAB_TIE)
        redo = np.nonzero(ok & ~(gap > SLAB_TIE))[0]
        if len(redo):
            a, rows = q0.tolist(), (scene._rows_lo, scene._rows_hi)
            ok[redo] = [_segment_clear(a, b, *rows) for b in targets[redo].tolist()]
    return ok


def goal_satisfied(scene: Scene, q) -> bool:
    g = scene.goal
    d = distance(q, scene._goal_from)
    return d <= g.tolerance if g.kind == "ball" else d >= g.threshold


def _parse_obstacle(entry: dict) -> Box:
    kind = entry.get("kind")
    try:
        if kind == "box":
            return Box(entry["lo"], entry["hi"])
    except KeyError as exc:
        raise SceneParseError(f"obstacle of kind {kind!r} missing field {exc}") from exc
    except ValueError as exc:
        raise SceneSemanticError(str(exc)) from exc
    raise SceneSemanticError(f"unknown obstacle kind {kind!r}")


def _parse_goal(entry: dict) -> GoalSpec:
    kind = entry.get("kind")
    try:
        if kind == "ball":
            return GoalSpec("ball", center=entry["center"], tolerance=entry["tolerance"])
        if kind == "escape":
            return GoalSpec("escape", threshold=entry["threshold"])
    except KeyError as exc:
        raise SceneParseError(f"goal of kind {kind!r} missing field {exc}") from exc
    except ValueError as exc:
        raise SceneSemanticError(str(exc)) from exc
    raise SceneSemanticError(f"unknown goal kind {kind!r}")


def load_scene(text: str) -> Scene:
    """Parse and validate a scene document (JSON)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise SceneParseError("scene document must be an object")
    if "grid" in doc:
        raise SceneParseError("unsupported grid: obstacles must be listed as boxes")
    for key in ("name", "dimension", "bounds", "start", "goal", "obstacles"):
        if key not in doc:
            raise SceneParseError(f"scene document missing {key!r}")
    try:
        bounds = Bounds(doc["bounds"]["lo"], doc["bounds"]["hi"])
    except KeyError as exc:
        raise SceneParseError(f"bounds missing field {exc}") from exc
    except ValueError as exc:
        raise SceneSemanticError(str(exc)) from exc
    if bounds.dimension != doc["dimension"]:
        raise SceneSemanticError("declared dimension does not match bounds")
    return Scene(
        name=str(doc["name"]),
        bounds=bounds,
        start=doc["start"],
        goal=_parse_goal(doc["goal"]),
        obstacles=tuple(_parse_obstacle(o) for o in doc["obstacles"]),
    )


def load_scene_file(path) -> Scene:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scene(fh.read())


def scene_to_document(scene: Scene) -> dict:
    """Inverse of load_scene, for generated scenes."""
    doc: dict = {
        "name": scene.name,
        "dimension": scene.dimension,
        "bounds": {"lo": scene.bounds.lo.tolist(), "hi": scene.bounds.hi.tolist()},
        "start": scene.start.tolist(),
        "obstacles": [{"kind": "box", "lo": o.lo.tolist(), "hi": o.hi.tolist()} for o in scene.obstacles],
    }
    if scene.goal.kind == "ball":
        doc["goal"] = {"kind": "ball", "center": scene.goal.center.tolist(), "tolerance": scene.goal.tolerance}
    else:
        doc["goal"] = {"kind": "escape", "threshold": scene.goal.threshold}
    return doc
