"""Configuration space: scenes of axis-aligned boxes and their exact validity checks.

A configuration is a tuple of Python floats; `as_point` turns anything else
(a 1-D array or list) into one, and every check below takes either. Scenes
hold tuples too, checked finite once when they are built. They are
immutable, compare and hash by value, and are safe to share across
concurrent planner runs; all validity checks are pure.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

# Computed slab ends closer than this are decided again on exact rationals.
SLAB_TIE = 1e-14


class SceneError(ValueError):
    """Base class for scene document problems."""


class SceneParseError(SceneError):
    """Document is malformed or violates the schema."""


class SceneSemanticError(SceneError):
    """Document parses but describes an inconsistent scene."""


def as_point(q) -> tuple:
    """q as a tuple of Python floats: a tuple that starts with one is taken
    as it is, anything else goes through numpy once and must be 1-D."""
    if type(q) is tuple and q and type(q[0]) is float:
        return q
    q = np.asarray(q, dtype=float)
    if q.ndim != 1:
        raise ValueError(f"configuration must be 1-D, got shape {q.shape}")
    return tuple(q.tolist())


def _finite_point(q) -> tuple:
    """as_point(q), every entry a finite Python float: the check of scene input."""
    q = tuple(map(float, as_point(q)))
    if not all(map(math.isfinite, q)):
        raise ValueError("configuration entries must be finite")
    return q


@dataclass(frozen=True)
class Bounds:
    lo: tuple
    hi: tuple
    span: tuple = field(init=False, repr=False, compare=False)  # hi - lo
    diagonal: float = field(init=False, repr=False, compare=False)  # |hi - lo|

    def __post_init__(self):
        lo, hi = _finite_point(self.lo), _finite_point(self.hi)
        if len(lo) != len(hi):
            raise ValueError("bounds lo/hi dimension mismatch")
        if not all(l < h for l, h in zip(lo, hi)):
            raise ValueError("bounds require lo < hi componentwise")
        span = tuple([h - l for l, h in zip(lo, hi)])
        if not all(map(math.isfinite, span)):
            raise ValueError("bounds span hi - lo must be finite")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "span", span)
        # One rounding of the exact sum of the rounded squares: no BLAS kernel
        # or summation order enters.
        object.__setattr__(self, "diagonal", math.sqrt(math.fsum(s * s for s in span)))

    @property
    def dimension(self) -> int:
        return len(self.lo)


@dataclass(frozen=True)
class Box:
    lo: tuple
    hi: tuple

    def __post_init__(self):
        object.__setattr__(self, "lo", _finite_point(self.lo))
        object.__setattr__(self, "hi", _finite_point(self.hi))
        if len(self.lo) != len(self.hi):
            raise ValueError("box lo/hi dimension mismatch")
        if not all(l < h for l, h in zip(self.lo, self.hi)):
            raise ValueError("box requires lo < hi componentwise")


@dataclass(frozen=True)
class GoalSpec:
    kind: str  # "ball" | "escape"
    center: tuple | None = None
    tolerance: float | None = None
    threshold: float | None = None

    def __post_init__(self):
        # Written as `not x > 0` so that NaN fails too.
        if self.kind == "ball":
            if self.center is None or self.tolerance is None or not self.tolerance > 0:
                raise ValueError("ball goal requires center and tolerance > 0")
            object.__setattr__(self, "center", _finite_point(self.center))
        elif self.kind == "escape":
            if self.threshold is None or not self.threshold > 0:
                raise ValueError("escape goal requires threshold > 0")
        else:
            raise ValueError(f"unknown goal kind {self.kind!r}")


@dataclass(frozen=True)
class Scene:
    name: str
    bounds: Bounds
    start: tuple
    goal: GoalSpec
    obstacles: tuple[Box, ...] = ()
    # Read by perfbench/pathcheck.py, which reports a scene with a grid as unchecked.
    grid: ClassVar[None] = None
    # Derived at construction: the point goal_satisfied measures from; the
    # bounds (row 0) and every Box (rows 1..K).
    _goal_from: tuple = field(init=False, repr=False, compare=False)
    _rows_lo: tuple = field(init=False, repr=False, compare=False)
    _rows_hi: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "start", _finite_point(self.start))
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        n = self.bounds.dimension
        if len(self.start) != n:
            raise SceneSemanticError("start dimension does not match bounds")
        if self.goal.kind == "ball" and len(self.goal.center) != n:
            raise SceneSemanticError("goal center dimension does not match bounds")
        if any(len(box.lo) != n for box in self.obstacles):
            raise SceneSemanticError("box dimension does not match bounds")
        object.__setattr__(self, "_goal_from", self.goal.center if self.goal.kind == "ball" else self.start)
        object.__setattr__(self, "_rows_lo", (self.bounds.lo, *(b.lo for b in self.obstacles)))
        object.__setattr__(self, "_rows_hi", (self.bounds.hi, *(b.hi for b in self.obstacles)))
        if not is_state_valid(self, self.start):
            raise SceneSemanticError("start configuration is not collision-free")

    @property
    def dimension(self) -> int:
        return self.bounds.dimension


def states_valid(scene: Scene, pts) -> np.ndarray:
    """Validity of each of a sequence of configurations (M tuples, or the
    rows of an (M, N) array), as M bools: is_state_valid's check, inline."""
    if isinstance(pts, np.ndarray):
        if pts.ndim != 2:
            raise ValueError(f"configurations must be an (M, N) array, got shape {pts.shape}")
        pts = map(tuple, pts.tolist())
    rows_lo, rows_hi, out = scene._rows_lo, scene._rows_hi, []
    for q in pts:
        p = as_point(q)
        if len(p) != len(rows_lo[0]):
            raise ValueError(f"dimension mismatch: scene is {scene.dimension}-D, the point is {len(p)}-D")
        out.append(_box_clear(p, rows_lo, rows_hi))
    return np.array(out, dtype=bool)


def is_state_valid(scene: Scene, q) -> bool:
    """True iff the configuration q lies inside the bounds and in no Box."""
    p = as_point(q)
    if len(p) != scene.dimension:
        raise ValueError(f"dimension mismatch: scene is {scene.dimension}-D, the point is {len(p)}-D")
    return _box_clear(p, scene._rows_lo, scene._rows_hi)


def distance(a, b) -> float:
    a, b = as_point(a), as_point(b)
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    return math.dist(a, b)


def _box_clear(p, rows_lo: tuple, rows_hi: tuple) -> bool:
    """True iff the point p (N Python floats) lies in the closed row 0 and in
    no other closed row: inside the closed bounds and outside every closed Box.

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


def _segment_clear(a, b, rows_lo: tuple, rows_hi: tuple) -> bool:
    """True iff the closed segment a-b (sequences of N finite floats) lies inside
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
    if not states_valid(scene, (b,))[0]:  # the cheapest reject: most invalid steps end in a wall
        return False
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    return _segment_clear(a, b, scene._rows_lo, scene._rows_hi)


def motions_valid_fan(scene: Scene, q0, targets: np.ndarray) -> np.ndarray:
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
    a = as_point(q0)
    if not all(map(math.isfinite, a)):
        raise ValueError("configuration entries must be finite")
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if targets.shape[1:] != (len(a),) or len(a) != scene.dimension:
        raise ValueError("dimension mismatch")
    cols, q0 = targets.T, np.array(a)[:, None]
    bounds_lo, bounds_hi, faces = _fan_table(scene._rows_lo, scene._rows_hi)
    ok = np.logical_and.reduce((cols >= bounds_lo) & (cols <= bounds_hi), axis=0)
    k = len(scene._rows_lo) - 1
    if not states_valid(scene, (a,))[0]:
        ok[:] = False
    elif k:
        with np.errstate(all="ignore"):  # inf and NaN quotients are the same in Python floats
            t = (faces - q0[:, None]) / np.subtract(cols, q0, order="C")[:, None]
        lo, hi = t[:, :k], t[:, k:]  # (N, K, M) each: every reduction below runs over the N coordinates
        gap = (np.maximum.reduce(np.minimum(lo, hi), axis=0, initial=0.0)
               - np.minimum.reduce(np.maximum(lo, hi), axis=0, initial=1.0))
        gap = np.minimum.reduce(gap, axis=0)  # per target, over the boxes; NaN if any box's is
        ok &= ~(gap < -SLAB_TIE)
        redo = np.nonzero(ok & ~(gap > SLAB_TIE))[0]
        if len(redo):
            rows = scene._rows_lo, scene._rows_hi
            ok[redo] = [_segment_clear(a, b, *rows) for b in targets[redo].tolist()]
    return ok


@functools.lru_cache(maxsize=64)
def _fan_table(rows_lo: tuple, rows_hi: tuple) -> tuple:
    """motions_valid_fan's read-only arrays for one scene's rows: the bounds' lo and hi
    as (N, 1) columns, and per coordinate every box's lo and then hi faces, (N, 2K, 1)."""
    lo, hi = (np.array(rows).T[:, :, None] for rows in (rows_lo, rows_hi))  # (N, 1 + K, 1)
    table = lo[:, 0], hi[:, 0], np.concatenate((lo[:, 1:], hi[:, 1:]), axis=1)
    for array in table:
        array.flags.writeable = False
    return table


def goal_satisfied(scene: Scene, q) -> bool:
    g = scene.goal
    d = distance(q, scene._goal_from)
    return d <= g.tolerance if g.kind == "ball" else d >= g.threshold


def goal_on_motion(scene: Scene, a, b) -> tuple | None:
    """Where the motion a-b, already checked valid from a tree node a that
    misses the goal, first meets the goal: b if b meets it; for a ball goal
    otherwise the segment's point closest to the centre (Ericson, Real-Time
    Collision Detection, 5.1.2) if goal_satisfied holds there and
    check_motion from a to it passes, which keeps the motion exact when the
    point rounds off the segment; else None.

    An escape goal needs only b: the distance from the start is convex along
    a segment, so a segment that reaches the threshold does so at an end. A
    ball goal skips the segment arithmetic unless |b - c| <= |b - a| +
    tolerance, which every segment that meets the ball satisfies.
    """
    a, b = as_point(a), as_point(b)
    g, c = scene.goal, scene._goal_from
    d = math.dist(b, c)
    if g.kind != "ball":
        return b if d >= g.threshold else None
    if d <= g.tolerance:
        return b
    if d > math.dist(a, b) + g.tolerance:
        return None
    ab = [y - x for x, y in zip(a, b)]
    den = math.fsum([v * v for v in ab])
    if not den > 0.0:
        return None
    t = min(max(math.fsum([(z - x) * v for x, z, v in zip(a, c, ab)]) / den, 0.0), 1.0)
    q = tuple([x + t * v for x, v in zip(a, ab)])
    return q if goal_satisfied(scene, q) and check_motion(scene, a, q) else None


def _json_type(value, kind: type, what: str):
    """value if it is of the JSON type kind (dict or list), else a SceneParseError."""
    if not isinstance(value, kind):
        raise SceneParseError(f"{what} must be a JSON {'object' if kind is dict else 'array'}, "
                              f"got {type(value).__name__}")
    return value


def _parse_obstacle(entry: dict) -> Box:
    kind = _json_type(entry, dict, "obstacle").get("kind")
    try:
        if kind == "box":
            return Box(entry["lo"], entry["hi"])
    except KeyError as exc:
        raise SceneParseError(f"obstacle of kind {kind!r} missing field {exc}") from exc
    except ValueError as exc:
        raise SceneSemanticError(str(exc)) from exc
    raise SceneSemanticError(f"unknown obstacle kind {kind!r}")


def _parse_goal(entry: dict) -> GoalSpec:
    kind = _json_type(entry, dict, "goal").get("kind")
    try:
        if kind == "ball":
            return GoalSpec("ball", center=entry["center"], tolerance=entry["tolerance"])
        if kind == "escape":
            return GoalSpec("escape", threshold=entry["threshold"])
    except KeyError as exc:
        raise SceneParseError(f"goal of kind {kind!r} missing field {exc}") from exc
    except TypeError as exc:  # a tolerance or threshold that is not a number
        raise SceneParseError(f"goal of kind {kind!r}: {exc}") from exc
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
        bounds = Bounds(_json_type(doc["bounds"], dict, "bounds")["lo"], doc["bounds"]["hi"])
    except KeyError as exc:
        raise SceneParseError(f"bounds missing field {exc}") from exc
    except ValueError as exc:
        raise SceneSemanticError(str(exc)) from exc
    if bounds.dimension != doc["dimension"]:
        raise SceneSemanticError("declared dimension does not match bounds")
    goal = _parse_goal(doc["goal"])
    obstacles = tuple(_parse_obstacle(o) for o in _json_type(doc["obstacles"], list, "obstacles"))
    try:
        return Scene(name=str(doc["name"]), bounds=bounds, start=doc["start"], goal=goal, obstacles=obstacles)
    except SceneError:
        raise
    except ValueError as exc:  # a start that is not a list of numbers
        raise SceneSemanticError(f"start: {exc}") from exc


def load_scene_file(path) -> Scene:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:  # a scene that cannot be read is a scene error, like one that cannot be parsed
        raise SceneParseError(str(exc)) from exc
    return load_scene(text)
