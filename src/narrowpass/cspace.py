"""Configuration space: scenes of axis-aligned boxes and their exact validity checks.

A configuration is a tuple of Python floats; `as_point` turns anything else
(a 1-D array or list) into one, and every check below takes either. Scenes
hold tuples too, checked finite once when they are built. They are
immutable, compare and hash by value, and are safe to share across
concurrent planner runs; all validity checks are pure.

A scene also carries its point and segment checks compiled from its rows
(`_compile_checks`): straight-line functions that decide exactly what the
row scans `_box_clear` and `_segment_clear` decide, with each face written
as a float literal. They read nothing but their arguments, so they are
pure too, and a scene pickles by rebuilding them from its fields.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar

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
    # bounds (row 0) and every Box (rows 1..K); _box_clear and _segment_clear
    # compiled for those rows.
    _goal_from: tuple = field(init=False, repr=False, compare=False)
    _rows_lo: tuple = field(init=False, repr=False, compare=False)
    _rows_hi: tuple = field(init=False, repr=False, compare=False)
    _clear_point: Callable = field(init=False, repr=False, compare=False)
    _clear_segment: Callable = field(init=False, repr=False, compare=False)

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
        clear_point, clear_segment = _compile_checks(self._rows_lo, self._rows_hi)
        object.__setattr__(self, "_clear_point", clear_point)
        object.__setattr__(self, "_clear_segment", clear_segment)
        if not is_state_valid(self, self.start):
            raise SceneSemanticError("start configuration is not collision-free")

    def __reduce__(self):
        # The compiled checks do not pickle; __post_init__ builds them again.
        return type(self), (self.name, self.bounds, self.start, self.goal, self.obstacles)

    @property
    def dimension(self) -> int:
        return self.bounds.dimension


def states_valid(scene: Scene, pts) -> list[bool]:
    """is_state_valid of each of a sequence of configurations, as a list of bools."""
    return [is_state_valid(scene, q) for q in pts]


def is_state_valid(scene: Scene, q) -> bool:
    """True iff the configuration q lies inside the bounds and in no Box."""
    p = as_point(q)
    if len(p) != scene.dimension:
        raise ValueError(f"dimension mismatch: scene is {scene.dimension}-D, the point is {len(p)}-D")
    return scene._clear_point(p)


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
    Other rows go to _slab_meets unless both ends lie beyond one face.
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
            if _slab_meets(a, b, lo, hi):
                return False
    return True


def _slab_meets(a, b, lo, hi) -> bool:
    """True iff the closed segment a-b meets the closed box [lo, hi], given
    that no coordinate has both ends beyond one face.

    _slab's quotients are within 4 * 2**-53 (relative) of their real values,
    so where [t_enter, t_exit] decides, inside [0, 1], the computed ends are
    within 1e-15 of the real ones: beyond SLAB_TIE floats decide, inside it
    exact rationals.
    """
    t0, t1 = _slab(a, b, lo, hi)
    if t0 - t1 > SLAB_TIE:
        return False
    if t1 - t0 <= SLAB_TIE:
        from fractions import Fraction  # imported on the first near-tie only: it costs about 2 ms

        t0, t1 = _slab(*([Fraction(v) for v in w] for w in (a, b, lo, hi)))
        return t0 <= t1
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


def _compile_checks(rows_lo: tuple, rows_hi: tuple) -> tuple:
    """(clear_point, clear_segment) for these rows: _box_clear(p, rows_lo,
    rows_hi) and _segment_clear(a, b, rows_lo, rows_hi) as straight-line
    Python, the way dataclasses and namedtuple build their methods.

    Each function unpacks its arguments into locals once and tests each row
    in one `if`, with every face written as the repr of a finite float,
    which reads back as the same float, -0.0 included. So each comparison is
    the row scan's own, in the same short-circuit order, and a box that no
    coordinate separates from a segment goes to _slab_meets as it does there.
    The source holds only those literals and fixed names; the arguments are
    unchecked, as the row scans' are.
    """
    n = len(rows_lo[0])
    xs, ys = [f"x{j}" for j in range(n)], [f"y{j}" for j in range(n)]
    boxes = list(zip(rows_lo[1:], rows_hi[1:]))

    def inside(v, lo, hi):
        return [f"{l!r} <= {x} <= {h!r}" for x, l, h in zip(v, lo, hi)]

    def all_of(terms):
        return " and ".join(terms) or "True"

    in_bounds = inside(xs, rows_lo[0], rows_hi[0])
    point = ["def clear_point(p):", f"    [{', '.join(xs)}] = p",
             f"    if not ({all_of(in_bounds)}):", "        return False"]
    for lo, hi in boxes:
        point += [f"    if {all_of(inside(xs, lo, hi))}:", "        return False"]
    # Both ends per coordinate, in _segment_clear's order.
    in_bounds = [t for pair in zip(in_bounds, inside(ys, rows_lo[0], rows_hi[0])) for t in pair]
    segment = ["def clear_segment(a, b):", f"    [{', '.join(xs)}] = a", f"    [{', '.join(ys)}] = b",
               f"    if not ({all_of(in_bounds)}):", "        return False"]
    for lo, hi in boxes:
        apart = " or ".join(f"{x} < {l!r} and {y} < {l!r} or {x} > {h!r} and {y} > {h!r}"
                            for x, y, l, h in zip(xs, ys, lo, hi))
        segment += [f"    if not ({apart or 'False'}) and _slab_meets(a, b, {lo!r}, {hi!r}):", "        return False"]
    namespace = {"_slab_meets": _slab_meets}
    exec("\n".join(point + ["    return True"] + segment + ["    return True", ""]), namespace)
    return namespace["clear_point"], namespace["clear_segment"]


def check_motion(scene: Scene, a, b) -> bool:
    """True iff the straight segment a-b lies inside the bounds and meets no
    Box, exactly."""
    a, b = as_point(a), as_point(b)
    if not all(map(math.isfinite, a + b)):
        raise ValueError("configuration entries must be finite")
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    if not states_valid(scene, (b,))[0]:  # the cheapest reject: most invalid steps end in a wall
        return False
    return scene._clear_segment(a, b)


def motions_valid_fan(scene: Scene, q0, targets) -> list[bool]:
    """check_motion from q0 to each of a sequence of target configurations,
    as a list of bools: the scene's compiled checks in check_motion's order,
    the end point and then the segment. No motion leaves an invalid q0;
    testing it through states_valid first keeps one origin point per fan in
    perfbench's counts."""
    a = as_point(q0)
    if not all(map(math.isfinite, a)):
        raise ValueError("configuration entries must be finite")
    targets = list(map(as_point, targets))
    if len(a) != scene.dimension or set(map(len, targets)) - {len(a)}:
        raise ValueError("dimension mismatch")
    if not states_valid(scene, (a,))[0]:
        return [False] * len(targets)
    clear_point, clear_segment = scene._clear_point, scene._clear_segment
    return [clear_point(b) and clear_segment(a, b) for b in targets]


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
