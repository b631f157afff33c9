"""Configuration space: scenes, primitive obstacles, occupancy grids, validity checks.

A configuration is a plain 1-D float array. Scenes are immutable after
construction and safe to share across concurrent planner runs; all validity
checks are pure.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

Config = np.ndarray

# Sampled motion-check step (spheres, capsules, grids) per bounds diagonal.
DEFAULT_RESOLUTION_FRACTION = 0.005

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
class Sphere:
    center: Config
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", as_config(self.center))
        if self.radius <= 0:
            raise ValueError("sphere radius must be positive")

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.einsum("ij,ij->i", pts - self.center, pts - self.center) <= self.radius**2


@dataclass(frozen=True)
class Capsule:
    a: Config
    b: Config
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "a", as_config(self.a))
        object.__setattr__(self, "b", as_config(self.b))
        if self.a.shape != self.b.shape:
            raise ValueError("capsule a/b dimension mismatch")
        if self.radius <= 0:
            raise ValueError("capsule radius must be positive")

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        finite = np.isfinite(pts).all(axis=1)
        if not finite.all():  # outside; projecting them could compute inf - inf
            inside = np.zeros(len(pts), dtype=bool)
            inside[finite] = self.contains(pts[finite])
            return inside
        ab = self.b - self.a
        denom = float(ab @ ab)
        if denom == 0.0:
            d2 = np.einsum("ij,ij->i", pts - self.a, pts - self.a)
        else:
            t = np.clip((pts - self.a) @ ab / denom, 0.0, 1.0)
            closest = self.a + t[:, None] * ab
            d2 = np.einsum("ij,ij->i", pts - closest, pts - closest)
        return d2 <= self.radius**2


Obstacle = Box | Sphere | Capsule


@dataclass(frozen=True)
class OccupancyGrid:
    """2-D occupancy map; '#' cells block, '.' cells are free.

    A point is valid iff its containing cell is free (cell membership by
    floor indexing from the origin corner).
    """

    width: int
    height: int
    resolution: float
    origin: Config
    cells: np.ndarray  # (height, width) bool, True = occupied

    def __post_init__(self):
        object.__setattr__(self, "origin", as_config(self.origin))
        object.__setattr__(self, "cells", np.asarray(self.cells, dtype=bool))
        if self.width <= 0 or self.height <= 0:
            raise ValueError("grid dimensions must be positive")
        if self.resolution <= 0:
            raise ValueError("grid resolution must be positive")
        if self.cells.shape != (self.height, self.width):
            raise ValueError("grid cells shape must be (height, width)")

    def occupied(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        # Range-test the floored floats (NaN fails every comparison, so it
        # counts as outside) and cast only the cells inside the grid.
        fx, fy = np.floor((pts - self.origin) / self.resolution).T
        inside = (fx >= 0) & (fx < self.width) & (fy >= 0) & (fy < self.height)
        out = np.ones(len(pts), dtype=bool)  # outside the grid counts as occupied
        out[inside] = self.cells[fy[inside].astype(int), fx[inside].astype(int)]
        return out


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
    obstacles: tuple[Obstacle, ...] = ()
    grid: OccupancyGrid | None = None
    resolution_fraction: float = DEFAULT_RESOLUTION_FRACTION
    # Derived at construction: the absolute sampled-check step; the bounds (row
    # 0) and every Box (rows 1..K) as lists of Python floats for the row scans;
    # the box faces for motions_valid_fan; other obstacles.
    motion_resolution: float = field(init=False, repr=False, compare=False)
    _rows_lo: list = field(init=False, repr=False, compare=False)
    _rows_hi: list = field(init=False, repr=False, compare=False)
    _slab_faces: np.ndarray = field(init=False, repr=False, compare=False)
    _other_obstacles: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "start", as_config(self.start))
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        n = self.bounds.dimension
        if self.start.shape[0] != n:
            raise SceneSemanticError("start dimension does not match bounds")
        rf = self.resolution_fraction
        # Above 1 every motion would be checked at its end points only.
        if isinstance(rf, bool) or not isinstance(rf, numbers.Real) or not (0.0 < rf <= 1.0):
            raise SceneSemanticError(f"resolution_fraction must be a number in (0, 1], got {rf!r}")
        if self.grid is not None and self.obstacles:
            raise SceneSemanticError("scene must use either obstacles or a grid, not both")
        if self.grid is not None and n != 2:
            raise SceneSemanticError("occupancy grids are 2-D only")
        if self.goal.kind == "ball" and self.goal.center.shape[0] != n:
            raise SceneSemanticError("goal center dimension does not match bounds")
        for obs in self.obstacles:
            anchor = obs.lo if isinstance(obs, Box) else obs.center if isinstance(obs, Sphere) else obs.a
            if anchor.shape[0] != n:
                raise SceneSemanticError(f"{type(obs).__name__.lower()} dimension does not match bounds")
        boxes = [o for o in self.obstacles if isinstance(o, Box)]
        object.__setattr__(self, "motion_resolution", self.resolution_fraction * self.bounds.diagonal)
        object.__setattr__(self, "_rows_lo", [self.bounds.lo.tolist()] + [b.lo.tolist() for b in boxes])
        object.__setattr__(self, "_rows_hi", [self.bounds.hi.tolist()] + [b.hi.tolist() for b in boxes])
        # (N, 2K, 1): per coordinate, every box's lo faces and then its hi faces.
        faces = np.array(self._rows_lo[1:] + self._rows_hi[1:]).reshape(-1, n)
        object.__setattr__(self, "_slab_faces", faces.T[:, :, None])
        object.__setattr__(self, "_other_obstacles", tuple(o for o in self.obstacles if not isinstance(o, Box)))
        if not is_state_valid(self, self.start):
            raise SceneSemanticError("start configuration is not collision-free")

    @property
    def dimension(self) -> int:
        return self.bounds.dimension


def states_valid(scene: Scene, pts: np.ndarray) -> np.ndarray:
    """Validity of each row of a (M, N) block of configurations.

    One (N,) configuration is also accepted and gives a length-1 result.
    Every point goes through _point_valid's row scan: nearly every validity
    check tests one point, and no caller on the benchmark grids passes a block.
    """
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1 and pts.shape[0] == scene.dimension:
        return np.array([_point_valid(scene, pts)])
    pts = np.atleast_2d(pts)
    if pts.shape[1] != scene.dimension:
        raise ValueError(f"dimension mismatch: scene is {scene.dimension}-D, points are {pts.shape[1]}-D")
    return np.array([_point_valid(scene, q) for q in pts], dtype=bool)


def _point_valid(scene: Scene, q: np.ndarray) -> bool:
    """Validity of one (N,) float configuration."""
    # Closed boxes, as in Bounds.contains and Box.contains: inside the bounds
    # (row 0) and outside every Box.
    ok = _box_clear(q.tolist(), scene._rows_lo, scene._rows_hi)
    if ok and scene.grid is not None:
        ok = not scene.grid.occupied(q)[0]
    for obs in scene._other_obstacles:
        if not ok:
            break
        ok = not obs.contains(q)[0]
    return ok


def is_state_valid(scene: Scene, q: Config) -> bool:
    """bool(states_valid(scene, q)[0]); one configuration of the scene's
    dimension goes straight to the one-point test, without the length-1 array."""
    q = np.asarray(q, dtype=float)
    if q.ndim == 1 and q.shape[0] == scene.dimension:
        return _point_valid(scene, q)
    return bool(states_valid(scene, q)[0])


def distance(a: Config, b: Config) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    # The same dot-then-sqrt that np.linalg.norm does, without its dispatch.
    d = (a - b).ravel()
    return math.sqrt(d.dot(d))


def _segment_points(a: Config, b: Config, step: float) -> np.ndarray:
    n = max(1, math.ceil(distance(a, b) / step))
    pts = a + np.linspace(0.0, 1.0, n + 1)[:, None] * (b - a)
    pts[-1] = b  # a + 1.0 * (b - a) can miss b by an ulp
    return pts


def _box_clear(p: list, rows_lo: list, rows_hi: list) -> bool:
    """True iff the point p (a list of N floats) lies in the closed row 0 and
    in no other closed row.

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


def check_motion(scene: Scene, a: Config, b: Config) -> bool:
    """True iff the straight segment a-b is valid: exactly against the bounds
    and every Box, and at the scene's motion_resolution against its grid,
    spheres and capsules."""
    a = as_config(a)
    b = as_config(b)
    if not states_valid(scene, b)[0]:  # the cheapest reject: most invalid steps end in a wall
        return False
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    if not _segment_clear(a.tolist(), b.tolist(), scene._rows_lo, scene._rows_hi):
        return False
    return (scene.grid is None and not scene._other_obstacles) or _sampled_clear(scene, a, b)


def _sampled_clear(scene: Scene, a: Config, b: Config) -> bool:
    """True iff no point motion_resolution apart along a-b meets the grid, a sphere or a capsule."""
    pts = _segment_points(a, b, scene.motion_resolution)
    if scene.grid is not None and scene.grid.occupied(pts).any():
        return False
    return not any(obs.contains(pts).any() for obs in scene._other_obstacles)


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
    if scene.grid is not None or scene._other_obstacles:
        ok[ok] = [_sampled_clear(scene, q0, t) for t in targets[ok]]
    return ok


def goal_satisfied(scene: Scene, q: Config) -> bool:
    g = scene.goal
    if g.kind == "ball":
        return distance(q, g.center) <= g.tolerance
    return distance(q, scene.start) >= g.threshold


def _parse_obstacle(entry: dict) -> Obstacle:
    kind = entry.get("kind")
    try:
        if kind == "box":
            return Box(entry["lo"], entry["hi"])
        if kind == "sphere":
            return Sphere(entry["center"], entry["radius"])
        if kind == "capsule":
            return Capsule(entry["a"], entry["b"], entry["radius"])
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


def _parse_grid(entry: dict) -> OccupancyGrid:
    try:
        rows = entry["rows"]
        width, height = entry["width"], entry["height"]
        if len(rows) != height or any(len(r) != width for r in rows):
            raise SceneParseError("grid rows do not match width/height")
        bad = set("".join(rows)) - {"#", "."}
        if bad:
            raise SceneParseError(f"grid rows contain invalid characters {sorted(bad)}")
        cells = np.array([[c == "#" for c in row] for row in rows], dtype=bool)
        return OccupancyGrid(width, height, entry["resolution"], entry["origin"], cells)
    except KeyError as exc:
        raise SceneParseError(f"grid missing field {exc}") from exc
    except ValueError as exc:
        raise SceneSemanticError(str(exc)) from exc


def load_scene(text: str) -> Scene:
    """Parse and validate a scene document (JSON)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise SceneParseError("scene document must be an object")
    for key in ("name", "dimension", "bounds", "start", "goal"):
        if key not in doc:
            raise SceneParseError(f"scene document missing {key!r}")
    has_obs = "obstacles" in doc
    has_grid = "grid" in doc
    if has_obs == has_grid:
        raise SceneParseError("exactly one of 'obstacles'/'grid' must be present")
    try:
        bounds = Bounds(doc["bounds"]["lo"], doc["bounds"]["hi"])
    except KeyError as exc:
        raise SceneParseError(f"bounds missing field {exc}") from exc
    except ValueError as exc:
        raise SceneSemanticError(str(exc)) from exc
    if bounds.dimension != doc["dimension"]:
        raise SceneSemanticError("declared dimension does not match bounds")
    obstacles = tuple(_parse_obstacle(o) for o in doc["obstacles"]) if has_obs else ()
    grid = _parse_grid(doc["grid"]) if has_grid else None
    scene = Scene(
        name=str(doc["name"]),
        bounds=bounds,
        start=doc["start"],
        goal=_parse_goal(doc["goal"]),
        obstacles=obstacles,
        grid=grid,
        resolution_fraction=doc.get("resolution_fraction", DEFAULT_RESOLUTION_FRACTION),
    )
    return scene


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
    }
    if scene.grid is not None:
        g = scene.grid
        rows = ["".join("#" if c else "." for c in row) for row in g.cells]
        doc["grid"] = {
            "width": g.width, "height": g.height, "resolution": g.resolution,
            "origin": g.origin.tolist(), "rows": rows,
        }
    else:
        obs = []
        for o in scene.obstacles:
            if isinstance(o, Box):
                obs.append({"kind": "box", "lo": o.lo.tolist(), "hi": o.hi.tolist()})
            elif isinstance(o, Sphere):
                obs.append({"kind": "sphere", "center": o.center.tolist(), "radius": o.radius})
            else:
                obs.append({"kind": "capsule", "a": o.a.tolist(), "b": o.b.tolist(), "radius": o.radius})
        doc["obstacles"] = obs
    if scene.goal.kind == "ball":
        doc["goal"] = {"kind": "ball", "center": scene.goal.center.tolist(), "tolerance": scene.goal.tolerance}
    else:
        doc["goal"] = {"kind": "escape", "threshold": scene.goal.threshold}
    if scene.resolution_fraction != DEFAULT_RESOLUTION_FRACTION:
        doc["resolution_fraction"] = scene.resolution_fraction
    return doc
