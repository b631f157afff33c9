"""RRT core and the scale-invariant bandit planner.

Every planner runs the same nearest/steer/check/add loop, `_grow`, and
supplies only its policy: how a sample is drawn and what is learnt from the
step's outcome. A baseline RRT is a one-arm policy that learns nothing.
A plan stops at the first valid step whose motion meets the goal: at its
end, or, for a ball goal, anywhere along the segment.
The bandit planner first runs the grow-shrink scale search from the start,
seeds its tree with the accumulated valid samples, estimates the principal
escape direction, and then loops: pick an arm (uniform or a signed cylinder
along the escape axis), extend the tree one RRT step, and feed the outcome
back into the bandit. Each signed cylinder arm has its own reach, the
start of its axial interval: it ratchets outward to the progress along the
axis of each node its valid steps add, and steps back one interval when the
arm draws a sample outside the bounds.
"""

from __future__ import annotations

import hashlib
import math
import struct
import time
from collections import Counter
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from .bandit import ARMS, Arm, BanditState, compute_reward, select_arm
from .cspace import Scene, as_point, check_motion, distance, goal_on_motion, goal_satisfied
from .pca import DegenerateAxisError, PrincipalAxis, principal_axis, recalibrate_axis, sample_cylinder_with_height
from .samplers import baseline_stddev, sample_bridge, sample_gaussian_obstacle, sample_near_obstacle, sample_uniform
from .scale_search import R_MIN, ScaleSearchResult, find_entropy_scale

# Default steer step as a fraction of the bounds diagonal.
DEFAULT_ETA_FRACTION = 0.025
# A cylinder arm with reach r samples axial heights in [r, r + DELTA·r] at
# radii up to KAPPA·r from the escape axis.
DELTA = 1.0
KAPPA = 0.25

# Edge provenance tags as written to traces and SVGs.
TAG_BURNIN = "burnin"
TAG_FOR_ARM = {Arm.UNIFORM: "uniform", Arm.PC_POSITIVE: "pc-positive", Arm.PC_NEGATIVE: "pc-negative"}


class Tree:
    """Planning tree over configurations with parent links.

    `node` gives a node as a tuple of Python floats. Points are also stored
    coordinate-major, one contiguous row per coordinate in a (dim, capacity)
    array that doubles when full, for a nearest-neighbour query: a linear
    scan that adds the squared differences of one coordinate at a time and
    breaks ties by lowest node index. In 1-D and 2-D each squared distance is
    the single rounding of d0² (+ d1²); in more dimensions, coordinate order.
    """

    def __init__(self, root):
        root = as_point(root)
        self._nodes = [root]
        self._cols = np.empty((len(root), 64))
        self._cols[:, 0] = root
        self.size = 1
        self.parents = [0]
        self.tags = [TAG_BURNIN]
        self.birth_iters = [-1]

    @property
    def points(self) -> np.ndarray:
        """(size, dim) view of the nodes, one row per node."""
        return self._cols[:, : self.size].T

    def node(self, i: int) -> tuple:
        return self._nodes[i]

    def add(self, q, parent: int, tag: str, birth_iter: int = -1) -> int:
        q = as_point(q)
        n = self.size
        if n == self._cols.shape[1]:
            grown = np.empty((self._cols.shape[0], 2 * n))
            grown[:, :n] = self._cols
            self._cols = grown
        self._cols[:, n] = q
        self._nodes.append(q)
        self.parents.append(parent)
        self.tags.append(tag)
        self.birth_iters.append(birth_iter)
        self.size = n + 1
        return n

    def nearest(self, q) -> int:
        n, cols, c = self.size, self._cols, as_point(q)
        if len(c) != len(cols):
            raise ValueError("dimension mismatch")
        d2 = cols[0, :n] - c[0]
        d2 *= d2
        for j in range(1, len(c)):
            d = cols[j, :n] - c[j]
            d *= d
            d2 += d
        return int(d2.argmin())


def steer(from_q, to_q, eta: float) -> tuple:
    if not eta > 0:
        raise ValueError("eta must be positive")
    a, b = as_point(from_q), as_point(to_q)
    d = math.dist(a, b)
    if d <= eta:
        return b
    t = eta / d
    return tuple([x + t * (y - x) for x, y in zip(a, b)])


def extract_path(tree: Tree, leaf: int) -> list[np.ndarray]:
    chain = [leaf]
    while tree.parents[chain[-1]] != chain[-1]:
        chain.append(tree.parents[chain[-1]])
    return [np.array(tree.node(i)) for i in reversed(chain)]


@dataclass(frozen=True)
class PlannerParams:
    eta: float | None = None              # steer step; None -> 2.5% of bounds diagonal
    timeout: float = 10.0                 # wall-clock seconds
    max_iterations: int = 1_000_000
    arms: tuple[Arm, ...] = ARMS          # restrict to (Arm.UNIFORM,) to disable cylinder arms

    def __post_init__(self):
        # Every check is written so that NaN fails it; type(True) is bool, so bools fail the int checks.
        if self.eta is not None and not self.eta > 0:
            raise ValueError("eta must be positive")
        if not self.timeout > 0:
            raise ValueError("timeout must be positive")
        if type(self.max_iterations) is not int or self.max_iterations < 0:
            raise ValueError(f"max_iterations must be non-negative and an int, got {self.max_iterations!r}")
        if not self.arms or self.arms[0] is not Arm.UNIFORM:
            raise ValueError("arms must include UNIFORM first")
        # draw and learn tell the arms apart by identity, and select_arm draws once per entry.
        if not all(type(arm) is Arm for arm in self.arms) or len(set(self.arms)) != len(self.arms):
            raise ValueError(f"arms must be distinct Arm members, got {self.arms!r}")

    def effective_eta(self, scene: Scene) -> float:
        return self.eta if self.eta is not None else DEFAULT_ETA_FRACTION * scene.bounds.diagonal


@dataclass
class TraceRow:
    iteration: int
    arm: str
    valid: bool
    reward: float
    r_star: float
    tree_size: int
    posterior_means: tuple[float, float, float]
    draws_sha256: str                 # running SHA-256 of the samples drawn so far, as little-endian doubles


@dataclass
class PlannerResult:
    outcome: str                      # "solved" | "timeout" | "exhausted"
    path: list[np.ndarray] | None
    iterations: int
    wall_time: float
    tree_size: int
    r_star: float | None              # mab-rrt: the larger of the two reaches
    arm_pulls: dict
    arm_rewards: dict
    tree: Tree | None = None
    trace: list[TraceRow] | None = None
    scale_result: ScaleSearchResult | None = None
    diagnostics: list[str] = field(default_factory=list)
    reach: dict | None = None         # mab-rrt: final reach of each cylinder arm

    @property
    def solved(self) -> bool:
        return self.outcome == "solved"

    @property
    def path_length(self) -> float | None:
        if not self.solved or not self.path:
            return None
        return float(sum(distance(a, b) for a, b in zip(self.path[:-1], self.path[1:])))


def _grow(scene: Scene, params: PlannerParams, tree: Tree, t0: float, record_trace: bool,
          policy) -> PlannerResult:
    """The RRT loop every planner runs: draw, nearest, steer, check, add.

    A seeded tree that already reaches the goal is solved at iteration 0.
    Otherwise `policy()` is called once and returns the planner's pair
    `draw() -> (sample, tree tag, trace label)` and
    `learn(valid, sample, new) -> (reward, r*, posterior means)`, the last
    three of which fill the step's trace row (r* and the means are only
    needed when a trace is recorded). A valid step adds its end point, or,
    when the motion meets the goal short of it (`goal_on_motion`: for a
    ball goal, anywhere along the segment), the point where it does, and
    the plan stops there, solved.
    """
    eta = params.effective_eta(scene)
    trace: list[TraceRow] | None = [] if record_trace else None
    draws = hashlib.sha256() if record_trace else None
    leaf = next((i for i in range(tree.size) if goal_satisfied(scene, tree.node(i))), None)
    outcome, iterations = "solved", 0
    if leaf is None:
        draw, learn = policy()
        outcome, iterations = "exhausted", params.max_iterations
        clock, timeout = time.perf_counter, params.timeout
        for it in range(params.max_iterations):
            if clock() - t0 > timeout:
                outcome, iterations = "timeout", it
                break
            x_sample, tag, label = draw()
            i_near = tree.nearest(x_sample)
            x_near = tree.node(i_near)
            x_new = steer(x_near, x_sample, eta)
            valid = check_motion(scene, x_near, x_new)
            x_goal = None
            if valid:
                x_goal = goal_on_motion(scene, x_near, x_new)
                if x_goal is not None:
                    x_new = x_goal
                leaf = tree.add(x_new, i_near, tag, it)
            reward, r_star, scores = learn(valid, x_sample, x_new)
            if record_trace:
                draws.update(struct.pack(f"<{len(x_sample)}d", *x_sample))
                trace.append(TraceRow(it, label, valid, reward, r_star, tree.size, scores, draws.hexdigest()))
            if x_goal is not None:
                outcome, iterations = "solved", it + 1
                break
    return PlannerResult(
        outcome=outcome, path=extract_path(tree, leaf) if outcome == "solved" else None,
        iterations=iterations, wall_time=time.perf_counter() - t0, tree_size=tree.size,
        r_star=None, arm_pulls={}, arm_rewards={}, tree=tree, trace=trace)


def rrt_plan(scene: Scene, sampler: str, params: PlannerParams, rng: np.random.Generator,
             record_trace: bool = False) -> PlannerResult:
    """Plain RRT with a fixed sampling strategy; biased samplers that come up
    empty fall back to a uniform draw for that iteration."""
    stddev = baseline_stddev(scene)
    draws = {
        "uniform": lambda: sample_uniform(scene.bounds, rng),
        "gaussian": lambda: sample_gaussian_obstacle(scene, stddev, rng),
        "bridge": lambda: sample_bridge(scene, stddev, rng),
        "obstacle": lambda: sample_near_obstacle(scene, rng),
    }
    if sampler not in draws:
        raise ValueError(f"unknown sampler {sampler!r}")
    sample = draws[sampler]

    def draw():
        x_sample = sample()
        if x_sample is None:
            x_sample = sample_uniform(scene.bounds, rng)
        return x_sample, TAG_FOR_ARM[Arm.UNIFORM], sampler

    def learn(valid, x_sample, x_new):
        return 0.0, 0.0, (0.0, 0.0, 0.0)  # a baseline learns nothing

    return _grow(scene, params, Tree(scene.start), time.perf_counter(), record_trace, lambda: (draw, learn))


def mab_rrt_plan(scene: Scene, params: PlannerParams, rng: np.random.Generator,
                 record_trace: bool = False) -> PlannerResult:
    """Scale-invariant bandit planner.

    Phases: (1) grow-shrink scale search at the start; (2) tree seeded with
    the start plus every burn-in sample as its child; (3) principal escape
    direction from the burn-in set; (4) bandit loop arbitrating between the
    uniform sampler and the two signed cylinder samplers. The scale search
    and then the loop draw from rng, one stream with no draw in between.
    The scale search's radii are fractions of the bounds diagonal, so a
    scene scaled by a power of two plans the scaled plan.
    """
    if scene.dimension < 2:
        # The scale search's lattice and the cylinder's (N-1)-ball need N >= 2.
        raise ValueError(f"mab-rrt needs a scene of dimension 2 or more, got {scene.dimension}; "
                         "use an rrt-* planner instead")
    diagonal = scene.bounds.diagonal
    diagnostics: list[str] = []
    t0 = time.perf_counter()

    scale_res = find_entropy_scale(scene, scene.start, rng)
    # Each cylinder arm's reach: the start of its axial interval.
    reach = dict.fromkeys((Arm.PC_POSITIVE, Arm.PC_NEGATIVE), scale_res.r_star)
    tree = Tree(scene.start)
    for v in scale_res.valid_samples:
        tree.add(v, 0, TAG_BURNIN, -1)
    bandit: BanditState | None = None

    def policy():
        nonlocal bandit
        axis: PrincipalAxis | None = None
        arms = params.arms
        if Arm.PC_POSITIVE in arms or Arm.PC_NEGATIVE in arms:
            try:
                axis = principal_axis(scale_res.valid_samples, scene.start)
            except DegenerateAxisError:
                axis = None
            if axis is None:
                arms = (Arm.UNIFORM,)
                diagnostics.append("scale search produced no valid samples; cylinder arms disabled")
        bandit = BanditState()
        lo, hi = scene.bounds.lo, scene.bounds.hi
        r_min = R_MIN * diagonal
        # The members read once: on Python 3.11 each read of Arm.X costs about 0.1 µs.
        uniform, positive = Arm.UNIFORM, Arm.PC_POSITIVE
        arm = uniform

        def draw():
            nonlocal arm
            arm = select_arm(bandit, arms, rng)
            if arm is uniform:
                x_sample = sample_uniform(scene.bounds, rng)
            else:
                r = reach[arm]
                x_sample = sample_cylinder_with_height(
                    axis, +1 if arm is positive else -1, r, r + DELTA * r, KAPPA * r, rng)
            tag = TAG_FOR_ARM[arm]
            return x_sample, tag, tag

        def learn(valid, x_sample, x_new):
            nonlocal axis
            if arm is not uniform:
                for l, x, h in zip(lo, x_sample, hi):
                    if not l <= x <= h:
                        # Past the bounds, so this arm reaches too far: step
                        # its interval back by its own length ratio.
                        reach[arm] = max(reach[arm] / (1.0 + DELTA), r_min)
                        break
                else:
                    if valid:
                        # Ratchet out to the new node's signed progress along
                        # the axis the sample was drawn from.
                        p = math.fsum(map(mul, [x - o for x, o in zip(x_new, axis.origin)], axis.axis))
                        reach[arm] = min(max(reach[arm], p if arm is positive else -p), diagonal)
                if valid:
                    axis = recalibrate_axis(axis, x_new)
            reward = compute_reward(valid)
            bandit.update(arm, reward)
            if record_trace:
                return reward, max(reach.values()), bandit.posterior_means()
            return reward, None, None

        return draw, learn

    result = _grow(scene, params, tree, t0, record_trace, policy)
    result.r_star, result.reach = max(reach.values()), dict(reach)
    result.scale_result, result.diagnostics = scale_res, diagnostics
    if bandit is not None:
        # Every valid pull adds one node tagged with its arm, and earns 1.0.
        tags = Counter(tree.tags)
        result.arm_pulls = dict(bandit.pulls)
        result.arm_rewards = {arm: float(tags[TAG_FOR_ARM[arm]]) for arm in ARMS}
    return result


PLANNER_NAMES = ("mab-rrt", "rrt-uniform", "rrt-gaussian", "rrt-bridge", "rrt-obstacle")


def run_planner(scene: Scene, planner: str, params: PlannerParams, rng: np.random.Generator,
                record_trace: bool = False) -> PlannerResult:
    """Run a planner by its name in PLANNER_NAMES."""
    if planner == "mab-rrt":
        return mab_rrt_plan(scene, params, rng, record_trace=record_trace)
    return rrt_plan(scene, planner.removeprefix("rrt-"), params, rng, record_trace=record_trace)
