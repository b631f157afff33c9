"""Sliding-window UCB arm selection and the distance-based reward rule."""

from __future__ import annotations

import enum
import math
import operator
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from functools import reduce

DISTANCE_EPSILON = 1e-6


class Arm(enum.IntEnum):
    """Sampler arms in fixed tie-break order."""
    UNIFORM = 0
    PC_POSITIVE = 1
    PC_NEGATIVE = 2


@dataclass
class BanditState:
    """Bounded FIFO of recent (arm, reward) pulls plus lifetime totals.

    Per-arm window statistics are kept incrementally: a pull count, and the
    nonzero rewards in window order with their left-to-right float sum, the
    sum a rescan of the window gives (s + 0.0 == s). An append adds the new
    reward last; evicting a nonzero reward sums the arm's rest again, since
    subtracting it, sum() or fsum would round differently.
    `window` is the source of truth the counters are derived from at
    construction; after that, change it only through `update`.
    """

    window_size: int = 256
    beta: float = math.sqrt(2.0)
    window: deque = field(default=None)  # type: ignore[assignment]
    cumulative: dict = field(default_factory=lambda: {arm: 0.0 for arm in Arm})
    pulls: dict = field(default_factory=lambda: {arm: 0 for arm in Arm})
    _counts: Counter = field(init=False, repr=False, compare=False)
    _nonzero: defaultdict = field(init=False, repr=False, compare=False)
    _sums: defaultdict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.window is None:
            self.window = deque(maxlen=self.window_size)
        if self.window.maxlen == 0:
            raise ValueError("window must hold at least one pull")
        self._counts = Counter(arm for arm, _ in self.window)
        self._nonzero, self._sums = defaultdict(deque), defaultdict(float)
        for arm, reward in self.window:
            if reward:
                self._nonzero[arm].append(reward)
                self._sums[arm] += reward

    def update(self, arm: Arm, reward: float) -> "BanditState":
        if reward < 0:
            raise ValueError("rewards must be non-negative")
        window = self.window
        if len(window) == window.maxlen:
            old_arm, old_reward = window[0]
            self._counts[old_arm] -= 1
            if old_reward:
                self._nonzero[old_arm].popleft()
                self._sums[old_arm] = reduce(operator.add, self._nonzero[old_arm], 0.0)
        window.append((arm, reward))
        self._counts[arm] += 1
        if reward:
            self._nonzero[arm].append(reward)
            self._sums[arm] += reward
        self.cumulative[arm] += reward
        self.pulls[arm] += 1
        return self

    def ucb_scores(self, arms: tuple[Arm, ...] = tuple(Arm)) -> dict[Arm, float]:
        counts = {arm: self._counts[arm] for arm in arms}
        log_total = math.log(sum(counts.values()) + 1)
        scores = {}
        for arm, n in counts.items():
            # The running sum is bit for bit a rescan's (class docstring).
            mean = self._sums[arm] / n if n else 0.0
            scores[arm] = mean + self.beta * math.sqrt(log_total / (n + 1))
        return scores


def select_arm(state: BanditState, arms: tuple[Arm, ...] = tuple(Arm)) -> Arm:
    """Argmax of in-window mean reward plus the UCB exploration bonus; ties go
    to the first arm in enum order.

    Scores each arm with ucb_scores' expression, term for term, on the same
    counts and sums, so every score and comparison is the same double; only
    the dicts are not built.
    """
    counts, sums, beta = state._counts, state._sums, state.beta
    ns = [counts[arm] for arm in arms]
    log_total = math.log(sum(ns) + 1)
    best = None
    for arm, n in zip(arms, ns):
        score = (sums[arm] / n if n else 0.0) + beta * math.sqrt(log_total / (n + 1))
        if best is None or score > top:
            best, top = arm, score
    return best


def compute_reward(arm: Arm, valid: bool, dist_from_start: float,
                   c_uniform: float = 1e8, c_scale: float = 5.0) -> float:
    """Invalid pulls earn nothing; uniform pulls earn distance scaled down by
    c_uniform, cylinder pulls earn c_scale over distance."""
    if dist_from_start < 0:
        raise ValueError("distance must be non-negative")
    if not valid:
        return 0.0
    if arm is Arm.UNIFORM:
        return dist_from_start / c_uniform
    return c_scale / max(dist_from_start, DISTANCE_EPSILON)
