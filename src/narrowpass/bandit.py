"""Sliding-window UCB arm selection and the validity reward rule."""

from __future__ import annotations

import enum
import math
from collections import Counter, deque
from dataclasses import dataclass, field


class Arm(enum.IntEnum):
    """Sampler arms in fixed tie-break order."""
    UNIFORM = 0
    PC_POSITIVE = 1
    PC_NEGATIVE = 2


# Every arm, in enum order; iterating the enum class itself is several times slower.
ARMS = tuple(Arm)


def _check_reward(reward: float) -> None:
    if reward != 0.0 and reward != 1.0:
        raise ValueError(f"rewards must be 0.0 or 1.0, got {reward!r}")


@dataclass
class BanditState:
    """Bounded FIFO of recent (arm, reward) pulls plus lifetime totals.

    Rewards are 0.0 or 1.0, so each arm's window sum is an integer: the
    state keeps, per arm, the pulls and the valid pulls in the window, and
    adjusts both exactly on every append and eviction. The state starts
    empty; change it only through `update`.
    """

    window_size: int = 256
    beta: float = math.sqrt(2.0)
    window: deque = field(init=False)
    cumulative: dict = field(init=False, default_factory=lambda: dict.fromkeys(ARMS, 0.0))
    pulls: dict = field(init=False, default_factory=lambda: dict.fromkeys(ARMS, 0))
    _counts: Counter = field(init=False, repr=False, compare=False, default_factory=Counter)
    _valid: Counter = field(init=False, repr=False, compare=False, default_factory=Counter)

    def __post_init__(self):
        if not self.window_size >= 1:
            raise ValueError("window must hold at least one pull")
        self.window = deque(maxlen=self.window_size)

    def update(self, arm: Arm, reward: float) -> "BanditState":
        _check_reward(reward)
        window = self.window
        if len(window) == window.maxlen:
            old_arm, old_reward = window[0]
            self._counts[old_arm] -= 1
            if old_reward:
                self._valid[old_arm] -= 1
        window.append((arm, reward))
        self._counts[arm] += 1
        if reward:
            self._valid[arm] += 1
        self.cumulative[arm] += reward
        self.pulls[arm] += 1
        return self

    def ucb_scores(self, arms: tuple[Arm, ...] = ARMS) -> dict[Arm, float]:
        counts = {arm: self._counts[arm] for arm in arms}
        log_total = math.log(sum(counts.values()) + 1)
        scores = {}
        for arm, n in counts.items():
            # int / int rounds once: the mean a rescan of the window computes.
            mean = self._valid[arm] / n if n else 0.0
            scores[arm] = mean + self.beta * math.sqrt(log_total / (n + 1))
        return scores


def select_arm(state: BanditState, arms: tuple[Arm, ...] = ARMS) -> Arm:
    """Argmax of in-window mean reward plus the UCB exploration bonus; ties go
    to the first arm in enum order.

    Scores each arm with ucb_scores' expression, term for term, on the same
    counts, so every score and comparison is the same double; only the dicts
    are not built.
    """
    counts, valid, beta = state._counts, state._valid, state.beta
    ns = [counts[arm] for arm in arms]
    log_total = math.log(sum(ns) + 1)
    best = None
    for arm, n in zip(arms, ns):
        score = (valid[arm] / n if n else 0.0) + beta * math.sqrt(log_total / (n + 1))
        if best is None or score > top:
            best, top = arm, score
    return best


def compute_reward(valid: bool) -> float:
    """A valid pull earns 1.0 and an invalid one 0.0, whatever the arm."""
    return 1.0 if valid else 0.0
