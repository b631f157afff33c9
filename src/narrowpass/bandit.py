"""Sliding-window Thompson arm selection and the validity reward rule."""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field


class Arm(enum.IntEnum):
    """Sampler arms in fixed tie-break order."""
    UNIFORM = 0
    PC_POSITIVE = 1
    PC_NEGATIVE = 2


# Every arm, in enum order; iterating the enum class itself is several times slower.
ARMS = tuple(Arm)
# The pulls a state's window holds by default.
WINDOW_SIZE = 256


@dataclass
class BanditState:
    """Bounded FIFO of recent (arm, reward) pulls plus lifetime pull counts.

    Rewards are 0.0 or 1.0, so each arm's window sum is an integer: the
    state keeps, per arm, the pulls and the valid pulls in the window, and
    adjusts both exactly on every append and eviction, in plain dicts that
    hold every arm from the start. The state starts empty; change it only
    through `update`.
    """

    window_size: int = field(default_factory=lambda: WINDOW_SIZE)  # read when the state is built
    window: deque = field(init=False)
    pulls: dict = field(init=False, default_factory=lambda: dict.fromkeys(ARMS, 0))
    _counts: dict = field(init=False, repr=False, compare=False, default_factory=lambda: dict.fromkeys(ARMS, 0))
    _valid: dict = field(init=False, repr=False, compare=False, default_factory=lambda: dict.fromkeys(ARMS, 0))

    def __post_init__(self):
        if not self.window_size >= 1:
            raise ValueError("window must hold at least one pull")
        self.window = deque(maxlen=self.window_size)

    def update(self, arm: Arm, reward: float) -> "BanditState":
        if reward != 0.0 and reward != 1.0:
            raise ValueError(f"rewards must be 0.0 or 1.0, got {reward!r}")
        window, counts, valid = self.window, self._counts, self._valid
        if len(window) == window.maxlen:
            old_arm, old_reward = window[0]
            counts[old_arm] -= 1
            if old_reward:
                valid[old_arm] -= 1
        window.append((arm, reward))
        counts[arm] += 1
        if reward:
            valid[arm] += 1
        self.pulls[arm] += 1
        return self

    def posterior_means(self, arms: tuple[Arm, ...] = ARMS) -> tuple[float, ...]:
        """Each arm's Beta posterior mean, (valid + 1) / (pulls + 2), over the window."""
        return tuple([(self._valid[arm] + 1) / (self._counts[arm] + 2) for arm in arms])


def select_arm(state: BanditState, arms: tuple[Arm, ...], rng) -> Arm:
    """Thompson sampling on the window counts (Agrawal & Goyal, COLT 2012):
    one draw from Beta(valid + 1, pulls - valid + 1) per arm, in the order
    given, and the first arm with the largest draw. A single arm is
    returned without a draw."""
    if len(arms) == 1:
        return arms[0]
    counts, valid, beta = state._counts, state._valid, rng.beta
    best = None
    for arm in arms:
        v = valid[arm]
        x = beta(v + 1, counts[arm] - v + 1)
        if best is None or x > top:
            best, top = arm, x
    return best


def compute_reward(valid: bool) -> float:
    """A valid pull earns 1.0 and an invalid one 0.0, whatever the arm."""
    return 1.0 if valid else 0.0
