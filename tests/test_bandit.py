import math
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from narrowpass import Arm, BanditState, compute_reward, select_arm
from narrowpass.rng import RngStream


def brute_force_select(window, beta, arms=tuple(Arm)):
    """Direct evaluation of the sliding-window UCB formula."""
    counts = {a: 0 for a in arms}
    sums = {a: 0.0 for a in arms}
    for arm, reward in window:
        if arm in counts:
            counts[arm] += 1
            sums[arm] += reward
    total = sum(counts.values())
    best, best_score = None, -math.inf
    for arm in arms:
        mu = sums[arm] / counts[arm] if counts[arm] else 0.0
        score = mu + beta * math.sqrt(math.log(total + 1) / (counts[arm] + 1))
        if score > best_score:
            best, best_score = arm, score
    return best


class TestSelectArm:
    def test_cold_start_picks_first(self):
        assert select_arm(BanditState()) is Arm.UNIFORM

    def test_exploration_bonus_dominates(self):
        # Frozen from the formula: the unpulled arm's bonus sqrt(2*ln 6) ~ 1.893
        # beats 0.5 + sqrt(2*ln6/5) and 0.2 + sqrt(2*ln6/2).
        state = BanditState()
        for _ in range(4):
            state.update(Arm.UNIFORM, 0.5)
        state.update(Arm.PC_POSITIVE, 0.2)
        assert select_arm(state) is Arm.PC_NEGATIVE
        scores = state.ucb_scores()
        assert scores[Arm.PC_NEGATIVE] == pytest.approx(math.sqrt(2) * math.sqrt(math.log(6)), abs=1e-12)

    def test_equal_counts_argmax_of_means(self):
        state = BanditState()
        for _ in range(10):
            state.update(Arm.UNIFORM, 0.0)
            state.update(Arm.PC_POSITIVE, 1.0)
            state.update(Arm.PC_NEGATIVE, 0.0)
        assert select_arm(state) is Arm.PC_POSITIVE

    def test_matches_brute_force_on_random_windows(self):
        rng = RngStream(7)
        for _ in range(1000):
            state = BanditState(window_size=int(rng.gen.integers(1, 40)))
            k = int(rng.gen.integers(0, 80))
            for _ in range(k):
                arm = Arm(int(rng.gen.integers(0, 3)))
                state.update(arm, float(rng.gen.uniform(0, 2)))
            assert select_arm(state) is brute_force_select(list(state.window), state.beta)

    def test_restricted_arms(self):
        state = BanditState()
        state.update(Arm.PC_POSITIVE, 10.0)
        assert select_arm(state, (Arm.UNIFORM,)) is Arm.UNIFORM

    def test_argmax_invariant_under_reward_scaling(self):
        # With equal pull counts the bonuses cancel, so scaling all rewards
        # by a positive constant cannot change the argmax.
        rng = RngStream(9)
        for _ in range(50):
            rewards = rng.gen.uniform(0, 1, 3)
            choices = []
            for scale in (1.0, 7.5):
                state = BanditState()
                for _ in range(5):
                    for arm in Arm:
                        state.update(arm, float(rewards[arm]) * scale)
                choices.append(select_arm(state))
            assert choices[0] is choices[1]

    def test_infinite_exploration(self):
        # Fixed degenerate rewards must not starve any arm: every arm is
        # pulled in every 10^4-round block over 10^5 rounds.
        state = BanditState()
        block_counts = []
        counts = {a: 0 for a in Arm}
        for i in range(10**5):
            arm = select_arm(state)
            counts[arm] += 1
            reward = 1.0 if arm is Arm.PC_POSITIVE else 0.0
            state.update(arm, reward)
            if (i + 1) % 10**4 == 0:
                block_counts.append(counts)
                counts = {a: 0 for a in Arm}
        for block in block_counts:
            assert all(block[a] >= 1 for a in Arm)


class TestComputeReward:
    def test_invalid_zero(self):
        for arm in Arm:
            assert compute_reward(arm, False, 7.0) == 0.0

    def test_uniform_scaling(self):
        assert compute_reward(Arm.UNIFORM, True, 3.0, c_uniform=1e8) == pytest.approx(3e-8)

    def test_pc_inverse_distance(self):
        assert compute_reward(Arm.PC_POSITIVE, True, 2.0, c_scale=5.0) == pytest.approx(2.5)

    def test_zero_distance_capped(self):
        assert compute_reward(Arm.PC_NEGATIVE, True, 0.0, c_scale=5.0) == pytest.approx(5e6)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            compute_reward(Arm.UNIFORM, True, -1.0)


class TestUpdateWindow:
    def test_fifo_eviction(self):
        state = BanditState(window_size=2)
        state.update(Arm.UNIFORM, 1.0)
        state.update(Arm.PC_POSITIVE, 2.0)
        state.update(Arm.PC_NEGATIVE, 3.0)
        assert list(state.window) == [(Arm.PC_POSITIVE, 2.0), (Arm.PC_NEGATIVE, 3.0)]

    def test_cumulative_totals(self):
        state = BanditState()
        state.update(Arm.UNIFORM, 1.0)
        state.update(Arm.UNIFORM, 2.0)
        assert state.cumulative[Arm.UNIFORM] == 3.0

    def test_window_stats_exclude_evicted(self):
        state = BanditState(window_size=2)
        state.update(Arm.UNIFORM, 100.0)
        state.update(Arm.PC_POSITIVE, 1.0)
        state.update(Arm.PC_POSITIVE, 1.0)
        scores = state.ucb_scores()
        # Uniform's huge reward was evicted; its in-window mean is zero.
        assert scores[Arm.UNIFORM] == pytest.approx(state.beta * math.sqrt(math.log(3)), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(list(Arm)),
                              st.floats(0, 10, allow_nan=False)), max_size=600),
           st.integers(1, 256))
    def test_window_never_exceeds_capacity(self, pushes, cap):
        state = BanditState(window_size=cap)
        for arm, reward in pushes:
            state.update(arm, reward)
        assert len(state.window) == min(len(pushes), cap)

    def test_negative_reward_rejected(self):
        with pytest.raises(ValueError):
            BanditState().update(Arm.UNIFORM, -0.1)


def rescan_scores(state, arms=tuple(Arm)):
    """UCB scores from a left-to-right rescan of the window."""
    counts = {a: 0 for a in arms}
    sums = {a: 0.0 for a in arms}
    for arm, reward in state.window:
        if arm in counts:
            counts[arm] += 1
            sums[arm] += reward
    total = sum(counts.values())
    return {a: (sums[a] / counts[a] if counts[a] else 0.0)
            + state.beta * math.sqrt(math.log(total + 1) / (counts[a] + 1)) for a in arms}


# Zero (an invalid pull) and the reward range the planner produces: uniform
# pulls earn ~1e-8, cylinder pulls up to c_scale / DISTANCE_EPSILON = 5e6.
nonzero_rewards = st.one_of(st.floats(1e-8, 5e6), st.floats(1e-8, 1e-6), st.floats(0.01, 10.0))
rewards = st.one_of(st.just(0.0), nonzero_rewards)
arm_sets = st.sampled_from([tuple(Arm), (Arm.UNIFORM,), (Arm.UNIFORM, Arm.PC_POSITIVE)])


class TestIncrementalWindowStats:
    """Incremental per-arm statistics must equal a full rescan exactly."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(list(Arm)), rewards), max_size=400),
           st.integers(1, 64), arm_sets)
    def test_scores_equal_rescan(self, pushes, cap, arms):
        state = BanditState(window_size=cap)
        for i, (arm, reward) in enumerate(pushes):
            state.update(arm, reward)
            if i % 7 == 0:
                assert state.ucb_scores(arms) == rescan_scores(state, arms)
        assert state.ucb_scores(arms) == rescan_scores(state, arms)
        assert select_arm(state, arms) is brute_force_select(list(state.window), state.beta, arms)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(list(Arm)), rewards), max_size=300),
           st.lists(st.tuples(st.sampled_from(list(Arm)), rewards), max_size=100))
    def test_counters_derived_from_given_window(self, prefill, pushes):
        state = BanditState(window=deque(prefill, maxlen=32))
        assert state.ucb_scores() == rescan_scores(state)
        for arm, reward in pushes:
            state.update(arm, reward)
        assert state.ucb_scores() == rescan_scores(state)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.lists(nonzero_rewards, min_size=3, max_size=3), arm_sets)
    def test_every_update_after_nonzero_evictions(self, data, firsts, arms):
        # A full prefilled window that opens with a nonzero reward of every
        # arm, then at least a window's worth of pushes: each of those three
        # rewards is evicted, and its arm's sum taken again.
        pulls = st.tuples(st.sampled_from(list(Arm)), rewards)
        prefill = list(zip(Arm, firsts)) + data.draw(st.lists(pulls, max_size=40))
        state = BanditState(window=deque(prefill, maxlen=len(prefill)))
        pushes = data.draw(st.lists(pulls, min_size=len(prefill), max_size=len(prefill) + 120))
        for arm, reward in pushes:
            state.update(arm, reward)
            assert state.ucb_scores(arms) == rescan_scores(state, arms)
            assert select_arm(state, arms) is brute_force_select(list(state.window), state.beta, arms)

    def test_planner_like_stream(self):
        rng = RngStream(5)
        state = BanditState()
        for _ in range(5000):
            arm = select_arm(state)
            if rng.gen.uniform() < 0.3:
                reward = 0.0
            else:
                reward = compute_reward(arm, True, float(10.0 ** rng.gen.uniform(-7, 2)))
            state.update(arm, reward)
            assert state.ucb_scores() == rescan_scores(state)

    def test_zero_length_window_rejected(self):
        with pytest.raises(ValueError):
            BanditState(window_size=0)
