import math

import pytest
from hypothesis import given, settings, strategies as st

from narrowpass import (Arm, BanditState, PlannerParams, compute_reward, generate_tunnel_scene,
                        mab_rrt_plan, select_arm)
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
        # beats 1 + sqrt(2*ln6/5) ~ 1.847 and 0 + sqrt(2*ln6/2) ~ 1.339.
        state = BanditState()
        for _ in range(4):
            state.update(Arm.UNIFORM, 1.0)
        state.update(Arm.PC_POSITIVE, 0.0)
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
            state = BanditState(window_size=int(rng.integers(1, 40)))
            k = int(rng.integers(0, 80))
            for _ in range(k):
                arm = Arm(int(rng.integers(0, 3)))
                state.update(arm, float(rng.integers(0, 2)))
            assert select_arm(state) is brute_force_select(list(state.window), state.beta)

    def test_restricted_arms(self):
        state = BanditState()
        state.update(Arm.PC_POSITIVE, 1.0)
        assert select_arm(state, (Arm.UNIFORM,)) is Arm.UNIFORM

    def test_argmax_invariant_under_reward_scaling(self):
        # With equal pull counts the bonuses cancel, so scaling all rewards
        # by a positive constant s cannot change the argmax. Rewards are 0/1,
        # so the scaling is made as its equivalent, beta / s: the scores of
        # s·r with beta are s times those of r with beta / s.
        rng = RngStream(9)
        for _ in range(50):
            rewards = rng.integers(0, 2, (5, 3))
            choices = []
            for scale in (1.0, 7.5, 1 / 7.5):
                state = BanditState(beta=math.sqrt(2.0) / scale)
                for row in rewards:
                    for arm in Arm:
                        state.update(arm, float(row[arm]))
                choices.append(select_arm(state))
            assert choices[0] is choices[1] is choices[2]

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
        assert repr(compute_reward(False)) == "0.0"

    def test_valid_one(self):
        assert repr(compute_reward(True)) == "1.0"

    def test_uniform_scaling(self):
        # The uniform arm is not scaled down against the cylinder arms: in a
        # MAB-RRT run, a valid uniform pull earns what a valid cylinder pull
        # earns, exactly 1.0, and every invalid pull 0.0.
        scene = generate_tunnel_scene(5.0)
        params = PlannerParams(timeout=1e9, max_iterations=300)
        trace = mab_rrt_plan(scene, params, RngStream(1), record_trace=True).trace
        earned = {(row.arm, row.valid, row.reward) for row in trace}
        assert ("uniform", True, 1.0) in earned and ("pc-positive", True, 1.0) in earned
        assert {(valid, reward) for _, valid, reward in earned} == {(True, 1.0), (False, 0.0)}


class TestUpdateWindow:
    def test_fifo_eviction(self):
        state = BanditState(window_size=2)
        state.update(Arm.UNIFORM, 1.0)
        state.update(Arm.PC_POSITIVE, 0.0)
        state.update(Arm.PC_NEGATIVE, 1.0)
        assert list(state.window) == [(Arm.PC_POSITIVE, 0.0), (Arm.PC_NEGATIVE, 1.0)]

    def test_cumulative_totals(self):
        state = BanditState()
        state.update(Arm.UNIFORM, 1.0)
        state.update(Arm.UNIFORM, 0.0)
        state.update(Arm.UNIFORM, 1.0)
        assert state.cumulative[Arm.UNIFORM] == 2.0 and state.pulls[Arm.UNIFORM] == 3

    def test_window_stats_exclude_evicted(self):
        state = BanditState(window_size=2)
        state.update(Arm.UNIFORM, 1.0)
        state.update(Arm.PC_POSITIVE, 1.0)
        state.update(Arm.PC_POSITIVE, 1.0)
        scores = state.ucb_scores()
        # Uniform's reward was evicted; its in-window mean is zero.
        assert scores[Arm.UNIFORM] == pytest.approx(state.beta * math.sqrt(math.log(3)), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(list(Arm)), st.sampled_from([0.0, 1.0])), max_size=600),
           st.integers(1, 256))
    def test_window_never_exceeds_capacity(self, pushes, cap):
        state = BanditState(window_size=cap)
        for arm, reward in pushes:
            state.update(arm, reward)
        assert len(state.window) == min(len(pushes), cap)

    def test_negative_reward_rejected(self):
        with pytest.raises(ValueError):
            BanditState().update(Arm.UNIFORM, -0.1)

    @pytest.mark.parametrize("reward", [0.5, 2.0, -0.1, math.nan])
    def test_reward_other_than_zero_or_one_rejected(self, reward):
        state = BanditState()
        with pytest.raises(ValueError, match="0.0 or 1.0"):
            state.update(Arm.PC_POSITIVE, reward)
        assert not state.window and state.pulls[Arm.PC_POSITIVE] == 0
        state.update(Arm.UNIFORM, 1.0)
        with pytest.raises(ValueError, match="0.0 or 1.0"):
            state.update(Arm.UNIFORM, reward)
        assert list(state.window) == [(Arm.UNIFORM, 1.0)] and state.pulls[Arm.UNIFORM] == 1


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


# The rewards the planner produces: 0.0 for an invalid pull, 1.0 for a valid one.
rewards = st.sampled_from([0.0, 1.0])
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
        state = BanditState(window_size=32)
        for arm, reward in prefill:
            state.update(arm, reward)
        assert state.ucb_scores() == rescan_scores(state)
        for arm, reward in pushes:
            state.update(arm, reward)
        assert state.ucb_scores() == rescan_scores(state)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), arm_sets)
    def test_every_update_after_nonzero_evictions(self, data, arms):
        # A full prefilled window that opens with a valid pull of every arm,
        # then at least a window's worth of pushes: each of those three
        # rewards is evicted, and its arm's valid count decremented.
        pulls = st.tuples(st.sampled_from(list(Arm)), rewards)
        prefill = [(arm, 1.0) for arm in Arm] + data.draw(st.lists(pulls, max_size=40))
        state = BanditState(window_size=len(prefill))
        for arm, reward in prefill:
            state.update(arm, reward)
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
            # Mostly invalid cylinder pulls and mostly valid uniform ones.
            valid = rng.uniform() < (0.7 if arm is Arm.UNIFORM else 0.1)
            state.update(arm, compute_reward(valid))
            assert state.ucb_scores() == rescan_scores(state)

    def test_zero_length_window_rejected(self):
        with pytest.raises(ValueError):
            BanditState(window_size=0)
