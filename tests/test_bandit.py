import math
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from narrowpass import (Arm, BanditState, PlannerParams, bandit, compute_reward, generate_tunnel_scene,
                        mab_rrt_plan, select_arm)
from narrowpass.bandit import ARMS
from narrowpass.bench import trace_document
from narrowpass.planner import TAG_FOR_ARM
from narrowpass.rng import RngStream


def window_counts(window, arms=ARMS):
    """Per arm: (valid pulls, pulls), from a left-to-right rescan of the window."""
    valid = {a: 0 for a in arms}
    pulls = {a: 0 for a in arms}
    for arm, reward in window:
        if arm in pulls:
            pulls[arm] += 1
            valid[arm] += int(reward)
    return {a: (valid[a], pulls[a]) for a in arms}


def brute_force_select(window, arms, rng):
    """Thompson sampling written out: one Beta(valid + 1, pulls - valid + 1)
    draw per arm in the order given, and the first arm with the largest."""
    if len(arms) == 1:
        return arms[0]
    draws = [rng.beta(v + 1, n - v + 1) for v, n in window_counts(window, arms).values()]
    return arms[draws.index(max(draws))]


def assert_selects_like_brute_force(state, arms, seed):
    # Same arm from same-seed generators, which are left in the same place.
    rng, oracle = RngStream(seed), RngStream(seed)
    assert select_arm(state, arms, rng) is brute_force_select(list(state.window), arms, oracle)
    assert rng.random() == oracle.random()


class _Tied:
    """A stand-in generator whose every Beta draw is 0.5; it records the draws' parameters."""

    def __init__(self):
        self.calls = []

    def beta(self, a, b):
        self.calls.append((a, b))
        return 0.5


class TestSelectArm:
    def test_cold_start_picks_first(self):
        # An empty window draws every arm from the uniform prior Beta(1, 1);
        # equal draws go to the first arm in enum order.
        rng = _Tied()
        assert select_arm(BanditState(), ARMS, rng) is Arm.UNIFORM
        assert rng.calls == [(1, 1)] * 3

    def test_unpulled_arm_is_explored(self):
        # Four valid uniform pulls and one invalid PC_POSITIVE pull: the
        # unpulled PC_NEGATIVE still wins some draws, and uniform most.
        state = BanditState()
        for _ in range(4):
            state.update(Arm.UNIFORM, 1.0)
        state.update(Arm.PC_POSITIVE, 0.0)
        picks = [select_arm(state, ARMS, RngStream(seed)) for seed in range(400)]
        assert 0 < picks.count(Arm.PC_NEGATIVE) < picks.count(Arm.UNIFORM)
        assert state.posterior_means() == (5 / 6, 1 / 3, 1 / 2)

    def test_equal_counts_argmax_of_means(self):
        state = BanditState()
        for _ in range(10):
            state.update(Arm.UNIFORM, 0.0)
            state.update(Arm.PC_POSITIVE, 1.0)
            state.update(Arm.PC_NEGATIVE, 0.0)
        assert {select_arm(state, ARMS, RngStream(seed)) for seed in range(200)} == {Arm.PC_POSITIVE}

    def test_matches_brute_force_on_random_windows(self):
        rng = RngStream(7)
        for trial in range(1000):
            state = BanditState(window_size=int(rng.integers(1, 40)))
            k = int(rng.integers(0, 80))
            for _ in range(k):
                arm = Arm(int(rng.integers(0, 3)))
                state.update(arm, float(rng.integers(0, 2)))
            assert_selects_like_brute_force(state, ARMS, trial)

    def test_restricted_arms(self):
        state = BanditState()
        state.update(Arm.PC_POSITIVE, 1.0)
        assert select_arm(state, (Arm.UNIFORM,), RngStream(0)) is Arm.UNIFORM
        assert select_arm(state, (Arm.UNIFORM, Arm.PC_NEGATIVE), _Tied()) is Arm.UNIFORM

    def test_one_arm_draws_nothing(self):
        state = BanditState()
        state.update(Arm.UNIFORM, 0.0)
        rng = _Tied()
        assert select_arm(state, (Arm.UNIFORM,), rng) is Arm.UNIFORM
        assert rng.calls == []
        g = RngStream(3)
        select_arm(state, (Arm.UNIFORM,), g)
        assert g.random() == RngStream(3).random()

    def test_infinite_exploration(self):
        # Fixed degenerate rewards must not starve any arm: every arm is
        # pulled in every 10^4-round block over 10^5 rounds.
        state = BanditState()
        rng = RngStream(11)
        block_counts = []
        counts = {a: 0 for a in Arm}
        for i in range(10**5):
            arm = select_arm(state, ARMS, rng)
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


class TestTracePosteriorMeans:
    def test_trace_columns_are_the_window_posterior_means(self, monkeypatch):
        # Each trace row carries every arm's posterior mean after its pull,
        # (valid + 1) / (pulls + 2) over the last WINDOW_SIZE pulls, bit for
        # bit, and the trace document writes them in the three columns after
        # the tree size.
        arm_of = {tag: arm for arm, tag in TAG_FOR_ARM.items()}
        monkeypatch.setattr(bandit, "WINDOW_SIZE", 16)
        params = PlannerParams(timeout=1e9, max_iterations=600)
        result = mab_rrt_plan(generate_tunnel_scene(15.0), params, RngStream(3006), record_trace=True)
        rows = trace_document(result)["rows"]
        assert len(rows) == len(result.trace) > 2 * 16
        window = deque(maxlen=16)
        for row, doc_row in zip(result.trace, rows):
            window.append((arm_of[row.arm], row.reward))
            want = tuple((v + 1) / (n + 2) for v, n in window_counts(window).values())
            assert row.posterior_means == want
            assert doc_row[6:9] == list(want)


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
        assert state.pulls == {Arm.UNIFORM: 3, Arm.PC_POSITIVE: 0, Arm.PC_NEGATIVE: 0}

    def test_window_stats_exclude_evicted(self):
        state = BanditState(window_size=2)
        state.update(Arm.UNIFORM, 1.0)
        state.update(Arm.PC_POSITIVE, 1.0)
        state.update(Arm.PC_POSITIVE, 1.0)
        # Uniform's pull was evicted; its posterior is the prior's again.
        assert state.posterior_means() == (0.5, 0.75, 0.5)

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


def rescan_means(state, arms=ARMS):
    """Posterior means (valid + 1) / (pulls + 2) from a rescan of the window."""
    return tuple((v + 1) / (n + 2) for v, n in window_counts(state.window, arms).values())


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
                assert state.posterior_means(arms) == rescan_means(state, arms)
        assert state.posterior_means(arms) == rescan_means(state, arms)
        assert_selects_like_brute_force(state, arms, len(pushes))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(list(Arm)), rewards), max_size=300),
           st.lists(st.tuples(st.sampled_from(list(Arm)), rewards), max_size=100))
    def test_counters_derived_from_given_window(self, prefill, pushes):
        state = BanditState(window_size=32)
        for arm, reward in prefill:
            state.update(arm, reward)
        assert state.posterior_means() == rescan_means(state)
        for arm, reward in pushes:
            state.update(arm, reward)
        assert state.posterior_means() == rescan_means(state)

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
        for i, (arm, reward) in enumerate(pushes):
            state.update(arm, reward)
            assert state.posterior_means(arms) == rescan_means(state, arms)
            assert_selects_like_brute_force(state, arms, i)

    def test_planner_like_stream(self):
        rng = RngStream(5)
        state = BanditState()
        for _ in range(5000):
            arm = select_arm(state, ARMS, rng)
            # Mostly invalid cylinder pulls and mostly valid uniform ones.
            valid = rng.uniform() < (0.7 if arm is Arm.UNIFORM else 0.1)
            state.update(arm, compute_reward(valid))
            assert state.posterior_means() == rescan_means(state)

    def test_zero_length_window_rejected(self):
        with pytest.raises(ValueError):
            BanditState(window_size=0)
