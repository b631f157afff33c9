import math

import numpy as np
import pytest

from narrowpass import (Bounds, GoalSpec, PlannerParams, Scene, check_motion,
                        find_entropy_scale, mab_rrt_plan)
from narrowpass import scale_search
from narrowpass.scale_search import ALPHA_MAX, ALPHA_MIN, BATCH_SIZE, GROW, MAX_STEPS, R0, R_MAX, R_MIN, SHRINK
from narrowpass.cspace import Box, motions_valid_fan
from narrowpass.rng import RngStream
from narrowpass.scenes import generate_tunnel_scene

from conftest import make_box_scene

import conftest  # noqa: F401


def monte_carlo_alpha(scene, q0, radius, n, seed):
    """Independent validity-rate oracle: uniform directions, per-segment
    motion checks through the public predicate."""
    rng = RngStream(seed)
    hits = 0
    for _ in range(n):
        d = rng.standard_normal(scene.dimension)
        d /= np.linalg.norm(d)
        hits += check_motion(scene, q0, q0 + radius * d)
    return hits / n


class TestConstants:
    @pytest.mark.parametrize("gap", [5.0, 10.0, 15.0])
    def test_radii_resolve_to_the_tunnel_lengths(self, gap):
        diagonal = generate_tunnel_scene(gap).bounds.diagonal
        assert (R0 * diagonal, R_MIN * diagonal, R_MAX * diagonal) == (1.0, 1e-6, 25.0)

    def test_constants_describe_a_search(self):
        # A band inside (0, 1], a shrink that shrinks and a grow that grows,
        # a start inside the clamp, and integer counts.
        assert 0.0 < ALPHA_MIN < ALPHA_MAX <= 1.0
        assert SHRINK > 1.0 and GROW > 1.0
        assert 0.0 < R_MIN <= R0 <= R_MAX
        assert type(BATCH_SIZE) is type(MAX_STEPS) is int and BATCH_SIZE >= 2 and MAX_STEPS >= 1


class TestFindEntropyScale:
    def test_enclosed_start_shrinks_to_clamp(self):
        # Free pocket smaller than the radius clamp: every batch at any
        # representable radius is fully invalid, so the search shrinks to the
        # clamp without converging.
        w = 1e-7  # pocket half-width; w·sqrt(2) is below r_min, 2e-7 on this diagonal
        scene = make_box_scene(
            [((-10, -10), (10, -w)), ((-10, w), (10, 10)),
             ((-10, -w), (-w, w)), ((w, -w), (10, w))],
            start=(0, 0))
        res = find_entropy_scale(scene, scene.start, RngStream(1))
        assert not res.converged
        assert res.r_star == R_MIN * scene.bounds.diagonal

    def test_open_scene_grows_to_clamp(self):
        scene = Scene(name="open", bounds=Bounds([-1000.0, -1000.0], [1000.0, 1000.0]),
                      start=np.zeros(2), goal=GoalSpec("escape", threshold=500.0))
        res = find_entropy_scale(scene, scene.start, RngStream(2))
        assert not res.converged
        assert res.r_star == R_MAX * scene.bounds.diagonal == 25.0 * 20.0
        assert len(res.valid_samples) == BATCH_SIZE  # the batch at the clamp

    def test_grow_clamp_keeps_samples_for_mab_rrt(self):
        # Obstacle-free 80x80 scene, escape goal past r_max: every batch is
        # valid, so the search grows r = 0.8, 0.8·e^0.7, ... and stops at its
        # first batch at r_max = 20 (step 6), keeping that batch, and MAB-RRT
        # keeps its cylinder arms.
        scene = Scene(name="open80", bounds=Bounds([-40.0, -40.0], [40.0, 40.0]),
                      start=np.zeros(2), goal=GoalSpec("escape", threshold=30.0))
        res = find_entropy_scale(scene, scene.start, RngStream(2))
        assert len(res.history) == 6
        assert [a for _, a in res.history] == [1.0] * 6
        assert res.r_star == R_MAX * scene.bounds.diagonal == 20.0
        assert not res.converged
        assert len(res.valid_samples) == BATCH_SIZE
        result = mab_rrt_plan(scene, PlannerParams(timeout=5.0), RngStream(2))
        assert result.diagnostics == []
        assert len(result.scale_result.valid_samples) == BATCH_SIZE

    def test_step_budget_returns_the_last_measured_radius(self, monkeypatch):
        # Both batches at the gap-5 start are mostly valid, so the search
        # grows and runs out of steps; r* is the last radius it measured, not
        # the next one it would have tried.
        monkeypatch.setattr(scale_search, "MAX_STEPS", 2)
        scene = generate_tunnel_scene(5.0)
        res = find_entropy_scale(scene, scene.start, RngStream(0))
        assert not res.converged and len(res.history) == 2
        assert [a for _, a in res.history] == [1.0, 0.96875]
        assert res.r_star == res.history[-1][0] == math.exp(0.7)

    def test_tunnel_converges_to_informative_rate(self):
        scene = generate_tunnel_scene(5.0)
        res = find_entropy_scale(scene, scene.start, RngStream(3))
        assert res.converged
        alpha = monte_carlo_alpha(scene, scene.start, res.r_star, 10**4, seed=99)
        # 95% binomial CI on the oracle estimate must intersect the target band.
        half_ci = 1.96 * math.sqrt(alpha * (1 - alpha) / 10**4)
        assert alpha + half_ci >= 0.1 and alpha - half_ci <= 0.5

    @pytest.mark.parametrize("name, value, message", [
        ("r0", math.nan, "r0"), ("r0", 0.0, "r0"), ("r0", -1.0, "r0"), ("r0", math.inf, "r0"),
    ])
    def test_bad_value_rejected_up_front(self, name, value, message):
        # Refused before the start is checked or anything is drawn.
        rng = RngStream(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            find_entropy_scale(generate_tunnel_scene(5.0), (1e9, 1e9), rng, **{name: value})
        assert rng.bit_generator.state == state

    def test_invalid_start_rejected(self, box_scene):
        with pytest.raises(ValueError):
            find_entropy_scale(box_scene, np.array([0.0, 0.0]), RngStream(0))

    def test_one_dimensional_scene(self):
        # Outside 2-D and 3-D the sphere batch draws uniform directions in
        # place of the lattice; on a free line the search still measures.
        scene = Scene(name="line", bounds=Bounds([-10.0], [10.0]), start=(0.0,),
                      goal=GoalSpec("ball", center=(8.0,), tolerance=1.0))
        res = find_entropy_scale(scene, scene.start, RngStream(0))
        assert res.history

    def test_valid_samples_recheck(self):
        scene = generate_tunnel_scene(10.0)
        res = find_entropy_scale(scene, scene.start, RngStream(4))
        for v in res.valid_samples:
            assert check_motion(scene, scene.start, v)

    def test_history_exact_factors(self):
        scene = generate_tunnel_scene(5.0)
        diagonal = scene.bounds.diagonal
        res = find_entropy_scale(scene, scene.start, RngStream(5))
        radii = [r for r, _ in res.history]
        for a, b in zip(radii[:-1], radii[1:]):
            shrunk = max(a / SHRINK, R_MIN * diagonal)
            grown = min(a * GROW, R_MAX * diagonal)
            assert b in (shrunk, grown)

    @pytest.mark.parametrize("gap", [5.0, 10.0, 15.0])
    def test_robust_to_initial_radius(self, gap):
        # Both extreme starting radii, 1e-6 and 25 on the tunnels, converge
        # to radii within a factor of max(shrink, grow)**2 of each other.
        scene = generate_tunnel_scene(gap)
        lo = find_entropy_scale(scene, scene.start, RngStream(6), r0=R_MIN)
        hi = find_entropy_scale(scene, scene.start, RngStream(7), r0=R_MAX)
        assert lo.converged and hi.converged
        factor = max(SHRINK, GROW) ** 2
        ratio = max(lo.r_star, hi.r_star) / min(lo.r_star, hi.r_star)
        assert ratio <= factor

    def test_alpha_monotone_direction(self):
        # Shrinking should raise the validity rate, growing should lower it,
        # confirming the branch directions (binomial CIs must not cross).
        scene = generate_tunnel_scene(5.0)
        res = find_entropy_scale(scene, scene.start, RngStream(8))
        n = 4000
        a_small = monte_carlo_alpha(scene, scene.start, res.r_star / 2, n, seed=10)
        a_large = monte_carlo_alpha(scene, scene.start, 2 * res.r_star, n, seed=11)
        ci = lambda a: 1.96 * math.sqrt(max(a * (1 - a), 1e-9) / n)
        assert a_large - ci(a_large) <= a_small + ci(a_small)

    @pytest.mark.parametrize("batch_size", [2, 3, 7, 64, 100])
    def test_alpha_matches_valid_mean(self, monkeypatch, batch_size):
        # alpha is count_nonzero / len; float(valid.mean()) is the reference.
        fans = []

        def spy(*args):
            fans.append(motions_valid_fan(*args))
            return fans[-1]

        monkeypatch.setattr(scale_search, "motions_valid_fan", spy)
        monkeypatch.setattr(scale_search, "BATCH_SIZE", batch_size)
        scenes = [generate_tunnel_scene(gap) for gap in (5.0, 15.0)]
        scenes.append(make_box_scene([((1, -10), (2, 10))], start=(0, 0)))
        for scene in scenes:
            for seed in range(4):
                fans.clear()
                res = find_entropy_scale(scene, scene.start, RngStream(seed))
                assert len(res.history) == len(fans)
                for (_, alpha), valid in zip(res.history, fans):
                    assert type(alpha) is float and repr(alpha) == repr(float(valid.mean()))
