import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from narrowpass import (Bounds, SphereBatchSpec, is_state_valid, sample_bridge,
                        sample_gaussian_obstacle, sample_near_obstacle,
                        sample_sphere_batch, sample_uniform)
from narrowpass.rng import RngStream
from narrowpass.samplers import GOLDEN_ANGLE, NEAR_OBSTACLE_STEP_FRACTION, _fibonacci_circle, _uniform_on_sphere

from conftest import make_box_scene

import conftest  # noqa: F401  (fixtures)


class TestUniform:
    def test_membership_deterministic(self):
        bounds = Bounds([0.0, 0.0], [1.0, 1.0])
        a = sample_uniform(bounds, RngStream(5))
        b = sample_uniform(bounds, RngStream(5))
        assert np.array_equal(a, b)
        assert bounds.contains(np.array(a))[0]

    def test_moments(self):
        # Per-axis mean of U(0,1) is 0.5 with sigma = 1/sqrt(12 n).
        bounds = Bounds([0.0, 0.0], [1.0, 1.0])
        rng = RngStream(42)
        n = 10**5
        pts = np.array([sample_uniform(bounds, rng) for _ in range(n)])
        sigma = 1.0 / math.sqrt(12 * n)
        assert np.all(np.abs(pts.mean(axis=0) - 0.5) < 3 * sigma)

    def test_tight_bounds(self):
        bounds = Bounds([2.0, 2.0], [2.0 + 1e-9, 2.0 + 1e-9])
        q = sample_uniform(bounds, RngStream(0))
        assert bounds.contains(np.array(q))[0]

    def test_matches_generator_uniform_bit_for_bit(self):
        # sample_uniform must draw exactly what Generator.uniform(lo, hi) draws.
        draw = RngStream(17).gen
        for i in range(300):
            dim = 1 + i % 8
            span = 10.0 ** draw.uniform(-10.0, 6.0, dim)
            lo = draw.standard_normal(dim) * 10.0 ** draw.uniform(-10.0, 6.0, dim)
            bounds = Bounds(lo, np.maximum(lo + span, np.nextafter(lo, np.inf)))
            mine, ref = RngStream(i), RngStream(i)
            for _ in range(20):
                q = sample_uniform(bounds, mine)
                assert type(q) is tuple and np.array(q).tobytes() == ref.gen.uniform(bounds.lo, bounds.hi).tobytes()


class TestSphereBatch:
    def test_surface_membership(self):
        spec = SphereBatchSpec(np.zeros(2), 1.0, 4)
        pts = sample_sphere_batch(spec, RngStream(1))
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_surface_invariant(self, dim):
        spec = SphereBatchSpec(np.ones(dim), 3.0, 64)
        pts = sample_sphere_batch(spec, RngStream(2))
        radii = np.linalg.norm(pts - np.ones(dim), axis=1)
        assert np.all(np.abs(radii - 3.0) < 1e-9 * 3.0)

    def test_determinism(self):
        spec = SphereBatchSpec(np.zeros(3), 2.0, 64)
        a = sample_sphere_batch(spec, RngStream(9))
        b = sample_sphere_batch(spec, RngStream(9))
        assert np.array_equal(a, b)

    def test_2d_lattice_golden_angle_gaps(self):
        # Odd indices hold the lattice; consecutive lattice angles differ by
        # the golden angle 2*pi*(1 - 1/phi) exactly when jitter is zero.
        spec = SphereBatchSpec(np.zeros(2), 1.0, 64, jitter=0.0)
        pts = sample_sphere_batch(spec, RngStream(3))
        lattice = pts[1::2]
        angles = np.arctan2(lattice[:, 1], lattice[:, 0])
        gaps = np.diff(angles) % (2 * math.pi)
        assert np.allclose(gaps, GOLDEN_ANGLE % (2 * math.pi), atol=1e-9)

    def test_3d_lattice_better_spread_than_uniform(self):
        # Monte Carlo oracle: the lattice half's minimum pairwise angular
        # separation beats the 5th percentile of i.i.d. uniform point sets.
        def min_angular_sep(pts):
            cos = np.clip(pts @ pts.T, -1.0, 1.0)
            np.fill_diagonal(cos, -1.0)
            return float(np.arccos(cos.max()))

        spec = SphereBatchSpec(np.zeros(3), 1.0, 128, jitter=0.0)
        lattice = sample_sphere_batch(spec, RngStream(4))[1::2]
        lattice_sep = min_angular_sep(lattice)

        rng = RngStream(1234)
        seps = []
        for _ in range(1000):
            v = rng.gen.standard_normal((64, 3))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            seps.append(min_angular_sep(v))
        assert lattice_sep > np.percentile(seps, 5)

    def test_jitter_stays_on_sphere(self):
        spec = SphereBatchSpec(np.zeros(3), 1.0, 64, jitter=math.pi / 8)
        pts = sample_sphere_batch(spec, RngStream(5))
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-9)

    def test_jitter_moves_lattice(self):
        a = sample_sphere_batch(SphereBatchSpec(np.zeros(3), 1.0, 64, jitter=0.0), RngStream(6))
        b = sample_sphere_batch(SphereBatchSpec(np.zeros(3), 1.0, 64, jitter=math.pi / 8), RngStream(6))
        assert not np.allclose(a[1::2], b[1::2])

    def test_high_dim_uniform_fallback(self):
        spec = SphereBatchSpec(np.zeros(6), 1.0, 64)
        pts = sample_sphere_batch(spec, RngStream(7))
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-9)

    def test_one_dimensional_uniform_directions(self):
        # No lattice in 1-D: every point is a uniform draw, at center +- radius.
        pts = sample_sphere_batch(SphereBatchSpec(np.array([2.0]), 0.5, 64), RngStream(7))
        assert set(np.round(pts[:, 0], 12)) == {1.5, 2.5}


def reference_fibonacci_circle(count, jitter, rng):
    """The lattice as first written: Generator.uniform jitter and column_stack."""
    angles = np.arange(count) * GOLDEN_ANGLE
    if jitter > 0:
        angles = angles + rng.gen.uniform(-jitter, jitter, size=count)
    return np.column_stack([np.cos(angles), np.sin(angles)])


def reference_uniform_on_sphere(n, dim, rng):
    v = rng.gen.standard_normal((n, dim))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return v / norms


class TestSphereDirectionsMatchReference:
    @settings(max_examples=200, deadline=None)
    @given(count=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
           jitter=st.one_of(st.just(0.0), st.just(math.pi / 8), st.floats(1e-300, 1e3)))
    def test_fibonacci_circle(self, count, jitter, seed):
        got_rng, ref_rng = RngStream(seed), RngStream(seed)
        got = _fibonacci_circle(count, jitter, got_rng)
        want = reference_fibonacci_circle(count, jitter, ref_rng)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got_rng.gen.random() == ref_rng.gen.random()  # the same draws were taken

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 100), dim=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_uniform_on_sphere(self, n, dim, seed):
        got = _uniform_on_sphere(n, dim, RngStream(seed))
        assert got.tobytes() == reference_uniform_on_sphere(n, dim, RngStream(seed)).tobytes()


class FixedDraws:
    """Stands in for an RngStream whose generator returns the given draws."""

    def __init__(self, uniform, normal):
        self.gen = self
        self._uniform, self._normal = np.array(uniform), np.array(normal)

    def random(self, size):
        return self._uniform.copy()

    def standard_normal(self, size):
        return self._normal.copy()


def reference_gaussian_obstacle(scene, q1, q2):
    """The sampler's decision as first written, with Bounds' numpy test."""
    if not all(((q2 >= scene.bounds.lo) & (q2 <= scene.bounds.hi)).tolist()):
        return None
    v1, v2 = is_state_valid(scene, q1), is_state_valid(scene, q2)
    return None if v1 == v2 else (q1 if v1 else q2)


class TestGaussianObstacle:
    @pytest.mark.parametrize("normal", [
        [5.0, 0.0], [-5.0, 0.0], [0.0, 5.0], [0.0, -5.0], [5.0, 5.0], [-5.0, -5.0],  # faces, corners
        [math.nextafter(5.0, 6.0), 0.0], [math.nextafter(-5.0, -6.0), 0.0],  # just outside
        [0.0, math.nextafter(5.0, 6.0)], [math.nextafter(5.0, 4.0), 0.0]])
    def test_bounds_faces_match_reference(self, normal):
        # q1 = (5, 5) lies in a box, so a q2 inside the closed bounds is
        # returned and one outside them is rejected.
        scene = make_box_scene([((4, 4), (6, 6))], start=(1, 1), bounds=((0, 0), (10, 10)))
        q1 = np.array([5.0, 5.0])
        q2 = q1 + 1.0 * np.array(normal)
        got = sample_gaussian_obstacle(scene, 1.0, FixedDraws([0.5, 0.5], normal))
        want = reference_gaussian_obstacle(scene, q1, q2)
        assert (got is None) == (want is None) == (not scene.bounds.contains(q2)[0])
        if want is not None:
            assert np.array(got).tobytes() == want.tobytes() == q2.tobytes()

    def test_empty_world_always_empty(self, empty_scene):
        rng = RngStream(1)
        assert all(sample_gaussian_obstacle(empty_scene, 1.0, rng) is None for _ in range(100))

    def test_fully_blocked_always_empty(self):
        scene = make_box_scene([((-10, -10), (10, 10))], start=(-11, -11),
                               bounds=((-12, -12), (12, 12)))
        # Whole inner region is one box; pairs drawn inside it are both invalid.
        rng = RngStream(2)
        hits = [sample_gaussian_obstacle(scene, 0.1, rng) for _ in range(200)]
        assert all(h is None or not (np.all(np.abs(h) <= 10)) for h in hits)

    def test_boundary_concentration(self):
        # Half-plane x >= 0 blocked; accepted samples concentrate near x = 0.
        scene = make_box_scene([((0, -10), (10, 10))], start=(-5, 0))
        rng = RngStream(3)
        xs = []
        for _ in range(10**4):
            q = sample_gaussian_obstacle(scene, 1.0, rng)
            if q is not None:
                xs.append(abs(q[0]))
        assert len(xs) > 100
        assert np.mean(xs) < 5.0

    def test_returns_only_valid(self, box_scene):
        rng = RngStream(4)
        for _ in range(500):
            q = sample_gaussian_obstacle(box_scene, 2.0, rng)
            if q is not None:
                assert is_state_valid(box_scene, q)


class TestBridge:
    def test_empty_world_always_empty(self, empty_scene):
        rng = RngStream(1)
        assert all(sample_bridge(empty_scene, 1.0, rng) is None for _ in range(100))

    def test_slit_concentration(self):
        # Two slabs leave a 1-unit vertical slit; accepted midpoints lie in it.
        scene = make_box_scene([((-10, -10), (-0.5, 10)), ((0.5, -10), (10, 10))],
                               start=(0, 0))
        rng = RngStream(2)
        accepted = []
        while len(accepted) < 1000:
            q = sample_bridge(scene, 2.0, rng)
            if q is not None:
                accepted.append(q)
        in_slit = sum(abs(q[0]) <= 0.5 for q in accepted)
        assert in_slit / len(accepted) > 0.9

    def test_returns_only_valid(self, box_scene):
        rng = RngStream(5)
        for _ in range(500):
            q = sample_bridge(box_scene, 2.0, rng)
            if q is not None:
                assert is_state_valid(box_scene, q)


class TestNearObstacle:
    def test_empty_world_exhausts_retries(self, empty_scene):
        assert sample_near_obstacle(empty_scene, RngStream(1)) is None

    def test_boundary_convergence(self, box_scene):
        # Accepted samples sit outside the box [-1, 1]^2, within one bisection step of it.
        step = NEAR_OBSTACLE_STEP_FRACTION * box_scene.bounds.diagonal
        rng = RngStream(2)
        found = 0
        for _ in range(200):
            q = sample_near_obstacle(box_scene, rng)
            if q is None:
                continue
            found += 1
            gap = np.linalg.norm(np.maximum(np.abs(q) - 1.0, 0.0))
            assert 0.0 < gap <= step
        assert found > 50
