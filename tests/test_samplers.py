import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from narrowpass import (Bounds, is_state_valid, sample_bridge, sample_gaussian_obstacle, sample_near_obstacle,
                        sample_sphere_batch, sample_uniform, samplers)
from narrowpass.rng import RngStream
from narrowpass.scale_search import ScaleParams
from narrowpass.samplers import GOLDEN_ANGLE, NEAR_OBSTACLE_STEP_FRACTION, _fibonacci_circle, _uniform_on_sphere

from conftest import contains, make_box_scene

import conftest  # noqa: F401  (fixtures)


class TestUniform:
    def test_membership_deterministic(self):
        bounds = Bounds([0.0, 0.0], [1.0, 1.0])
        a = sample_uniform(bounds, RngStream(5))
        b = sample_uniform(bounds, RngStream(5))
        assert np.array_equal(a, b)
        assert contains(bounds, a)[0]

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
        assert contains(bounds, q)[0]

    def test_matches_generator_uniform_bit_for_bit(self):
        # sample_uniform must draw exactly what Generator.uniform(lo, hi) draws.
        draw = RngStream(17)
        for i in range(300):
            dim = 1 + i % 8
            span = 10.0 ** draw.uniform(-10.0, 6.0, dim)
            lo = draw.standard_normal(dim) * 10.0 ** draw.uniform(-10.0, 6.0, dim)
            bounds = Bounds(lo, np.maximum(lo + span, np.nextafter(lo, np.inf)))
            mine, ref = RngStream(i), RngStream(i)
            for _ in range(20):
                q = sample_uniform(bounds, mine)
                assert type(q) is tuple and np.array(q).tobytes() == ref.uniform(bounds.lo, bounds.hi).tobytes()


JITTER = ScaleParams().jitter  # the lattice jitter the scale search passes


class TestSphereBatch:
    def test_surface_membership(self):
        pts = sample_sphere_batch(np.zeros(2), 1.0, 4, JITTER, RngStream(1))
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_surface_invariant(self, dim):
        pts = sample_sphere_batch(np.ones(dim), 3.0, 64, JITTER, RngStream(2))
        radii = np.linalg.norm(pts - np.ones(dim), axis=1)
        assert np.all(np.abs(radii - 3.0) < 1e-9 * 3.0)

    def test_determinism(self):
        a = sample_sphere_batch(np.zeros(3), 2.0, 64, JITTER, RngStream(9))
        b = sample_sphere_batch((0.0, 0.0, 0.0), 2.0, 64, JITTER, RngStream(9))
        assert np.array_equal(a, b)

    def test_2d_lattice_golden_angle_gaps(self):
        # Odd indices hold the lattice; consecutive lattice angles differ by
        # the golden angle 2*pi*(1 - 1/phi) exactly when jitter is zero.
        pts = sample_sphere_batch(np.zeros(2), 1.0, 64, 0.0, RngStream(3))
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

        lattice = sample_sphere_batch(np.zeros(3), 1.0, 128, 0.0, RngStream(4))[1::2]
        lattice_sep = min_angular_sep(lattice)

        rng = RngStream(1234)
        seps = []
        for _ in range(1000):
            v = rng.standard_normal((64, 3))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            seps.append(min_angular_sep(v))
        assert lattice_sep > np.percentile(seps, 5)

    def test_jitter_stays_on_sphere(self):
        pts = sample_sphere_batch(np.zeros(3), 1.0, 64, math.pi / 8, RngStream(5))
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-9)

    def test_jitter_moves_lattice(self):
        a = sample_sphere_batch(np.zeros(3), 1.0, 64, 0.0, RngStream(6))
        b = sample_sphere_batch(np.zeros(3), 1.0, 64, math.pi / 8, RngStream(6))
        assert not np.allclose(a[1::2], b[1::2])

    def test_high_dim_uniform_fallback(self):
        pts = sample_sphere_batch(np.zeros(6), 1.0, 64, JITTER, RngStream(7))
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-9)

    def test_one_dimensional_uniform_directions(self):
        # No lattice in 1-D: every point is a uniform draw, at center +- radius.
        pts = sample_sphere_batch((2.0,), 0.5, 64, JITTER, RngStream(7))
        assert set(np.round(pts[:, 0], 12)) == {1.5, 2.5}


def reference_fibonacci_circle(count, jitter, rng):
    """The lattice as first written: Generator.uniform jitter and column_stack."""
    angles = np.arange(count) * GOLDEN_ANGLE
    if jitter > 0:
        angles = angles + rng.uniform(-jitter, jitter, size=count)
    return np.column_stack([np.cos(angles), np.sin(angles)])


def reference_uniform_on_sphere(n, dim, rng):
    v = rng.standard_normal((n, dim))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return v / norms


def reference_fibonacci_sphere(count, jitter, rng):
    """The 3-D lattice and its Rodrigues jitter with np.linalg.norm."""
    i = np.arange(count)
    z = 1.0 - 2.0 * (i + 0.5) / count
    phi = i * GOLDEN_ANGLE
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.column_stack([s * np.cos(phi), s * np.sin(phi), z])
    if jitter > 0:
        raw = rng.standard_normal((count, 3))
        tangent = raw - np.einsum("ij,ij->i", raw, pts)[:, None] * pts
        norms = np.linalg.norm(tangent, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        k = tangent / norms
        theta = rng.uniform(-jitter, jitter, size=count)[:, None]
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        pts = pts * cos_t + np.cross(k, pts) * sin_t + k * np.einsum("ij,ij->i", k, pts)[:, None] * (1.0 - cos_t)
    return pts


def reference_sphere_batch(center, radius, count, jitter, rng):
    """sample_sphere_batch with np.linalg.norm, column assignment and
    center + radius * dirs."""
    dim = len(center)
    if dim not in (2, 3):
        dirs = reference_uniform_on_sphere(count, dim, rng)
    else:
        uni = reference_uniform_on_sphere((count + 1) // 2, dim, rng)
        lattice = reference_fibonacci_circle if dim == 2 else reference_fibonacci_sphere
        dirs = np.empty((count, dim))
        dirs[0::2] = uni
        dirs[1::2] = lattice(count // 2, jitter, rng)
    return np.asarray(center, dtype=float) + radius * dirs


class TestSphereBatchMatchesReference:
    # Radii from 2**-30 to 2**30, powers of two and not, around centers that
    # are not round.
    RADII = [m * 2.0 ** k for k in (-30, -11, 0, 7, 30) for m in (1.0, 1.37)]

    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("count", [1, 2, 7, 64, 65])
    @pytest.mark.parametrize("jitter", [0.0, math.pi / 8])
    def test_byte_for_byte(self, dim, count, jitter):
        for seed, radius in enumerate(self.RADII):
            center = tuple(np.random.default_rng(seed).uniform(-50.0, 50.0, dim).tolist())
            got_rng, ref_rng = RngStream(seed), RngStream(seed)
            got = sample_sphere_batch(center, radius, count, jitter, got_rng)
            want = reference_sphere_batch(center, radius, count, jitter, ref_rng)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert got_rng.random() == ref_rng.random()  # the same draws were taken

    def test_cached_lattice_angles_refuse_writes(self):
        sample_sphere_batch((0.0, 0.0), 1.0, 64, 0.0, RngStream(0))
        angles = samplers._golden_angles(32)
        with pytest.raises(ValueError, match="read-only"):
            angles[0] = 1.0
        assert angles.tobytes() == (np.arange(32) * GOLDEN_ANGLE).tobytes()


class TestSphereDirectionsMatchReference:
    @settings(max_examples=200, deadline=None)
    @given(count=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
           jitter=st.one_of(st.just(0.0), st.just(math.pi / 8), st.floats(1e-300, 1e3)))
    def test_fibonacci_circle(self, count, jitter, seed):
        got_rng, ref_rng = RngStream(seed), RngStream(seed)
        got = _fibonacci_circle(count, jitter, got_rng)
        want = reference_fibonacci_circle(count, jitter, ref_rng)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got_rng.random() == ref_rng.random()  # the same draws were taken

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 100), dim=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_uniform_on_sphere(self, n, dim, seed):
        got = _uniform_on_sphere(n, dim, RngStream(seed))
        assert got.tobytes() == reference_uniform_on_sphere(n, dim, RngStream(seed)).tobytes()


class FixedDraws:
    """Stands in for a Generator that returns the given draws."""

    def __init__(self, uniform, normal):
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
        assert (got is None) == (want is None) == (not contains(scene.bounds, q2)[0])
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
