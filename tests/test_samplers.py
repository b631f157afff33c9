import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from narrowpass import (Bounds, is_state_valid, sample_bridge, sample_gaussian_obstacle, sample_near_obstacle,
                        sample_sphere_batch, sample_uniform, samplers)
from narrowpass.rng import RngStream
from narrowpass.samplers import GOLDEN_ANGLE, NEAR_OBSTACLE_STEP_FRACTION, _uniform_on_sphere

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


class TestSphereBatch:
    def test_surface_membership(self):
        pts = np.array(sample_sphere_batch(np.zeros(2), 1.0, 4, RngStream(1)))
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_surface_invariant(self, dim):
        pts = np.array(sample_sphere_batch(np.ones(dim), 3.0, 64, RngStream(2)))
        radii = np.linalg.norm(pts - np.ones(dim), axis=1)
        assert np.all(np.abs(radii - 3.0) < 1e-9 * 3.0)

    def test_determinism(self):
        a = sample_sphere_batch(np.zeros(3), 2.0, 64, RngStream(9))
        b = sample_sphere_batch((0.0, 0.0, 0.0), 2.0, 64, RngStream(9))
        assert np.array_equal(a, b)

    def test_2d_lattice_golden_angle_gaps(self):
        # One rotation turns every point by the same angle, so consecutive
        # angles still differ by the golden angle 2*pi*(1 - 1/phi).
        pts = np.array(sample_sphere_batch(np.zeros(2), 1.0, 64, RngStream(3)))
        angles = np.arctan2(pts[:, 1], pts[:, 0])
        gaps = np.diff(angles) % (2 * math.pi)
        assert np.allclose(gaps, GOLDEN_ANGLE % (2 * math.pi), atol=1e-9)

    def test_3d_lattice_better_spread_than_uniform(self):
        # Monte Carlo oracle: the lattice's minimum pairwise angular
        # separation beats the 5th percentile of i.i.d. uniform point sets.
        def min_angular_sep(pts):
            cos = np.clip(pts @ pts.T, -1.0, 1.0)
            np.fill_diagonal(cos, -1.0)
            return float(np.arccos(cos.max()))

        lattice_sep = min_angular_sep(np.array(sample_sphere_batch(np.zeros(3), 1.0, 64, RngStream(4))))

        rng = RngStream(1234)
        seps = []
        for _ in range(1000):
            v = rng.standard_normal((64, 3))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            seps.append(min_angular_sep(v))
        assert lattice_sep > np.percentile(seps, 5)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("count", [2, 64])
    def test_seeds_rotate_one_lattice(self, dim, count):
        # Batches of one count from different seeds differ, yet their
        # pairwise dot products agree: the same lattice under two rotations.
        base = np.array(sample_sphere_batch(np.zeros(dim), 1.0, count, RngStream(0)))
        for seed in range(1, 20):
            other = np.array(sample_sphere_batch(np.zeros(dim), 1.0, count, RngStream(seed)))
            assert not np.array_equal(other, base)
            assert np.max(np.abs(other @ other.T - base @ base.T)) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    def test_rotation_is_proper(self, dim):
        for seed in range(200):
            rot = np.array(samplers._random_rotation(dim, RngStream(seed)))
            assert np.max(np.abs(rot @ rot.T - np.eye(dim))) <= 1e-14
            assert abs(np.linalg.det(rot) - 1.0) <= 1e-14

    def test_zero_quaternion_is_the_identity(self):
        rot = samplers._random_rotation(3, FixedDraws([], [0.0, 0.0, 0.0, 0.0]))
        assert rot == [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

    @pytest.mark.parametrize("dim", [2, 3])
    def test_draws_one_rotation(self, dim):
        # 2-D takes one double and 3-D four normals, whatever the count, so
        # the stream continues where a reference generator's does.
        for count in (1, 2, 64, 65):
            got_rng, ref_rng = RngStream(count), RngStream(count)
            sample_sphere_batch(np.zeros(dim), 1.0, count, got_rng)
            ref_rng.random() if dim == 2 else ref_rng.standard_normal(4)
            assert got_rng.random() == ref_rng.random()

    def test_high_dim_uniform_fallback(self):
        pts = np.array(sample_sphere_batch(np.zeros(6), 1.0, 64, RngStream(7)))
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-9)

    def test_one_dimensional_uniform_directions(self):
        # No lattice in 1-D: every point is a uniform draw, at center +- radius.
        pts = np.array(sample_sphere_batch((2.0,), 0.5, 64, RngStream(7)))
        assert set(np.round(pts[:, 0], 12)) == {1.5, 2.5}


def reference_lattice(count, dim):
    """The golden-angle Fibonacci lattice as count points of Python floats."""
    pts = []
    for i in range(count):
        phi = i * GOLDEN_ANGLE
        if dim == 2:
            pts.append((math.cos(phi), math.sin(phi)))
        else:
            z = 1.0 - 2.0 * (i + 0.5) / count
            s = math.sqrt(max(0.0, 1.0 - z * z))
            pts.append((s * math.cos(phi), s * math.sin(phi), z))
    return pts


def reference_rotation(dim, rng):
    """The rotation matrix of the angle 2*pi*u, or of the normalised
    quaternion (w, x, y, z) of four normals, in Python floats."""
    if dim == 2:
        t = 2.0 * math.pi * rng.random()
        return [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]
    w, x, y, z = rng.standard_normal(4).tolist()
    n = math.sqrt(math.fsum([w * w, x * x, y * y, z * z]))
    w, x, y, z = w / n, x / n, y / n, z / n
    return [[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]]


class PinnedRotation:
    """Stands in for a Generator whose rotation draw turns the plane, or
    space about its last axis, by the given angle."""

    def __init__(self, angle):
        self._angle = angle

    def random(self):
        return self._angle / (2.0 * math.pi)

    def standard_normal(self, size):
        assert size == 4
        return np.array([math.cos(self._angle / 2), 0.0, 0.0, math.sin(self._angle / 2)])


def reference_uniform_on_sphere(n, dim, rng):
    v = rng.standard_normal((n, dim))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return v / norms


def reference_sphere_batch(center, radius, count, rng):
    """sample_sphere_batch point by point in Python floats: center + radius
    times the rotated lattice point, its products summed left to right; in
    other dimensions, np.linalg.norm and center + radius * dirs."""
    dim = len(center)
    if dim not in (2, 3):
        return np.asarray(center, dtype=float) + radius * reference_uniform_on_sphere(count, dim, rng)
    rot = reference_rotation(dim, rng)
    pts = []
    for p in reference_lattice(count, dim):
        rotated = []
        for row in rot:
            acc = row[0] * p[0]
            for r, x in zip(row[1:], p[1:]):
                acc = acc + r * x
            rotated.append(acc)
        pts.append([c + radius * x for c, x in zip(center, rotated)])
    return np.array(pts)


class TestSphereBatchMatchesReference:
    # Radii from 2**-30 to 2**30, powers of two and not, around centers that
    # are not round.
    RADII = [m * 2.0 ** k for k in (-30, -11, 0, 7, 30) for m in (1.0, 1.37)]

    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("count", [1, 2, 7, 64, 65])
    @pytest.mark.parametrize("angle", [0.0, math.pi / 8])
    def test_byte_for_byte(self, dim, count, angle):
        # Seeded generators, then, in 2-D and 3-D, draws pinned to a turn by
        # angle about the last axis. Dimensions >= 4 draw no rotation.
        for seed, radius in enumerate(self.RADII):
            center = tuple(np.random.default_rng(seed).uniform(-50.0, 50.0, dim).tolist())
            got_rng, ref_rng = RngStream(seed), RngStream(seed)
            got = sample_sphere_batch(center, radius, count, got_rng)
            assert type(got) is list and all(type(q) is tuple and set(map(type, q)) == {float} for q in got)
            got = np.array(got)
            want = reference_sphere_batch(center, radius, count, ref_rng)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert got_rng.random() == ref_rng.random()  # the same draws were taken
            if dim not in (2, 3):
                continue
            got = np.array(sample_sphere_batch(center, radius, count, PinnedRotation(angle)))
            want = reference_sphere_batch(center, radius, count, PinnedRotation(angle))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            if angle == 0.0:  # the identity leaves the lattice as it is
                lattice = np.array(reference_lattice(count, dim))
                assert got.tobytes() == (np.array(center) + radius * lattice).tobytes()
        if dim in (2, 3):  # every lattice point turns by angle about the last axis, which stays put
            got = np.array(sample_sphere_batch((0.0,) * dim, 1.0, count, PinnedRotation(angle)))
            lattice = np.array(reference_lattice(count, dim))
            turned = np.arctan2(got[:, 1], got[:, 0]) - np.arctan2(lattice[:, 1], lattice[:, 0]) - angle
            assert np.max(np.abs((turned + math.pi) % (2 * math.pi) - math.pi)) <= 1e-12
            assert got[:, 2:].tobytes() == lattice[:, 2:].tobytes()

    def test_cached_lattice_angles_refuse_writes(self):
        sample_sphere_batch((0.0, 0.0), 1.0, 64, RngStream(0))
        lattice = samplers._fibonacci_lattice(64, 2)
        with pytest.raises(TypeError, match="does not support item assignment"):
            lattice[0] = (1.0, 0.0)
        with pytest.raises(TypeError, match="does not support item assignment"):
            lattice[0][0] = 1.0
        assert list(lattice) == reference_lattice(64, 2)


class TestSphereDirectionsMatchReference:
    @settings(max_examples=200, deadline=None)
    @given(count=st.integers(1, 300), dim=st.sampled_from([2, 3]))
    def test_fibonacci_circle(self, count, dim):
        got = samplers._fibonacci_lattice(count, dim)
        assert type(got) is tuple and len(got) == count and all(type(p) is tuple and len(p) == dim for p in got)
        assert np.array(got).tobytes() == np.array(reference_lattice(count, dim)).tobytes()

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
