import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import stats

from narrowpass import (CylinderSpec, orthonormal_basis, principal_axis,
                        recalibrate_axis, sample_cylinder)
from narrowpass import pca
from narrowpass.pca import DegenerateAxisError, sample_cylinder_with_height
from narrowpass.rng import RngStream


def batch_axis_oracle(samples, origin, ref=None):
    """Dense eigendecomposition of the full displacement moment matrix."""
    disp = np.asarray(samples, float) - origin
    m = disp.T @ disp / len(disp)
    w, v = np.linalg.eigh(m)
    vec = v[:, -1]
    if ref is not None and vec @ ref < 0:
        vec = -vec
    return vec


class TestPrincipalAxis:
    def test_collinear(self):
        ax = principal_axis(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]), np.zeros(2))
        assert np.allclose(ax.axis, [1.0, 0.0], atol=1e-12)

    def test_single_sample(self):
        ax = principal_axis(np.array([[0.0, 5.0]]), np.zeros(2))
        assert np.allclose(ax.axis, [0.0, 1.0], atol=1e-12)

    def test_dense_oracle_value(self):
        # Frozen from the eigendecomposition of the exact moment matrix
        # [[15, 15.6], [15.6, 16.24]] / 4.
        samples = np.array([[1.0, 1.0], [2.0, 2.0], [-1.0, -1.0], [3.0, 3.2]])
        ax = principal_axis(samples, np.zeros(2))
        oracle = batch_axis_oracle(samples, np.zeros(2), ref=ax.axis)
        assert np.allclose(ax.axis, oracle, atol=1e-12)
        assert np.allclose(ax.axis, [0.6929241498828132, 0.7210104774600816], atol=1e-9)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateAxisError):
            principal_axis(np.zeros((3, 2)), np.zeros(2))

    def test_mirrored_data_same_axis_up_to_sign(self):
        rng = RngStream(1)
        samples = rng.gen.standard_normal((20, 3)) @ np.diag([3.0, 1.0, 0.5])
        mirrored = np.concatenate([samples, -samples])
        a = principal_axis(samples, np.zeros(3)).axis
        b = principal_axis(mirrored, np.zeros(3)).axis
        assert np.allclose(a, b, atol=1e-9) or np.allclose(a, -b, atol=1e-9)

    def test_sign_points_toward_mean_displacement(self):
        samples = np.array([[1.0, 0.1], [2.0, -0.1], [3.0, 0.0]])
        ax = principal_axis(samples, np.zeros(2))
        assert ax.axis @ samples.mean(axis=0) > 0

    @settings(max_examples=300, deadline=None)
    @given(dim=st.integers(1, 8), rows=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(-6.0, 6.0), rank=st.integers(0, 8))
    def test_leading_eigvec_bit_identical_to_eigh(self, dim, rows, seed, scale, rank):
        # principal_axis takes np.linalg.eigh's leading eigenvector of the
        # moment sum, up to sign. Moment matrices of rank 0 to full, so zero
        # and repeated eigenvalues occur.
        disp = RngStream(seed).gen.standard_normal((rows, dim)) * 10.0 ** scale
        disp[:, min(rank, dim):] = 0.0
        if not disp.any():
            with pytest.raises(DegenerateAxisError):
                principal_axis(disp, np.zeros(dim))
            return
        vec = np.linalg.eigh(disp.T @ disp)[1][:, -1]
        got = principal_axis(disp, np.zeros(dim)).axis
        assert got.tobytes() in (vec.tobytes(), (-vec).tobytes())


class TestRecalibrate:
    def test_sign_consistency(self):
        ax = principal_axis(np.array([[1.0, 0.0], [2.0, 0.05]]), np.zeros(2))
        # Adding mass in the opposite half-space must not flip the axis.
        for q in ([-3.0, -0.1], [-4.0, 0.2], [-5.0, -0.3]):
            prev = ax.axis
            ax = recalibrate_axis(ax, np.array(q))
            assert float(ax.axis @ prev) >= 0
        assert float(ax.axis @ np.array([1.0, 0.0])) > 0

    def test_collinear_update_keeps_axis(self):
        ax = principal_axis(np.array([[1.0, 0.0], [2.0, 0.0]]), np.zeros(2))
        ax2 = recalibrate_axis(ax, np.array([4.0, 0.0]))
        assert np.allclose(ax2.axis, [1.0, 0.0], atol=1e-12)

    def test_never_negative_dot_with_predecessor(self):
        # S is positive semidefinite, so a·(S·a) >= 0 for every power step.
        rng = RngStream(2)
        for dim in range(2, 9):
            ax = principal_axis(rng.gen.standard_normal((1, dim)), np.zeros(dim))
            for _ in range(200):
                q = rng.gen.standard_normal(dim) * 10.0 ** rng.gen.uniform(-3, 3)
                new = recalibrate_axis(ax, q)
                assert float(new.axis @ ax.axis) >= 0
                assert abs(float(new.axis @ new.axis) - 1.0) <= 1e-12
                ax = new

    def test_noisy_stream_tracks_direction(self):
        # 50 samples along (0.6, 0.8) with small orthogonal noise; the final
        # axis must sit within 5 degrees, with no sign flip along the way.
        direction = np.array([0.6, 0.8])
        ortho = np.array([-0.8, 0.6])
        rng = RngStream(3)
        samples = [(1.0 + 0.1 * i) * direction + 0.05 * rng.gen.standard_normal() * ortho
                   for i in range(50)]
        ax = principal_axis(np.array(samples[:1]), np.zeros(2))
        for q in samples[1:]:
            prev = ax.axis
            ax = recalibrate_axis(ax, q)
            assert float(ax.axis @ prev) >= 0
        angle = math.degrees(math.acos(min(1.0, abs(float(ax.axis @ direction)))))
        assert angle < 5.0
        oracle = batch_axis_oracle(samples, np.zeros(2), ref=ax.axis)
        assert np.allclose(ax.axis, oracle, atol=1e-6)

    @pytest.mark.parametrize("dim", [2, 4, 12])
    def test_incremental_matches_batch(self, dim):
        # One power step per sample tracks the leading eigenvector; steps
        # that add no displacement (the origin itself) then converge to the
        # batch eigenvector of the whole stream, here elongated 3:1 along
        # its first coordinate, within 1e-6.
        rng = RngStream(4 + dim)
        stretch = np.ones(dim)
        stretch[0] = 3.0
        pts = rng.gen.standard_normal((60, dim)) * stretch
        ax = principal_axis(pts[:5], np.zeros(dim))
        for q in pts[5:]:
            ax = recalibrate_axis(ax, q)
        oracle = batch_axis_oracle(pts, np.zeros(dim), ref=ax.axis)
        for _ in range(40):
            ax = recalibrate_axis(ax, np.zeros(dim))
        assert ax.count == 100 and np.allclose(ax.axis, oracle, atol=1e-6)

    def test_zero_step_keeps_axis(self):
        # S·a = 0 (here S = 0) leaves the axis as it was.
        a = np.array([0.6, 0.8])
        ax = pca.PrincipalAxis(axis=a, origin=np.zeros(2), count=1, disp_sum=np.zeros(2), outer_sum=np.zeros((2, 2)))
        assert recalibrate_axis(ax, np.zeros(2)).axis is a

    @pytest.mark.parametrize("k", [-30, -7, -1, 1, 5, 30])
    def test_power_of_two_scaling_gives_identical_bits(self, k):
        # Scaling every sample and the origin by 2**k scales S by 4**k and S·a
        # by 4**k, exactly, and the step divides it out: the same axis bits.
        rng = RngStream(17)
        stretch = np.array([3.0, 1.0, 0.5])
        origin = rng.gen.standard_normal(3)
        burn_in = origin + rng.gen.standard_normal((8, 3)) * stretch
        stream = origin + rng.gen.standard_normal((40, 3)) * stretch
        ax = principal_axis(burn_in, origin)
        scaled = principal_axis(burn_in * 2.0 ** k, origin * 2.0 ** k)
        assert scaled.axis.tobytes() == ax.axis.tobytes()
        for q in stream:
            ax = recalibrate_axis(ax, q)
            scaled = recalibrate_axis(scaled, q * 2.0 ** k)
            assert scaled.axis.tobytes() == ax.axis.tobytes()


signed_components = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e100, 1e100))


class TestMomentsMatchNpOuter:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.lists(signed_components, min_size=n, max_size=n),
        st.lists(st.lists(signed_components, min_size=n, max_size=n), min_size=1, max_size=8))))
    def test_outer_sum(self, case):
        # recalibrate_axis adds d[:, None] * d; np.outer(d, d) is the reference.
        origin, samples = np.array(case[0]), np.array(case[1])
        ax = principal_axis(2.0 * origin + 1.0, origin)
        outer, disp = ax.outer_sum, ax.disp_sum
        for q in samples:
            ax = recalibrate_axis(ax, q)
            d = q - origin
            outer, disp = outer + np.outer(d, d), disp + d
            assert ax.outer_sum.tobytes() == outer.tobytes()
            assert ax.disp_sum.tobytes() == disp.tobytes()


class TestOrthonormalBasis:
    def test_canonical_axis(self):
        q = orthonormal_basis(np.array([0.0, 0.0, 1.0]))
        assert q.shape == (3, 2)
        assert np.allclose(q.T @ np.array([0.0, 0.0, 1.0]), 0.0, atol=1e-12)
        assert np.allclose(q.T @ q, np.eye(2), atol=1e-12)

    def test_2d_complement(self):
        q = orthonormal_basis(np.array([1.0, 0.0]))
        assert q.shape == (2, 1)
        assert np.allclose(np.abs(q[:, 0]), [0.0, 1.0], atol=1e-12)

    def test_random_5d_gram(self):
        rng = RngStream(5)
        for _ in range(1000):
            a = rng.gen.standard_normal(5)
            if np.linalg.norm(a) < 1e-9:
                continue
            q = orthonormal_basis(a)
            assert np.max(np.abs(q.T @ q - np.eye(4))) < 1e-9
            assert np.max(np.abs(q.T @ a)) < 1e-9 * np.linalg.norm(a)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateAxisError):
            orthonormal_basis(np.zeros(3))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda n: st.lists(
               st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1.0, 1.0)), min_size=n, max_size=n)),
           st.floats(-3.0, 3.0))
    def test_orthonormal_and_orthogonal_in_2_to_8d(self, components, scale):
        a = np.array(components) * 10.0 ** scale
        assume(a.dot(a) > 1e-200)
        q = orthonormal_basis(a)
        n = len(a)
        assert q.shape == (n, n - 1)
        assert np.max(np.abs(q.T @ q - np.eye(n - 1)), initial=0.0) <= 1e-12
        assert np.max(np.abs(q.T @ (a / np.linalg.norm(a))), initial=0.0) <= 1e-12

    def test_columns_of_householder_reflection(self):
        # Columns 2..N of H = I - 2vv^T/v^Tv, v = q + sign(q0)·e1, which maps
        # the unit q to -sign(q0)·e1.
        rng = RngStream(13)
        for n in range(2, 9):
            for k in range(20):
                a = rng.gen.standard_normal(n)
                if k % 4 == 0:
                    a[0] = -0.0 if k % 8 else 0.0
                q = a / np.linalg.norm(a)
                v = q + math.copysign(1.0, q[0]) * np.eye(n)[0]
                h = np.eye(n) - 2.0 * np.outer(v, v) / v.dot(v)
                assert np.allclose(orthonormal_basis(a), h[:, 1:], rtol=0.0, atol=1e-15)
                assert np.allclose(h @ q, -math.copysign(1.0, q[0]) * np.eye(n)[0], rtol=0.0, atol=1e-12)


def axis3(direction=(1.0, 0.0, 0.0), origin=(0.0, 0.0, 0.0)):
    d = np.asarray(direction, float)
    return principal_axis(np.array([d, 2 * d]), np.asarray(origin, float))


def reference_sample_cylinder(spec, rng):
    """The sampler written with numpy arrays, Generator.uniform draws and its
    center as origin + direction * h·a. The offset is pca._reflect's, which
    TestCachedComplement.test_matches_orthonormal_basis compares with the matrix frame."""
    a = spec.axis.axis
    n = a.shape[0]
    h = float(rng.gen.uniform(spec.h_min, spec.h_max))
    u = float(rng.gen.uniform(0.0, 1.0))
    t = rng.gen.standard_normal(n - 1)
    tn = math.sqrt(math.fsum(x * x for x in t.tolist()))
    if tn == 0.0:
        t, tn = np.eye(n - 1)[0], 1.0
    b = spec.radius * u ** (1.0 / (n - 1)) / tn * t
    return spec.axis.origin + spec.direction * (h * a) + np.array(pca._reflect(a.tolist(), b.tolist())), h


class TestCachedComplement:
    """The complement frame the cylinder sampler offsets along. It is no
    longer cached: the sampler rebuilds it from the unit axis on every draw.
    These check what one shared frame per axis stood for: it is the frame of
    orthonormal_basis, the same for a and -a, and both directions use it."""

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), recalibrations=st.integers(0, 5),
           scale=st.floats(-6.0, 6.0))
    def test_matches_orthonormal_basis(self, dim, seed, recalibrations, scale):
        # The axes the planner samples around: eigenvectors, recalibrated.
        rng = RngStream(seed)
        stretch = np.linspace(3.0, 1.0, dim)
        ax = principal_axis(rng.gen.standard_normal((3, dim)) * stretch, np.zeros(dim))
        for _ in range(recalibrations):
            ax = recalibrate_axis(ax, rng.gen.standard_normal(dim) * stretch)
        b = rng.gen.standard_normal(dim - 1) * 10.0 ** scale
        got = np.array(pca._reflect(ax.axis.tolist(), b.tolist()))
        want = orthonormal_basis(ax.axis) @ b
        assert np.max(np.abs(got - want)) <= 1e-12 * np.linalg.norm(b)

    def test_reflect_sums_exactly(self):
        # c's dot product v·[0, b] is the correctly rounded sum on every
        # Python: before 3.12 the built-in sum is not compensated and gives
        # 1e16 + 1.0 - 1e16 = 0.0 here.
        a, b = [0.5, 1e16, 1.0, -1e16], [1.0, 1.0, 1.0]
        c = math.fsum([1e16, 1.0, -1e16]) / 1.5
        assert c == 1.0 / 1.5
        assert pca._reflect(a, b) == [-c * 1.5, *[y - c * x for x, y in zip(a[1:], b)]]

    def test_zero_vector_rejected(self):
        # A vector whose squared norm underflows to 0 is as degenerate as 0.
        for a in (np.zeros(3), np.array([1e-200, 0.0, -1e-200])):
            with pytest.raises(DegenerateAxisError):
                orthonormal_basis(a)

    def test_both_directions_share_one_entry(self):
        ax = axis3(direction=(0.6, 0.0, 0.8), origin=(1.0, -2.0, 0.5))
        # At height 0 both centers are the origin, so both draws coincide.
        draws = [CylinderSpec(axis=ax, direction=d, h_min=0.0, h_max=0.0, radius=0.5).sample(RngStream(1))[0]
                 for d in (+1, -1)]
        assert draws[0] == draws[1] and np.array(draws[0]).tobytes() == np.array(draws[1]).tobytes()
        # At height 2 the offsets from the two centers agree.
        offsets = []
        for d in (+1, -1):
            spec = CylinderSpec(axis=ax, direction=d, h_min=2.0, h_max=2.0, radius=0.5)
            q, h = spec.sample(RngStream(1))
            offsets.append(q - ax.origin - d * h * ax.axis)
        assert np.max(np.abs(offsets[0] - offsets[1])) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e3, 1e3)), min_size=2, max_size=8)
           .filter(lambda v: np.dot(v, v) > 0),
           st.integers(0, 2**32 - 1))
    def test_frame_of_negated_vector_is_identical(self, components, seed):
        # Why the sampler may build one frame for both directions.
        q = np.array(components)
        assert orthonormal_basis(-q).tobytes() == orthonormal_basis(q).tobytes()
        a = (q / math.sqrt(q.dot(q))).tolist()
        b = RngStream(seed).gen.standard_normal(len(a) - 1).tolist()
        # Equal values; a zero component may differ in sign.
        assert pca._reflect([-x for x in a], b) == pca._reflect(a, b)


class TestCylinderSampler:
    @settings(max_examples=300, deadline=None)
    @given(case=st.integers(2, 6).flatmap(lambda n: st.tuples(
               st.lists(st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1.0, 1.0)), min_size=n, max_size=n)
               .filter(lambda v: np.dot(v, v) > 1e-200),
               st.lists(st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e3, 1e3)), min_size=n, max_size=n))),
           h=st.floats(0.0, 1e3), radius=st.one_of(st.just(0.0), st.floats(0.0, 10.0)),
           direction=st.sampled_from([+1, -1]), seed=st.integers(0, 2**32 - 1))
    # h·a's squared norm underflows to 0.
    @example(case=([0.0, 1.0], [0.0, 0.0]), h=7.5e-289, radius=1.0, direction=1, seed=0)
    def test_signed_center_matches_direction_product(self, case, h, radius, direction, seed):
        # origin ± h·a against origin + direction * h·a, ±0.0 components and
        # h = 0 (a center of signed zeros) included.
        axis, origin = np.array(case[0]), np.array(case[1])
        n = len(axis)
        ax = pca.PrincipalAxis(axis=axis / math.sqrt(axis.dot(axis)), origin=origin, count=1,
                               disp_sum=np.zeros(n), outer_sum=np.zeros((n, n)))
        spec = CylinderSpec(axis=ax, direction=direction, h_min=h, h_max=h, radius=radius)
        got, h_got = sample_cylinder_with_height(ax, direction, h, h, radius, RngStream(seed))
        want, h_want = reference_sample_cylinder(spec, RngStream(seed))
        assert np.array(got).tobytes() == want.tobytes() and repr(h_got) == repr(h_want)

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
           h_min=st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
           h_width=st.one_of(st.just(0.0), st.floats(1e-9, 1e6)),
           radius=st.one_of(st.just(0.0), st.floats(1e-6, 1e3)))
    # h == 0: the center is origin ± 0.0·a.
    @example(dim=5, seed=232, h_min=0.0, h_width=0.0, radius=1.0)
    def test_matches_reference_byte_for_byte(self, dim, seed, h_min, h_width, radius):
        rng = RngStream(seed)
        ax = principal_axis(rng.gen.standard_normal((3, dim)) * np.linspace(3.0, 1.0, dim),
                            rng.gen.standard_normal(dim))
        specs = [CylinderSpec(axis=ax, direction=d, h_min=h_min, h_max=h_min + h_width, radius=radius)
                 for d in (+1, -1)]
        got_rng, ref_rng = RngStream(seed + 1), RngStream(seed + 1)
        # Both directions in turn.
        for i in range(20):
            got, h = specs[i % 2].sample(got_rng)
            want, h_ref = reference_sample_cylinder(specs[i % 2], ref_rng)
            assert type(got) is tuple and np.array(got).tobytes() == want.tobytes()
            assert repr(h) == repr(h_ref)

    def test_infinite_height_rejected(self):
        with pytest.raises(ValueError):
            CylinderSpec(axis=axis3(), direction=+1, h_min=0.0, h_max=math.inf, radius=1.0)

    def test_zero_radius_fixed_height(self):
        spec = CylinderSpec(axis=axis3(), direction=+1, h_min=2.0, h_max=2.0, radius=0.0)
        q = sample_cylinder(spec, RngStream(1))
        assert np.allclose(q, [2.0, 0.0, 0.0], atol=1e-12)

    def test_2d_disc(self):
        ax = principal_axis(np.array([[0.0, 1.0], [0.0, 2.0]]), np.zeros(2))
        spec = CylinderSpec(axis=ax, direction=+1, h_min=1.0, h_max=1.0, radius=0.5)
        for seed in range(50):
            q = sample_cylinder(spec, RngStream(seed))
            assert q[1] == pytest.approx(1.0, abs=1e-12)
            assert abs(q[0]) <= 0.5

    def test_negative_direction(self):
        spec = CylinderSpec(axis=axis3(), direction=-1, h_min=1.0, h_max=2.0, radius=0.0)
        q = sample_cylinder(spec, RngStream(2))
        assert -2.0 <= q[0] <= -1.0

    def test_bounds_invariants(self):
        # Axial coordinate in [h_min, h_max], radial distance <= R, always.
        spec = CylinderSpec(axis=axis3(), direction=+1, h_min=1.0, h_max=2.0, radius=1.0)
        rng = RngStream(3)
        for _ in range(2000):
            q, h = spec.sample(rng)
            assert 1.0 <= h <= 2.0
            assert 1.0 - 1e-12 <= q[0] <= 2.0 + 1e-12
            assert np.linalg.norm(q[1:]) <= 1.0 + 1e-12

    def test_statistics(self):
        # Uniform disc of radius R has mean radial distance 2R/3; axial
        # heights are uniform (10-bin chi-square).
        spec = CylinderSpec(axis=axis3(), direction=+1, h_min=1.0, h_max=2.0, radius=1.0)
        rng = RngStream(4)
        n = 10**4
        radial = np.empty(n)
        axial = np.empty(n)
        for i in range(n):
            q, h = spec.sample(rng)
            axial[i] = q[0]
            radial[i] = np.linalg.norm(q[1:])
        se = radial.std(ddof=1) / math.sqrt(n)
        assert abs(radial.mean() - 2.0 / 3.0) < 3 * se
        counts, _ = np.histogram(axial, bins=10, range=(1.0, 2.0))
        assert stats.chisquare(counts).pvalue > 0.01
