import math
from operator import mul

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import stats

from narrowpass import principal_axis, recalibrate_axis, sample_cylinder_with_height
from narrowpass import pca
from narrowpass.pca import DegenerateAxisError
from narrowpass.rng import RngStream


def bits(x) -> bytes:
    """The bytes of a tuple of floats (or an array), so that == tells -0.0 from 0.0."""
    return np.asarray(x, dtype=float).tobytes()


def orthonormal_basis(a) -> np.ndarray:
    """N x (N-1) matrix whose columns are orthonormal and orthogonal to a:
    columns 2..N of the Householder reflection H = I - 2vv^T/v^Tv with
    v = q + sign(q0)·e1, q = a/|a|, which maps q to -sign(q0)·e1. The
    oracle for pca._reflect, which applies the same H to [0, b]."""
    v = np.array(a, dtype=float)
    norm = math.sqrt(v.dot(v))
    if norm == 0.0:
        raise DegenerateAxisError("cannot build a basis orthogonal to the zero vector")
    v /= norm
    v[0] += math.copysign(1.0, v[0])
    return np.eye(len(v))[:, 1:] - (2.0 / v.dot(v)) * np.outer(v, v[1:])


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
        samples = rng.standard_normal((20, 3)) @ np.diag([3.0, 1.0, 0.5])
        mirrored = np.concatenate([samples, -samples])
        a = principal_axis(samples, np.zeros(3)).axis
        b = principal_axis(mirrored, np.zeros(3)).axis
        # The mirrored moments are exactly twice the others, so the same bits
        # up to sign.
        assert bits(b) in (bits(a), bits(np.negative(a)))

    def test_sign_points_toward_mean_displacement(self):
        samples = np.array([[1.0, 0.1], [2.0, -0.1], [3.0, 0.0]])
        ax = principal_axis(samples, np.zeros(2))
        assert ax.axis @ samples.mean(axis=0) > 0

    @settings(max_examples=300, deadline=None)
    @given(dim=st.integers(1, 8), rows=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(-6.0, 6.0), rank=st.integers(0, 8))
    def test_rayleigh_quotient_matches_eigh(self, dim, rows, seed, scale, rank):
        # The axis is a unit vector whose Rayleigh quotient a·S·a is the
        # largest eigenvalue np.linalg.eigh finds. Moment matrices of rank 0
        # to full, so zero and repeated eigenvalues occur.
        disp = RngStream(seed).standard_normal((rows, dim)) * 10.0 ** scale
        disp[:, min(rank, dim):] = 0.0
        if not disp.any():
            with pytest.raises(DegenerateAxisError):
                principal_axis(disp, np.zeros(dim))
            return
        s = disp.T @ disp
        top = np.linalg.eigvalsh(s)[-1]
        a = np.array(principal_axis(disp, np.zeros(dim)).axis)
        assert abs(a @ a - 1.0) <= 1e-15
        assert abs(a @ s @ a - top) <= 1e-13 * top

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(1, 8), rows=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    def test_sample_order_gives_identical_bits(self, dim, rows, seed):
        # Each moment is one math.fsum, correctly rounded whatever the order.
        g = RngStream(seed)
        origin = g.standard_normal(dim)
        samples = origin + g.standard_normal((rows, dim)) * np.linspace(3.0, 1.0, dim)
        ax = principal_axis(samples, origin)
        shuffled = principal_axis(samples[g.permutation(rows)], origin)
        assert bits(shuffled.axis) == bits(ax.axis)
        assert bits(shuffled.outer_sum) == bits(ax.outer_sum)

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(1, 8), rows=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
           k=st.integers(-30, 30))
    def test_power_of_two_scaling_gives_identical_bits(self, dim, rows, seed, k):
        # Scaling the samples and the origin by 2**k scales S by 4**k
        # exactly, and Jacobi's rotations and stopping rule divide it out.
        g = RngStream(seed)
        origin = g.standard_normal(dim)
        samples = origin + g.standard_normal((rows, dim)) * np.linspace(3.0, 1.0, dim)
        ax = principal_axis(samples, origin)
        scaled = principal_axis(samples * 2.0 ** k, origin * 2.0 ** k)
        assert bits(scaled.axis) == bits(ax.axis)
        assert bits(scaled.outer_sum) == bits(np.array(ax.outer_sum) * 4.0 ** k)

    @pytest.mark.parametrize("rank", [1, 3, 6])
    def test_six_dimensions_stop_before_the_sweep_cap(self, rank):
        # The relative rule ends the sweeps; the cap is only a backstop.
        rng = RngStream(60 + rank)
        for _ in range(20):
            disp = rng.standard_normal((40, 6)) * np.linspace(3.0, 1.0, 6)
            disp[:, rank:] = 0.0
            s = principal_axis(disp, np.zeros(6)).outer_sum
            values, vectors, sweeps = pca._jacobi(s)
            assert sweeps <= 10 < pca.JACOBI_MAX_SWEEPS
            v = np.array(vectors)
            assert np.max(np.abs(v @ v.T - np.eye(6))) <= 1e-14
            assert np.max(np.abs(v @ np.array(s) @ v.T - np.diag(values))) <= 1e-13 * max(values)


class TestRecalibrate:
    def test_sign_consistency(self):
        ax = principal_axis(np.array([[1.0, 0.0], [2.0, 0.05]]), np.zeros(2))
        # Adding mass in the opposite half-space must not flip the axis.
        for q in ([-3.0, -0.1], [-4.0, 0.2], [-5.0, -0.3]):
            prev = ax.axis
            ax = recalibrate_axis(ax, np.array(q))
            assert np.dot(ax.axis, prev) >= 0
        assert ax.axis[0] > 0

    def test_collinear_update_keeps_axis(self):
        ax = principal_axis(np.array([[1.0, 0.0], [2.0, 0.0]]), np.zeros(2))
        ax2 = recalibrate_axis(ax, np.array([4.0, 0.0]))
        assert np.allclose(ax2.axis, [1.0, 0.0], atol=1e-12)

    def test_never_negative_dot_with_predecessor(self):
        # S is positive semidefinite, so a·(S·a) >= 0 for every power step.
        rng = RngStream(2)
        for dim in range(2, 9):
            ax = principal_axis(rng.standard_normal((1, dim)), np.zeros(dim))
            for _ in range(200):
                q = rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3)
                new = recalibrate_axis(ax, q)
                assert np.dot(new.axis, ax.axis) >= 0
                assert abs(np.dot(new.axis, new.axis) - 1.0) <= 1e-12
                ax = new

    def test_noisy_stream_tracks_direction(self):
        # 50 samples along (0.6, 0.8) with small orthogonal noise; the final
        # axis must sit within 5 degrees, with no sign flip along the way.
        direction = np.array([0.6, 0.8])
        ortho = np.array([-0.8, 0.6])
        rng = RngStream(3)
        samples = [(1.0 + 0.1 * i) * direction + 0.05 * rng.standard_normal() * ortho
                   for i in range(50)]
        ax = principal_axis(np.array(samples[:1]), np.zeros(2))
        for q in samples[1:]:
            prev = ax.axis
            ax = recalibrate_axis(ax, q)
            assert np.dot(ax.axis, prev) >= 0
        angle = math.degrees(math.acos(min(1.0, abs(np.dot(ax.axis, direction)))))
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
        pts = rng.standard_normal((60, dim)) * stretch
        ax = principal_axis(pts[:5], np.zeros(dim))
        for q in pts[5:]:
            ax = recalibrate_axis(ax, q)
        oracle = batch_axis_oracle(pts, np.zeros(dim), ref=ax.axis)
        for _ in range(40):
            ax = recalibrate_axis(ax, np.zeros(dim))
        assert np.allclose(ax.axis, oracle, atol=1e-6)

    def test_zero_step_keeps_axis(self):
        # S·a = 0 (here S = 0) leaves the axis as it was.
        a = (0.6, 0.8)
        ax = pca.PrincipalAxis(axis=a, origin=(0.0, 0.0), outer_sum=((0.0, 0.0), (0.0, 0.0)))
        assert recalibrate_axis(ax, (0.0, 0.0)).axis is a

    def test_fields_cannot_be_assigned(self):
        ax = principal_axis(np.array([[1.0, 0.0], [2.0, 0.5]]), np.zeros(2))
        nxt = recalibrate_axis(ax, (3.0, 1.0))
        for name in pca.PrincipalAxis._fields:
            with pytest.raises(AttributeError):
                setattr(nxt, name, getattr(ax, name))
        assert nxt.origin is ax.origin

    def test_dimension_mismatch_rejected(self):
        ax = principal_axis(np.array([[1.0, 0.0]]), np.zeros(2))
        with pytest.raises(ValueError, match="dimension mismatch"):
            recalibrate_axis(ax, (1.0, 2.0, 3.0))

    @pytest.mark.parametrize("k", [-30, -7, -1, 1, 5, 30])
    def test_power_of_two_scaling_gives_identical_bits(self, k):
        # Scaling every sample and the origin by 2**k scales S by 4**k and S·a
        # by 4**k, exactly, and the step divides it out: the same axis bits.
        rng = RngStream(17)
        stretch = np.array([3.0, 1.0, 0.5])
        origin = rng.standard_normal(3)
        burn_in = origin + rng.standard_normal((8, 3)) * stretch
        stream = origin + rng.standard_normal((40, 3)) * stretch
        ax = principal_axis(burn_in, origin)
        scaled = principal_axis(burn_in * 2.0 ** k, origin * 2.0 ** k)
        assert bits(scaled.axis) == bits(ax.axis)
        for q in stream:
            ax = recalibrate_axis(ax, q)
            scaled = recalibrate_axis(scaled, q * 2.0 ** k)
            assert bits(scaled.axis) == bits(ax.axis)


signed_components = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e100, 1e100))


class TestMomentsMatchNpOuter:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.lists(signed_components, min_size=n, max_size=n),
        st.lists(st.lists(signed_components, min_size=n, max_size=n), min_size=1, max_size=8))))
    @example(case=([-1.0], [[0.0]]))
    def test_outer_sum(self, case):
        # recalibrate_axis adds d_i·d_j to each entry in Python floats;
        # np.outer(d, d) is the reference. The seed sample moves every
        # component of the origin by max(|o|, 1), so its displacement is
        # never zero and principal_axis has a direction to take.
        origin, samples = np.array(case[0]), np.array(case[1])
        ax = principal_axis(origin + np.maximum(np.abs(origin), 1.0), origin)
        outer = np.array(ax.outer_sum)
        for q in samples:
            ax = recalibrate_axis(ax, q)
            d = q - origin
            outer = outer + np.outer(d, d)
            assert bits(ax.outer_sum) == bits(outer)


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
            a = rng.standard_normal(5)
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
                a = rng.standard_normal(n)
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


def reference_sample_cylinder(axis, direction, h_min, h_max, radius, rng):
    """The sampler written with numpy arrays, Generator.uniform draws and its
    center as origin + direction * h·a. The offset is pca._reflect's, which
    TestCachedComplement.test_matches_orthonormal_basis compares with the matrix frame."""
    a = np.array(axis.axis)
    n = a.shape[0]
    h = float(rng.uniform(h_min, h_max))
    u = float(rng.uniform(0.0, 1.0))
    t = rng.standard_normal(n - 1)
    tn = math.sqrt(math.fsum(x * x for x in t.tolist()))
    if tn == 0.0:
        t, tn = np.eye(n - 1)[0], 1.0
    b = radius * u ** (1.0 / (n - 1)) / tn * t
    return np.array(axis.origin) + direction * (h * a) + np.array(pca._reflect(a.tolist(), b.tolist()))


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
        ax = principal_axis(rng.standard_normal((3, dim)) * stretch, np.zeros(dim))
        for _ in range(recalibrations):
            ax = recalibrate_axis(ax, rng.standard_normal(dim) * stretch)
        b = rng.standard_normal(dim - 1) * 10.0 ** scale
        got = np.array(pca._reflect(ax.axis, b.tolist()))
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
        draws = [sample_cylinder_with_height(ax, d, 0.0, 0.0, 0.5, RngStream(1)) for d in (+1, -1)]
        assert bits(draws[0]) == bits(draws[1])
        # At height 2 the offsets from the two centers agree.
        offsets = []
        for d in (+1, -1):
            q = sample_cylinder_with_height(ax, d, 2.0, 2.0, 0.5, RngStream(1))
            offsets.append(np.array(q) - ax.origin - d * 2.0 * np.array(ax.axis))
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
        b = RngStream(seed).standard_normal(len(a) - 1).tolist()
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
        axis = np.array(case[0])
        n = len(axis)
        ax = pca.PrincipalAxis(axis=tuple((axis / math.sqrt(axis.dot(axis))).tolist()), origin=tuple(case[1]),
                               outer_sum=((0.0,) * n,) * n)
        got = sample_cylinder_with_height(ax, direction, h, h, radius, RngStream(seed))
        want = reference_sample_cylinder(ax, direction, h, h, radius, RngStream(seed))
        assert type(got[0]) is float and bits(got) == bits(want)

    @settings(max_examples=200, deadline=None)
    @given(dim=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
           h_min=st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
           h_width=st.one_of(st.just(0.0), st.floats(1e-9, 1e6)),
           radius=st.one_of(st.just(0.0), st.floats(1e-6, 1e3)))
    # h == 0: the center is origin ± 0.0·a.
    @example(dim=5, seed=232, h_min=0.0, h_width=0.0, radius=1.0)
    def test_matches_reference_byte_for_byte(self, dim, seed, h_min, h_width, radius):
        rng = RngStream(seed)
        ax = principal_axis(rng.standard_normal((3, dim)) * np.linspace(3.0, 1.0, dim),
                            rng.standard_normal(dim))
        args = [(ax, d, h_min, h_min + h_width, radius) for d in (+1, -1)]
        got_rng, ref_rng = RngStream(seed + 1), RngStream(seed + 1)
        # Both directions in turn.
        for i in range(20):
            got = sample_cylinder_with_height(*args[i % 2], got_rng)
            want = reference_sample_cylinder(*args[i % 2], ref_rng)
            assert type(got) is tuple and bits(got) == bits(want)

    @pytest.mark.parametrize("direction", [(0.6, 0.8), (0.36, 0.48, 0.8)])
    @pytest.mark.parametrize("f, u", [(0.25, 0.5), (0.0, 0.9), (0.75, 0.0)])
    def test_zero_normal_draw_takes_the_first_frame_vector(self, direction, f, u):
        # Every normal draw 0.0: the ball direction falls back to the first
        # complement vector, so the radial distance is radius·u^(1/(N-1)).
        class ZeroNormals:
            def __init__(self):
                self._uniform = iter((f, u))

            def random(self):
                return next(self._uniform)

            def standard_normal(self):
                return 0.0

        n, h_min, h_max, radius = len(direction), 1.5, 4.0, 2.0
        origin = np.linspace(-1.0, 1.0, n)
        ax = principal_axis(np.array([direction, 2 * np.array(direction)]) + origin, origin)
        q = np.array(sample_cylinder_with_height(ax, +1, h_min, h_max, radius, ZeroNormals())) - origin
        a = np.array(ax.axis)
        height = q @ a
        assert height == pytest.approx(h_min + (h_max - h_min) * f, abs=1e-12)
        assert np.linalg.norm(q - height * a) == pytest.approx(radius * u ** (1.0 / (n - 1)), abs=1e-12)

    def test_zero_radius_fixed_height(self):
        q = sample_cylinder_with_height(axis3(), +1, 2.0, 2.0, 0.0, RngStream(1))
        assert np.allclose(q, [2.0, 0.0, 0.0], atol=1e-12)

    def test_2d_disc(self):
        ax = principal_axis(np.array([[0.0, 1.0], [0.0, 2.0]]), np.zeros(2))
        for seed in range(50):
            q = sample_cylinder_with_height(ax, +1, 1.0, 1.0, 0.5, RngStream(seed))
            assert q[1] == pytest.approx(1.0, abs=1e-12)
            assert abs(q[0]) <= 0.5

    def test_negative_direction(self):
        q = sample_cylinder_with_height(axis3(), -1, 1.0, 2.0, 0.0, RngStream(2))
        assert -2.0 <= q[0] <= -1.0

    def test_bounds_invariants(self):
        # Axial coordinate, the height along the axis (1, 0, 0) from the
        # origin, in [h_min, h_max], radial distance <= R, always.
        ax, rng = axis3(), RngStream(3)
        for _ in range(2000):
            q = sample_cylinder_with_height(ax, +1, 1.0, 2.0, 1.0, rng)
            assert 1.0 - 1e-12 <= q[0] <= 2.0 + 1e-12
            assert np.linalg.norm(q[1:]) <= 1.0 + 1e-12

    def test_statistics(self):
        # Uniform disc of radius R has mean radial distance 2R/3; axial
        # heights are uniform (10-bin chi-square).
        ax, rng = axis3(), RngStream(4)
        n = 10**4
        radial = np.empty(n)
        axial = np.empty(n)
        for i in range(n):
            q = sample_cylinder_with_height(ax, +1, 1.0, 2.0, 1.0, rng)
            axial[i] = q[0]
            radial[i] = np.linalg.norm(q[1:])
        se = radial.std(ddof=1) / math.sqrt(n)
        assert abs(radial.mean() - 2.0 / 3.0) < 3 * se
        counts, _ = np.histogram(axial, bins=10, range=(1.0, 2.0))
        assert stats.chisquare(counts).pvalue > 0.01
