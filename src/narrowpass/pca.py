"""Principal escape direction and the axis-aligned cylinder sampler.

The escape direction is the leading eigenvector of the second moments of
displacements from the start configuration, taken once by `principal_axis`.
After that it is tracked by power steps: each new valid sample updates the
running moments S, and the axis a becomes S·a / |S·a|. Both run in Python
floats, so no value passes through BLAS or LAPACK.
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple

import numpy as np

from .cspace import as_point

# Cyclic Jacobi skips the rotation of (p, q) once |s_pq| <= JACOBI_TOL ·
# sqrt|s_pp| · sqrt|s_qq|, and stops after a sweep that rotates nothing or
# after JACOBI_MAX_SWEEPS sweeps.
JACOBI_TOL = 2.0 ** -52
JACOBI_MAX_SWEEPS = 32


class DegenerateAxisError(ValueError):
    """No direction can be extracted (all displacements are zero)."""


class PrincipalAxis(NamedTuple):
    """The escape direction and its running moments, all in Python floats."""
    axis: tuple           # unit escape direction
    origin: tuple         # anchor (start configuration)
    outer_sum: tuple      # sum of displacement outer products, as N rows


def principal_axis(samples, origin) -> PrincipalAxis:
    """Leading direction of the displacement second moments about the origin
    of the samples, a sequence of points or an array of rows (one 1-D row is
    one point).

    Each moment is one math.fsum of the rounded products, so S is the same
    bits in any sample order; its leading eigenvector comes from cyclic
    Jacobi (_jacobi). The sign points toward the mean displacement; when the
    mean is orthogonal to the axis, its first nonzero component is positive.
    """
    origin = as_point(origin)
    if isinstance(samples, np.ndarray):
        samples = np.atleast_2d(samples)
    samples = list(map(as_point, samples))
    if not any(samples):  # no points, or points of no coordinates
        raise DegenerateAxisError("no samples")
    if set(map(len, samples)) != {len(origin)}:
        raise ValueError("dimension mismatch")
    cols = [[q[j] - o for q in samples] for j, o in enumerate(origin)]
    outer_sum = [[math.fsum(map(mul, x, y)) for y in cols] for x in cols]
    if not any(map(any, outer_sum)):
        raise DegenerateAxisError("all samples coincide with the origin")
    disp_sum = tuple(map(math.fsum, cols))
    values, vectors, _ = _jacobi(outer_sum)
    vec = vectors[values.index(max(values))]
    norm = math.hypot(*vec)
    vec = [x / norm for x in vec]
    d = math.fsum(map(mul, vec, disp_sum))
    if d < 0 or (d == 0 and next(x for x in vec if x) < 0):
        vec = [-x for x in vec]
    return PrincipalAxis(axis=tuple(vec), origin=origin, outer_sum=tuple(map(tuple, outer_sum)))


def _jacobi(s: list) -> tuple[list, list, int]:
    """Eigenvalues, eigenvectors and sweeps of the symmetric matrix s (N rows
    of Python floats) by cyclic Jacobi (Golub & Van Loan, section 8.5): the
    i-th vector is the i-th row. The rotation of (p, q) zeroes s_pq; its
    tangent t is the smaller root of t² + 2θt - 1 = 0, θ = (s_qq - s_pp) / 2 s_pq.

    θ, t and the cosine and sine are ratios of entries, and every update is
    linear in the entries, so scaling s by 4**k scales the values by 4**k and
    leaves the vectors and the sweeps the same bits. The stopping rule holds
    under that scaling too, since sqrt halves an even power of two exactly.
    """
    a = [list(row) for row in s]
    n = len(a)
    v = [[float(i == j) for j in range(n)] for i in range(n)]
    sweeps = 0
    while sweeps < JACOBI_MAX_SWEEPS:
        sweeps += 1
        rotated = False
        for p in range(n - 1):
            ap = a[p]
            for q in range(p + 1, n):
                aq = a[q]
                apq = ap[q]
                if abs(apq) <= JACOBI_TOL * math.sqrt(abs(ap[p])) * math.sqrt(abs(aq[q])):
                    continue
                rotated = True
                theta = (aq[q] - ap[p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                sn = t * c
                for k in range(n):
                    if k != p and k != q:
                        akp, akq = ap[k], aq[k]
                        ap[k] = a[k][p] = c * akp - sn * akq
                        aq[k] = a[k][q] = sn * akp + c * akq
                ap[p] -= t * apq
                aq[q] += t * apq
                ap[q] = aq[p] = 0.0
                vp, vq = v[p], v[q]
                v[p] = [c * x - sn * y for x, y in zip(vp, vq)]
                v[q] = [sn * x + c * y for x, y in zip(vp, vq)]
        if not rotated:
            break
    return [a[i][i] for i in range(n)], v, sweeps


def recalibrate_axis(prev: PrincipalAxis, new_sample) -> PrincipalAxis:
    """Fold one displacement into the running moments S and take one power
    step from the previous axis: a <- S·a / |S·a|, or a kept when S·a = 0.

    S is positive semidefinite, so a·(S·a) >= 0: the axis never turns
    against its predecessor, and there is no sign to fix.
    """
    a, origin, outer_sum = prev
    q = as_point(new_sample)
    if len(q) != len(origin):
        raise ValueError("dimension mismatch")
    d = [x - o for x, o in zip(q, origin)]
    outer_sum = tuple([tuple([s + x * y for s, y in zip(row, d)]) for row, x in zip(outer_sum, d)])
    sa = [math.fsum(map(mul, row, a)) for row in outer_sum]
    norm = math.hypot(*sa)
    return PrincipalAxis(a if norm == 0.0 else tuple([x / norm for x in sa]), origin, outer_sum)


def _reflect(a: list[float], b: list[float]) -> list[float]:
    """H·[0, b] in O(N) floats, for the Householder reflection
    H = I - 2vv^T/v^Tv with v = a + sign(a0)·e1 of a unit vector a, which
    maps a to -sign(a0)·e1, so that columns 2..N of H are an orthonormal
    basis orthogonal to a: [0, b] - c·v with c = 2 v·[0, b] / v^Tv, where v
    shares a's components from the second on. For a unit vector,
    v^Tv = 2 (1 + |a0|), so c = v·[0, b] / (1 + |a0|)."""
    a0, *rest = a
    c = math.fsum(map(mul, rest, b)) / (1.0 + abs(a0))
    return [-c * (a0 + math.copysign(1.0, a0)), *[y - c * x for x, y in zip(rest, b)]]


def sample_cylinder_with_height(axis: PrincipalAxis, direction: int, h_min: float, h_max: float,
                                radius: float, rng: np.random.Generator) -> tuple:
    """Uniform sample in the cylinder of the given radius around the signed
    axis, at heights h_min to h_max from its origin. direction is +1 along
    the axis and -1 against it. The arguments are unchecked: the planner
    passes 0 <= h_min <= h_max < inf and a radius >= 0."""
    a = axis.axis
    # Two uniform doubles, as Generator.uniform draws them, without its checks;
    # scalar draws take the same doubles from the stream as one array draw.
    f = rng.random()
    u = rng.random()
    h = h_min + (h_max - h_min) * f
    # Uniform draw b in the (N-1)-ball: radius corrected for volume density.
    t = [rng.standard_normal() for _ in range(len(a) - 1)]
    tn = math.sqrt(math.fsum(map(mul, t, t)))
    if tn == 0.0:
        t, tn = [1.0] + [0.0] * (len(t) - 1), 1.0
    p = radius * u ** (1.0 / len(t)) / tn
    # The frame is the unsigned axis's, for both directions. Negating h is
    # exact, so s·a_i is direction·h·a_i, ±0.0 included.
    offset = _reflect(a, [p * x for x in t])
    s = h if direction > 0 else -h
    return tuple([o + s * x + y for o, x, y in zip(axis.origin, a, offset)])

