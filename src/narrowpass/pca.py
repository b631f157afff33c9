"""Principal escape direction and the axis-aligned cylinder sampler.

The escape direction is the leading eigenvector of the second moments of
displacements from the start configuration, taken once by `principal_axis`.
After that it is tracked by power steps: each new valid sample updates the
running moments S, and the axis a becomes S·a / |S·a|. Both run in Python
floats, so no value passes through BLAS or LAPACK; each pull's work runs in
functions compiled once per dimension.
"""

from __future__ import annotations

import functools
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
    return _kernels(len(q))["recalibrate"](a, origin, outer_sum, q)


def sample_cylinder_with_height(axis: PrincipalAxis, direction: int, h_min: float, h_max: float,
                                radius: float, rng: np.random.Generator) -> tuple:
    """Uniform sample in the cylinder of the given radius around the signed
    axis, at heights h_min to h_max from its origin. direction is +1 along
    the axis and -1 against it. The arguments are unchecked: the planner
    passes 0 <= h_min <= h_max < inf and a radius >= 0."""
    return _kernels(len(axis.axis))["cylinder"](axis.axis, axis.origin, direction, h_min, h_max, radius, rng)


def axis_progress(axis: PrincipalAxis, q) -> float:
    """Signed progress of the configuration q along the axis from its origin:
    (q - origin)·axis, one math.fsum of the rounded products."""
    q = as_point(q)
    if len(q) != len(axis.origin):
        raise ValueError("dimension mismatch")
    return _kernels(len(q))["progress"](axis.axis, axis.origin, q)


@functools.cache
def _kernels(n: int) -> dict:
    """The bodies of recalibrate_axis ("recalibrate"), sample_cylinder_with_height
    ("cylinder") and axis_progress ("progress") for n coordinates as straight-line
    Python, built once per dimension as cspace._compile_checks builds a scene's
    checks. Every fsum sums the generic body's products in its order, one term or
    none too, and every other operation is the generic body's, so each returns its
    bits and draws from rng in its order. The generic bodies are the reference in
    tests/test_pca.py."""
    def tup(terms):
        return f"({terms[0]},)" if len(terms) == 1 else f"({', '.join(terms)})"

    def names(prefix, count=n):
        return [f"{prefix}{j}" for j in range(count)]

    def fsum(terms):
        return f"fsum({tup(terms)})"

    a, o, q, d, sa = names("a"), names("o"), names("q"), names("d"), names("sa")
    s = [[f"s{i}_{j}" for j in range(n)] for i in range(n)]
    src = [
        "def recalibrate(a, origin, outer_sum, q):", f"    [{', '.join(o)}] = origin", f"    [{', '.join(q)}] = q",
        *[f"    {x} = {y} - {z}" for x, y, z in zip(d, q, o)],
        f"    [{', '.join(f'[{row}]' for row in map(', '.join, s))}] = outer_sum",
        *[f"    {s[i][j]} = {s[i][j]} + {d[i]} * {d[j]}" for i in range(n) for j in range(n)],
        f"    [{', '.join(a)}] = a",
        *[f"    {x} = {fsum([f'{y} * {z}' for y, z in zip(row, a)])}" for x, row in zip(sa, s)],
        f"    norm = hypot({', '.join(sa)})",
        f"    return PrincipalAxis(a if norm == 0.0 else {tup([f'{x} / norm' for x in sa])}, origin, "
        f"{tup(list(map(tup, s)))})",
        "def progress(a, origin, q):", f"    [{', '.join(a)}] = a", f"    [{', '.join(o)}] = origin",
        f"    [{', '.join(q)}] = q", f"    return {fsum([f'({x} - {y}) * {z}' for x, y, z in zip(q, o, a)])}"]
    # The ball draw t has n - 1 normals; with none, or all zero, it is [1, 0, ...],
    # so the exponent is 1 / len(t). A 0-D axis has no a0 to build the frame
    # from: unpacking one raises, as it does in the generic body.
    t, b, a, o = names("t", n - 1), names("b", n - 1), names("a", max(n, 1)), names("o", max(n, 1))
    src += [
        "def cylinder(a, origin, direction, h_min, h_max, radius, rng):",
        # Two uniform doubles, as Generator.uniform draws them, without its checks.
        "    f = rng.random()", "    u = rng.random()", "    h = h_min + (h_max - h_min) * f",
        *[f"    {x} = rng.standard_normal()" for x in t], f"    tn = sqrt({fsum([f'{x} * {x}' for x in t])})",
        "    if tn == 0.0:",
        f"        {', '.join([*t, 'tn'])} = {', '.join(['1.0', *['0.0'] * (n - 2)][:n - 1] + ['1.0'])}",
        f"    p = radius * u ** {1.0 / max(n - 1, 1)!r} / tn", f"    [{', '.join(a)}] = a",
        f"    [{', '.join(o)}] = origin", *[f"    {x} = p * {y}" for x, y in zip(b, t)],
        # H·[0, b] for the Householder frame of the unsigned axis, for both
        # directions. Negating h is exact, so s·a_i is direction·h·a_i, ±0.0 included.
        f"    c = {fsum([f'{x} * {y}' for x, y in zip(a[1:], b)])} / (1.0 + abs(a0))",
        "    s = h if direction > 0 else -h",
        "    return " + tup([f"{o[0]} + s * a0 + -c * (a0 + copysign(1.0, a0))",
                             *[f"{x} + s * {y} + ({z} - c * {y})" for x, y, z in zip(o[1:], a[1:], b)]])]
    namespace = {"fsum": math.fsum, "sqrt": math.sqrt, "hypot": math.hypot, "copysign": math.copysign,
                 "PrincipalAxis": PrincipalAxis}
    exec("\n".join(src + [""]), namespace)
    return namespace
