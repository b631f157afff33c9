"""Principal escape direction and the axis-aligned cylinder sampler.

The escape direction is the leading eigenvector of the second moments of
displacements from the start configuration. It is maintained incrementally:
each new valid sample updates the running moments and the eigenvector is
re-extracted, with a dot-product sign rule so the axis never flips.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# The LAPACK gufunc that np.linalg.eigh calls, called here directly: the same
# factorisation on the same float64 input, so the same bits, without the
# wrapper's type dispatch and errstate context (9 -> 3 us). Should LAPACK
# fail, which it does not on the finite inputs here, the result is NaN with
# numpy's invalid-value RuntimeWarning instead of a LinAlgError.
from numpy.linalg import _umath_linalg

from .cspace import Config, as_config, row_norms
from .rng import RngStream

# Below this leading eigengap the moments carry no directional information.
DEGENERATE_EIGENGAP = 1e-12


class DegenerateAxisError(ValueError):
    """No direction can be extracted (all displacements are zero)."""


@dataclass(frozen=True)
class PrincipalAxis:
    axis: Config          # unit escape direction
    origin: Config        # anchor (start configuration)
    count: int            # number of accumulated displacements
    disp_sum: Config      # sum of displacements
    outer_sum: np.ndarray  # sum of displacement outer products
    eigenvalue: float     # leading eigenvalue of the mean outer product


def _leading_eigvec_dense(m: np.ndarray) -> tuple[np.ndarray, float, float]:
    w, v = _umath_linalg.eigh_lo(m, signature="d->dd")  # np.linalg.eigh(m)
    gap = float(w[-1] - w[-2]) if len(w) > 1 else float(w[-1])
    return v[:, -1], float(w[-1]), gap


def _orient_initial(vec: np.ndarray, disp_mean: np.ndarray) -> np.ndarray:
    d = float(vec @ disp_mean)
    if d < 0:
        return -vec
    if d == 0:
        nz = np.nonzero(vec)[0]
        if len(nz) and vec[nz[0]] < 0:
            return -vec
    return vec


def principal_axis(samples: np.ndarray, origin: Config) -> PrincipalAxis:
    """Leading direction of the displacement second moments about the origin.

    The sign points toward the mean displacement.
    """
    origin = as_config(origin)
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.size == 0:
        raise DegenerateAxisError("no samples")
    disp = samples - origin
    if not np.any(row_norms(disp) > 0):
        raise DegenerateAxisError("all samples coincide with the origin")
    count = len(disp)
    disp_sum = disp.sum(axis=0)
    outer_sum = disp.T @ disp
    vec, lam, _gap = _leading_eigvec_dense(outer_sum / count)
    vec = _orient_initial(vec, disp_sum / count)
    return PrincipalAxis(axis=vec, origin=origin, count=count,
                         disp_sum=disp_sum, outer_sum=outer_sum, eigenvalue=lam)


def recalibrate_axis(prev: PrincipalAxis, new_sample: Config) -> PrincipalAxis:
    """Fold one displacement into the running moments and re-extract the axis.

    The re-extracted eigenvector is negated when its dot product with the
    previous axis is negative, so the escape direction cannot flip through
    the sign ambiguity of the eigendecomposition.
    """
    new_sample = as_config(new_sample)
    d = new_sample - prev.origin
    count = prev.count + 1
    disp_sum = prev.disp_sum + d
    # np.outer(d, d) is this same broadcast multiply, behind a ravel and a
    # wrapper call: the same products, bit for bit.
    outer_sum = prev.outer_sum + d[:, None] * d
    vec, lam, gap = _leading_eigvec_dense(outer_sum / count)
    if gap < DEGENERATE_EIGENGAP:
        vec, lam = prev.axis, prev.eigenvalue
    elif float(vec @ prev.axis) < 0:
        vec = -vec
    return PrincipalAxis(axis=vec, origin=prev.origin, count=count,
                         disp_sum=disp_sum, outer_sum=outer_sum, eigenvalue=lam)


def orthonormal_basis(a: Config) -> np.ndarray:
    """N x (N-1) matrix whose columns are orthonormal and orthogonal to a:
    columns 2..N of the Householder reflection H = I - 2vv^T/v^Tv with
    v = q + sign(q0)·e1, q = a/|a|, which maps q to -sign(q0)·e1."""
    v = np.array(a, dtype=float)
    norm = math.sqrt(v.dot(v))
    if norm == 0.0:
        raise DegenerateAxisError("cannot build a basis orthogonal to the zero vector")
    v /= norm
    v[0] += math.copysign(1.0, v[0])
    return np.eye(len(v))[:, 1:] - (2.0 / v.dot(v)) * np.outer(v, v[1:])


def _reflect(a: list[float], b: list[float]) -> list[float]:
    """H·[0, b] in O(N) floats for orthonormal_basis's H of a unit vector a:
    [0, b] - (2 v·[0, b] / v^Tv)·v, where v = a + sign(a0)·e1 shares a's
    components from the second on. It equals orthonormal_basis(a) @ b."""
    a0, *rest = a
    v0 = a0 + math.copysign(1.0, a0)
    c = 2.0 * sum(x * y for x, y in zip(rest, b)) / (v0 * v0 + sum(x * x for x in rest))
    return [-c * v0, *(y - c * x for x, y in zip(rest, b))]


@dataclass(frozen=True)
class CylinderSpec:
    axis: PrincipalAxis
    direction: int        # +1 along the axis, -1 against it
    h_min: float
    h_max: float
    radius: float

    def __post_init__(self):
        if self.direction not in (+1, -1):
            raise ValueError("direction must be +1 or -1")
        if not (0.0 <= self.h_min <= self.h_max < math.inf):
            raise ValueError("require 0 <= h_min <= h_max < inf")
        if self.radius < 0:
            raise ValueError("radius must be non-negative")


def sample_cylinder_with_height(spec: CylinderSpec, rng: RngStream) -> tuple[Config, float]:
    """Uniform sample in the cylinder around the signed axis; also returns the
    drawn axial height (the sampler's own radial coordinate)."""
    a = spec.axis.axis.tolist()
    n = len(a)
    # Generator.uniform's own arithmetic on the same draw, without its checks.
    h = spec.h_min + (spec.h_max - spec.h_min) * rng.gen.random()
    # Uniform draw b in the (N-1)-ball: radius corrected for volume density.
    u = rng.gen.random()
    t = rng.gen.standard_normal(n - 1).tolist()
    tn = math.sqrt(sum(x * x for x in t))
    if tn == 0.0:
        t, tn = [1.0] + [0.0] * (n - 2), 1.0
    p = spec.radius * u ** (1.0 / (n - 1)) / tn
    b = [p * x for x in t]
    # The frame is the unsigned axis's, for both directions. Negating h is
    # exact, so s·a_i is direction·h·a_i, ±0.0 included.
    offset = _reflect(a, b)
    s = h if spec.direction > 0 else -h
    q = [o + s * x + y for o, x, y in zip(spec.axis.origin.tolist(), a, offset)]
    return np.array(q), h


def sample_cylinder(spec: CylinderSpec, rng: RngStream) -> Config:
    q, _ = sample_cylinder_with_height(spec, rng)
    return q
