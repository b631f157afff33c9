"""Principal escape direction and the axis-aligned cylinder sampler.

The escape direction is the leading eigenvector of the second moments of
displacements from the start configuration. It is maintained incrementally:
each new valid sample updates the running moments and the eigenvector is
re-extracted, with a dot-product sign rule so the axis never flips.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
# The LAPACK gufuncs that np.linalg.eigh and np.linalg.qr call, called here
# directly: the same factorisations on the same float64 input, so the same
# bits, without the wrappers' type dispatch, their errstate contexts and the
# R factor the complement never reads (a 2-D QR 27 -> 9 us, eigh 9 -> 3 us).
# Should LAPACK fail, which it does not on the finite inputs here, the result
# is NaN with numpy's invalid-value RuntimeWarning instead of a LinAlgError.
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
    # Complements already factorised for this axis, keyed on the exact bytes
    # of the unit vector given to the QR, so a hit returns what the QR would.
    _complements: dict = field(default_factory=dict, repr=False, compare=False)

    def complement(self, a: Config) -> np.ndarray:
        """`orthonormal_basis(a)`, read-only; the QR runs once per distinct a/|a|."""
        q = _unit(a)
        key = q.tobytes()
        basis = self._complements.get(key)
        if basis is None:
            basis = _complement_of_unit(q)
            basis.flags.writeable = False
            self._complements[key] = basis
        return basis


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
    complements = {}
    if gap < DEGENERATE_EIGENGAP:
        # The axis stays, so the complements factorised for it stay valid.
        vec, lam, complements = prev.axis, prev.eigenvalue, prev._complements
    elif float(vec @ prev.axis) < 0:
        vec = -vec
    return PrincipalAxis(axis=vec, origin=prev.origin, count=count,
                         disp_sum=disp_sum, outer_sum=outer_sum, eigenvalue=lam,
                         _complements=complements)


def _unit(a: Config) -> np.ndarray:
    # Contiguous: BLAS sums a strided vector (eigh gives the axis as a column) in another order.
    a = np.ascontiguousarray(a, dtype=float)
    norm = math.sqrt(a.dot(a))
    if norm == 0.0:
        raise DegenerateAxisError("cannot build a basis orthogonal to the zero vector")
    return a / norm


def _complement_of_unit(q: np.ndarray) -> np.ndarray:
    n = q.shape[0]
    # [q | I]: the ones of np.eye(n, n + 1, 1) sit n + 2 apart in the flat
    # C-order buffer, from index 1; the same array without eye's wrapper.
    m = np.zeros((n, n + 1))
    m.ravel()[1::n + 2] = 1.0
    m[:, 0] = q
    # np.linalg.qr(m)[0][:, 1:n]: Householder vectors and tau into m, then Q.
    tau = _umath_linalg.qr_r_raw(m, signature="d->d")
    return _umath_linalg.qr_reduced(m, tau, signature="dd->d")[:, 1:n]


def orthonormal_basis(a: Config) -> np.ndarray:
    """N x (N-1) matrix whose columns are orthonormal and orthogonal to a."""
    return _complement_of_unit(_unit(a))


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
    a = spec.axis.axis
    n = a.shape[0]
    # Generator.uniform's own arithmetic on the same draw, without its checks.
    h = spec.h_min + (spec.h_max - spec.h_min) * rng.gen.random()
    ha = h * a
    # Uniform draw in the (N-1)-ball: radius corrected for volume density.
    u = rng.gen.random()
    t = rng.gen.standard_normal(n - 1)
    tn = math.sqrt(t.dot(t))
    if tn == 0.0:
        t = np.zeros(n - 1)
        t[0] = 1.0
        tn = 1.0
    p = spec.radius * u ** (1.0 / (n - 1))
    b = p * t / tn
    # One frame, of the unsigned h·a (of a if h·a's squared norm underflows), for both
    # directions: QR([q | I]) and QR([-q | I]) are bit-identical (Householder vector and tau are even in q).
    q_basis = spec.axis.complement(ha if ha.dot(ha) >= sys.float_info.min else a)
    # origin ± h·a: multiplying by ±1 flips the sign exactly, ±0.0 included,
    # and x - y is x + (-y) in IEEE arithmetic, so this is origin + direction·h·a.
    origin = spec.axis.origin
    center = origin + ha if spec.direction > 0 else origin - ha
    return center + q_basis @ b, h


def sample_cylinder(spec: CylinderSpec, rng: RngStream) -> Config:
    q, _ = sample_cylinder_with_height(spec, rng)
    return q
