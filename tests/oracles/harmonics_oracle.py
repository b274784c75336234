"""Harmonics API that only the tests use: the hyperspherical chart and
single-point basis evaluation, next to the production `basis_matrix` and
`addition_kernel` of `sobotest.harmonics`, which are re-exported here so
`tests/test_harmonics.py` reads every name from one module.

Imported by the tests as `from oracles import harmonics_oracle`.
"""

import math
from dataclasses import dataclass

import numpy as np

from sobotest.harmonics import addition_kernel, basis_matrix
from sobotest.rotsym import _check_unit_norms

__all__ = [
    "HarmonicVector",
    "to_hyperspherical",
    "from_hyperspherical",
    "basis_eval",
    "basis_matrix",
    "addition_kernel",
]

# below this radius the chart's lower angles are undetermined and set to 0
_POLE_EPS = 1e-15


@dataclass(frozen=True)
class HarmonicVector:
    """Values (g_{1,k}(x), ..., g_{d,k}(x)) of the orthonormal degree-k
    basis at one point."""

    p: int
    k: int
    values: np.ndarray


def to_hyperspherical(x) -> np.ndarray:
    """Angles (theta_1, ..., theta_{p-1}) of a point on the sphere:
    theta_1 in [0, 2*pi), the rest in [0, pi].  At the poles the
    undetermined lower angles are set to 0."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("expected a single point in R^p, p >= 2")
    p = x.size
    _check_unit_norms(x[None, :])
    theta = np.zeros(p - 1)
    radial = 1.0
    for a in range(p - 1, 1, -1):
        c = x[a] / radial if radial > _POLE_EPS else 1.0
        c = min(1.0, max(-1.0, c))
        theta[a - 1] = math.acos(c)
        radial *= math.sin(theta[a - 1])
    theta[0] = math.atan2(x[0], x[1]) % (2.0 * math.pi)
    if radial <= _POLE_EPS:
        theta[0] = 0.0
    return theta


def from_hyperspherical(theta) -> np.ndarray:
    """Inverse chart: x_p = cos theta_{p-1}, and lower coordinates carry
    the accumulated sine product, ending in (sin theta_1, cos theta_1)."""
    theta = np.asarray(theta, dtype=float)
    p = theta.size + 1
    if p < 2:
        raise ValueError("need at least one angle")
    x = np.zeros(p)
    radial = 1.0
    for a in range(p - 1, 0, -1):
        x[a] = radial * math.cos(theta[a - 1])
        radial *= math.sin(theta[a - 1])
    x[0] = radial
    return x


def basis_eval(p: int, k: int, x) -> HarmonicVector:
    """Orthonormal degree-k basis evaluated at one point."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("expected a single point; use basis_matrix for batches")
    values = basis_matrix(p, k, x[None, :])[0]
    return HarmonicVector(p, k, values)
