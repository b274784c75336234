"""Normalizing constant of a rotationally symmetric law, a reference that
only the tests use: they check it against the frozen mpmath values of
tests/oracles/rotsym_oracle.py.  It integrates with the package's own
Gauss-Jacobi quadrature (`_adaptive_integral` of
tests/oracles/rotsym_moments_oracle.py) in the log-space scaling of its
`_scaled_profile`.

Imported by the tests as `from oracles.normalizing_constant_oracle import ...`.
"""

import math

from sobotest.rotsym import AngularFunction
from sobotest.specfun import surface_constant

from oracles.rotsym_moments_oracle import _adaptive_integral, _scaled_profile

__all__ = ["normalizing_constant"]


def normalizing_constant(p: int, kappa: float, f: AngularFunction) -> float:
    """1 / integral of f(kappa*s) (1-s^2)^((p-3)/2) over (-1, 1); equals
    surface_constant(p) at kappa = 0."""
    if kappa < 0.0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    if kappa == 0.0:
        return surface_constant(p)
    profile, shift = _scaled_profile(kappa, f)
    return math.exp(-shift) / _adaptive_integral(p, profile)
