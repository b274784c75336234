"""Gauss-Jacobi quadrature for the sphere's tangent weight
(1 - s^2)^((p-3)/2) on (-1, 1), a reference that only the tests use:
the orthogonality and Funk-Hecke checks and the expectations of
`rotsym_moments_oracle` integrate with it.  The nodes come from
scipy.special.roots_jacobi.

Imported by the tests as `from oracles.quadrature_oracle import ...`.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

__all__ = ["QuadratureRule", "gauss_jacobi_rule"]


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights integrating s |-> g(s) (1-s^2)^((p-3)/2) over
    (-1, 1) exactly for polynomials g up to degree 2*order - 1."""

    p: int
    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, g) -> float:
        values = g(self.nodes) if callable(g) else np.asarray(g, dtype=float)
        if values.shape != self.nodes.shape:
            raise ValueError("integrand values do not match the rule's nodes")
        return float(self.weights @ values)


@lru_cache(maxsize=None)
def gauss_jacobi_rule(p: int, order: int) -> QuadratureRule:
    """Gauss-Jacobi rule for the sphere's tangent weight, alpha = beta =
    (p-3)/2.  p = 2 yields the Chebyshev-Gauss rule."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    a = (p - 3) / 2.0
    nodes, weights = roots_jacobi(order, a, a)
    nodes = np.clip(nodes, -1.0, 1.0)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(p, order, nodes, weights)
