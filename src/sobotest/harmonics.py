"""Real orthonormal spherical-harmonic bases on the unit sphere in R^p,
and the reproducing (addition) kernel of each degree-k harmonic space.

The basis is the classical one of solid harmonics (Mueller, Spherical
Harmonics, 1966), built by recursion over the dimension q = 2, ..., p.
On R^2, degree 0 is the constant 1 and degree t >= 1 the pair
sqrt(2) (Re, Im)(x_2 + i x_1)^t.  On R^q, degree j is the blocks
m = j, j-1, ..., 0: block m is N(q, m, t) rho^m C_m^lam(x_q / rho) times
the degree-t solids on R^(q-1), with t = j - m, lam = t + (q-2)/2 and
rho^2 = x_1^2 + ... + x_q^2.  rho^m C_m^lam(x_q / rho) comes from the
Gegenbauer recurrence with rho^2 in place of 1, so there is no angle, no
division and no pole case: every column is a polynomial, homogeneous of
degree k in the row, and orthonormal under the uniform law on the sphere.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .rotsym import _check_unit_norms
from .specfun import _gegen_index, _kernel_factor, gegenbauer_eval, harmonic_dim

__all__ = ["basis_matrix", "addition_kernel"]

# bytes of solids that basis_matrix holds next to its output
_BLOCK_BYTES = 1 << 22


@lru_cache(maxsize=None)
def _normalizer(q: int, m: int, t: int) -> float:
    """N(q, m, t): the block m of degree m + t on R^q is orthonormal when
    the degree-t solids on R^(q-1) are."""
    lam, lg = t + (q - 2) / 2.0, math.lgamma
    return math.exp(0.5 * (lg(m + 1) + lg(lam + 1) - lg(q / 2.0) + math.log(m + lam)
                           - lg(2.0 * lam + m) + lg(2.0 * lam)
                           - lg(lam + 0.5) + lg((q - 1) / 2.0) - math.log(lam)))


def _gegen_solids(q: int, k: int, x: np.ndarray, rho2: np.ndarray) -> np.ndarray:
    """rho^m C_m^lam(x / rho) with lam = t + (q-2)/2 at [m, t, row] for
    m + t <= k; the rest is left unset."""
    lam = np.arange(k + 1.0)[:, None] + (q - 2) / 2.0
    out = np.empty((k + 1, k + 1, x.size))
    out[0] = 1.0
    out[1] = 2.0 * lam * x
    for m in range(2, k + 1):
        a, b = 2.0 * (m - 1 + lam[:k + 1 - m]) / m, (m - 2 + 2.0 * lam[:k + 1 - m]) / m
        out[m, :k + 1 - m] = a * x * out[m - 1, :k + 1 - m] - b * rho2 * out[m - 2, :k + 1 - m]
    return out


def _solids(X: np.ndarray, k: int) -> np.ndarray:
    """Solid harmonics at the rows of X, one per row of the result:
    degrees 0..k on R^2, ..., R^(p-1), then degree k alone on R^p, whose
    d_{p,k} rows come last."""
    cols = np.ascontiguousarray(X.T)
    x1, x2 = cols[0], cols[1]
    level = np.empty((2 * k + 1, X.shape[0]))
    level[0], level[1], level[2] = 1.0, x2, x1
    for t in range(3, 2 * k + 1, 2):
        re, im = level[t - 2], level[t - 1]
        level[t], level[t + 1] = re * x2 - im * x1, re * x1 + im * x2
    level[1:] *= math.sqrt(2.0)
    rho2 = x1 * x1 + x2 * x2
    for q in range(3, len(cols) + 1):
        x = cols[q - 1]
        rho2 += x * x
        factors = _gegen_solids(q, k, x, rho2)
        ends = np.cumsum([0] + [harmonic_dim(q - 1, t) for t in range(k + 1)])
        # block m = j - t of degree j scales the degree-t rows of the level below
        level = np.concatenate([_normalizer(q, j - t, t) * factors[j - t, t]
                                * level[ends[t]:ends[t + 1]]
                                for j in (range(k + 1) if q < len(cols) else (k,))
                                for t in range(j + 1)])
    return level


def basis_matrix(p: int, k: int, X) -> np.ndarray:
    """Evaluate the degree-k orthonormal basis at each row of X; returns an
    (n, d_{p,k}) array whose columns follow the blocks of the recursion,
    the zonal column sqrt(d) C_k^((p-2)/2)(x_p) / C_k^((p-2)/2)(1) first.
    Rows must have unit norm within 1e-8, the tolerance of SphericalSample."""
    if k < 1:
        raise ValueError(f"degree must be >= 1, got {k}")
    X = np.ascontiguousarray(np.asarray(X, dtype=float))
    if X.ndim != 2 or X.shape[1] != p or p < 2:
        raise ValueError("X must be an (n, p) array with p >= 2")
    _check_unit_norms(X)
    d = harmonic_dim(p, k)
    out = np.empty((X.shape[0], d))
    # a level, its products and the level below take at most 3 d doubles per row
    rows = max(1, _BLOCK_BYTES // (24 * d))
    for i in range(0, X.shape[0], rows):
        out[i:i + rows] = _solids(X[i:i + rows], k)[-d:].T
    return out


def addition_kernel(p: int, k: int, s):
    """Reproducing kernel h_{p,k}(s) = sum_r g_{r,k}(u) g_{r,k}(v) at
    s = u'v: the degree-k Gegenbauer (Chebyshev for p = 2) polynomial
    scaled by 2 for p = 2 and by 1 + 2k/(p-2) otherwise."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return np.ones_like(np.asarray(s, dtype=float)) if np.ndim(s) else 1.0
    return _kernel_factor(p, k) * gegenbauer_eval(_gegen_index(p), k, s)
