"""Gegenbauer/Chebyshev polynomials, harmonic dimensions and moment
constants used throughout the package, plus Gauss-Jacobi quadrature for
the weight (1 - s^2)^((p-3)/2) on (-1, 1)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

__all__ = [
    "MAX_DEGREE",
    "harmonic_dim",
    "t_factor",
    "null_moment",
    "surface_constant",
    "gegenbauer_eval",
    "monomial_to_gegenbauer",
    "gauss_jacobi_rule",
    "QuadratureRule",
]

# Coefficient tables and basis conversions are capped here; the evaluation
# recurrences themselves are stable and carry no cap.
MAX_DEGREE = 30

_EVAL_SLACK = 1e-12


def harmonic_dim(p: int, k: int) -> int:
    """Dimension of the space of degree-k spherical harmonics in R^p.

    Exact integer arithmetic; k = 0 gives 1, and p = 2 gives 2 for all
    k >= 1.
    """
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return 1
    first = math.comb(p + k - 1, k)
    second = math.comb(p + k - 3, k - 2) if k >= 2 else 0
    return first - second


def t_factor(p: int, k: int) -> float:
    """Normalization factor linking the degree-k Gegenbauer polynomial to
    the orthonormal harmonic basis: sqrt(2) for p = 2, else
    (1 + 2k/(p-2)) / sqrt(d_{p,k})."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if p == 2:
        return math.sqrt(2.0)  # 2 / sqrt(d_{2,k}), rounded once
    return _kernel_factor(p, k) / math.sqrt(harmonic_dim(p, k))


def _kernel_factor(p: int, k: int, one=1.0):
    """h_{p,k}(s) / C_k(s), the degree-k addition kernel over its Gegenbauer
    polynomial: 2 at p = 2, where C_k is the Chebyshev polynomial with
    C_k(1) = 1, else 1 + 2k/(p-2).  In the arithmetic of `one`, a float or
    a Fraction."""
    return 2 * one if p == 2 else one + 2 * k * one / (p - 2)


def _gegen_index(p: int) -> float:
    """Index lam of C_k^lam in the degree-k addition kernel on the sphere in
    R^p: (p - 2) / 2, which is 0, the Chebyshev convention, at p = 2."""
    return (p - 2) / 2.0


def null_moment(p: int, m: int) -> float:
    """m-th moment of u'theta under the uniform law on the sphere in R^p.

    Zero for odd m; for even m the product prod_{r<m/2} (1+2r)/(p+2r).
    """
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return float(_null_moment_exact(p, m))


def _null_moment_exact(p: int, m: int) -> Fraction:
    """null_moment as an exact rational."""
    if m % 2:
        return Fraction(0)
    num = den = 1
    for r in range(m // 2):
        num *= 1 + 2 * r
        den *= p + 2 * r
    return Fraction(num, den)


def surface_constant(p: int) -> float:
    """Normalizing constant c_p = Gamma(p/2) / (sqrt(pi) Gamma((p-1)/2)) of
    the density of u'theta under uniformity."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    return math.gamma(p / 2.0) / (math.sqrt(math.pi) * math.gamma((p - 1) / 2.0))


def _clamp_argument(t):
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0 + _EVAL_SLACK):
        raise ValueError("polynomial argument outside [-1 - 1e-12, 1 + 1e-12]")
    return np.clip(t, -1.0, 1.0)


def gegenbauer_eval(lam: float, q: int, t):
    """Evaluate C_q^lam(t) by the three-term recurrence.

    lam = 0 follows the Chebyshev convention with C_q^0(1) = 1 for all q
    (no factor 2; callers that need the degree-k kernel apply it).  Accepts
    scalars or arrays; |t| may exceed 1 by at most 1e-12 and is clamped.
    """
    if q < 0:
        raise ValueError(f"degree must be >= 0, got {q}")
    lam = float(lam)
    if lam < 0.0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    t = _clamp_argument(t)
    scalar = t.ndim == 0
    for out in _gegen_sweep(lam, q, np.atleast_1d(t)):
        pass
    return float(out[0]) if scalar else out


def _gegen_sweep(lam: float, top: int, t: np.ndarray):
    """Yield C_q^lam(t) for q = 0..top by the three-term recurrence, with
    the Chebyshev convention at lam = 0."""
    prev = np.ones_like(t)
    yield prev
    if top == 0:
        return
    cur = t.copy() if lam == 0.0 else 2.0 * lam * t
    yield cur
    for j in range(2, top + 1):
        if lam == 0.0:
            nxt = 2.0 * t * cur - prev
        else:
            nxt = (2.0 * (j - 1 + lam) * t * cur - (j - 2 + 2.0 * lam) * prev) / j
        prev, cur = cur, nxt
        yield cur


@lru_cache(maxsize=None)
def _gegen_poly_exact(lam: Fraction, k: int) -> tuple:
    """C_k^lam as a dense vector of exact monomial coefficients, index =
    power of t, by the recurrence of _gegen_sweep."""
    if k < 2:
        return (Fraction(1),) if k == 0 else (Fraction(0), Fraction(1) if lam == 0 else 2 * lam)
    prev = _gegen_poly_exact(lam, k - 2) + (Fraction(0),) * 2
    cur = (Fraction(0),) + _gegen_poly_exact(lam, k - 1)
    if lam == 0:
        return tuple(2 * a - b for a, b in zip(cur, prev))
    return tuple((2 * (k - 1 + lam) * a - (k - 2 + 2 * lam) * b) / k
                 for a, b in zip(cur, prev))


@lru_cache(maxsize=None)
def _monomial_to_gegenbauer_exact(p: int, i: int) -> tuple:
    """m_{k,i} as exact rationals: t times the expansion of t^(i-1), with
    t C_k = up C_{k+1} + down C_{k-1}, the recurrence of _gegen_sweep
    solved for t C_k (C_{-1} = 0)."""
    if i == 0:
        return (Fraction(1),)
    lam = Fraction(p - 2, 2)
    m = [Fraction(0)] * (i + 1)
    for k, c in enumerate(_monomial_to_gegenbauer_exact(p, i - 1)):
        if lam == 0:
            up = down = Fraction(1, 2) if k else Fraction(1)
        else:
            up, down = (k + 1) / (2 * (k + lam)), (k - 1 + 2 * lam) / (2 * (k + lam))
        m[k + 1] += c * up
        if k:
            m[k - 1] += c * down
    return tuple(m)


def monomial_to_gegenbauer(p: int, i: int) -> np.ndarray:
    """Coefficients m_{k,i}, k = 0..i, expressing t^i in the basis of
    C_k^((p-2)/2) (Chebyshev for p = 2).

    Computed in exact rationals from the three-term recurrence, so the
    parity zeros (m_{k,i} = 0 whenever k and i differ in parity) are exact.
    """
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if i < 0:
        raise ValueError(f"power must be >= 0, got {i}")
    if i > MAX_DEGREE:
        raise ValueError(f"power {i} exceeds the cap {MAX_DEGREE}")
    return np.array([float(c) for c in _monomial_to_gegenbauer_exact(p, i)])


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
