"""Real orthonormal spherical-harmonic bases on the unit sphere in R^p,
built from hyperspherical coordinates, and the reproducing (addition)
kernel of each degree-k harmonic space."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .rotsym import _NORM_TOL
from .specfun import _gegen_index, _gegen_sweep, _kernel_factor, gegenbauer_eval, harmonic_dim

__all__ = [
    "basis_matrix",
    "addition_kernel",
]

_POLE_EPS = 1e-15


def _check_points(x: np.ndarray) -> None:
    norms = np.linalg.norm(x, axis=1)
    if np.any(np.abs(norms - 1.0) > _NORM_TOL):
        raise ValueError("points must lie on the unit sphere (norm tolerance 1e-8)")


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _log_pochhammer(a: float, n: int) -> float:
    return math.lgamma(a + n) - math.lgamma(a)


@dataclass(frozen=True)
class _BasisEntry:
    degrees: tuple        # m_1 .. m_{p-2}, Gegenbauer degree per level
    lams: tuple           # lambda_j per level
    sin_powers: tuple     # |m^(j+1)| per level
    trig_multiple: int    # m_{p-1}
    odd_branch: bool      # m_p = 1 selects the sine branch
    sqrt_b: float


@lru_cache(maxsize=None)
def _basis_table(p: int, k: int) -> tuple:
    """Multi-index table of the degree-k basis for p >= 3, ordered
    lexicographically descending so (k, 0, ..., 0) comes first."""
    members = []
    for last in (0, 1):
        if k - last < 0:
            continue
        for comp in _compositions(k - last, p - 1):
            members.append(comp + (last,))
    members.sort(reverse=True)
    entries = []
    for m in members:
        tails = [sum(m[j:]) for j in range(p)]          # tails[j] = |m^(j+1)|
        lams = tuple(tails[j] + (p - j - 1) / 2.0 for j in range(1, p - 1))
        log_b = math.log(2.0) if (m[p - 2] + m[p - 1]) > 0 else 0.0
        for j in range(1, p - 1):                        # level j, 1-indexed
            deg = m[j - 1]
            tail = tails[j]
            lam = lams[j - 1]
            log_b += (
                math.lgamma(deg + 1)
                + _log_pochhammer((p - j + 1) / 2.0, tail)
                + math.log(deg + lam)
                - _log_pochhammer(2.0 * lam, deg)
                - _log_pochhammer((p - j) / 2.0, tail)
                - math.log(lam)
            )
        entries.append(_BasisEntry(
            degrees=tuple(m[:p - 2]),
            lams=lams,
            sin_powers=tuple(sum(m[j:]) for j in range(1, p - 1)),
            trig_multiple=m[p - 2],
            odd_branch=bool(m[p - 1]),
            sqrt_b=math.exp(0.5 * log_b),
        ))
    if len(entries) != harmonic_dim(p, k):
        raise AssertionError("multi-index enumeration does not match d_{p,k}")
    return tuple(entries)


def _angle_trig(X: np.ndarray, p: int):
    """Per-level cosines/sines (level j holds angle theta_{p-j}) plus the
    trig pair of theta_1, all without calling arccos."""
    n = X.shape[0]
    cos_lv = []
    sin_lv = []
    radial = np.ones(n)
    for a in range(p - 1, 1, -1):
        safe = radial > _POLE_EPS
        c = np.where(safe, X[:, a] / np.where(safe, radial, 1.0), 1.0)
        np.clip(c, -1.0, 1.0, out=c)
        s = np.sqrt(np.maximum(0.0, 1.0 - c * c))
        cos_lv.append(c)
        sin_lv.append(s)
        radial = radial * s
    safe = radial > _POLE_EPS
    cos1 = np.where(safe, X[:, 1] / np.where(safe, radial, 1.0), 1.0)
    sin1 = np.where(safe, X[:, 0] / np.where(safe, radial, 1.0), 0.0)
    np.clip(cos1, -1.0, 1.0, out=cos1)
    np.clip(sin1, -1.0, 1.0, out=sin1)
    return cos_lv, sin_lv, cos1, sin1


def _trig_multiples(cos1: np.ndarray, sin1: np.ndarray, top: int):
    n = cos1.size
    cosm = np.empty((top + 1, n))
    sinm = np.empty((top + 1, n))
    cosm[0] = 1.0
    sinm[0] = 0.0
    if top >= 1:
        cosm[1] = cos1
        sinm[1] = sin1
        for m in range(2, top + 1):
            cosm[m] = cosm[m - 1] * cos1 - sinm[m - 1] * sin1
            sinm[m] = sinm[m - 1] * cos1 + cosm[m - 1] * sin1
    return cosm, sinm


def basis_matrix(p: int, k: int, X) -> np.ndarray:
    """Evaluate the degree-k orthonormal basis at each row of X; returns an
    (n, d_{p,k}) array whose columns follow the multi-index order of
    _basis_table, (k, 0, ..., 0) first.  Rows must have unit norm within
    1e-8, the tolerance of SphericalSample."""
    if k < 1:
        raise ValueError(f"degree must be >= 1, got {k}")
    X = np.ascontiguousarray(np.asarray(X, dtype=float))
    if X.ndim != 2 or X.shape[1] != p or p < 2:
        raise ValueError("X must be an (n, p) array with p >= 2")
    _check_points(X)

    if p == 2:
        cosm, sinm = _trig_multiples(X[:, 1], X[:, 0], k)
        out = np.empty((X.shape[0], 2))
        out[:, 0] = math.sqrt(2.0) * cosm[k]
        out[:, 1] = math.sqrt(2.0) * sinm[k]
        return out

    entries = _basis_table(p, k)
    cos_lv, sin_lv, cos1, sin1 = _angle_trig(X, p)
    top_multiple = max(e.trig_multiple + (1 if e.odd_branch else 0) for e in entries)
    cosm, sinm = _trig_multiples(cos1, sin1, top_multiple)

    # evaluate each distinct (level, lambda) once, up to its max degree
    needed = {}
    for e in entries:
        for j, (deg, lam) in enumerate(zip(e.degrees, e.lams)):
            key = (j, lam)
            needed[key] = max(needed.get(key, 0), deg)
    gegen = {key: list(_gegen_sweep(key[1], top, cos_lv[key[0]]))
             for key, top in needed.items()}

    sin_pows = [{} for _ in range(p - 2)]

    def sin_power(level: int, power: int) -> np.ndarray:
        memo = sin_pows[level]
        if power not in memo:
            memo[power] = sin_lv[level] ** power
        return memo[power]

    out = np.empty((X.shape[0], len(entries)))
    for idx, e in enumerate(entries):
        if e.odd_branch:
            col = e.sqrt_b * sinm[e.trig_multiple + 1]
        else:
            col = e.sqrt_b * cosm[e.trig_multiple]
        for j, (deg, lam) in enumerate(zip(e.degrees, e.lams)):
            col = col * sin_power(j, e.sin_powers[j])
            col = col * gegen[(j, lam)][deg]
        out[:, idx] = col
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
