"""Sobolev statistics for testing uniformity on the sphere: weight
sequences over harmonic degrees, the O(n^2) kernel form and the harmonic
form of the statistic, plus the classical special cases.

The harmonic form takes each active degree k by one of two routes, fixed
by k alone.  Degrees 1-4 come from moment power sums
S_m = sum_ij (u_i'u_j)^m = ||sum_i u_i^(x)m||^2, m <= k, built by a few
matrix products over the (n, p) sample with no harmonic basis; degrees
5 and up sum the columns of the d_{p,k}-column orthonormal basis over
row slices of the sample, so memory does not grow with n."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Optional

import numpy as np

from .harmonics import basis_matrix
from .rotsym import SphericalSample
from .specfun import (_gegen_index, _gegen_poly_exact, _gegen_sweep, _kernel_factor,
                      harmonic_dim)

__all__ = [
    "WeightSequence",
    "TruncationInfo",
    "TestResult",
    "stat_kernel",
    "stat_harmonic",
    "stat_harmonics",
    "run_test",
]

_TRUNC_REL_TOL = 1e-6
_TRUNC_K_MAX = 600
# degrees up to this one are summed from moment power sums, higher ones
# from the columns of the harmonic basis
_POWER_SUM_MAX_DEGREE = 4
# entries per block of points of the pairwise-product matrix W; a slice
# of the degree k >= 5 basis has at most 4 times as many
_FEATURE_BLOCK = 1 << 20


@dataclass(frozen=True)
class TruncationInfo:
    """Truncation level of an infinite weight sequence at a given p, with
    the bounded tail mass sum_{k > k_trunc} v_k^2 d_{p,k}."""

    k_trunc: int
    tail_mass: float
    total_mass: float


def _entry(values: tuple, k: int) -> float:
    """v_k of a finite vector: its k-th entry, 0 past its end."""
    return values[k - 1] if k <= len(values) else 0.0


class WeightSequence:
    """Nonnegative weights v_k over harmonic degrees k >= 1, given by a rule
    k -> v_k with square-summable mass v_k^2 d_{p,k}.  A finite vector is
    the rule that reads it, 0 past its last entry (degree _last)."""

    def __init__(self, values=None, rule=None, name: Optional[str] = None):
        if (values is None) == (rule is None):
            raise ValueError("provide exactly one of values or rule")
        self._last = None
        if values is not None:
            values = tuple(float(v) for v in values)
            self._last = len(values)
            rule = partial(_entry, values)
        self._rule = rule
        self.name = name
        self._trunc_cache = {}
        # a vector is checked once, in full; a rule as its degrees are read
        if self._last is not None and not any(
                [self.weight(k) for k in range(1, self._last + 1)]):
            raise ValueError("finite weight vectors need a nonzero entry")

    @classmethod
    def finite(cls, values, name: Optional[str] = None) -> "WeightSequence":
        return cls(values=values, name=name)

    @classmethod
    def delta(cls, k: int, name: Optional[str] = None) -> "WeightSequence":
        """All weight on degree k."""
        if k < 1:
            raise ValueError(f"degree must be >= 1, got {k}")
        return cls(values=(0.0,) * (k - 1) + (1.0,), name=name or f"delta_{k}")

    @classmethod
    def from_rule(cls, rule, name: Optional[str] = None) -> "WeightSequence":
        return cls(rule=rule, name=name)

    @property
    def kind(self) -> str:
        return "finite" if self._last is not None else "infinite"

    def weight(self, k: int) -> float:
        if k < 1:
            raise ValueError(f"degree must be >= 1, got {k}")
        v = float(self._rule(k))
        # the weights enter squared: v^2 must neither overflow nor underflow to 0
        if not (math.isfinite(v * v) and (v == 0.0 or v * v > 0.0)):
            raise ValueError(f"weight {v!r} must be 0 or have a finite, nonzero square")
        return v

    @property
    def k_v(self) -> int:
        """Smallest degree with nonzero weight, searched through degree
        _TRUNC_K_MAX."""
        for k in range(1, _TRUNC_K_MAX + 1):
            if self.weight(k) != 0.0:
                return k
        raise ValueError("no nonzero weight found")

    @property
    def K_v(self) -> Optional[int]:
        """Largest degree with nonzero weight (finite sequences only)."""
        return None if self._last is None else self.support_through(self._last)[-1]

    def support_through(self, k_max: int) -> list:
        return [k for k in range(1, k_max + 1) if self.weight(k) != 0.0]

    def truncation(self, p: int) -> TruncationInfo:
        """Choose k_trunc so the neglected mass is below 1e-6 of the total;
        geometric tail bound from block ratios.  Raises if the mass does
        not decay.  A finite sequence stops at K_v with no tail."""
        if p not in self._trunc_cache:
            self._trunc_cache[p] = self._truncate(p)
        return self._trunc_cache[p]

    def _truncate(self, p: int) -> TruncationInfo:
        if self._last is not None:
            total = sum(self.weight(k) ** 2 * harmonic_dim(p, k)
                        for k in range(1, self._last + 1))
            return TruncationInfo(self.K_v, 0.0, total)
        block = 4
        blocks = []
        total = 0.0
        for start in range(1, _TRUNC_K_MAX + 1, block):
            b = sum(self.weight(k) ** 2 * harmonic_dim(p, k)
                    for k in range(start, start + block))
            blocks.append(b)
            total += b
            if len(blocks) >= 3 and total > 0.0 and blocks[-2] > 0.0:
                r = blocks[-1] / blocks[-2]
                if r < 0.9:
                    tail = blocks[-1] * r / (1.0 - r)
                    if tail < _TRUNC_REL_TOL * total:
                        return TruncationInfo(start + block - 1, tail, total)
        raise ValueError(
            "weight sequence mass v_k^2 d_{p,k} does not decay fast enough "
            f"to truncate below {_TRUNC_K_MAX} degrees")

    def active_degrees(self, p: int) -> list:
        """Degrees entering the statistic: the support through k_trunc."""
        return self.support_through(self.truncation(p).k_trunc)

    def null_terms(self, p: int) -> tuple:
        """(v_k^2, d_{p,k}, 0.0) per active degree: the central chi-square
        terms of the statistic's null limit law."""
        return tuple((self.weight(k) ** 2, harmonic_dim(p, k), 0.0)
                     for k in self.active_degrees(p))


def _kernel_weighted_sum(p: int, pairs, s: np.ndarray) -> np.ndarray:
    """sum_k v_k^2 h_{p,k}(s) evaluated in one recurrence sweep; pairs is a
    list of (k, v_k^2) with k >= 1."""
    want = dict(pairs)
    acc = np.zeros_like(s)
    for k, gegen in enumerate(_gegen_sweep(_gegen_index(p), max(want), s)):
        if k in want:
            acc += want[k] * _kernel_factor(p, k) * gegen
    return acc


def stat_kernel(sample: SphericalSample, weights: WeightSequence) -> float:
    """Quadratic-form route: (1/n) sum_{i,j} sum_k v_k^2 h_{p,k}(u_i'u_j),
    diagonal included.  O(n^2) pairwise products, evaluated in row blocks."""
    X = sample.points
    n = sample.n
    pairs = [(k, weights.weight(k) ** 2) for k in weights.active_degrees(sample.p)]
    total = 0.0
    block = max(1, min(n, 2_000_000 // max(n, 1)))
    for i0 in range(0, n, block):
        gram = X[i0:i0 + block] @ X.T
        np.clip(gram, -1.0, 1.0, out=gram)
        total += float(_kernel_weighted_sum(sample.p, pairs, gram).sum())
    return total / n


@lru_cache(maxsize=None)
def _kernel_monomials(p: int, k: int) -> tuple:
    """Coefficients a_{k,m}, m = 0..k, of h_{p,k}(s) = sum_m a_{k,m} s^m:
    the exact Gegenbauer (Chebyshev for p = 2) coefficients times the
    kernel factor, rounded once."""
    factor = _kernel_factor(p, k, Fraction(1))
    return tuple(float(factor * c) for c in _gegen_poly_exact(Fraction(p - 2, 2), k))


def _centered_power_sums(X: np.ndarray, orders: set) -> dict:
    """P_m = S_m - n^2 E_0[s^m] for each m in orders (1 <= m <= 4), where
    E_0[s^m] is the m-th moment of u'v for independent uniform u, v.

    sum_m a_{k,m} E_0[s^m] = E_0[h_{p,k}(s)] = 0 for k >= 1, so
    sum_m a_{k,m} S_m = sum_m a_{k,m} P_m with P_0 = 0.  Each P_m is the
    squared norm of a moment tensor with its null mean taken out, so its
    entries are O(sqrt(n)) sums and nothing of order n^2 cancels:
      P_1 = ||X'1||^2,  P_2 = ||X'X - (n/p) I||_F^2,
      P_3 = ||sum_i u_i^(x)3||^2 = ||X'W||_F^2,
      P_4 = ||W_c'W_c - n Sigma||_F^2 + (2/p) P_2.
    W has the columns x_a x_b, a <= b, off-diagonal ones scaled by
    sqrt(2), so w_i'w_j = (u_i'u_j)^2; W_c is W with 1/p taken from its
    diagonal columns, the coordinates of u_i u_i' - I/p; and n Sigma, with
    Sigma = 2/(p(p+2)) (I - e e'/p) for the indicator e of the diagonal
    columns, is the null mean of W_c'W_c.  Both products accumulate over
    row blocks, so memory is O(p^4 + block), never O(n p^2)."""
    n, p = X.shape
    sums = {}
    if 1 in orders:
        col = np.einsum("ij->j", X)  # X.sum(axis=0) bit for bit on C-ordered X, faster
        sums[1] = float(col @ col)
    if orders & {2, 4}:
        scatter = X.T @ X
        scatter[np.diag_indices(p)] -= n / p
        sums[2] = float(np.sum(scatter * scatter))
    if orders & {3, 4}:
        width = p * (p + 1) // 2
        # row j of feat holds x_a x_b over the block's points for the j-th
        # pair a <= b, times sqrt(2) when a < b; diag[a] is the row of (a, a)
        diag = np.cumsum([0] + [p - a for a in range(p - 1)])
        third = np.zeros((p, width)) if 3 in orders else None
        fourth = np.zeros((width, width)) if 4 in orders else None
        block = max(1, _FEATURE_BLOCK // width)
        XT = np.ascontiguousarray(X.T)
        feat = np.empty((width, min(n, block)))
        for i0 in range(0, n, block):
            xb = XT[:, i0:i0 + block]
            fb = feat[:, :xb.shape[1]]
            for a, j in enumerate(diag):
                np.multiply(xb[a], xb[a], out=fb[j])
                np.multiply(math.sqrt(2.0) * xb[a], xb[a + 1:], out=fb[j + 1:j + p - a])
            if third is not None:
                third += xb @ fb.T
            if fourth is not None:
                fb[diag] -= 1.0 / p
                fourth += fb @ fb.T
        if third is not None:
            sums[3] = float(np.sum(third * third))
        if fourth is not None:
            shift = 2.0 * n / (p * (p + 2))
            fourth[np.diag_indices(width)] -= shift
            fourth[np.ix_(diag, diag)] += shift / p
            sums[4] = float(np.sum(fourth * fourth)) + 2.0 / p * sums[2]
    return sums


def stat_harmonics(sample: SphericalSample, weight_list) -> list:
    """stat_harmonic of every weight sequence in weight_list on one
    sample: sum_k v_k^2 || n^(-1/2) sum_i G_k(u_i) ||^2 over each one's
    active degrees.

    One _centered_power_sums call serves the orders of every sequence's
    degrees k <= 4, and each degree k >= 5 sums the columns of
    basis_matrix(p, k, X[i:i + rows]) once over row slices of at most
    4 _FEATURE_BLOCK entries.  Each P_m and each column sum comes out
    the same whatever else is requested, so every statistic has the bits
    it has alone."""
    X = sample.points
    n = sample.n
    p = sample.p
    degree_lists = [weights.active_degrees(p) for weights in weight_list]
    sums = _centered_power_sums(X, {m for degrees in degree_lists for k in degrees
                                    if k <= _POWER_SUM_MAX_DEGREE for m in range(k, 0, -2)})
    column_sums = {}
    for k in {k for degrees in degree_lists for k in degrees if k > _POWER_SUM_MAX_DEGREE}:
        rows = max(1, 4 * _FEATURE_BLOCK // harmonic_dim(p, k))
        col = sum(basis_matrix(p, k, X[i:i + rows]).sum(axis=0) for i in range(0, n, rows))
        column_sums[k] = float(col @ col)
    stats = []
    for weights, degrees in zip(weight_list, degree_lists):
        total = 0.0
        for k in degrees:
            if k <= _POWER_SUM_MAX_DEGREE:
                coeffs = _kernel_monomials(p, k)
                value = sum(coeffs[m] * sums[m] for m in range(k, 0, -2))
            else:
                value = column_sums[k]
            total += weights.weight(k) ** 2 * value / n
        stats.append(total)
    return stats


def stat_harmonic(sample: SphericalSample, weights: WeightSequence) -> float:
    """Harmonic route: sum_k v_k^2 || n^(-1/2) sum_i G_k(u_i) ||^2 over the
    active degrees; equal to stat_kernel up to roundoff.

    A degree k <= 4 is (1/n) sum_m a_{k,m} P_m over m = k, k-2, ... >= 1,
    from the centered power sums of _centered_power_sums; no basis is
    built.  A degree k >= 5 sums the columns of basis_matrix(p, k, X)
    over row slices.  The two routes agree with stat_kernel and with each
    other within a relative 1e-11; measured at most 1.2e-13 for n <= 5000,
    p <= 30."""
    return stat_harmonics(sample, [weights])[0]


@dataclass(frozen=True)
class TestResult:
    """Decision record of one Sobolev test run."""

    __test__ = False  # keep pytest from collecting this as a test class

    test: str
    p: int
    n: int
    statistic: float
    critical_value: float
    alpha: float
    reject: bool
    p_value: float
    p_value_se: float

    def to_record(self) -> str:
        lines = [
            f"test={self.test}",
            f"p={self.p}",
            f"n={self.n}",
            f"statistic={self.statistic:.12g}",
            f"critical_value={self.critical_value:.12g}",
            f"alpha={self.alpha:.12g}",
            f"reject={'true' if self.reject else 'false'}",
            f"p_value={self.p_value:.12g}",
            f"p_value_se={self.p_value_se:.12g}",
        ]
        return "\n".join(lines) + "\n"


def run_test(sample: SphericalSample, weights: WeightSequence, alpha: float,
             law) -> TestResult:
    """Compute the harmonic-form statistic and decide at level alpha using
    the upper-alpha critical value of the null law, whose terms must be
    weights.null_terms(sample.p); rejection requires a strict exceedance.
    The p-value comes from the law's tail at the statistic."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if law.terms != weights.null_terms(sample.p):
        raise ValueError(f"law is not the null law of the weight sequence at p={sample.p}")
    stat = stat_harmonic(sample, weights)
    crit, _ = law.quantile(alpha)
    pval, pval_se = law.tail(stat)
    return TestResult(
        test=weights.name or "sobolev",
        p=sample.p,
        n=sample.n,
        statistic=stat,
        critical_value=crit,
        alpha=alpha,
        reject=bool(stat > crit),
        p_value=pval,
        p_value_se=pval_se,
    )
