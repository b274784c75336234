"""Sobolev statistics for testing uniformity on the sphere: weight
sequences over harmonic degrees, the O(n^2) kernel form and the harmonic
form of the statistic, plus the classical special cases.

The harmonic form takes each active degree k by one of two routes, fixed
by k alone.  Degrees 1-4 come from moment power sums
S_m = sum_ij (u_i'u_j)^m = ||sum_i u_i^(x)m||^2, m <= k, built by a few
matrix products over the sample's (p, n) coordinate rows with no harmonic
basis, degree 3 from the distinct entries of its traceless third-moment
tensor; degrees 5 and up sum the columns of the d_{p,k}-column
orthonormal basis over row slices, so memory does not grow with n."""

from __future__ import annotations

import math
import sys
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
# the orders m of the power sums that degrees k <= 4 take, sum_m a_{k,m} P_m (P_0 = 0;
# degree 3's P_1 term is inside its P_3, see _centered_power_sums); higher degrees are
# summed from the columns of the harmonic basis
_POWER_SUM_ORDERS = {1: (1,), 2: (2,), 3: (3,), 4: (4, 2)}
_GEMM_ROWS, _GEMM_SIZE = 24, 10**6  # _gram's gemm range: below 24 rows, 1e6 multiply-adds
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
        self._trunc_cache, self._square_cache = {}, {}
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

    def weight(self, k: int) -> float:
        if k < 1:
            raise ValueError(f"degree must be >= 1, got {k}")
        v = float(self._rule(k))
        # the weights enter squared: v^2 must neither overflow nor leave the normal doubles
        if not (math.isfinite(v * v) and (v == 0.0 or v * v >= sys.float_info.min)):
            raise ValueError(f"weight {v!r} must be 0 or have a square among the normal doubles")
        return v

    @property
    def k_v(self) -> int:
        """Smallest degree with nonzero weight, searched through the last
        entry of a vector, or through degree _TRUNC_K_MAX for a rule."""
        for k in range(1, (self._last or _TRUNC_K_MAX) + 1):
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
        return [k for k, _ in self._squares(p)[0]]

    def _squares(self, p: int) -> tuple:
        """(k, v_k^2) per active degree, and null_terms(p), computed once per p."""
        if p not in self._square_cache:
            degrees = self.support_through(self.truncation(p).k_trunc)
            sq = tuple((k, self.weight(k) ** 2) for k in degrees)
            self._square_cache[p] = sq, tuple((v2, harmonic_dim(p, k), 0.0) for k, v2 in sq)
        return self._square_cache[p]

    def null_terms(self, p: int) -> tuple:
        """(v_k^2, d_{p,k}, 0.0) per active degree: the central chi-square
        terms of the statistic's null limit law."""
        return self._squares(p)[1]


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
    pairs = weights._squares(sample.p)[0]
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


@lru_cache(maxsize=None)
def _layout(p: int) -> tuple:
    """What _centered_power_sums reads of p: row diag[a] + b - a of W' is x_a x_b, a <= b
    (diag[p] = width), pair the square of its sqrt(2), 2 where a < b.  Per third-moment
    entry, rows c, columns a <= b as in W', the orderings weighting its square (0 for c > a);
    the flat indices H shifts, with the t_j and multiple of t_j / (p + 2) each loses (t_c from
    H_caa, 3 t_a from H_aaa, t_b from H_aab, a < b); the chunks of a for steps 2 and p."""
    diag = [a * p - a * (a - 1) // 2 for a in range(p + 1)]
    c, (a, b) = np.arange(p)[:, None], np.triu_indices(p)
    pair = np.where(a == b, 1.0, 2.0)
    orderings = np.where(c < a, 3.0 * pair, np.where(c == a, np.where(a == b, 1.0, 3.0), 0.0))
    at = np.flatnonzero((c <= a) & ((a == b) | (c == a)))
    source = np.broadcast_to(np.where(a == b, c, b), orderings.shape).ravel()[at]
    factor = np.where((c == a) & (a == b), 3.0, 1.0).ravel()[at]
    chunks = {step: [(a0, min(a0 + step, p)) for a0 in range(0, p, step)] for step in (2, p)}
    return diag, pair, orderings, at, source, factor / (p + 2), chunks


def _gram(A: np.ndarray) -> np.ndarray:
    """A A'.  numpy sends A @ A.T to syrk; gemm against a copy of A is faster in the range
    of OpenBLAS's small-matrix gemm kernel (3 x 5000: 10 against 30 us, copy included)."""
    return A @ (A.copy() if len(A) < _GEMM_ROWS and len(A) * A.size <= _GEMM_SIZE else A).T


def _centered_power_sums(XT: np.ndarray, orders: frozenset) -> dict:
    """P_m = S_m - n^2 E_0[s^m] for each m in orders (1 <= m <= 4), where
    E_0[s^m] is the m-th moment of u'v for independent uniform u, v, with
    P_3 - 3 P_1 / (p + 2) in place of P_3.  XT is the C-contiguous (p, n)
    array of coordinate rows.

    sum_m a_{k,m} E_0[s^m] = E_0[h_{p,k}(s)] = 0 for k >= 1, so
    sum_m a_{k,m} S_m = sum_m a_{k,m} P_m with P_0 = 0.  Each P_m is the
    squared norm of a moment tensor with its null mean taken out, so its
    entries are O(sqrt(n)) sums and nothing of order n^2 cancels:
      P_1 = ||t||^2 for t = X'1, the row sums of XT,
      P_2 = ||X'X - (n/p) I||_F^2,  X'X = XT XT',
      P_3 = ||sum_i u_i^(x)3||^2 = sum_abc T_abc^2,
      P_4 = ||W_c'W_c - n Sigma||_F^2 + (2/p) P_2.
    W has the columns x_a x_b, a <= b, off-diagonal ones scaled by
    sqrt(2), so w_i'w_j = (u_i'u_j)^2; W_c is W with 1/p taken from its
    diagonal columns, the coordinates of u_i u_i' - I/p; and n Sigma, with
    Sigma = 2/(p(p+2)) (I - e e'/p) for the indicator e of the diagonal
    columns, is the null mean of W_c'W_c.  W' is formed without the sqrt(2), one multiply
    x_a x_(a..p-1) per a; its square, pair = 2, weights the squared entries of the p x width
    and width x width results (unscaled W_c'W_c loses n Sigma_aa / pair_a).  Degree 3 is
    a_{3,3} P_3 + a_{3,1} P_1 with a_{3,1} = -3 a_{3,3} / (p + 2) for every p, which is
    a_{3,3} ||H||^2 for the traceless
    H_abc = T_abc - (delta_ab t_c + delta_ac t_b + delta_bc t_a) / (p + 2)
    (sum_a T_aac = t_c on unit rows): the P_1 term cancels in the entries, not in the
    sum, where a strong mean direction would cost digits.  It weights the square of
    each distinct H_cab, T_cab = sum_i x_ic x_ia x_ib, c <= a <= b, by its orderings:
    p(p+1)(p+2) n / 6 + about p^2 n / 4 multiply-adds, two a per product (one product
    where p^2 n < 80000), where ||X'W||_F^2 took p^2(p+1) n / 2.
    Both accumulate over blocks of columns of XT: memory O(p^4 + block), never O(n p^2).
    XT XT' and W_c'W_c are formed by _gram, gemm or syrk by their size."""
    p, n = XT.shape
    sums = {}
    if orders & {1, 3}:
        t = XT.sum(axis=1)
        if 1 in orders:
            sums[1] = float(t @ t)
    if orders & {2, 4}:
        scatter = _gram(XT)
        scatter.flat[::p + 1] -= n / p
        sums[2] = float(np.sum(scatter * scatter))
    if orders & {3, 4}:
        diag, pair, orderings, at, source, factor, chunks = _layout(p)
        width = diag[p]
        third = np.zeros((p, width)) if 3 in orders else None
        fourth = np.zeros((width, width)) if 4 in orders else None
        block = max(1, _FEATURE_BLOCK // width)
        # two a per product where a call costs less than the entries c > a it skips
        step = 2 if p * p * min(n, block) >= 80_000 else p
        # degree 4 keeps all of W' for W_c'W_c; degree 3 alone reuses one chunk's rows
        feat = np.empty((width if fourth is not None else diag[step], min(n, block)))
        for i0 in range(0, n, block):
            xb = XT[:, i0:i0 + block]
            fb = feat[:, :xb.shape[1]]
            for a0, a1 in chunks[step]:
                fc = fb[diag[a0]:diag[a1]] if fourth is not None else fb[:diag[a1] - diag[a0]]
                for a in range(a0, a1):
                    j = diag[a] - diag[a0]
                    np.multiply(xb[a], xb[a:], out=fc[j:j + p - a])
                if third is not None:
                    third[:a1, diag[a0]:diag[a1]] += xb[:a1] @ fc.T
            if fourth is not None:
                fb[diag[:p]] -= 1.0 / p
                fourth += _gram(fb)
        if third is not None:
            third.reshape(-1)[at] -= factor * t.take(source)
            sums[3] = float(np.sum(orderings * third * third))
        if fourth is not None:
            shift = 2.0 * n / (p * (p + 2))
            fourth.flat[::width + 1] -= shift / pair
            fourth[np.ix_(diag[:p], diag[:p])] += shift / p
            sums[4] = float(pair @ (fourth * fourth) @ pair) + 2.0 / p * sums[2]
    return sums


@lru_cache(maxsize=256)
def _plan(p: int, squares: tuple) -> tuple:
    """The power-sum orders, degrees k <= 4 with their (m, a_{k,m}) and degrees k >= 5
    of a weight list, keyed on values (each sequence's (k, v_k^2)), not on objects."""
    wanted = {k for pairs in squares for k, _ in pairs}
    low = sorted(wanted & _POWER_SUM_ORDERS.keys())
    coeffs = tuple((k, tuple((m, _kernel_monomials(p, k)[m]) for m in _POWER_SUM_ORDERS[k]))
                   for k in low)
    orders = frozenset(m for k in low for m in _POWER_SUM_ORDERS[k])
    return orders, coeffs, tuple(sorted(wanted.difference(low)))


def stat_harmonics(sample: SphericalSample, weight_list) -> list:
    """stat_harmonic of every weight sequence in weight_list on one
    sample: sum_k v_k^2 || n^(-1/2) sum_i G_k(u_i) ||^2 over each one's
    active degrees.

    One _centered_power_sums call, on the sample's coordinate rows
    (copied into that layout if they are not in it), serves the orders of
    every sequence's degrees k <= 4, and each degree k >= 5 sums the
    columns of basis_matrix(p, k, X[i:i + rows]) once over row slices of
    at most 4 _FEATURE_BLOCK entries.  Each P_m and each column sum comes
    out the same whatever else is requested, so every statistic has the
    bits it has alone, and the same on points in any memory layout."""
    XT = np.ascontiguousarray(sample.points.T)
    p, n = XT.shape
    squares = tuple(weights._squares(p)[0] for weights in weight_list)
    orders, coeffs, high = _plan(p, squares)
    sums = _centered_power_sums(XT, orders)
    values = {k: sum(a * sums[m] for m, a in terms) for k, terms in coeffs}
    for k in high:
        rows = max(1, 4 * _FEATURE_BLOCK // harmonic_dim(p, k))
        col = sum(basis_matrix(p, k, XT[:, i:i + rows].T).sum(axis=0) for i in range(0, n, rows))
        values[k] = float(col @ col)
    return [sum((v2 * values[k] / n for k, v2 in pairs), 0.0) for pairs in squares]


def stat_harmonic(sample: SphericalSample, weights: WeightSequence) -> float:
    """Harmonic route: sum_k v_k^2 || n^(-1/2) sum_i G_k(u_i) ||^2 over the
    active degrees; equal to stat_kernel up to roundoff.

    A degree k <= 4 is (1/n) sum_m a_{k,m} P_m over m = k, k-2, ... >= 1,
    from the centered power sums of _centered_power_sums; no basis is
    built.  A degree k >= 5 sums the columns of basis_matrix(p, k, X)
    over row slices.  The two routes agree with stat_kernel and with each
    other within a relative 1e-11 on the tests' samples, n <= 5000, p <= 50."""
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
    if not math.isfinite(stat):
        raise ArithmeticError(f"statistic {stat!r} is not finite")
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
