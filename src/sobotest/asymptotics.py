"""Limit theory behind the Sobolev tests: concentration expansions of
projection moments and Gegenbauer expectations, noncentrality parameters,
detection-threshold classification, chi-square mixture laws, and
asymptotic power curves.

Conventions used throughout: the local alternative has concentration
kappa_n = n^(-rate_exponent) * tau, the angular function f is normalized
by f(0) = 1, and expansions are indexed so that the coefficient of
kappa^ell sits at position ell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy import optimize
from scipy import stats as sps
from scipy.special import gammaln, pdtr, pdtrc

from .rng import stream
from .rotsym import AngularFunction
from .sobolev import WeightSequence
from .specfun import (
    _gegen_poly_exact,
    harmonic_dim,
    monomial_to_gegenbauer,
    null_moment,
    t_factor,
)

__all__ = [
    "ExpansionSystem",
    "expansion_system",
    "expansion_coeffs",
    "gegenbauer_expectation_coeffs",
    "noncentrality_standard",
    "noncentrality_delayed",
    "ThresholdReport",
    "classify_threshold",
    "MixtureLaw",
    "limit_law",
    "noncentral_chi2_cdf",
    "noncentral_chi2_sf",
    "AsymptoticPower",
    "asymptotic_power",
    "power_curve",
    "power_curve_csv",
]

# coefficient growth makes higher orders useless in double precision
_MAX_SYSTEM_ORDER = 16
_MC_BLOCK = 250_000
_SERIES_REL_TAIL = 1e-12
_INVERSION_EPS = 1e-12  # target of the inversion's aliasing and truncation errors
_INVERSION_MAX_NODES = 1 << 18
_DUAL_FORM_RTOL = 1e-10


def _null_moment_exact(p: int, m: int) -> Fraction:
    if m % 2:
        return Fraction(0)
    out = Fraction(1)
    for r in range(m // 2):
        out *= Fraction(1 + 2 * r, p + 2 * r)
    return out


@dataclass(frozen=True)
class ExpansionSystem:
    """Unit lower-triangular system of one concentration expansion.

    Row ell of A^{-1} applied to the moment vector v (or the Gegenbauer
    vector z) gives the kappa^ell coefficient of E[t^m] (respectively of
    E[C_k(t)] before the 1/t^2 normalization).
    """

    p: int
    order: int
    A: np.ndarray
    v: Optional[np.ndarray]
    z: Optional[np.ndarray]
    m: Optional[int]
    k: Optional[int]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Forward substitution; the unit diagonal needs no divisions."""
        b = np.array(rhs, dtype=float)
        for i in range(1, b.size):
            b[i] -= self.A[i, :i] @ b[:i]
        return b

    def neumann_inverse(self) -> np.ndarray:
        """A^{-1} as the alternating power sum of the strictly lower part;
        terminates exactly because that part is nilpotent."""
        size = self.order + 1
        low = self.A - np.eye(size)
        out = np.eye(size)
        term = np.eye(size)
        for _ in range(self.order):
            term = -term @ low
            out += term
        return out


def expansion_system(p: int, f: AngularFunction, order: int,
                     m: Optional[int] = None,
                     k: Optional[int] = None) -> ExpansionSystem:
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    if order > _MAX_SYSTEM_ORDER:
        raise ValueError(f"order {order} exceeds the cap {_MAX_SYSTEM_ORDER}")
    size = order + 1
    derivs = [f.derivative_at_zero(i) / math.factorial(i) for i in range(size)]
    matrix = np.eye(size)
    for i in range(size):
        for j in range(i):
            matrix[i, j] = null_moment(p, i - j) * derivs[i - j]
    v = None
    if m is not None:
        if m < 1:
            raise ValueError(f"moment order must be >= 1, got {m}")
        v = np.array([null_moment(p, m + i) * derivs[i] for i in range(size)])
    z = None
    if k is not None:
        if k < 1:
            raise ValueError(f"degree must be >= 1, got {k}")
        z = np.array([monomial_to_gegenbauer(p, i)[k] * derivs[i] if i >= k else 0.0
                      for i in range(size)])
    return ExpansionSystem(p, order, matrix, v, z, m, k)


def expansion_coeffs(p: int, m: int, q: int, f: AngularFunction) -> np.ndarray:
    """Coefficients b_{m,0..q-m} with E[t^m] = sum_ell b_{m,ell} kappa^ell
    + o(kappa^(q-m)) under concentration kappa."""
    if m < 1:
        raise ValueError(f"moment order must be >= 1, got {m}")
    if q < m:
        raise ValueError(f"expansion horizon q={q} must be >= m={m}")
    system = expansion_system(p, f, q - m, m=m)
    return system.solve(system.v)


def gegenbauer_expectation_coeffs(p: int, k: int, r: int,
                                  f: AngularFunction) -> np.ndarray:
    """Coefficients of kappa^ell, ell = k..k+r, in E[C_k(t)]; positions
    below k are structural zeros and are dropped.  The leading entry is
    m_{k,k} f^(k)(0) / (k! t_{p,k}^2)."""
    if r < 0:
        raise ValueError(f"remainder order must be >= 0, got {r}")
    system = expansion_system(p, f, k + r, k=k)
    full = system.solve(system.z)
    return full[k:] / t_factor(p, k) ** 2


def _zonal_drift_exact(p: int, k: int, k_star: int) -> Fraction:
    """E[C_k(t) t^k_star] under uniformity, via the alternating monomial
    coefficient sum of C_k; equals m_{k,k_star} / t_{p,k}^2.  Rational
    arithmetic so the route stays a genuine cross-check at high degrees."""
    poly = _gegen_poly_exact(Fraction(p - 2, 2), k)
    total = Fraction(0)
    for power, coeff in enumerate(poly):
        if coeff:
            total += coeff * _null_moment_exact(p, power + k_star)
    return total


def noncentrality_standard(p: int, k: int, tau: float,
                           f: AngularFunction) -> float:
    """Noncentrality of the degree-k mixture term at the threshold rate
    n^(-1/(2k)): d_{p,k} (f^(k)(0))^2 tau^(2k) / prod_{l<k}(p+2l)^2.

    The equivalent m_{k,k}-form is evaluated alongside and both must agree
    to 1e-10 relative."""
    if k < 1:
        raise ValueError(f"degree must be >= 1, got {k}")
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    fk = f.derivative_at_zero(k)
    if fk == 0.0 or tau == 0.0:
        return 0.0
    prod = 1.0
    for ell in range(k):
        prod *= p + 2 * ell
    value = harmonic_dim(p, k) * fk**2 * tau ** (2 * k) / prod**2
    m_kk = monomial_to_gegenbauer(p, k)[k]
    alt = m_kk**2 * fk**2 * tau ** (2 * k) / (
        math.factorial(k) ** 2 * t_factor(p, k) ** 2)
    if abs(value - alt) > _DUAL_FORM_RTOL * max(abs(value), abs(alt)):
        raise ArithmeticError(
            f"noncentrality closed forms disagree: {value!r} vs {alt!r}")
    return value


def noncentrality_delayed(p: int, k: int, k_star: int, tau: float,
                          f: AngularFunction) -> float:
    """Noncentrality of the degree-k term when detection happens through
    order k_star >= k of matching parity:
    m_{k,k_star}^2 (f^(k_star)(0))^2 tau^(2 k_star) / ((k_star!)^2 t_{p,k}^2).

    Also evaluated through the alternating Gegenbauer-coefficient sum and
    checked to 1e-10 relative; reduces to noncentrality_standard at
    k_star = k."""
    if k < 1:
        raise ValueError(f"degree must be >= 1, got {k}")
    if k_star < k:
        raise ValueError(f"k_star={k_star} must be >= k={k}")
    if (k_star - k) % 2:
        raise ValueError(f"k={k} and k_star={k_star} must have equal parity")
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    fks = f.derivative_at_zero(k_star)
    if fks == 0.0 or tau == 0.0:
        return 0.0
    t2 = t_factor(p, k) ** 2
    m_k = monomial_to_gegenbauer(p, k_star)[k]
    scale = fks**2 * tau ** (2 * k_star) / math.factorial(k_star) ** 2
    value = m_k**2 / t2 * scale
    drift = float(_zonal_drift_exact(p, k, k_star))
    alt = drift**2 * t2 * scale
    if abs(value - alt) > _DUAL_FORM_RTOL * max(abs(value), abs(alt)):
        raise ArithmeticError(
            f"noncentrality closed forms disagree: {value!r} vs {alt!r}")
    return value


@dataclass(frozen=True)
class ThresholdReport:
    """Outcome of the detection-threshold classification of a weight
    sequence against an angular function, searched up to order q."""

    k_v: int
    q: int
    case: str
    k_star: Optional[int] = None
    k_dagger: Optional[int] = None
    rate_exponent: Optional[float] = None
    blind_up_to_order: Optional[int] = None

    def rate_string(self) -> str:
        if self.k_star is None:
            return "none"
        return f"n^(-1/{2 * self.k_star})"

    def to_record(self) -> str:
        def fmt(x):
            return "none" if x is None else str(x)

        lines = [
            f"case={self.case}",
            f"k_v={self.k_v}",
            f"q={self.q}",
            f"k_star={fmt(self.k_star)}",
            f"k_dagger={fmt(self.k_dagger)}",
            f"rate={self.rate_string()}",
            f"rate_exponent={'none' if self.rate_exponent is None else format(self.rate_exponent, '.12g')}",
            f"blind_up_to_order={fmt(self.blind_up_to_order)}",
        ]
        if self.case == "blind":
            lines.append(
                f"note=trivial power against kappa_n = tau n^(-1/{2 * self.q})"
                " and all slower polynomial rates")
        return "\n".join(lines) + "\n"


def classify_threshold(weights: WeightSequence, f: AngularFunction,
                       q: int) -> ThresholdReport:
    """Smallest order k in {k_v..q} with f^(k)(0) != 0 and a supported
    weight of matching parity below it; sets the detection rate
    n^(-1/(2 k_star)).  No such order means the test is blind up to q."""
    if q < 1:
        raise ValueError(f"search horizon must be >= 1, got {q}")
    k_v = weights.k_v
    support = weights.support_through(q)
    for k in range(k_v, q + 1):
        if f.derivative_at_zero(k) == 0.0:
            continue
        matching = [ell for ell in support if ell <= k and (k - ell) % 2 == 0]
        if matching:
            case = "standard" if k == k_v else "delayed"
            return ThresholdReport(k_v, q, case, k_star=k,
                                   k_dagger=matching[0],
                                   rate_exponent=1.0 / (2 * k))
    return ThresholdReport(k_v, q, "blind", blind_up_to_order=q)


def _poisson_window(half_nc: float):
    """Mode-centered Poisson(half_nc) weights covering all but
    _SERIES_REL_TAIL of the mass, and the mass they leave out."""
    mode = int(half_nc)
    half = int(10 + 8.0 * math.sqrt(half_nc + 1.0))
    while True:
        lo = max(0, mode - half)
        hi = mode + half
        outside = float(pdtrc(hi, half_nc)) + (float(pdtr(lo - 1, half_nc)) if lo else 0.0)
        if outside <= _SERIES_REL_TAIL:
            break
        half *= 2
    js = np.arange(lo, hi + 1)
    logw = js * math.log(half_nc) - half_nc - gammaln(js + 1)
    w = np.exp(logw)
    # rounding in the log-weights grows with half_nc and can leave the
    # window short of its mass by far more than it leaves out (2.5e-10 at
    # half_nc = 3.9e5); such a window is rescaled, an overshoot is clipped
    # by the caller
    total = w.sum()
    if total < 1.0 - _SERIES_REL_TAIL:
        w /= total
    return js, w, outside


def _series_combine(x, df: int, nc: float, chi2_fn):
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if nc == 0.0:
        out = chi2_fn(x_arr, df)
    else:
        js, w, _ = _poisson_window(nc / 2.0)
        out = w @ chi2_fn(x_arr[None, :], (df + 2 * js)[:, None])
        # unnormalized window weights can overshoot 1 by rounding
        out = np.clip(out, 0.0, 1.0)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out[0])
    return out


def noncentral_chi2_cdf(x, df: int, nc: float):
    """CDF of chi-square(df, nc) via the Poisson-weighted central series,
    truncated at relative tail 1e-12."""
    return _series_combine(x, df, nc, sps.chi2.cdf)


def noncentral_chi2_sf(x, df: int, nc: float):
    """Upper tail companion of noncentral_chi2_cdf; summed directly from
    central survival functions so deep tails keep relative accuracy."""
    return _series_combine(x, df, nc, sps.chi2.sf)


class _Series:
    """P[w chi2(df, nc) > x] by the Poisson series, with relative accuracy
    deep in the tail.  Its bound is the Poisson mass outside the window plus
    rounding in the log-weights j log(nc / 2) - ..., growing with j and
    |log(nc / 2)|."""

    def __init__(self, weight: float, df: int, nc: float):
        self.weight, self.df, self.nc = weight, df, nc
        self.bound = 0.0
        if nc > 0.0:
            js, _, outside = _poisson_window(nc / 2.0)
            self.bound = outside + np.finfo(float).eps * js[-1] * abs(math.log(nc / 2.0))

    def tail(self, x: float):
        return float(noncentral_chi2_sf(x / self.weight, self.df, self.nc)), self.bound

    def quantile(self, alpha: float):
        df, nc, target = self.df, self.nc, 1.0 - alpha

        def gap(t):
            return noncentral_chi2_cdf(t, df, nc) - target

        hi = df + nc + 20.0 * math.sqrt(2.0 * (df + 2.0 * nc)) + 20.0
        while gap(hi) < 0.0:
            hi *= 2.0
        root = optimize.brentq(gap, 0.0, hi, xtol=1e-12 * hi, rtol=8.9e-16)
        return self.weight * root, self.bound


class _Inversion:
    """P[Q > x], Q = sum_k w_k chi2(d_k, nc_k), by Gil-Pelaez inversion of its
    characteristic function phi with the midpoint rule (Imhof 1961, Davies
    1980), 1/2 + sum_j |phi(t_j)| sin(arg phi(t_j) - t_j x) / (pi (j + 1/2)) at
    t_j = (j + 1/2) h.  h = pi / q_hi aliases at most eps into x in [q_lo, q_hi],
    beyond which the tail is within eps of 1 or 0; the sum stops where its rest,
    less the leading geometric term (added), is bounded by eps.  Nodes are cached
    in blocks over fixed index ranges, so no result depends on call history."""

    def __init__(self, terms):
        w, d, nc = self._w, self._d, self._nc = [np.array(c, dtype=float) for c in zip(*terms)]
        # Chernoff: E[exp(s Q)] exp(-s q) >= P[Q > q] (0 < s < 1 / (2 max w)), P[Q < q] (s < 0)
        s = np.append(-np.logspace(-3, 8, 100), np.linspace(0.005, 0.995, 199)) / (2 * w.max())
        ws = w * s[:, None]
        log_mgf = np.sum(nc * ws / (1.0 - 2.0 * ws) - 0.5 * d * np.log1p(-2.0 * ws), axis=1)
        q = (log_mgf - math.log(_INVERSION_EPS)) / s
        self.q_lo, self.q_hi = max(0.0, float(q[:100].max())), float(q[100:].min())
        self.h = math.pi / self.q_hi
        # t_j, |phi| / (pi (j + 1/2)), arg phi, -log of the rest's bound without the sine
        self._nodes = np.empty((4, 0))
        self._extend()

    def _extend(self) -> None:
        size = self._nodes.shape[1]
        j = np.arange(size, max(2 * size, 512)) + 0.5
        t = j * self.h
        wt = self._w * t[:, None]
        r = 1.0 + 4.0 * wt * wt
        log_mod = -np.sum(2.0 * self._nc * wt * wt / r + 0.25 * self._d * np.log(r), axis=1)
        amp = np.exp(log_mod) / (math.pi * j)
        arg = np.sum(0.5 * self._d * np.arctan(2.0 * wt) + self._nc * wt / r, axis=1)
        # summation by parts twice bounds the rest past t by h^2 / (pi sin^2(h x
        # / 2)) int_t^inf |(phi(s) / s)''| ds, where |phi(s)| <= |phi(t)| (t/s)^de
        # (log r is convex in log s; the noncentral factor falls), |psi| <= dd/s +
        # lam/s^2 and |psi'| <= dd/s^2 + 2 lam/s^3 for psi = phi'/phi
        dd = 0.5 * float(self._d.sum())
        lam = float(np.sum(self._nc / (4.0 * self._w)))
        de = np.sum(0.5 * self._d * (1.0 - 1.0 / r), axis=1)
        u = lam / t
        poly = ((dd + 1.0) * (dd + 2.0) / (de + 2.0) + (2.0 * dd + 4.0) * u / (de + 3.0)
                + u * u / (de + 4.0))
        bound = log_mod + np.log(poly / (math.pi * t * t)) + 2.0 * math.log(self.h)
        self._nodes = np.concatenate([self._nodes, [t, amp, arg, -bound]], axis=1)

    def tail(self, x: float):
        if x <= self.q_lo:
            return 1.0, _INVERSION_EPS
        if x >= self.q_hi:
            return 0.0, _INVERSION_EPS
        half = math.sin(0.5 * self.h * x)
        goal = -math.log(_INVERSION_EPS * half * half)
        while self._nodes[3, -1] < goal and self._nodes.shape[1] < _INVERSION_MAX_NODES:
            self._extend()
        t, amp, arg, bound = self._nodes
        k = min(int(np.searchsorted(bound, goal)), bound.size - 1)
        head = float(np.sum(amp[:k] * np.sin(arg[:k] - t[:k] * x)))
        rest = -float(amp[k]) * math.cos(arg[k] - (t[k] - 0.5 * self.h) * x) / (2.0 * half)
        value = min(max(0.5 + head + rest, 0.0), 1.0)
        return value, _INVERSION_EPS + math.exp(-bound[k]) / (half * half)

    def quantile(self, alpha: float):
        root = optimize.brentq(lambda x: self.tail(x)[0] - alpha, 0.0, self.q_hi,
                               xtol=1e-12 * self.q_hi, rtol=8.9e-16)
        return root, self.tail(root)[1]


class MixtureLaw:
    """Distribution of sum_k w_k Y_k with independent chi-square terms
    Y_k ~ chi2(df_k, nc_k), evaluated deterministically; nothing is drawn.

    One term is evaluated by the noncentral Poisson series, two or more by
    characteristic-function inversion.  `quantile` and `tail` return the
    evaluator's error bound (in probability) as `se`: 0 for one central
    term, about 2e-12 absolute for the inversion."""

    def __init__(self, p: int, terms, tail_bound: float = 0.0, signature=None):
        if p < 2:
            raise ValueError(f"p must be >= 2, got {p}")
        clean = []
        for weight, df, nc in terms:
            weight, df, nc = float(weight), int(df), float(nc)
            if weight <= 0.0:
                raise ValueError(f"term weights must be > 0, got {weight}")
            if df < 1:
                raise ValueError(f"degrees of freedom must be >= 1, got {df}")
            if nc < 0.0:
                raise ValueError(f"noncentrality must be >= 0, got {nc}")
            clean.append((weight, df, nc))
        if not clean:
            raise ValueError("a mixture needs at least one term")
        if tail_bound < 0.0:
            raise ValueError(f"tail bound must be >= 0, got {tail_bound}")
        self.p = p
        self.terms = tuple(clean)
        self.tail_bound = float(tail_bound)
        self.signature = signature
        self._quantiles = {}
        self._evaluator = (_Series(*self.terms[0]) if len(self.terms) == 1
                           else _Inversion(self.terms))

    def sample(self, draws: int = 1_000_000, seed: int = 0) -> np.ndarray:
        """Sorted Monte Carlo draws from per-(term, block) counter-based
        streams, exactly linear in the weights; the tests' independent
        reference for the evaluators, which never use it."""
        total = np.zeros(draws)
        for idx, (weight, df, nc) in enumerate(self.terms):
            for block, start in enumerate(range(0, draws, _MC_BLOCK)):
                gen = stream(seed, idx, block)
                count = min(_MC_BLOCK, draws - start)
                if nc > 0.0:
                    part = gen.noncentral_chisquare(df, nc, count)
                else:
                    part = gen.chisquare(df, count)
                total[start:start + count] += weight * part
        total.sort()
        return total

    def quantile(self, alpha: float):
        """Upper-alpha point with its error (memoized)."""
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if alpha not in self._quantiles:
            if len(self._quantiles) >= 64:
                self._quantiles.clear()
            self._quantiles[alpha] = self._evaluator.quantile(alpha)
        return self._quantiles[alpha]

    def tail(self, c: float):
        """P[mixture > c] with its error."""
        return self._evaluator.tail(float(c))

    def to_record(self) -> str:
        lines = [f"p={self.p}", f"n_terms={len(self.terms)}",
                 f"tail_bound={self.tail_bound:.12g}"]
        for i, (weight, df, nc) in enumerate(self.terms, start=1):
            lines.append(f"term{i}={weight:.12g},{df},{nc:.12g}")
        return "\n".join(lines) + "\n"


def limit_law(weights: WeightSequence, p: int,
              f: Optional[AngularFunction] = None,
              tau: Optional[float] = None,
              rate_exponent: Optional[float] = None, q: int = 12) -> MixtureLaw:
    """Limiting chi-square mixture of the statistic.

    With no alternative arguments this is the null law: one central term
    per active degree.  Given (f, tau, rate_exponent), the mixture under
    kappa_n = n^(-rate_exponent) tau: degrees between k_dagger and k_star
    of the k_star parity pick up the delayed-case noncentrality when the
    rate sits exactly at the threshold 1/(2 k_star); faster-decaying rates
    leave every term central; slower ones have no nondegenerate limit.
    Evaluated deterministically, with no draws (see MixtureLaw).
    """
    given = (f is not None, tau is not None, rate_exponent is not None)
    if any(given) and not all(given):
        raise ValueError("an alternative law needs f, tau, and rate_exponent together")
    if tau is not None and tau < 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    if rate_exponent is not None and rate_exponent <= 0.0:
        raise ValueError(f"rate exponent must be > 0, got {rate_exponent}")
    active = weights.active_degrees(p)
    tail_bound = 0.0 if weights.kind == "finite" else weights.truncation(p).tail_mass
    noncentral = {k: 0.0 for k in active}
    if all(given) and tau > 0.0:
        report = classify_threshold(weights, f, q)
        if report.case != "blind":
            threshold = report.rate_exponent
            if rate_exponent < threshold * (1.0 - 1e-9):
                raise ValueError(
                    f"kappa_n = n^(-{rate_exponent:g}) tau decays slower than the "
                    f"detection threshold {report.rate_string()}; the statistic "
                    "diverges and has no nondegenerate limit")
            if abs(rate_exponent - threshold) <= 1e-9 * threshold:
                for k in active:
                    if (report.k_dagger <= k <= report.k_star
                            and (report.k_star - k) % 2 == 0):
                        noncentral[k] = noncentrality_delayed(
                            p, k, report.k_star, tau, f)
    terms = [(weights.weight(k) ** 2, harmonic_dim(p, k), noncentral[k])
             for k in active]
    return MixtureLaw(p, terms, tail_bound=tail_bound, signature=weights.signature(p))


@dataclass(frozen=True)
class AsymptoticPower:
    """Limiting rejection probability at the detection-threshold rate."""

    power: float
    se: float
    trivial: bool
    tail_bound: float = 0.0


def asymptotic_power(weights: WeightSequence, p: int, f: AngularFunction,
                     tau: float, alpha: float, q: int = 12) -> AsymptoticPower:
    """P[noncentral mixture > null upper-alpha point] at the threshold
    rate of the (weights, f) pair, with the law's error bound as `se`;
    exactly alpha with the trivial flag when the classification is blind."""
    return power_curve(weights, p, f, [tau], alpha, q=q)[0]


def power_curve(weights: WeightSequence, p: int, f: AngularFunction, taus,
                alpha: float, q: int = 12) -> list:
    """asymptotic_power over a tau grid, reusing one null critical value."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    report = classify_threshold(weights, f, q)
    if report.case == "blind":
        return [AsymptoticPower(alpha, 0.0, True) for _ in taus]
    null = limit_law(weights, p, q=q)
    crit, _ = null.quantile(alpha)
    rows = []
    for tau in taus:
        alt = limit_law(weights, p, f, tau, report.rate_exponent, q=q)
        power, se = alt.tail(crit)
        rows.append(AsymptoticPower(power, se, False, alt.tail_bound))
    return rows


def power_curve_csv(weights: WeightSequence, p: int, f: AngularFunction,
                    taus, alpha: float, q: int = 12) -> str:
    rows = power_curve(weights, p, f, taus, alpha, q=q)
    lines = ["tau,power,se,flag"]
    for tau, row in zip(taus, rows):
        flag = "trivial" if row.trivial else "ok"
        lines.append(f"{tau:.10g},{row.power:.10g},{row.se:.10g},{flag}")
    return "\n".join(lines) + "\n"
