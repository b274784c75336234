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
from functools import cached_property
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
_DEFAULT_DRAWS = 1_000_000
_MIN_DRAWS = 100_000
_MC_BLOCK = 250_000
_SERIES_REL_TAIL = 1e-12
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


class MixtureLaw:
    """Distribution of sum_k w_k Y_k with independent chi-square terms
    Y_k ~ chi2(df_k, nc_k).

    A single-term law is evaluated by the noncentral series alone and draws
    nothing; the error it reports (`se` of `quantile` and `tail`) is the
    series' truncation bound, the Poisson mass left outside the summed
    window: 0 for a central term and at most 1e-12 otherwise.  A
    multi-term law reads its quantiles and tail probabilities off a cached,
    sorted Monte Carlo sample of `draws` values (1M by default) drawn from
    per-(term, block) counter-based streams, which makes the sample
    deterministic in the seed and exactly linear in the weights; its `se`
    is the Monte Carlo standard error.
    """

    def __init__(self, p: int, terms, draws: int = _DEFAULT_DRAWS,
                 seed: int = 0, tail_bound: float = 0.0, signature=None):
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
        self.draws = int(draws)
        self.seed = int(seed)
        self.tail_bound = float(tail_bound)
        self.signature = signature
        self._samples = {}
        self._quantiles = {}
        self._validate_draws(self.draws)

    @staticmethod
    def _validate_draws(draws: int) -> None:
        if draws < _MIN_DRAWS:
            raise ValueError(f"need at least {_MIN_DRAWS} draws, got {draws}")

    def sample(self, draws: Optional[int] = None,
               seed: Optional[int] = None) -> np.ndarray:
        """Sorted Monte Carlo draws of the mixture (cached)."""
        draws = self.draws if draws is None else int(draws)
        seed = self.seed if seed is None else int(seed)
        self._validate_draws(draws)
        key = (draws, seed)
        if key not in self._samples:
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
            if len(self._samples) >= 4:
                self._samples.clear()
            self._samples[key] = total
        return self._samples[key]

    @cached_property
    def _series_bound(self) -> float:
        _, _, nc = self.terms[0]
        return 0.0 if nc == 0.0 else _poisson_window(nc / 2.0)[2]

    def _series_tail(self, c: float) -> float:
        weight, df, nc = self.terms[0]
        return float(noncentral_chi2_sf(c / weight, df, nc))

    def _series_quantile(self, alpha: float) -> float:
        weight, df, nc = self.terms[0]
        target = 1.0 - alpha

        def gap(t):
            return noncentral_chi2_cdf(t, df, nc) - target

        hi = df + nc + 20.0 * math.sqrt(2.0 * (df + 2.0 * nc)) + 20.0
        while gap(hi) < 0.0:
            hi *= 2.0
        root = optimize.brentq(gap, 0.0, hi, xtol=1e-12 * hi, rtol=8.9e-16)
        return weight * root

    def quantile(self, alpha: float, draws: Optional[int] = None,
                 seed: Optional[int] = None):
        """Upper-alpha point with its error (memoized)."""
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        draws = self.draws if draws is None else int(draws)
        seed = self.seed if seed is None else int(seed)
        memo_key = (alpha, draws, seed)
        if memo_key in self._quantiles:
            return self._quantiles[memo_key]
        self._validate_draws(draws)
        if len(self.terms) == 1:
            result = (self._series_quantile(alpha), self._series_bound)
        else:
            sample = self.sample(draws, seed)
            size = sample.size
            # np.quantile's default linear interpolation, read off the
            # sorted sample instead of partitioning a copy of it
            rank = (1.0 - alpha) * (size - 1)
            below = math.floor(rank)
            frac = rank - below
            a, b = sample[below], sample[min(below + 1, size - 1)]
            value = b - (b - a) * (1.0 - frac) if frac >= 0.5 else a + (b - a) * frac
            band = math.sqrt(alpha * (1.0 - alpha) * size)
            lo = sample[max(0, math.floor(rank - band))]
            hi = sample[min(size - 1, math.ceil(rank + band))]
            result = (float(value), float(hi - lo) / 2.0)
        if len(self._quantiles) >= 64:
            self._quantiles.clear()
        self._quantiles[memo_key] = result
        return result

    def tail(self, c: float, draws: Optional[int] = None,
             seed: Optional[int] = None):
        """P[mixture > c] with its error."""
        if len(self.terms) == 1:
            self._validate_draws(self.draws if draws is None else int(draws))
            return self._series_tail(c), self._series_bound
        sample = self.sample(draws, seed)
        size = sample.size
        beyond = float(size - np.searchsorted(sample, c, side="right")) / size
        se = math.sqrt(max(beyond * (1.0 - beyond), 1.0 / size) / size)
        return beyond, se

    def to_record(self) -> str:
        lines = [
            f"p={self.p}",
            f"n_terms={len(self.terms)}",
            f"draws={self.draws}",
            f"seed={self.seed}",
            f"tail_bound={self.tail_bound:.12g}",
        ]
        for i, (weight, df, nc) in enumerate(self.terms, start=1):
            lines.append(f"term{i}={weight:.12g},{df},{nc:.12g}")
        return "\n".join(lines) + "\n"


def limit_law(weights: WeightSequence, p: int,
              f: Optional[AngularFunction] = None,
              tau: Optional[float] = None,
              rate_exponent: Optional[float] = None, q: int = 12,
              draws: int = _DEFAULT_DRAWS, seed: int = 0) -> MixtureLaw:
    """Limiting chi-square mixture of the statistic.

    With no alternative arguments this is the null law: one central term
    per active degree.  Given (f, tau, rate_exponent), the mixture under
    kappa_n = n^(-rate_exponent) tau: degrees between k_dagger and k_star
    of the k_star parity pick up the delayed-case noncentrality when the
    rate sits exactly at the threshold 1/(2 k_star); faster-decaying rates
    leave every term central; slower ones have no nondegenerate limit.
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
    return MixtureLaw(p, terms, draws=draws, seed=seed, tail_bound=tail_bound,
                      signature=weights.signature(p))


@dataclass(frozen=True)
class AsymptoticPower:
    """Limiting rejection probability at the detection-threshold rate."""

    power: float
    se: float
    trivial: bool
    tail_bound: float = 0.0


def asymptotic_power(weights: WeightSequence, p: int, f: AngularFunction,
                     tau: float, alpha: float, q: int = 12,
                     draws: int = _DEFAULT_DRAWS,
                     seed: int = 0) -> AsymptoticPower:
    """P[noncentral mixture > null upper-alpha point] at the threshold
    rate of the (weights, f) pair; exactly alpha with the trivial flag
    when the classification is blind."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    report = classify_threshold(weights, f, q)
    if report.case == "blind":
        return AsymptoticPower(alpha, 0.0, True)
    null = limit_law(weights, p, q=q, draws=draws, seed=seed)
    crit, _ = null.quantile(alpha)
    alt = limit_law(weights, p, f, tau, report.rate_exponent, q=q,
                    draws=draws, seed=seed)
    power, se = alt.tail(crit)
    return AsymptoticPower(power, se, False, alt.tail_bound)


def power_curve(weights: WeightSequence, p: int, f: AngularFunction, taus,
                alpha: float, q: int = 12, draws: int = _DEFAULT_DRAWS,
                seed: int = 0) -> list:
    """asymptotic_power over a tau grid, reusing one null critical value."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    report = classify_threshold(weights, f, q)
    if report.case == "blind":
        return [AsymptoticPower(alpha, 0.0, True) for _ in taus]
    null = limit_law(weights, p, q=q, draws=draws, seed=seed)
    crit, _ = null.quantile(alpha)
    rows = []
    for tau in taus:
        alt = limit_law(weights, p, f, tau, report.rate_exponent, q=q,
                        draws=draws, seed=seed)
        power, se = alt.tail(crit)
        rows.append(AsymptoticPower(power, se, False, alt.tail_bound))
    return rows


def power_curve_csv(weights: WeightSequence, p: int, f: AngularFunction,
                    taus, alpha: float, q: int = 12,
                    draws: int = _DEFAULT_DRAWS, seed: int = 0) -> str:
    rows = power_curve(weights, p, f, taus, alpha, q=q, draws=draws, seed=seed)
    lines = ["tau,power,se,flag"]
    for tau, row in zip(taus, rows):
        flag = "trivial" if row.trivial else "ok"
        lines.append(f"{tau:.10g},{row.power:.10g},{row.se:.10g},{flag}")
    return "\n".join(lines) + "\n"
