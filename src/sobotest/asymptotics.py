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
from functools import lru_cache
from statistics import NormalDist
from typing import Optional

import numpy as np

from .rng import stream
from .rotsym import AngularFunction
from .sobolev import WeightSequence
from .specfun import (
    _gegen_poly_exact,
    _kernel_factor,
    _monomial_to_gegenbauer_exact,
    _null_moment_exact,
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
    "AsymptoticPower",
    "power_curve",
    "power_curve_csv",
]

# coefficient growth makes higher orders useless in double precision
_MAX_SYSTEM_ORDER = 16
_MC_BLOCK = 250_000
_EPS = float(np.finfo(float).eps)
_STEP = 0.25           # largest trapezoid step, in units of the contour's sigma
_STEPS_PER_GAP = 6.0   # a singularity g off the nodes' line costs exp(-2 pi g / h) <= 4e-17
_CLEARANCE = 1.5       # least distance, in sigma, of the contour's apex from the pole at 0
_SPAN = 16.0           # u-length of one block of nodes
_MAX_STEPS = 60        # iterations of a Newton search, blocks of a contour
_DUAL_FORM_RTOL = 1e-10
_MILLS_TERMS = 12      # terms of Mills' ratio's series, the last below 1e-24 from w = 30


@dataclass(frozen=True)
class ExpansionSystem:
    """Unit lower-triangular system of one concentration expansion.

    Row ell of A^{-1} applied to the moment vector v (or the Gegenbauer
    vector z) gives the kappa^ell coefficient of E[t^m] (respectively of
    E[C_k(t)] before the 1/t^2 normalization).
    """

    order: int
    A: np.ndarray
    v: Optional[np.ndarray]
    z: Optional[np.ndarray]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Forward substitution; the unit diagonal needs no divisions."""
        b = np.array(rhs, dtype=float)
        for i in range(1, b.size):
            b[i] -= self.A[i, :i] @ b[:i]
        return b


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
    return ExpansionSystem(order, matrix, v, z)


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


@lru_cache(maxsize=None)
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


def _check_tau(tau: float) -> None:
    if not 0.0 <= tau < math.inf:
        raise ValueError(f"tau must be finite and >= 0, got {tau}")


def noncentrality_standard(p: int, k: int, tau: float,
                           f: AngularFunction) -> float:
    """Noncentrality of the degree-k mixture term at the threshold rate
    n^(-1/(2k)): the delayed case at k_star = k, equal to
    d_{p,k} (f^(k)(0))^2 tau^(2k) / prod_{l<k}(p+2l)^2."""
    return noncentrality_delayed(p, k, k, tau, f)


def noncentrality_delayed(p: int, k: int, k_star: int, tau: float,
                          f: AngularFunction) -> float:
    """Noncentrality of the degree-k term when detection happens through
    order k_star >= k of matching parity:
    m_{k,k_star}^2 (f^(k_star)(0))^2 tau^(2 k_star) / ((k_star!)^2 t_{p,k}^2).

    Also evaluated through the alternating Gegenbauer-coefficient sum and
    checked to 1e-10 relative; noncentrality_standard is the case
    k_star = k."""
    if k < 1:
        raise ValueError(f"degree must be >= 1, got {k}")
    if k_star < k:
        raise ValueError(f"k_star={k_star} must be >= k={k}")
    if (k_star - k) % 2:
        raise ValueError(f"k={k} and k_star={k_star} must have equal parity")
    _check_tau(tau)
    fks = f.derivative_at_zero(k_star)
    if fks == 0.0 or tau == 0.0:
        return 0.0
    m_k, drift = _monomial_to_gegenbauer_exact(p, k_star)[k], _zonal_drift_exact(p, k, k_star)
    try:
        scale, t2 = fks**2 * tau ** (2 * k_star) / math.factorial(k_star) ** 2, t_factor(p, k) ** 2
        forms = float(m_k) ** 2 / t2 * scale, float(drift) ** 2 * t2 * scale
    except OverflowError:
        forms = (math.inf,)
    if not math.isfinite(sum(forms)):  # past the largest double: the product in exact rationals
        scale = (Fraction(f.deriv0(k_star)) ** 2 * Fraction(tau) ** (2 * k_star)
                 / math.factorial(k_star) ** 2)
        t2 = _kernel_factor(p, k, Fraction(1)) ** 2 / harmonic_dim(p, k)
        forms = m_k**2 / t2 * scale, drift**2 * t2 * scale
    try:
        value, alt = map(float, forms)
    except OverflowError:
        value = alt = math.inf
    if value == math.inf or abs(value - alt) > _DUAL_FORM_RTOL * max(abs(value), abs(alt)):
        raise ArithmeticError(f"noncentrality at tau={tau!r}, k={k}, k_star={k_star}: closed forms "
                              f"give {float(value)!r} and {float(alt)!r}, not one finite value")
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

    def rate_string(self) -> str:
        if self.k_star is None:
            return "none"
        return f"n^(-1/{2 * self.k_star})"


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
    return ThresholdReport(k_v, q, "blind")


def _gap(a: float, b: float) -> float:
    """Distance from the real axis of the nearest u with s(u) = c + sigma b on
    the parabola s(u) = c + sigma (i u + a u^2), a >= 0."""
    disc = 1.0 - 4.0 * a * b
    return 2.0 * abs(b) / (1.0 + math.sqrt(disc)) if disc > 0.0 else 0.5 / a


def _log_normal_sf(w: float) -> float:
    """log P[Z > w] for a standard normal Z, relative to a few ulp from
    w = 0 on (below 0, to the w^2 ulp by which a rounding of w moves
    P[Z < w]): log1p where the tail is near 1, erfc up to w = 30, and past
    it the asymptotic series log(phi(w) / w) + log(1 - 1/w^2 + 3/w^4 - ...)."""
    if w < 0.0:
        return math.log1p(-0.5 * math.erfc(-w * math.sqrt(0.5)))
    if w < 30.0:
        return math.log(0.5 * math.erfc(w * math.sqrt(0.5)))
    u = 1.0 / (w * w)
    term, series = 1.0, 0.0
    for j in range(1, _MILLS_TERMS + 1):
        term *= -(2 * j - 1) * u
        series += term
    return -0.5 * w * w - math.log(w) - 0.5 * math.log(2.0 * math.pi) + math.log1p(series)


class MixtureLaw:
    """Distribution of Q = sum_k w_k Y_k with independent chi-square terms
    Y_k ~ chi2(df_k, nc_k), evaluated deterministically; nothing is drawn.
    `terms` holds the (w_k, df_k, nc_k) triples; the dimension enters only
    through df_k (see limit_law).

    A tail is the Bromwich integral (1/2 pi i) int exp(K(s) - s x) ds / s of
    the cumulant generating function K, by the trapezoid rule along the
    parabola s(u) = c + sigma (i u + a u^2) of steepest descent through the
    saddlepoint K'(c) = x (Trefethen & Weideman 2014); below the mean c < 0
    and it gives the lower tail.  `quantile` runs Newton's method over c,
    then over x on one parabola's nodes until a step leaves their range.
    Both return as `se` a bound on rounding, trapezoid and truncation error,
    relative to the tail above the mean and absolute below it.  Against scipy
    and mpmath (1 to 4930 df, noncentralities up to 5e6, tails to 1e-60) errors
    stay below 1.3e-12 relative above the mean and 1e-13 below it, within `se`."""

    def __init__(self, terms):
        clean = []
        for weight, df, nc in terms:
            weight, df, nc = float(weight), int(df), float(nc)
            if not 0.0 < weight < math.inf:
                raise ValueError(f"term weights must be finite and > 0, got {weight}")
            if df < 1:
                raise ValueError(f"degrees of freedom must be >= 1, got {df}")
            if not 0.0 <= nc < math.inf:
                raise ValueError(f"noncentrality must be finite and >= 0, got {nc}")
            clean.append((weight, df, nc))
        if not clean:
            raise ValueError("a mixture needs at least one term")
        self.terms = tuple(clean)
        # evaluated in units of the power of two at or below the largest weight: a
        # common factor changes no probability, and this one changes no bit of it
        self._unit = math.ldexp(1.0, math.frexp(max(w for w, _, _ in clean))[1] - 1)
        self._scaled = tuple((w / self._unit, df, nc) for w, df, nc in clean)
        weight, df, nc = (np.array(column, dtype=float) for column in zip(*self._scaled))
        self._w, self._half_df, self._half_nc = weight, 0.5 * df, 0.5 * nc
        self._mean = float(weight @ (df + nc))
        self._cut = 0.5 / float(weight.max())
        k0, k1, _, _ = self._cumulants(0.5 * self._cut)
        self._k_half_cut = k0 + 0.5 * self._cut * k1  # K(cut / 2), for a Chernoff bound

    def sample(self, draws: int = 1_000_000, seed: int = 0) -> np.ndarray:
        """Sorted Monte Carlo draws from per-(term, block) counter-based
        streams, exactly linear in the weights; the tests' independent
        reference for the evaluator, which never uses it."""
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

    def tail(self, c: float):
        """P[mixture > c] with its error; ArithmeticError where the contour
        gives no probability within that error."""
        x = float(c) / self._unit
        if math.isnan(x):
            raise ValueError("a tail needs a number, got nan")
        if x <= 1e-40 * float(self._w.min()):
            # P[Q <= x] <= P[min(w) chi2_1 <= x] < (x / min(w))^(1/2)
            return 1.0, math.sqrt(max(x, 0.0) / float(self._w.min()))
        # Chernoff: P[Q > x] <= exp(K(s) - s x) at s = cut / 2, here below the smallest
        # double; P[Q <= x] <= exp(K(-s) + s x), here below eps / 4, so 1 - it rounds to 1
        if self._k_half_cut - 0.5 * self._cut * x < -746.0:
            return 0.0, 0.0
        if self._mean - x > 75.0 / self._cut:  # else K(-s) + s x >= s (x - K'(0)) > -37.5
            k0, k1, _, _ = self._cumulants(-0.5 * self._cut)
            if (low := k0 + 0.5 * self._cut * (x - k1)) < -37.5:
                return 1.0, math.exp(low)
        value, err, _ = self._contour(x, self._saddle(x))(x)
        if not -err <= value <= 1.0 + err:
            raise ArithmeticError(f"contour tail {value!r} at x={x * self._unit!r} is not "
                                  f"a probability within its error {err!r}")
        return value, err

    def _cumulants(self, c: float):
        """K(c) - c K'(c), K'(c), K''(c) and K'''(c), where K(s) = sum
        -df/2 log(1 - 2 w s) + nc w s / (1 - 2 w s); the first summed in a
        form free of the cancellation between K and c K'."""
        k0 = k1 = k2 = k3 = 0.0
        for w, df, nc in self._scaled:
            t = 2.0 * w * c
            r = 1.0 / (1.0 - t)
            k0 -= 0.5 * (df * (math.log1p(-t) + t * r) + nc * (t * r) ** 2)
            k1 += w * r * (df + nc * r)
            k2 += 2.0 * (w * r) ** 2 * (df + 2.0 * nc * r)
            k3 += 8.0 * (w * r) ** 3 * (df + 3.0 * nc * r)
        return k0, k1, k2, k3

    def _saddle(self, x: float) -> float:
        """c with K'(c) = x, by Newton's method on log K' over
        v = -log(1 - c / cut), where log K' is linear for one central term
        and close to linear at both ends otherwise."""
        v = math.log(x / self._mean)
        for _ in range(_MAX_STEPS):
            c = -math.expm1(-v) * self._cut
            _, k1, k2, _ = self._cumulants(c)
            step = math.log(x / k1) * k1 / (k2 * (self._cut - c))
            v += max(-2.0, min(2.0, step))
            if abs(step) < 1e-9:
                return -math.expm1(-v) * self._cut
        raise ArithmeticError(f"no saddlepoint found for x={x * self._unit!r}")

    def _contour(self, x0: float, c: float):
        """x -> (P[Q > x], its error, Q's density at x) on the parabola through c = saddle(x0)."""
        upper = x0 >= self._mean
        k0, k1, k2, k3 = self._cumulants(c)
        # the apex keeps 1.5 sigma from the pole at 0, on the side of its tail
        clear = _CLEARANCE / math.sqrt(k2)
        apex = max(c, min(clear, 0.5 * self._cut)) if upper else min(c, -clear)
        if apex != c:
            c = apex
            k0, k1, k2, k3 = self._cumulants(c)
        sigma = k2 ** -0.5
        a = k3 * sigma ** 3 / 6.0
        pole_gap, cut_gap = _gap(a, -c / sigma), _gap(a, (self._cut - c) / sigma)
        h = min(_STEP, min(pole_gap, cut_gap) / _STEPS_PER_GAP)
        r = 1.0 / (1.0 - 2.0 * c * self._w)
        two_wr, nc_r = 2.0 * self._w * r, self._half_nc * r
        size = math.ceil(_SPAN / h)
        blocks = []  # the nodes of block j, built on first use

        def block(j):
            # nodes (j + 1/2) h; each mirror image -(j + 1/2) h adds minus the conjugate
            u = h * (np.arange(j * size, (j + 1) * size) + 0.5)
            delta = sigma * u * (1j + a * u)
            q = delta[:, None] * two_wr
            z = 1.0 - q
            # numpy's complex log is several times slower than its parts
            fixed = -(np.log(np.abs(z)) + 1j * np.arctan2(z.imag, z.real) + q) @ self._half_df
            # per term, with s = c + delta and q = 2 w delta / (1 - 2 w c), the
            # exponent K(s) - s x - (K(c) - c x) less its part linear in delta;
            # those parts sum to delta (K'(c) - x); then ds/du and s
            if self._half_nc.any():
                fixed += (q * q / z) @ nc_r
            return delta, fixed, sigma * (1j + 2.0 * a * u), c + delta

        def at(x: float):
            total = density = absum = 0.0
            for j in range(_MAX_STEPS):
                if j == len(blocks):
                    blocks.append(block(j))
                delta, fixed, ds, s = blocks[j]
                e = delta * (k1 - x)
                e += fixed
                e = np.multiply(np.exp(e, out=e), ds, out=e)
                g = (e / s).imag
                size_g = np.abs(g)
                total += float(g.sum())
                density += float(e.imag.sum())
                absum += float(size_g.sum())
                rest = float(size_g[-size // 4:].sum())
                if rest <= _EPS * abs(total):
                    break
            base = k0 + c * (k1 - x)
            scale = math.exp(base) * h / math.pi
            # relative rounding of one node, and the trapezoid error of the cut
            # and of the pole, whose residue is 1
            rounding = 32.0 * _EPS * (1.0 + float(self._half_df.sum()) + (abs(c) + sigma) * x
                                      + abs(base))
            err = (scale * (absum * (rounding + math.exp(-2.0 * math.pi * cut_gap / h)) + rest)
                   + math.exp(-2.0 * math.pi * pole_gap / h))
            value = scale * total
            if upper:
                return value, err + _EPS * value, scale * density
            return 1.0 + value, err + _EPS, scale * density
        return at

    def quantile(self, alpha: float):
        """Upper-alpha point with its error.  Newton's method on
        log P[Q > x] = log alpha over c, where x = K'(c) needs no saddle solve,
        on the saddlepoint tail from the normal approximation; then on the
        contour from that root, over x on its nodes while x keeps to K'(c)'s
        side of the mean and within K''(c)^(1/2)."""
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        c = min(-NormalDist().inv_cdf(alpha) / math.sqrt(self._cumulants(0.0)[2]), 0.5 * self._cut)
        for _ in range(_MAX_STEPS):
            k0, k1, k2, _ = self._cumulants(c)
            # Barndorff-Nielsen's r* form of the Lugannani-Rice tail,
            # log Q(w + log(u / w) / w) with u = c K''(c)^(1/2), and the
            # saddlepoint density over it; in logs, so nothing underflows
            w = math.copysign(math.sqrt(max(-2.0 * k0, 0.0)), c)
            if abs(w) > 1e-4:
                w += math.log(c * math.sqrt(k2) / w) / w
            log_tail = _log_normal_sf(w)
            hazard = math.exp(k0 - log_tail) / math.sqrt(2.0 * math.pi * k2)
            dx = (log_tail - math.log(alpha)) / hazard
            step = min(c + dx / k2, 0.5 * (c + self._cut)) - c
            c += step
            # after a step of delta standard deviations the relative error
            # of the tail is about delta^2; a step too small to move c ends
            # the search too
            if dx * dx <= 1e-14 * k2 or step == 0.0:
                break
        at = None
        for _ in range(_MAX_STEPS):
            if at is None:
                _, k1, k2, _ = self._cumulants(c)
                x, at = k1, self._contour(k1, c)
            value, err, density = at(x)
            if not value > 0.0:
                raise ArithmeticError(f"contour tail {value!r} at x={x * self._unit!r} "
                                      "is not positive")
            dx = (math.log(value) - math.log(alpha)) / (density / value)
            shift = x - k1 + dx
            step = min(c + shift / k2, 0.5 * (c + self._cut)) - c
            if dx * dx <= 1e-14 * k2 or step == 0.0 or x + dx == x:
                if math.isinf(point := (x + dx) * self._unit):
                    raise ArithmeticError(f"upper-{alpha} point {point!r} past the largest double")
                return point, err + alpha * dx * dx / k2
            if shift * shift <= k2 and (x + dx < self._mean) == (k1 < self._mean):
                x += dx
            else:
                c, at = c + step, None
        raise ArithmeticError(f"no upper-{alpha} point found")


def _threshold_terms(weights: WeightSequence, p: int, f: AngularFunction, tau: float,
                     report: ThresholdReport) -> tuple:
    """weights.null_terms(p), each of the active degrees from k_dagger to k_star of k_star's
    parity with its delayed-case noncentrality at tau on the threshold rate."""
    ks, kd = report.k_star, report.k_dagger
    return tuple((v2, df, noncentrality_delayed(p, k, ks, tau, f)
                  if kd <= k <= ks and (ks - k) % 2 == 0 else 0.0)
                 for k, (v2, df, _) in zip(weights.active_degrees(p), weights.null_terms(p)))


def limit_law(weights: WeightSequence, p: int,
              f: Optional[AngularFunction] = None,
              tau: Optional[float] = None,
              rate_exponent: Optional[float] = None, q: int = 12) -> MixtureLaw:
    """Limiting chi-square mixture of the statistic.

    With no alternative arguments this is the null law: one central term
    per active degree.  Given (f, tau, rate_exponent), the mixture under
    kappa_n = n^(-rate_exponent) tau: degrees between k_dagger and k_star
    of the k_star parity pick up the delayed-case noncentrality when the
    rate sits exactly at the threshold 1/(2 k_star), as in power_curve;
    faster-decaying rates leave every term central; slower ones have no
    nondegenerate limit.  Evaluated deterministically (see MixtureLaw).
    """
    given = (f is not None, tau is not None, rate_exponent is not None)
    if any(given) and not all(given):
        raise ValueError("an alternative law needs f, tau, and rate_exponent together")
    if tau is not None:
        _check_tau(tau)
    if rate_exponent is not None and rate_exponent <= 0.0:
        raise ValueError(f"rate exponent must be > 0, got {rate_exponent}")
    null = weights.null_terms(p)
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
                return MixtureLaw(_threshold_terms(weights, p, f, tau, report))
    return MixtureLaw(null)


@dataclass(frozen=True)
class AsymptoticPower:
    """Limiting rejection probability at the detection-threshold rate."""

    power: float
    se: float
    trivial: bool


def power_curve(weights: WeightSequence, p: int, f: AngularFunction, taus,
                alpha: float, q: int = 12) -> list:
    """P[noncentral mixture > null upper-alpha point] at the threshold rate
    of the (weights, f) pair, at each tau of a grid, with the law's error
    bound as `se`; exactly alpha with the trivial flag when the
    classification is blind.  One classification and one null critical
    value serve the grid; a tau whose limit_law terms are all central
    (tau = 0) builds no law: the power is alpha, `se` the critical value's."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    taus = list(taus)
    for tau in taus:  # a blind curve builds no law to check them
        _check_tau(tau)
    report = classify_threshold(weights, f, q)
    if report.case == "blind":
        return [AsymptoticPower(alpha, 0.0, True) for _ in taus]
    return _threshold_powers(weights, p, f, taus, alpha, report,
                             *MixtureLaw(weights.null_terms(p)).quantile(alpha))


def _threshold_powers(weights: WeightSequence, p: int, f: AngularFunction, taus, alpha: float,
                      report: ThresholdReport, crit: float, crit_se: float) -> list:
    """power_curve's rows past a classification that is not blind and the null quantile."""
    null = weights.null_terms(p)
    rows = []
    for tau in taus:
        terms = _threshold_terms(weights, p, f, tau, report)
        power, se = (alpha, crit_se) if terms == null else MixtureLaw(terms).tail(crit)
        rows.append(AsymptoticPower(power, se, False))
    return rows


def power_curve_csv(weights: WeightSequence, p: int, f: AngularFunction,
                    taus, alpha: float, q: int = 12) -> str:
    taus = list(taus)
    rows = power_curve(weights, p, f, taus, alpha, q=q)
    lines = ["tau,power,se,flag"]
    for tau, row in zip(taus, rows):
        flag = "trivial" if row.trivial else "ok"
        lines.append(f"{tau:.10g},{row.power:.10g},{row.se:.10g},{flag}")
    return "\n".join(lines) + "\n"
