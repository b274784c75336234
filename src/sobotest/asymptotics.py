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
from scipy.special import log_ndtr, ndtri

from .rng import stream
from .rotsym import AngularFunction
from .sobolev import WeightSequence
from .specfun import (
    _gegen_poly_exact,
    _null_moment_exact,
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
    return ExpansionSystem(p, order, matrix, v, z)


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


def _gap(a: float, b: float) -> float:
    """Distance from the real axis of the nearest u with s(u) = c + sigma b on
    the parabola s(u) = c + sigma (i u + a u^2), a >= 0."""
    disc = 1.0 - 4.0 * a * b
    return 2.0 * abs(b) / (1.0 + math.sqrt(disc)) if disc > 0.0 else 0.5 / a


class MixtureLaw:
    """Distribution of Q = sum_k w_k Y_k with independent chi-square terms
    Y_k ~ chi2(df_k, nc_k), evaluated deterministically; nothing is drawn.

    A tail is the Bromwich integral (1/2 pi i) int exp(K(s) - s x) ds / s of
    the cumulant generating function K, by the trapezoid rule along the
    parabola s(u) = c + sigma (i u + a u^2) of steepest descent through the
    saddlepoint K'(c) = x (Trefethen & Weideman 2014); below the mean c < 0
    and it gives the lower tail.  `quantile` runs Newton's method over c.
    Both return as `se` a bound on rounding, trapezoid and truncation error,
    relative to the tail above the mean and absolute below it.  Against
    scipy and mpmath (1 to 4930 df, noncentralities up to 5e6, tails down to
    1e-60) errors stay below 1.3e-12 relative above the mean and 1e-13
    below it, each within its `se`."""

    def __init__(self, p: int, terms, tail_bound: float = 0.0):
        if p < 2:
            raise ValueError(f"p must be >= 2, got {p}")
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
        if tail_bound < 0.0:
            raise ValueError(f"tail bound must be >= 0, got {tail_bound}")
        self.p = p
        self.terms = tuple(clean)
        self.tail_bound = float(tail_bound)
        self._quantiles = {}
        weight, df, nc = (np.array(column, dtype=float) for column in zip(*clean))
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

    def quantile(self, alpha: float):
        """Upper-alpha point with its error (memoized)."""
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if alpha not in self._quantiles:
            if len(self._quantiles) >= 64:
                self._quantiles.clear()
            self._quantiles[alpha] = self._quantile(alpha)
        return self._quantiles[alpha]

    def tail(self, c: float):
        """P[mixture > c] with its error."""
        x = float(c)
        if x <= 1e-40 * float(self._w.min()):
            # P[Q <= x] <= P[min(w) chi2_1 <= x] < (x / min(w))^(1/2)
            return 1.0, math.sqrt(max(x, 0.0) / float(self._w.min()))
        # Chernoff: P[Q > x] <= exp(K(s) - s x) at s = cut / 2, here below
        # the smallest double
        if self._k_half_cut - 0.5 * self._cut * x < -746.0:
            return 0.0, 0.0
        return self._contour(x, self._saddle(x))[:2]

    def _cumulants(self, c: float):
        """K(c) - c K'(c), K'(c), K''(c) and K'''(c), where K(s) = sum
        -df/2 log(1 - 2 w s) + nc w s / (1 - 2 w s); the first summed in a
        form free of the cancellation between K and c K'."""
        k0 = k1 = k2 = k3 = 0.0
        for w, df, nc in self.terms:
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
        raise ArithmeticError(f"no saddlepoint found for x={x!r}")

    def _contour(self, x: float, c: float):
        """P[Q > x], its error bound and the density of Q at x, along the
        parabola through c, the saddlepoint of x."""
        upper = x >= self._mean
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
        # per term, with s = c + delta and q = 2 w delta / (1 - 2 w c), the
        # exponent K(s) - s x - (K(c) - c x) less its part linear in delta;
        # those parts sum to delta (K'(c) - x)
        r = 1.0 / (1.0 - 2.0 * c * self._w)
        two_wr, nc_r = 2.0 * self._w * r, self._half_nc * r
        size = math.ceil(_SPAN / h)
        total = density = absum = 0.0
        for block in range(_MAX_STEPS):
            # nodes (j + 1/2) h; each mirror image -(j + 1/2) h adds minus the conjugate
            u = h * (np.arange(block * size, (block + 1) * size) + 0.5)
            delta = sigma * u * (1j + a * u)
            q = delta[:, None] * two_wr
            z = 1.0 - q
            # numpy's complex log is several times slower than its parts
            log_z = np.log(np.abs(z)) + 1j * np.angle(z)
            exponent = -(log_z + q) @ self._half_df + (q * q / z) @ nc_r + delta * (k1 - x)
            e = np.exp(exponent) * (sigma * (1j + 2.0 * a * u))
            g = (e / (c + delta)).imag
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

    def _quantile(self, alpha: float):
        """Newton's method on log P[Q > x] = log alpha over c, where
        x = K'(c) needs no saddle solve: on the saddlepoint tail from the
        normal approximation, then on the contour from that root.  The last
        step is taken in x, which near the cut resolves finer than K'(c)."""
        c = min(-float(ndtri(alpha)) / math.sqrt(self._cumulants(0.0)[2]), 0.5 * self._cut)
        exact = False
        for _ in range(2 * _MAX_STEPS):
            k0, k1, k2, _ = self._cumulants(c)
            if exact:
                value, err, density = self._contour(k1, c)
                log_tail, hazard = math.log(value), density / value
            else:
                # Barndorff-Nielsen's r* form of the Lugannani-Rice tail,
                # log Q(w + log(u / w) / w) with u = c K''(c)^(1/2), and the
                # saddlepoint density over it; in logs, so nothing underflows
                w = math.copysign(math.sqrt(max(-2.0 * k0, 0.0)), c)
                if abs(w) > 1e-4:
                    w += math.log(c * math.sqrt(k2) / w) / w
                log_tail = float(log_ndtr(-w))
                hazard = math.exp(k0 - log_tail) / math.sqrt(2.0 * math.pi * k2)
            dx = (log_tail - math.log(alpha)) / hazard
            step = min(c + dx / k2, 0.5 * (c + self._cut)) - c
            # after a step of delta standard deviations the relative error
            # of the tail is about delta^2; a step too small to move c ends
            # the search too
            if dx * dx <= 1e-14 * k2 or step == 0.0:
                if exact:
                    return k1 + dx, err + alpha * dx * dx / k2
                exact = True
            c += step
        raise ArithmeticError(f"no upper-{alpha} point found")


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
    if tau is not None:
        _check_tau(tau)
    if rate_exponent is not None and rate_exponent <= 0.0:
        raise ValueError(f"rate exponent must be > 0, got {rate_exponent}")
    active = weights.active_degrees(p)
    tail_bound = weights.truncation(p).tail_mass
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
    terms = [(v2, df, noncentral[k]) for k, (v2, df, _) in zip(active, weights.null_terms(p))]
    return MixtureLaw(p, terms, tail_bound=tail_bound)


@dataclass(frozen=True)
class AsymptoticPower:
    """Limiting rejection probability at the detection-threshold rate."""

    power: float
    se: float
    trivial: bool
    tail_bound: float = 0.0


def power_curve(weights: WeightSequence, p: int, f: AngularFunction, taus,
                alpha: float, q: int = 12) -> list:
    """P[noncentral mixture > null upper-alpha point] at the threshold rate
    of the (weights, f) pair, at each tau of a grid, with the law's error
    bound as `se`; exactly alpha with the trivial flag when the
    classification is blind.  One null critical value serves the grid."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    taus = list(taus)
    for tau in taus:  # a blind curve builds no law to check them
        _check_tau(tau)
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
