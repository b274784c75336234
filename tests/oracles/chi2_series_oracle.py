"""Poisson-series reference for the noncentral chi-square distribution.

chi2(df, nc) is the Poisson(nc / 2) mixture of central chi2(df + 2 j); its
CDF and upper tail are summed here over a mode-centred window of j that
leaves out at most 1e-12 of the Poisson mass.  The tail is summed from
central survival functions, and its window grows upward until the top
term adds nothing: deep in the tail the terms that carry it sit above the
mode (near j = sqrt(nc x) / 2 when x >> nc), so it keeps relative accuracy
there (within 5e-14 of scipy's ncx2 for chi2(5, 30) out to x = 1000, a
tail of 1.8e-149).  This is a route independent of the package's contour
integral, which the tests and the acceptance suite compare it against.
`exponential_sum_sf` is the closed-form tail of the p = 2 laws, sums of
weighted chi2(2) terms.
"""

import math

import numpy as np
from scipy import stats
from scipy.special import gammaln, pdtr, pdtrc

SERIES_REL_TAIL = 1e-12
SERIES_TOP_TERM = 1e-17


def poisson_window(half_nc: float, top: int = 0):
    """Mode-centered Poisson(half_nc) weights covering all but
    SERIES_REL_TAIL of the mass and reaching at least j = top, and the
    mass they leave out."""
    mode = int(half_nc)
    half = int(10 + 8.0 * math.sqrt(half_nc + 1.0))
    while True:
        lo = max(0, mode - half)
        hi = max(mode + half, top)
        outside = float(pdtrc(hi, half_nc)) + (float(pdtr(lo - 1, half_nc)) if lo else 0.0)
        if outside <= SERIES_REL_TAIL:
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
    if total < 1.0 - SERIES_REL_TAIL:
        w /= total
    return js, w, outside


def series_bound(nc: float) -> float:
    """Error bound of the series: the Poisson mass outside the window plus
    rounding in the log-weights j log(nc / 2) - ..., growing with j and
    |log(nc / 2)|; 0 for a central term."""
    if nc == 0.0:
        return 0.0
    js, _, outside = poisson_window(nc / 2.0)
    return outside + np.finfo(float).eps * js[-1] * abs(math.log(nc / 2.0))


def _series_combine(x, df: int, nc: float, chi2_fn, grow: bool = False):
    """The series at x; with grow, the window doubles upward until its top
    term is at most SERIES_TOP_TERM of the sum at every x."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if nc == 0.0:
        out = chi2_fn(x_arr, df)
    else:
        top = 0
        while True:
            js, w, _ = poisson_window(nc / 2.0, top)
            values = chi2_fn(x_arr[None, :], (df + 2 * js)[:, None])
            out = w @ values
            if not grow or np.all(w[-1] * values[-1] <= SERIES_TOP_TERM * out):
                break
            top = 2 * int(js[-1])
        # unnormalized window weights can overshoot 1 by rounding
        out = np.clip(out, 0.0, 1.0)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out[0])
    return out


def noncentral_chi2_cdf(x, df: int, nc: float):
    """CDF of chi-square(df, nc) via the Poisson-weighted central series,
    truncated at relative tail 1e-12."""
    return _series_combine(x, df, nc, stats.chi2.cdf)


def noncentral_chi2_sf(x, df: int, nc: float):
    """Upper tail companion of noncentral_chi2_cdf; summed directly from
    central survival functions, over a window grown upward until its top
    term adds at most 1e-17 of the sum, so deep tails keep relative
    accuracy."""
    return _series_combine(x, df, nc, stats.chi2.sf, grow=True)


def exponential_sum_sf(x: float, weights) -> float:
    """P[sum_k w_k chi2(2) > x] for distinct w_k: w chi2(2) is exponential
    with rate l = 1 / (2 w), and a sum of exponentials with distinct rates
    has the upper tail sum_k prod_{j != k} l_j / (l_j - l_k) exp(-l_k x)."""
    rates = [0.5 / w for w in weights]
    return math.fsum(
        math.prod(lj / (lj - lk) for j, lj in enumerate(rates) if j != k) * math.exp(-lk * x)
        for k, lk in enumerate(rates))
