"""Reference values computed without the sobotest package.

Everything here is numpy/scipy and the paper's closed forms, so the
benchmark can check the program's outputs against values it did not
produce: closed-form Rayleigh and Bingham statistics, Gegenbauer kernel
sums, chi-square quantiles and tails, the noncentrality of each harmonic
degree at the detection threshold, Imhof's (1961) inversion for weighted
sums of noncentral chi-squares, and quadrature moments of t = u'theta.
"""

import math

import numpy as np
from scipy import integrate, special, stats

# angular profiles f with f(0) = 1 and their derivatives at zero
PROFILES = {
    "vmf": (lambda s: np.exp(s), lambda m: 1.0),
    "watson": (lambda s: np.exp(s ** 2),
               lambda m: 0.0 if m % 2 else math.factorial(m) / math.factorial(m // 2)),
    "power": (lambda s: np.exp(s ** 3),
              lambda m: 0.0 if m % 3 else math.factorial(m) / math.factorial(m // 3)),
}


def harmonic_dim(p, k):
    return math.comb(p + k - 1, k) - (math.comb(p + k - 3, k - 2) if k >= 2 else 0)


def _gegen_lambda(p):
    return (p - 2) / 2.0


def kernel_stat(points, weights):
    """(1/n) sum_{i,j} sum_k w_k^2 (1 + 2k/(p-2)) C_k^{(p-2)/2}(u_i'u_j),
    summed in row blocks; weights[k-1] is the weight of degree k."""
    n, p = points.shape
    lam = _gegen_lambda(p)
    total = 0.0
    block = max(1, 2_000_000 // n)
    for i0 in range(0, n, block):
        gram = np.clip(points[i0:i0 + block] @ points.T, -1.0, 1.0)
        for k, w in enumerate(weights, start=1):
            if w:
                total += w * w * (1.0 + 2.0 * k / (p - 2)) * float(
                    special.eval_gegenbauer(k, lam, gram).sum())
    return total / n


def rayleigh_stat(points):
    n, p = points.shape
    mean = points.mean(axis=0)
    return n * p * float(mean @ mean)


def bingham_stat(points):
    n, p = points.shape
    centered = points.T @ points / n - np.eye(p) / p
    return n * p * (p + 2) / 2.0 * float(np.sum(centered ** 2))


def threshold(weights, f_id, q):
    """(k_star, k_dagger) of the weight support against f, searched up to
    order q, or None when the test is blind up to q."""
    deriv = PROFILES[f_id][1]
    support = [k for k, w in enumerate(weights, start=1) if w]
    for m in range(support[0], q + 1):
        if deriv(m) == 0.0:
            continue
        matching = [k for k in support if k <= m and (m - k) % 2 == 0]
        if matching:
            return m, matching[0]
    return None


def _null_expectation(p, g):
    """E[g(t)] for t = u'theta under uniformity on the sphere in R^p."""
    a = (p - 3) / 2.0
    num = integrate.quad(lambda s: g(s) * (1.0 - s * s) ** a, -1.0, 1.0,
                         epsabs=0.0, epsrel=1e-12, limit=200)[0]
    den = integrate.quad(lambda s: (1.0 - s * s) ** a, -1.0, 1.0,
                         epsabs=0.0, epsrel=1e-12, limit=200)[0]
    return num / den


def noncentrality(p, k, k_star, tau, f_id):
    """Degree-k noncentrality at kappa_n = tau n^(-1/(2 k_star)).

    The standard case k = k_star uses the paper's closed form
    d_{p,k} (f^(k)(0))^2 tau^(2k) / prod_{l<k} (p+2l)^2.  The delayed case
    uses Funk-Hecke, E[G_k(u)] = G_k(theta) E[C_k(t)] / C_k(1), with the
    leading kappa^k_star term of E[C_k(t)] integrated by quadrature.
    """
    fk = PROFILES[f_id][1](k_star)
    if k == k_star:
        prod = math.prod(p + 2 * ell for ell in range(k))
        return harmonic_dim(p, k) * fk ** 2 * tau ** (2 * k) / prod ** 2
    lam = _gegen_lambda(p)
    moment = _null_expectation(p, lambda s: s ** k_star * special.eval_gegenbauer(k, lam, s))
    drift = tau ** k_star * fk / math.factorial(k_star) * moment / special.eval_gegenbauer(k, lam, 1.0)
    return harmonic_dim(p, k) * drift ** 2


def mixture_terms(weights, p, f_id=None, tau=0.0, q=12):
    """(weight, df, nc) terms of the limit law of the statistic, following
    the paper: degrees between k_dagger and k_star of the k_star parity are
    noncentral at the threshold rate, the rest stay central."""
    thr = threshold(weights, f_id, q) if f_id and tau > 0.0 else None
    terms = []
    for k, w in enumerate(weights, start=1):
        if not w:
            continue
        nc = 0.0
        if thr and thr[1] <= k <= thr[0] and (thr[0] - k) % 2 == 0:
            nc = noncentrality(p, k, thr[0], tau, f_id)
        terms.append((w * w, harmonic_dim(p, k), nc))
    return terms


def imhof_sf(x, terms):
    """P[sum_j w_j chi2(df_j, nc_j) > x] by Imhof's inversion formula."""
    w = np.array([t[0] for t in terms])
    df = np.array([t[1] for t in terms], dtype=float)
    nc = np.array([t[2] for t in terms])

    def log_rho(u):
        r = (w * u) ** 2
        return float(np.sum(0.25 * df * np.log1p(r) + 0.5 * nc * r / (1.0 + r)))

    def integrand(u):
        wu = w * u
        theta = 0.5 * float(np.sum(df * np.arctan(wu) + nc * wu / (1.0 + wu * wu))) - 0.5 * x * u
        return math.sin(theta) / (u * math.exp(log_rho(u)))

    # past `upper` the integrand is below e^-30 and decays polynomially
    upper = 1.0
    while log_rho(upper) + math.log(upper) < 30.0 and upper < 1e6:
        upper *= 2.0
    value = integrate.quad(integrand, 0.0, upper, limit=4000,
                           epsabs=1e-12, epsrel=1e-10)[0]
    return 0.5 + value / math.pi


def chi2_crit(df, alpha):
    return float(stats.chi2.isf(alpha, df))


def chi2_sf(x, df):
    return float(stats.chi2.sf(x, df))


def ncx2_sf(x, df, nc):
    return float(stats.ncx2.sf(x, df, nc)) if nc > 0.0 else chi2_sf(x, df)


def t_moments(p, kappa, f_id):
    """(E[t], Var[t]) of t = u'theta under density prop. to f(kappa u'theta)."""
    f = PROFILES[f_id][0]
    a = (p - 3) / 2.0

    def moment(m):
        return integrate.quad(lambda s: s ** m * f(kappa * s) * (1.0 - s * s) ** a,
                              -1.0, 1.0, epsabs=1e-12, epsrel=1e-9, limit=200)[0]

    z = moment(0)
    mean = moment(1) / z
    return mean, moment(2) / z - mean ** 2


def acceptance(p, kappa, f_id):
    """Expected acceptance of the tangent-normal rejection sampler: the
    proposal mean of f(kappa t) over the supremum of f(kappa s) on [-1, 1]."""
    f = PROFILES[f_id][0]
    a = (p - 3) / 2.0
    num = integrate.quad(lambda s: f(kappa * s) * (1.0 - s * s) ** a, -1.0, 1.0,
                         epsabs=0.0, epsrel=1e-12, limit=200)[0]
    den = integrate.quad(lambda s: (1.0 - s * s) ** a, -1.0, 1.0,
                         epsabs=0.0, epsrel=1e-12, limit=200)[0]
    peak = float(np.max(f(kappa * np.linspace(-1.0, 1.0, 20001))))
    return num / den / peak
