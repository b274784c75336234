"""Tangent-normal rejection sampler for t = u'theta, kept as an independent
reference for the inverse-CDF sampler of `sobotest.rotsym`.

Proposals are 2 Beta((p-1)/2, (p-1)/2) - 1, the law of t under
uniformity, accepted with probability f(kappa t) / sup f(kappa s).  It
uses numpy only and shares no code with the package; its acceptance
collapses at large concentration (below 1e-6 for vMF at p = 15,
kappa = 40), which is why the package no longer samples this way.

Imported by the tests as `from oracles import rotsym_sampler_oracle`.
"""

import math

import numpy as np

_ENVELOPE_GRID = 1024
_ENVELOPE_INFLATION = 1.0 + 1e-12
_MIN_ACCEPT_RATE = 1e-6


def envelope_max(kappa, fn):
    """sup of fn(kappa*s) over [-1, 1]: grid scan plus golden-section
    refinement, inflated by a relative 1e-12."""
    s = np.linspace(-1.0, 1.0, _ENVELOPE_GRID)
    vals = fn(kappa * s)
    i = int(np.argmax(vals))
    a, b = s[max(i - 1, 0)], s[min(i + 1, _ENVELOPE_GRID - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c_pt, d_pt = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = float(fn(kappa * c_pt)), float(fn(kappa * d_pt))
    for _ in range(80):
        if b - a < 1e-13:
            break
        if fc > fd:
            b, d_pt, fd = d_pt, c_pt, fc
            c_pt = b - inv_phi * (b - a)
            fc = float(fn(kappa * c_pt))
        else:
            a, c_pt, fc = c_pt, d_pt, fd
            d_pt = a + inv_phi * (b - a)
            fd = float(fn(kappa * d_pt))
    return max(float(vals[i]), fc, fd) * _ENVELOPE_INFLATION


def sample_t(gen, p, kappa, fn, n):
    """n draws of t = u'theta under the density prop. to
    fn(kappa t) (1 - t^2)^((p-3)/2), from the numpy Generator gen."""
    envelope = envelope_max(kappa, fn)
    a = (p - 1) / 2.0
    out = np.empty(n)
    filled = proposals = accepted = 0
    while filled < n:
        m = min(max(4096, 3 * (n - filled)), 8_000_000)
        t = 2.0 * gen.beta(a, a, size=m) - 1.0
        keep = t[gen.random(m) * envelope < fn(kappa * t)]
        take = min(keep.size, n - filled)
        out[filled:filled + take] = keep[:take]
        filled += take
        proposals += m
        accepted += keep.size
        if proposals >= 2_000_000 and accepted < _MIN_ACCEPT_RATE * proposals:
            raise ArithmeticError("rejection acceptance rate below 1e-6")
    return out
