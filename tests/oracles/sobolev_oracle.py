"""Closed forms of the Rayleigh and Bingham statistics, references that
only the tests use: the harmonic and kernel routes of `sobotest.sobolev`
with all weight on degree 1 or 2 must equal them.

Imported by the tests as `from oracles.sobolev_oracle import ...`.
"""

import numpy as np

from sobotest.rotsym import SphericalSample

__all__ = ["rayleigh_stat", "bingham_stat"]


def rayleigh_stat(sample: SphericalSample) -> float:
    """n p ||mean||^2; the harmonic statistic with all weight on degree 1."""
    mean = sample.points.mean(axis=0)
    return sample.n * sample.p * float(mean @ mean)


def bingham_stat(sample: SphericalSample) -> float:
    """n p(p+2)/2 tr[(S - I/p)^2] for the scatter S; the harmonic statistic
    with all weight on degree 2."""
    p = sample.p
    scatter = sample.points.T @ sample.points / sample.n
    centered = scatter - np.eye(p) / p
    return sample.n * p * (p + 2) / 2.0 * float(np.sum(centered * centered))
