"""An infinite Sobolev test with a closed form, a reference that only the
tests use: the Poisson kernel of the unit ball.

For 0 < rho < 1 the zonal-harmonic expansion of the Poisson kernel
(Stein & Weiss 1971, ch. IV) reads

    sum_{k >= 1} rho^k h_{p,k}(s) = (1 - rho^2) / (1 - 2 rho s + rho^2)^(p/2) - 1,

with h_{p,k} the addition kernel of the package, (1 + 2k/(p-2)) C_k^((p-2)/2)
and 2 T_k at p = 2.  So the weight rule v_k = rho^(k/2) has the statistic
(1/n) sum_{i,j} [(1 - rho^2) / (1 - 2 rho u_i'u_j + rho^2)^(p/2) - 1] with no
truncation.  Since |h_{p,k}| <= h_{p,k}(1) = d_{p,k}, a statistic truncated
after k_trunc misses at most n sum_{k > k_trunc} v_k^2 d_{p,k}, that is
n times the tail mass of the truncation.

Imported by the tests as `from oracles.poisson_kernel_oracle import ...`.
"""

from functools import partial

import numpy as np

from sobotest.rotsym import SphericalSample
from sobotest.sobolev import WeightSequence

__all__ = ["poisson_rule", "poisson_stat"]


def _weight(rho: float, k: int) -> float:
    return rho ** (k / 2)


def poisson_rule(rho: float) -> WeightSequence:
    """The infinite weight sequence v_k = rho^(k/2), k >= 1."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    return WeightSequence.from_rule(partial(_weight, rho), name=f"poisson_{rho!r}")


def poisson_stat(sample: SphericalSample, rho: float) -> float:
    """The untruncated statistic of poisson_rule(rho), from the closed form
    of the kernel over all n^2 pairs, diagonal included."""
    gram = np.clip(sample.points @ sample.points.T, -1.0, 1.0)
    kernel = (1.0 - rho * rho) / (1.0 - 2.0 * rho * gram + rho * rho) ** (sample.p / 2.0) - 1.0
    return float(kernel.sum()) / sample.n
