"""Expectations under a rotationally symmetric law, references that only
the tests use: E[t^m] and E[C_k(t)] of t = u'theta, the curves the
expansion coefficients of `sobotest.asymptotics` and the sampler's
moments are checked against.  They integrate with the tests' own
Gauss-Jacobi quadrature (`quadrature_oracle.gauss_jacobi_rule`), and the
profile f(kappa s) is scaled in log space so nothing overflows.

Imported by the tests as `from oracles.rotsym_moments_oracle import ...`.
"""

import numpy as np

from sobotest.rotsym import AngularFunction
from sobotest.specfun import _gegen_index, gegenbauer_eval

from oracles.quadrature_oracle import gauss_jacobi_rule

__all__ = ["t_moment_oracle", "gegenbauer_expectation_oracle"]


def _adaptive_integral(p: int, g) -> float:
    """Quadrature of g(s) * (1-s^2)^((p-3)/2) at order 64, escalating to 128
    and 256 while successive orders disagree by more than 1e-10 relative."""
    prev = val = None
    for order in (64, 128, 256):
        rule = gauss_jacobi_rule(p, order)
        vals = np.asarray(g(rule.nodes), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("integrand is not finite at the quadrature nodes")
        val = rule.integrate(vals)
        if prev is not None and abs(val - prev) <= 1e-10 * max(1.0, abs(val)):
            return val
        prev = val
    return val


def _scaled_profile(kappa: float, f: AngularFunction):
    """s |-> f(kappa s) / F, evaluated in log space, and log F, the largest
    log f(kappa s) on a grid of [-1, 1]: nothing overflows, and ratios of
    integrals of the profile do not depend on F."""
    shift = float(np.max(f.log(kappa * np.linspace(-1.0, 1.0, 257))))

    def profile(s):
        logs = f.log(kappa * s)
        if np.any(np.isnan(logs) | (logs == -np.inf)):
            raise ValueError("f(kappa*s) must be positive at the quadrature nodes")
        return np.exp(logs - shift)

    return profile, shift


def t_moment_oracle(p: int, kappa: float, f: AngularFunction, m: int) -> float:
    """Exact-quadrature moment E[(u'theta)^m] of the tangent projection."""
    if m < 0:
        raise ValueError(f"moment order must be >= 0, got {m}")
    profile, _ = _scaled_profile(kappa, f)
    return _adaptive_integral(p, lambda s: s**m * profile(s)) / _adaptive_integral(p, profile)


def gegenbauer_expectation_oracle(p: int, kappa: float, f: AngularFunction,
                                  k: int) -> float:
    """Exact-quadrature value of E[C_k(u'theta)] under concentration kappa;
    reference curve for the degree-k expansion coefficients."""
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")
    profile, _ = _scaled_profile(kappa, f)
    return (_adaptive_integral(p, lambda s: gegenbauer_eval(_gegen_index(p), k, s) * profile(s))
            / _adaptive_integral(p, profile))
