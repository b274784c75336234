"""Monomial coefficient tables of the Gegenbauer polynomials, a reference
that only the tests use: they evaluate C_q^lam from its exact rational
coefficients (`sobotest.specfun._coeffs_exact`), against which the
production recurrence `gegenbauer_eval` is checked.

Imported by the tests as `from oracles.gegen_coeffs_oracle import ...`.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from sobotest.specfun import MAX_DEGREE, _clamp_argument, _coeffs_exact

__all__ = ["GegenCoeffTable", "gegenbauer_coeffs"]


@dataclass(frozen=True)
class GegenCoeffTable:
    """Monomial coefficients of C_q^lam: the polynomial equals
    sum_j (-1)^j c_j t^(q-2j), j = 0..floor(q/2)."""

    lam: float
    q: int
    coeffs: tuple

    def eval(self, t):
        """Evaluate from the coefficient table (reference path; the
        recurrence in gegenbauer_eval is the production path)."""
        t = _clamp_argument(t)
        out = np.zeros_like(np.atleast_1d(t))
        tt = np.atleast_1d(t)
        for j, c in enumerate(self.coeffs):
            out += (-1) ** j * c * tt ** (self.q - 2 * j)
        return float(out[0]) if np.ndim(t) == 0 else out


def gegenbauer_coeffs(lam, q: int) -> GegenCoeffTable:
    """Monomial coefficient table of C_q^lam, computed in exact rational
    arithmetic and rounded once at the end.  Degrees are capped at
    MAX_DEGREE."""
    if q < 0:
        raise ValueError(f"degree must be >= 0, got {q}")
    if q > MAX_DEGREE:
        raise ValueError(f"degree {q} exceeds the cap {MAX_DEGREE}")
    lam_frac = lam if isinstance(lam, Fraction) else Fraction(lam)
    if lam_frac < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    exact = _coeffs_exact(lam_frac, q)
    return GegenCoeffTable(float(lam_frac), q, tuple(float(c) for c in exact))
