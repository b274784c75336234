"""Closed-form coefficient tables of the Gegenbauer polynomials, a reference
that only the tests use.  The production tables in `sobotest.specfun` come
from the three-term recurrence; these come from the explicit sums

  C_q^lam(t) = sum_j (-1)^j 2^(q-2j) (lam)_(q-j) / (j! (q-2j)!) t^(q-2j),
  T_q(t)     = sum_j (-1)^j 2^(q-2j-1) q (q-j-1)! / (j! (q-2j)!) t^(q-2j),
  t^i        = i! / 2^i sum_j (lam + i - 2j) / (j! (lam)_(i-j+1)) C_(i-2j)^lam(t),
  t^i        = 2^(1-i) sum_j binom(i, j) T_(i-2j)(t), the T_0 term halved,

in exact rationals, with the Chebyshev convention T_q = C_q^0, T_q(1) = 1,
at lam = 0.  `GegenCoeffTable.eval` is the reference against which the
recurrence `gegenbauer_eval` is checked.

Imported by the tests as `from oracles.gegen_coeffs_oracle import ...`.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from sobotest.specfun import MAX_DEGREE, _clamp_argument

__all__ = ["GegenCoeffTable", "gegenbauer_coeffs", "gegen_poly_closed_form",
           "monomial_expansion_closed_form"]


def _pochhammer(a: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for i in range(n):
        out *= a + i
    return out


def _coeffs_exact(lam: Fraction, q: int) -> list:
    """Exact rational monomial coefficients c_j (without the (-1)^j sign)."""
    if lam == 0:
        if q == 0:
            return [Fraction(1)]
        return [
            Fraction(2) ** (q - 2 * j - 1) * q * math.factorial(q - j - 1)
            / (math.factorial(j) * math.factorial(q - 2 * j))
            for j in range(q // 2 + 1)
        ]
    return [
        Fraction(2) ** (q - 2 * j) * _pochhammer(lam, q - j)
        / (math.factorial(j) * math.factorial(q - 2 * j))
        for j in range(q // 2 + 1)
    ]


def gegen_poly_closed_form(lam: Fraction, q: int) -> tuple:
    """C_q^lam as a dense vector of exact monomial coefficients, index =
    power of t."""
    vec = [Fraction(0)] * (q + 1)
    for j, c in enumerate(_coeffs_exact(lam, q)):
        vec[q - 2 * j] = (-1) ** j * c
    return tuple(vec)


def monomial_expansion_closed_form(p: int, i: int) -> tuple:
    """m_{k,i}, k = 0..i, with t^i = sum_k m_{k,i} C_k^((p-2)/2)(t), in
    exact rationals."""
    lam = Fraction(p - 2, 2)
    m = [Fraction(0)] * (i + 1)
    for j in range(i // 2 + 1):
        if lam == 0:
            m[i - 2 * j] = Fraction(math.comb(i, j), 2 ** (i - 1 if 2 * j < i else i))
        else:
            m[i - 2 * j] = (math.factorial(i) * (lam + i - 2 * j)
                            / (2 ** i * math.factorial(j) * _pochhammer(lam, i - j + 1)))
    return tuple(m)


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
