"""Symbolic oracle for the concentration expansions.

Builds E[t^m] and E[C_k(t)] under the density proportional to
f(kappa*t)(1-t^2)^((p-3)/2) as ratios of term-by-term integrated series,
using beta-function closed forms for the raw integrals and sympy's series
machinery for the ratio.  This is a different route from the package's
unit-triangular solve, so the printed coefficients can be frozen as
reference values.  It also holds `neumann_inverse`, a second route to
the inverse of an expansion system.

Run:  python3 tests/oracles/asymptotics_oracle.py
"""

import numpy as np


def neumann_inverse(system) -> np.ndarray:
    """A^{-1} of an ExpansionSystem as the alternating power sum of its
    strictly lower part; terminates exactly because that part is
    nilpotent.  A second route to the package's forward substitution."""
    size = system.order + 1
    low = system.A - np.eye(size)
    out = np.eye(size)
    term = np.eye(size)
    for _ in range(system.order):
        term = -term @ low
        out += term
    return out


# The symbolic routes below import sympy when called, so that importing
# neumann_inverse needs only numpy.

def _symbols():
    import sympy as sp

    return sp, *sp.symbols("kappa t s")


def angular(name):
    sp, _, _, s = _symbols()
    return {
        "vmf": sp.exp(s),
        "watson": sp.exp(s**2),
        "power_3": sp.exp(s**3),
        "cauchy": 1 / (1 + 2 * s),
    }[name]


def raw_moment(p, r):
    """integral of t^r (1-t^2)^((p-3)/2) over (-1, 1)."""
    sp, _, _, _ = _symbols()
    if r % 2:
        return sp.Integer(0)
    return sp.beta(sp.Rational(r + 1, 2), sp.Rational(p - 1, 2))


def f_taylor(name, order):
    sp, _, _, s = _symbols()
    expr = angular(name)
    return [sp.diff(expr, s, i).subs(s, 0) / sp.factorial(i)
            for i in range(order + 1)]


def ratio_series(p, name, numer_power_coeffs, top):
    """Series of E[poly(t)] to order kappa^top, where the polynomial has
    monomial coefficients numer_power_coeffs (index = power of t)."""
    sp, kappa, _, _ = _symbols()
    coeffs = f_taylor(name, top)
    numer = sp.Integer(0)
    denom = sp.Integer(0)
    for i in range(top + 1):
        if coeffs[i] == 0:
            continue
        denom += coeffs[i] * kappa**i * raw_moment(p, i)
        for power, c in enumerate(numer_power_coeffs):
            if c != 0:
                numer += coeffs[i] * c * kappa**i * raw_moment(p, power + i)
    series = sp.series(numer / denom, kappa, 0, top + 1).removeO()
    series = sp.expand(sp.simplify(series))
    return [sp.nsimplify(sp.gammasimp(series.coeff(kappa, ell)))
            for ell in range(top + 1)]


def monomial(m):
    return [0] * m + [1]


def gegen_coeffs(p, k):
    sp, _, t, _ = _symbols()
    if p == 2:
        poly = sp.chebyshevt(k, t)
    else:
        poly = sp.gegenbauer(k, sp.Rational(p - 2, 2), t)
    poly = sp.Poly(sp.expand(poly), t)
    out = [0] * (k + 1)
    for (power,), c in poly.terms():
        out[power] = c
    return out


MOMENT_CASES = [
    (3, "vmf", 1, 6),
    (2, "vmf", 1, 5),
    (4, "vmf", 2, 6),
    (3, "watson", 2, 8),
    (2, "watson", 2, 6),
    (5, "watson", 4, 8),
    (3, "power_3", 1, 7),
    (3, "cauchy", 1, 4),
    (4, "cauchy", 3, 7),
]

GEGEN_CASES = [
    (3, 1, "vmf", 4),
    (3, 2, "watson", 4),
    (3, 2, "power_3", 4),
    (2, 2, "vmf", 4),
    (4, 3, "vmf", 3),
    (5, 2, "cauchy", 3),
]


def main():
    print("# moment expansions: (p, f, m, q) -> b_{m,0..q-m}")
    for p, name, m, q in MOMENT_CASES:
        b = ratio_series(p, name, monomial(m), q - m)
        print(f"({p}, {name!r}, {m}, {q}): [{', '.join(map(str, b))}],")
    print()
    print("# gegenbauer expectations: (p, k, f, r) -> coeffs of kappa^(k..k+r)")
    for p, k, name, r in GEGEN_CASES:
        full = ratio_series(p, name, gegen_coeffs(p, k), k + r)
        lead = full[:k]
        assert all(c == 0 for c in lead), (p, k, name, lead)
        print(f"({p}, {k}, {name!r}, {r}): [{', '.join(map(str, full[k:]))}],")


if __name__ == "__main__":
    main()
