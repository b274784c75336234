"""Tests for the special-function layer.

Frozen reference values come from tests/oracles/specfun_oracle.py (sympy,
exact rational/symbolic arithmetic).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from sobotest import specfun

from oracles.gegen_coeffs_oracle import (gegen_poly_closed_form, gegenbauer_coeffs,
                                         monomial_expansion_closed_form)

# frozen from tests/oracles/specfun_oracle.py
GEGEN_POINTS = [
    (0.5, 2, 0.5, -0.125),
    (0.0, 3, 0.5, -1.0),
    (0.5, 2, 1.0, 1.0),
    (1.0, 4, -0.3, 0.0496),
    (1.5, 5, 0.7, -3.26468625),
]
MONOMIAL_TABLES = {
    (3, 1): [0.0, 1.0],
    (3, 2): [1 / 3, 0.0, 2 / 3],
    (3, 3): [0.0, 3 / 5, 0.0, 2 / 5],
    (3, 6): [1 / 7, 0.0, 10 / 21, 0.0, 24 / 77, 0.0, 16 / 231],
    (2, 4): [3 / 8, 0.0, 1 / 2, 0.0, 1 / 8],
    (4, 4): [1 / 8, 0.0, 3 / 16, 0.0, 1 / 16],
    (5, 3): [0.0, 1 / 7, 0.0, 2 / 35],
}
NULL_MOMENTS = {
    (3, 2): 1 / 3,
    (3, 4): 1 / 5,
    (2, 2): 1 / 2,
    (2, 6): 5 / 16,
    (7, 4): 1 / 21,
}
HARMONIC_DIMS = {
    2: [1, 2, 2, 2, 2, 2, 2, 2, 2],
    3: [1, 3, 5, 7, 9, 11, 13, 15, 17],
    4: [1, 4, 9, 16, 25, 36, 49, 64, 81],
    5: [1, 5, 14, 30, 55, 91, 140, 204, 285],
    11: [1, 11, 65, 275, 935, 2717, 7007, 16445, 35750],
}
SURFACE_CONSTANTS = {2: 1 / math.pi, 3: 0.5, 4: 2 / math.pi, 5: 0.75}


@pytest.mark.parametrize("lam,q,t,expected", GEGEN_POINTS)
def test_gegenbauer_point_values(lam, q, t, expected):
    assert specfun.gegenbauer_eval(lam, q, t) == pytest.approx(expected, rel=1e-12)


def test_gegenbauer_endpoint_identity():
    # C_k^((p-2)/2)(1) * (1 + 2k/(p-2)) = d_{p,k}
    for p in range(3, 7):
        for k in range(11):
            lhs = specfun.gegenbauer_eval((p - 2) / 2, k, 1.0) * (1 + 2 * k / (p - 2))
            assert lhs == pytest.approx(specfun.harmonic_dim(p, k), rel=1e-9)


def test_gegenbauer_chebyshev_endpoint():
    # lam = 0 keeps the value-1-at-1 convention for every degree
    for q in range(12):
        assert specfun.gegenbauer_eval(0.0, q, 1.0) == pytest.approx(1.0, rel=1e-13)


def test_recurrence_matches_coefficient_table():
    rng = np.random.default_rng(20240811)
    for lam in (0.0, 0.5, 1.0, 1.5, 3.0):
        for q in (0, 1, 2, 5, 11, 20):
            table = gegenbauer_coeffs(lam, q)
            t = rng.uniform(-1.0, 1.0, size=64)
            got = specfun.gegenbauer_eval(lam, q, t)
            ref = table.eval(t)
            # the alternating coefficient sum carries its own rounding error,
            # bounded by eps * sum |c_j|
            tol = 1e-10 * np.maximum(1.0, np.abs(ref)) + 1e-15 * sum(table.coeffs)
            assert np.all(np.abs(got - ref) <= tol)


def test_gegenbauer_argument_clamping():
    assert specfun.gegenbauer_eval(0.5, 3, 1.0 + 5e-13) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        specfun.gegenbauer_eval(0.5, 3, 1.0 + 1e-9)
    with pytest.raises(ValueError):
        specfun.gegenbauer_eval(-0.5, 3, 0.2)
    with pytest.raises(ValueError):
        specfun.gegenbauer_eval(0.5, -1, 0.2)


def test_harmonic_dim_table():
    for p, dims in HARMONIC_DIMS.items():
        for k, d in enumerate(dims):
            assert specfun.harmonic_dim(p, k) == d


def test_harmonic_dim_p2_constant():
    assert all(specfun.harmonic_dim(2, k) == 2 for k in range(1, 40))


def test_t_factor_values():
    assert specfun.t_factor(2, 7) == pytest.approx(math.sqrt(2.0))
    assert specfun.t_factor(3, 1) == pytest.approx(math.sqrt(3.0))
    assert specfun.t_factor(4, 2) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        specfun.t_factor(3, 0)


def test_t_factor_orthogonality_lemma():
    # c_p * integral(C_k C_j w) = delta_kj / t_{p,k}^2, with t_{p,0} := 1
    for p in (2, 3, 4, 5):
        rule = specfun.gauss_jacobi_rule(p, 64)
        cp = specfun.surface_constant(p)
        lam = (p - 2) / 2
        for k in range(9):
            for j in range(k, 9):
                vals = specfun.gegenbauer_eval(lam, k, rule.nodes) * \
                    specfun.gegenbauer_eval(lam, j, rule.nodes)
                got = cp * rule.integrate(vals)
                if k != j:
                    assert abs(got) < 1e-9
                else:
                    tkk = 1.0 if k == 0 else specfun.t_factor(p, k)
                    assert got == pytest.approx(1.0 / tkk**2, rel=1e-9)


def test_null_moment_values():
    for (p, m), v in NULL_MOMENTS.items():
        assert specfun.null_moment(p, m) == pytest.approx(v, rel=1e-14)
    assert specfun.null_moment(3, 5) == 0.0
    assert specfun.null_moment(6, 0) == 1.0


def test_surface_constant_values():
    for p, v in SURFACE_CONSTANTS.items():
        assert specfun.surface_constant(p) == pytest.approx(v, rel=1e-13)


def test_monomial_to_gegenbauer_tables():
    for (p, i), coeffs in MONOMIAL_TABLES.items():
        got = specfun.monomial_to_gegenbauer(p, i)
        np.testing.assert_allclose(got, coeffs, rtol=1e-14, atol=0.0)


def test_monomial_parity_zeros_exact():
    for p in (2, 3, 5):
        for i in range(13):
            m = specfun.monomial_to_gegenbauer(p, i)
            for k in range(i + 1):
                if (i - k) % 2 == 1:
                    assert m[k] == 0.0


def test_monomial_leading_coefficient():
    # m_{k,k} = k! / (2^k ((p-2)/2)_k) for p >= 3; 1/2^(k-1) for p = 2
    for k in range(1, 13):
        got = specfun.monomial_to_gegenbauer(2, k)[k]
        assert got == pytest.approx(0.5 ** (k - 1), rel=1e-14)
    for p in (3, 4, 6):
        lam = (p - 2) / 2
        for k in range(1, 13):
            poch = math.prod(lam + r for r in range(k))
            expected = math.factorial(k) / (2**k * poch)
            got = specfun.monomial_to_gegenbauer(p, k)[k]
            assert got == pytest.approx(expected, rel=1e-13)


def test_monomial_reconstruction():
    rng = np.random.default_rng(7)
    t = rng.uniform(-1, 1, size=40)
    for p in (2, 3, 4, 7):
        lam = (p - 2) / 2
        for i in range(0, 13):
            m = specfun.monomial_to_gegenbauer(p, i)
            recon = sum(m[k] * specfun.gegenbauer_eval(lam, k, t) for k in range(i + 1))
            np.testing.assert_allclose(recon, t**i, rtol=0, atol=1e-10)


def test_exact_tables_match_closed_forms_and_invert():
    # the recurrence tables equal the closed-form sums of the oracle, and
    # t^i = sum_k m_{k,i} C_k holds as an identity of exact polynomials
    for p in range(2, 32):
        lam = Fraction(p - 2, 2)
        polys = [specfun._gegen_poly_exact(lam, k) for k in range(specfun.MAX_DEGREE + 1)]
        for k, poly in enumerate(polys):
            assert poly == gegen_poly_closed_form(lam, k), (p, k)
        for i in range(specfun.MAX_DEGREE + 1):
            m = specfun._monomial_to_gegenbauer_exact(p, i)
            assert m == monomial_expansion_closed_form(p, i), (p, i)
            recon = [sum(m[k] * polys[k][power] for k in range(power, i + 1))
                     for power in range(i + 1)]
            assert recon == [0] * i + [1], (p, i)


def test_monomial_degree_cap():
    with pytest.raises(ValueError):
        specfun.monomial_to_gegenbauer(3, specfun.MAX_DEGREE + 1)
    with pytest.raises(ValueError):
        gegenbauer_coeffs(0.5, specfun.MAX_DEGREE + 1)


def test_quadrature_total_mass():
    # integral of the bare weight is 1/c_p
    for p in (2, 3, 4, 5):
        rule = specfun.gauss_jacobi_rule(p, 64)
        assert rule.weights.sum() == pytest.approx(1.0 / specfun.surface_constant(p),
                                                   rel=1e-12)


def test_quadrature_moment_exactness():
    # rule of order N integrates s^m exactly for m <= 2N - 1
    for p in (2, 3, 4, 7):
        rule = specfun.gauss_jacobi_rule(p, 8)
        cp = specfun.surface_constant(p)
        for m in range(16):
            got = cp * rule.integrate(rule.nodes**m)
            assert got == pytest.approx(specfun.null_moment(p, m), abs=5e-15)


def test_quadrature_validation():
    with pytest.raises(ValueError):
        specfun.gauss_jacobi_rule(1, 8)
    with pytest.raises(ValueError):
        specfun.gauss_jacobi_rule(3, 0)
    rule = specfun.gauss_jacobi_rule(3, 8)
    with pytest.raises(ValueError):
        rule.integrate(np.ones(7))
