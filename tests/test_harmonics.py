"""Tests for the orthonormal harmonic basis.

Independent references: scipy.special.sph_harm for p = 3, Monte Carlo
orthonormality, a product-quadrature Funk-Hecke identity check, and the
columns of the earlier hyperspherical-chart construction, kept in
tests/golden/basis_columns.json.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import sph_harm_y

from oracles import harmonics_oracle as harmonics
from oracles.quadrature_oracle import gauss_jacobi_rule
from sobotest import specfun

GOLDEN = Path(__file__).resolve().parent / "golden" / "basis_columns.json"


def _random_sphere(rng, n, p):
    z = rng.standard_normal((n, p))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def test_to_hyperspherical_examples():
    theta = harmonics.to_hyperspherical([1.0, 0.0])
    assert theta == pytest.approx([math.pi / 2])
    theta = harmonics.to_hyperspherical([0.0, 1.0, 0.0])
    assert theta == pytest.approx([0.0, math.pi / 2])
    theta = harmonics.to_hyperspherical([0.0, 0.0, 1.0])
    assert theta == pytest.approx([0.0, 0.0])
    # theta_1 wraps into [0, 2*pi)
    theta = harmonics.to_hyperspherical([-1.0, 0.0])
    assert theta == pytest.approx([3 * math.pi / 2])


def test_hyperspherical_round_trip():
    rng = np.random.default_rng(42)
    for p in (2, 3, 4, 6):
        for x in _random_sphere(rng, 50, p):
            theta = harmonics.to_hyperspherical(x)
            assert theta[0] >= 0.0 and theta[0] < 2 * math.pi
            assert np.all(theta[1:] >= 0.0) and np.all(theta[1:] <= math.pi)
            back = harmonics.from_hyperspherical(theta)
            np.testing.assert_allclose(back, x, atol=1e-12)


def test_basis_at_pole():
    for p in (3, 4, 5):
        pole = np.zeros(p)
        pole[-1] = 1.0
        for k in range(1, 6):
            g = harmonics.basis_eval(p, k, pole)
            d = specfun.harmonic_dim(p, k)
            assert g.values.shape == (d,)
            assert g.values[0] == pytest.approx(math.sqrt(d), rel=1e-12)
            np.testing.assert_allclose(g.values[1:], 0.0, atol=1e-12)


def test_basis_p2_values():
    # x = (sin t, cos t) gives (sqrt(2) cos kt, sqrt(2) sin kt)
    for t in (0.0, 0.3, 2.2, 4.9):
        x = np.array([math.sin(t), math.cos(t)])
        for k in (1, 2, 5):
            g = harmonics.basis_eval(2, k, x)
            assert g.values[0] == pytest.approx(math.sqrt(2) * math.cos(k * t), abs=1e-12)
            assert g.values[1] == pytest.approx(math.sqrt(2) * math.sin(k * t), abs=1e-12)


def test_basis_p3_k1_is_scaled_coordinates():
    rng = np.random.default_rng(3)
    X = _random_sphere(rng, 20, 3)
    G = harmonics.basis_matrix(3, 1, X)
    np.testing.assert_allclose(G, math.sqrt(3.0) * X[:, ::-1], atol=1e-12)


# (p, degrees, n): every degree at small p, and the degrees >= 5 that the
# harmonic statistic builds a basis for at high p (d_{20,6} = 168245)
HIGH_P = [(10, (5, 6), 50), (20, (5, 6), 20)]


def test_norm_square_equals_dimension():
    rng = np.random.default_rng(11)
    for p, ks, n in [(p, range(1, 7), 200) for p in (2, 3, 4, 5)] + HIGH_P:
        X = _random_sphere(rng, n, p)
        for k in ks:
            G = harmonics.basis_matrix(p, k, X)
            d = specfun.harmonic_dim(p, k)
            np.testing.assert_allclose(np.einsum("ij,ij->i", G, G), d, rtol=1e-9)


def test_basis_is_homogeneous_of_degree_k():
    # every column is a polynomial of degree k: scaling a row by c (inside
    # the 1e-8 norm tolerance) scales its values by c^k
    rng = np.random.default_rng(29)
    c = 1.0 + 4e-9
    for p in (2, 3, 7):
        X = _random_sphere(rng, 20, p)
        for k in (1, 4, 9):
            np.testing.assert_allclose(harmonics.basis_matrix(p, k, c * X),
                                       c**k * harmonics.basis_matrix(p, k, X), rtol=1e-12, atol=1e-12)


def test_addition_formula():
    rng = np.random.default_rng(5)
    for p, ks, n in [(p, range(1, 7), 100) for p in (2, 3, 4, 5)] + HIGH_P:
        U = _random_sphere(rng, n, p)
        V = _random_sphere(rng, n, p)
        s = np.einsum("ij,ij->i", U, V)
        for k in ks:
            gu = harmonics.basis_matrix(p, k, U)
            gv = harmonics.basis_matrix(p, k, V)
            lhs = np.einsum("ij,ij->i", gu, gv)
            rhs = harmonics.addition_kernel(p, k, s)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9 * specfun.harmonic_dim(p, k))


def test_basis_columns_match_golden():
    # the checks above are rotation invariant, so they cannot see the
    # order or the signs of the columns; tests/golden/basis_columns.json
    # holds float.hex of basis_matrix(p, k, X) at three points for
    # p = 4, 5, 6, written by the hyperspherical-chart construction that
    # the solid-harmonic recursion replaced
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))["cases"]
    assert [(c["p"], c["k"]) for c in cases] == [(4, 3), (5, 5), (6, 4)]
    for case in cases:
        p, k = case["p"], case["k"]
        X = np.array([[float.fromhex(v) for v in row] for row in case["points"]])
        want = np.array([[float.fromhex(v) for v in row] for row in case["basis"]])
        assert want.shape == (3, specfun.harmonic_dim(p, k))
        np.testing.assert_allclose(harmonics.basis_matrix(p, k, X), want, rtol=0,
                                   atol=1e-13 * math.sqrt(want.shape[1]))


def test_against_scipy_spherical_harmonics():
    # independent oracle for p = 3: 4*pi * sum_m Y_km(u) conj(Y_km(v))
    # equals the degree-k reproducing kernel sum_r g_r(u) g_r(v)
    rng = np.random.default_rng(17)
    U = _random_sphere(rng, 25, 3)
    V = _random_sphere(rng, 25, 3)

    def scipy_kernel(k, u, v):
        # scipy convention: sph_harm_y(k, m, polar, azimuth)
        tu = harmonics.to_hyperspherical(u)
        tv = harmonics.to_hyperspherical(v)
        ms = np.arange(-k, k + 1)
        yu = sph_harm_y(k, ms, tu[1], tu[0])
        yv = sph_harm_y(k, ms, tv[1], tv[0])
        return 4.0 * math.pi * float(np.real(np.sum(yu * np.conj(yv))))

    for k in (1, 2, 3, 4):
        gu = harmonics.basis_matrix(3, k, U)
        gv = harmonics.basis_matrix(3, k, V)
        for i in range(U.shape[0]):
            mine = float(gu[i] @ gv[i])
            ref = scipy_kernel(k, U[i], V[i])
            assert mine == pytest.approx(ref, abs=1e-9 * (2 * k + 1))


def test_monte_carlo_orthonormality():
    # E[g_{r,k} g_{s,l}] = delta_{rs} delta_{kl}, estimated from 1e6 draws
    rng = np.random.default_rng(2024)
    n = 1_000_000
    block = 100_000
    for p in (2, 3, 4):
        ks = range(1, 5)
        dims = [specfun.harmonic_dim(p, k) for k in ks]
        total = sum(dims)
        gram = np.zeros((total, total))
        for _ in range(n // block):
            X = _random_sphere(rng, block, p)
            G = np.hstack([harmonics.basis_matrix(p, k, X) for k in ks])
            gram += G.T @ G
        gram /= n
        np.testing.assert_allclose(gram, np.eye(total), atol=5e-3)


def test_funk_hecke_identity():
    # integral over S^2 of h(xi'eta) g_{r,k}(xi) equals lambda_k g_{r,k}(eta)
    # with lambda_k = omega_1 / C_k(1) * integral(h C_k w); h = exp
    rule = gauss_jacobi_rule(3, 64)
    n_phi = 256
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    t = np.repeat(rule.nodes, n_phi)
    st = np.sqrt(1.0 - t**2)
    grid = np.column_stack([st * np.sin(np.tile(phi, rule.order)),
                            st * np.cos(np.tile(phi, rule.order)),
                            t])
    w_surf = np.repeat(rule.weights, n_phi) * (2.0 * math.pi / n_phi)

    rng = np.random.default_rng(23)
    etas = _random_sphere(rng, 5, 3)
    for k in (1, 2, 3):
        lam_k = 2.0 * math.pi / specfun.gegenbauer_eval(0.5, k, 1.0) * \
            rule.integrate(np.exp(rule.nodes) * specfun.gegenbauer_eval(0.5, k, rule.nodes))
        G = harmonics.basis_matrix(3, k, grid)
        for eta in etas:
            h = np.exp(grid @ eta)
            lhs = G.T @ (w_surf * h)
            rhs = lam_k * harmonics.basis_eval(3, k, eta).values
            np.testing.assert_allclose(lhs, rhs, atol=1e-6 * max(1.0, np.abs(rhs).max()))


def test_addition_kernel_degree_zero_and_errors():
    assert harmonics.addition_kernel(2, 0, 0.3) == 1.0
    assert harmonics.addition_kernel(5, 0, -0.9) == 1.0
    with pytest.raises(ValueError):
        harmonics.basis_eval(3, 0, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        harmonics.basis_matrix(3, 1, np.array([[0.0, 0.0, 2.0]]))
    with pytest.raises(ValueError, match="unit norm"):  # a NaN norm is not near 1
        harmonics.basis_matrix(3, 1, np.array([[math.nan, 0.0, 1.0]]))


def test_near_pole_stability():
    eps = 1e-13
    x = np.array([eps, eps, math.sqrt(1.0 - 2.0 * eps**2)])
    for k in (1, 2, 3):
        g = harmonics.basis_eval(3, k, x)
        assert np.all(np.isfinite(g.values))
        assert g.values[0] == pytest.approx(math.sqrt(2 * k + 1), rel=1e-8)
