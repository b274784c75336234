import csv
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import sobotest
from sobotest.asymptotics import (
    AsymptoticPower,
    MixtureLaw,
    ThresholdReport,
    classify_threshold,
    expansion_coeffs,
    expansion_system,
    gegenbauer_expectation_coeffs,
    limit_law,
    noncentrality_delayed,
    noncentrality_standard,
    power_curve,
    power_curve_csv,
)
from sobotest.harness import parse_weights
from sobotest.rotsym import cauchy, power, vmf, watson
from sobotest.sobolev import WeightSequence
from sobotest.specfun import harmonic_dim, t_factor

from oracles.asymptotics_oracle import neumann_inverse
from oracles.chi2_series_oracle import noncentral_chi2_cdf, noncentral_chi2_sf, series_bound
from oracles.rotsym_moments_oracle import gegenbauer_expectation_oracle, t_moment_oracle

BUILTINS = {
    "vmf": vmf(),
    "watson": watson(),
    "power_3": power(3),
    "cauchy": cauchy(),
}

# frozen from the symbolic ratio-series oracle
# (tests/oracles/asymptotics_oracle.py): (p, f, m, q) -> b_{m,0..q-m}
MOMENT_COEFFS = {
    (3, "vmf", 1, 6): [0, Fraction(1, 3), 0, Fraction(-1, 45), 0, Fraction(2, 945)],
    (2, "vmf", 1, 5): [0, Fraction(1, 2), 0, Fraction(-1, 16), 0],
    (4, "vmf", 2, 6): [Fraction(1, 4), 0, Fraction(1, 32), 0, Fraction(-1, 512)],
    (3, "watson", 2, 8): [Fraction(1, 3), 0, Fraction(4, 45), 0,
                          Fraction(8, 945), 0, Fraction(-16, 14175)],
    (2, "watson", 2, 6): [Fraction(1, 2), 0, Fraction(1, 8), 0, 0],
    (5, "watson", 4, 8): [Fraction(3, 35), 0, Fraction(16, 525), 0,
                          Fraction(1088, 202125)],
    (3, "power_3", 1, 7): [0, 0, 0, Fraction(1, 5), 0, 0, 0],
    (3, "cauchy", 1, 4): [0, Fraction(-2, 3), 0, Fraction(-32, 45)],
    (4, "cauchy", 3, 7): [0, Fraction(-1, 4), 0, Fraction(-3, 8), 0],
}

# same oracle: (p, k, f, r) -> coefficients of kappa^(k..k+r)
GEGEN_COEFFS = {
    (3, 1, "vmf", 4): [Fraction(1, 3), 0, Fraction(-1, 45), 0, Fraction(2, 945)],
    (3, 2, "watson", 4): [Fraction(2, 15), 0, Fraction(4, 315), 0, Fraction(-8, 4725)],
    (3, 2, "power_3", 4): [0, 0, 0, 0, Fraction(1, 21)],
    (2, 2, "vmf", 4): [Fraction(1, 8), 0, Fraction(-1, 48), 0, Fraction(11, 3072)],
    (4, 3, "vmf", 3): [Fraction(1, 48), 0, Fraction(-1, 640), 0],
    (5, 2, "cauchy", 3): [Fraction(48, 35), 0, Fraction(64, 25), 0],
}


def test_moment_coeffs_match_symbolic_oracle():
    for (p, name, m, q), want in MOMENT_COEFFS.items():
        got = expansion_coeffs(p, m, q, BUILTINS[name])
        assert got.shape == (q - m + 1,)
        for ell, ref in enumerate(want):
            if ref == 0:
                assert got[ell] == 0.0, (p, name, m, ell)
            else:
                assert got[ell] == pytest.approx(float(ref), rel=1e-11), (p, name, m, ell)


def test_moment_coeffs_low_order_values():
    # zeroth order is the uniform moment; first order is f'(0)/p for m=1
    for p in (2, 3, 4, 7):
        got = expansion_coeffs(p, 1, 2, vmf())
        assert got[0] == 0.0
        assert got[1] == pytest.approx(1.0 / p, rel=1e-13)
        for f in BUILTINS.values():
            assert expansion_coeffs(p, 2, 2, f)[0] == pytest.approx(1.0 / p, rel=1e-13)


def test_moment_coeffs_symmetric_f_odd_moment_vanishes():
    got = expansion_coeffs(3, 1, 4, watson())
    assert np.all(got == 0.0)


def test_moment_coeffs_parity_zeros_are_exact():
    for m in (1, 2, 3):
        got = expansion_coeffs(3, m, m + 5, vmf())
        for ell in range(got.size):
            if (ell - m) % 2:
                assert got[ell] == 0.0


def test_expansion_coeffs_validation():
    with pytest.raises(ValueError):
        expansion_coeffs(3, 0, 2, vmf())
    with pytest.raises(ValueError):
        expansion_coeffs(3, 3, 2, vmf())
    with pytest.raises(ValueError):
        expansion_coeffs(3, 1, 18, vmf())


def test_expansion_system_structure():
    system = expansion_system(3, vmf(), 8, m=2, k=2)
    size = system.order + 1
    assert system.A.shape == (size, size)
    assert np.all(np.diag(system.A) == 1.0)
    assert np.all(np.triu(system.A, 1) == 0.0)
    for i in range(size):
        for j in range(i):
            if (i - j) % 2:
                assert system.A[i, j] == 0.0
    # strictly lower part is nilpotent at exactly the matrix size
    low = system.A - np.eye(size)
    powermat = np.linalg.matrix_power(low, size)
    assert np.all(powermat == 0.0)


def test_neumann_inverse_matches_forward_substitution():
    for name in BUILTINS:
        system = expansion_system(3, BUILTINS[name], 7, m=1)
        inv = neumann_inverse(system)
        size = system.order + 1
        for col in range(size):
            e = np.zeros(size)
            e[col] = 1.0
            assert np.allclose(system.solve(e), inv[:, col], rtol=0, atol=1e-12)
        assert np.allclose(inv @ system.A, np.eye(size), atol=1e-12)
        # parity structure survives inversion
        for i in range(size):
            for j in range(i):
                if (i - j) % 2:
                    assert inv[i, j] == 0.0


def _moment_remainder_ratios(p, m, q, f, kappas=(0.2, 0.1, 0.05)):
    b = expansion_coeffs(p, m, q, f)
    ratios = []
    for kap in kappas:
        approx = sum(c * kap**ell for ell, c in enumerate(b))
        exact = t_moment_oracle(p, kap, f, m)
        ratios.append(abs(exact - approx) / kap ** (q - m))
    return b, ratios


@pytest.mark.parametrize("name", sorted(BUILTINS))
@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_moment_expansion_matches_quadrature(name, p, m):
    f = BUILTINS[name]
    # horizon at the last coefficient position sharing the parity of m;
    # one step further only renames the o(.) order without adding a term
    q = m + 4 if m % 2 == 0 else m + 3
    b, ratios = _moment_remainder_ratios(p, m, q, f)
    peak = float(np.max(np.abs(b)))
    if peak == 0.0:
        # identically-zero expansion: the oracle moment itself must vanish
        for kap in (0.2, 0.1, 0.05):
            assert abs(t_moment_oracle(p, kap, f, m)) < 1e-12
        return
    assert ratios[0] >= ratios[1] >= ratios[2] or max(ratios) < 1e-9
    assert ratios[-1] < 0.1 * peak


def test_moment_oracle_small_kappa_spot_value():
    # E[t] under a weak concentration is kappa/p to leading order
    assert abs(t_moment_oracle(3, 0.1, vmf(), 1) - 0.1 / 3.0) < 1e-4


def test_gegenbauer_coeffs_match_symbolic_oracle():
    for (p, k, name, r), want in GEGEN_COEFFS.items():
        got = gegenbauer_expectation_coeffs(p, k, r, BUILTINS[name])
        assert got.shape == (r + 1,)
        for i, ref in enumerate(want):
            if ref == 0:
                assert got[i] == 0.0, (p, k, name, i)
            else:
                assert got[i] == pytest.approx(float(ref), rel=1e-11), (p, k, name, i)


def test_gegenbauer_leading_coefficient_closed_form():
    from sobotest.specfun import monomial_to_gegenbauer

    for p in (2, 3, 4, 5):
        for k in range(1, 6):
            for name in ("vmf", "power_3"):
                f = BUILTINS[name]
                fk = f.derivative_at_zero(k)
                lead = gegenbauer_expectation_coeffs(p, k, 0, f)[0]
                want = (monomial_to_gegenbauer(p, k)[k] * fk
                        / (math.factorial(k) * t_factor(p, k) ** 2))
                if fk == 0.0:
                    assert lead == 0.0
                else:
                    assert lead == pytest.approx(want, rel=1e-12)


def test_gegenbauer_structural_zeros_below_degree():
    system = expansion_system(3, vmf(), 7, k=3)
    full = system.solve(system.z)
    assert np.all(full[:3] == 0.0)
    # symmetric f against an odd degree: flat zero through the horizon
    got = gegenbauer_expectation_coeffs(4, 1, 2, watson())
    assert np.all(got == 0.0)


def test_gegenbauer_degree_one_is_scaled_first_moment():
    # degree-one polynomial is t for p in {2,3} and (p-2) t above
    for p in (2, 3, 5):
        a = gegenbauer_expectation_coeffs(p, 1, 4, vmf())
        b = expansion_coeffs(p, 1, 6, vmf())[1:]
        scale = 1.0 if p == 2 else float(p - 2)
        assert np.allclose(a, scale * b, rtol=1e-12, atol=0)


@pytest.mark.parametrize("case", sorted(GEGEN_COEFFS))
def test_gegenbauer_expansion_matches_quadrature(case):
    p, k, name, r = case
    f = BUILTINS[name]
    # even r keeps the horizon on the informative parity
    r = r - (r % 2)
    coeffs = gegenbauer_expectation_coeffs(p, k, r, f)
    ratios = []
    remainders = []
    for kap in (0.2, 0.1, 0.05):
        approx = sum(c * kap ** (k + i) for i, c in enumerate(coeffs))
        exact = gegenbauer_expectation_oracle(p, kap, f, k)
        remainders.append(abs(exact - approx))
        ratios.append(remainders[-1] / kap ** (k + r))
    peak = float(np.max(np.abs(coeffs)))
    assert ratios[-1] < max(0.1 * peak, 1e-9)
    # monotone decrease only where the remainder sits above quadrature noise
    live = [i for i, rem in enumerate(remainders) if rem > 1e-12]
    assert all(ratios[i] >= ratios[j] for i, j in zip(live, live[1:]))


def test_noncentrality_standard_closed_forms():
    # degree 1: tau^2/p for a unit slope at zero
    for p in (2, 3, 5):
        for tau in (1.0, 2.5):
            assert noncentrality_standard(p, 1, tau, vmf()) == pytest.approx(
                tau**2 / p, rel=1e-12)
    # degree 2 with f''(0) = 2: (p-1) f''(0)^2 tau^4 / (2 p^2 (p+2))
    for p in (2, 3, 4):
        tau = 1.7
        want = (p - 1) * 4.0 * tau**4 / (2.0 * p**2 * (p + 2))
        assert noncentrality_standard(p, 2, tau, watson()) == pytest.approx(
            want, rel=1e-12)
    # odd derivative of a symmetric profile vanishes
    assert noncentrality_standard(3, 3, 2.0, watson()) == 0.0
    assert noncentrality_standard(3, 2, 0.0, vmf()) == 0.0


def test_noncentrality_standard_dual_route_over_grid():
    # the m_{k,k} form and the exact drift form are asserted equal internally
    for p in (2, 3, 4, 5):
        for k in range(1, 9):
            value = noncentrality_standard(p, k, 1.3, vmf())
            assert value > 0.0


def test_noncentrality_delayed_values():
    # first degree detected through third order: 9 tau^6 / (p (p+2)^2)
    for p in (2, 3, 5):
        tau = 1.4
        want = 9.0 * tau**6 / (p * (p + 2) ** 2)
        assert noncentrality_delayed(p, 1, 3, tau, power(3)) == pytest.approx(
            want, rel=1e-12)
    assert noncentrality_delayed(3, 1, 3, 1.0, power(3)) == pytest.approx(0.12, rel=1e-12)
    # second degree detected through sixth order
    want = 5.0 / 441.0
    assert noncentrality_delayed(3, 2, 6, 1.0, power(3)) == pytest.approx(want, rel=1e-12)


def test_noncentrality_delayed_reduces_to_standard():
    # the standard case is the delayed one at k_star = k, bit for bit, so
    # the value a test reports is the one its limit law carries
    for f in (vmf(), power(3), cauchy()):
        for p in (2, 3, 4, 5, 10, 20):
            for k in range(1, 9):
                assert (noncentrality_standard(p, k, 1.9, f)
                        == noncentrality_delayed(p, k, k, 1.9, f))


def test_noncentrality_delayed_validation():
    with pytest.raises(ValueError):
        noncentrality_delayed(3, 2, 3, 1.0, power(3))  # parity mismatch
    with pytest.raises(ValueError):
        noncentrality_delayed(3, 4, 2, 1.0, vmf())  # k_star below k
    with pytest.raises(ValueError):
        noncentrality_standard(3, 1, -1.0, vmf())
    for tau in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"tau must be finite and >= 0, got {tau}"):
            noncentrality_delayed(3, 1, 3, tau, vmf())


RAYLEIGH = WeightSequence.delta(1, name="rayleigh")
BINGHAM = WeightSequence.delta(2, name="bingham")
THREE = WeightSequence.delta(3, name="3-test")


def test_classification_table():
    rep = classify_threshold(RAYLEIGH, vmf(), 4)
    assert (rep.case, rep.k_star, rep.k_dagger) == ("standard", 1, 1)
    assert rep.rate_exponent == 0.5
    assert rep.rate_string() == "n^(-1/2)"

    rep = classify_threshold(BINGHAM, vmf(), 4)
    assert (rep.case, rep.k_star, rep.k_dagger) == ("standard", 2, 2)
    assert rep.rate_string() == "n^(-1/4)"

    rep = classify_threshold(THREE, vmf(), 6)
    assert (rep.case, rep.k_star, rep.k_dagger) == ("standard", 3, 3)
    assert rep.rate_string() == "n^(-1/6)"

    rep = classify_threshold(BINGHAM, watson(), 8)
    assert (rep.case, rep.k_star) == ("standard", 2)

    rep = classify_threshold(RAYLEIGH, watson(), 8)
    assert rep.case == "blind"
    assert rep.k_star is None and rep.k_dagger is None
    assert rep.blind_up_to_order == 8
    assert rep.rate_string() == "none"

    rep = classify_threshold(RAYLEIGH, power(3), 12)
    assert (rep.case, rep.k_star, rep.k_dagger) == ("delayed", 3, 1)
    assert rep.rate_string() == "n^(-1/6)"

    rep = classify_threshold(BINGHAM, power(3), 12)
    assert (rep.case, rep.k_star, rep.k_dagger) == ("delayed", 6, 2)
    assert rep.rate_string() == "n^(-1/12)"

    rep = classify_threshold(THREE, power(3), 12)
    assert (rep.case, rep.k_star, rep.k_dagger) == ("standard", 3, 3)
    assert rep.rate_string() == "n^(-1/6)"


def test_combined_weights_inherit_oracle_rate():
    both = WeightSequence.finite([1.0, 0.7])
    for name, f in BUILTINS.items():
        combined = classify_threshold(both, f, 12)
        best = None
        for single in (WeightSequence.delta(1), WeightSequence.delta(2)):
            rep = classify_threshold(single, f, 12)
            if rep.rate_exponent is not None:
                best = rep.rate_exponent if best is None else max(best, rep.rate_exponent)
        assert combined.rate_exponent == best, name


def test_threshold_report_record():
    report = classify_threshold(BINGHAM, power(3), 12)
    assert report.case == "delayed"
    assert report.k_star == 6
    assert report.k_dagger == 2
    assert report.rate_string() == "n^(-1/12)"
    blind = classify_threshold(RAYLEIGH, watson(), 8)
    assert blind.case == "blind"
    assert blind.blind_up_to_order == 8
    assert blind.rate_string() == "none"


def test_limit_law_null_structure():
    law = limit_law(RAYLEIGH, 3)
    assert law.terms == ((1.0, 3, 0.0),)
    assert law.tail_bound == 0.0
    law = limit_law(WeightSequence.finite([1.0, 0.5]), 4)
    assert law.terms == ((1.0, 4, 0.0), (0.25, harmonic_dim(4, 2), 0.0))


def test_limit_law_alternative_structure():
    tau = 1.3
    law = limit_law(BINGHAM, 3, watson(), tau, 0.25)
    assert len(law.terms) == 1
    weight, df, nc = law.terms[0]
    assert (weight, df) == (1.0, 5)
    assert nc == pytest.approx(4.0 * tau**4 / 45.0, rel=1e-12)

    both = WeightSequence.finite([1.0, 1.0])
    law = limit_law(both, 3, power(3), tau, 1.0 / 6.0)
    assert len(law.terms) == 2
    assert law.terms[0][1] == 3 and law.terms[1][1] == 5
    assert law.terms[0][2] == pytest.approx(9.0 * tau**6 / 75.0, rel=1e-12)
    assert law.terms[1][2] == 0.0

    # undershooting rate: central again
    law = limit_law(BINGHAM, 3, watson(), tau, 0.5)
    assert law.terms[0][2] == 0.0
    # blind pair: central at any rate
    law = limit_law(RAYLEIGH, 3, watson(), tau, 0.5, q=8)
    assert law.terms[0][2] == 0.0
    # tau = 0 degenerates to the null law
    law = limit_law(BINGHAM, 3, watson(), 0.0, 0.25)
    assert law.terms[0][2] == 0.0


def test_limit_law_rate_mismatch_raises():
    with pytest.raises(ValueError):
        limit_law(BINGHAM, 3, watson(), 1.0, 1.0 / 6.0)
    with pytest.raises(ValueError):
        limit_law(RAYLEIGH, 3, f=vmf(), tau=None, rate_exponent=0.5)
    with pytest.raises(ValueError):
        limit_law(RAYLEIGH, 3, vmf(), -1.0, 0.5)
    for tau in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"tau must be finite and >= 0, got {tau}"):
            limit_law(RAYLEIGH, 3, vmf(), tau, 0.5)


def test_limit_law_infinite_weights():
    rule = WeightSequence.from_rule(lambda k: 2.0 ** (-k), name="geom")
    law = limit_law(rule, 3, vmf(), 1.0, 0.5)
    assert law.tail_bound > 0.0
    assert law.terms[0][2] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert all(nc == 0.0 for _, _, nc in law.terms[1:])
    # twelve terms whose weights span eight decades
    null = limit_law(rule, 3)
    assert len(null.terms) == 12
    value, se = null.quantile(0.05)
    assert se <= 1e-9
    level, level_se = null.tail(value)
    assert abs(level - 0.05) <= se + level_se
    # frozen from a 30-digit mpmath Imhof integral of the twelve terms
    for x, ref in ((0.5, 0.92917328275507158352), (1.0, 0.55940964883075780609),
                   (2.5, 0.047274483519630210658)):
        tail, tail_se = null.tail(x)
        assert abs(tail - ref) <= tail_se, (x, tail, ref, tail_se)
    sample = null.sample(seed=0)
    beyond = np.count_nonzero(sample > value) / sample.size
    assert abs(beyond - 0.05) <= 5.0 * math.sqrt(0.05 * 0.95 / sample.size)


def test_noncentral_series_against_scipy():
    xs = np.array([0.5, 2.0, 7.8147, 15.0, 40.0])
    for df in (1, 3, 5, 7):
        for nc in (0.5, 2.0, 10.0, 100.0):
            mine = noncentral_chi2_cdf(xs + nc, df, nc)
            ref = stats.ncx2.cdf(xs + nc, df, nc)
            assert np.allclose(mine, ref, rtol=1e-10, atol=1e-13)
            mine_sf = noncentral_chi2_sf(xs + nc, df, nc)
            ref_sf = stats.ncx2.sf(xs + nc, df, nc)
            assert np.allclose(mine_sf, ref_sf, rtol=1e-9, atol=1e-13)


def test_noncentral_series_deep_tail():
    # the terms that carry these tails sit far above the mode of the
    # Poisson weights; a mode-centred window gave 1.50e-63 at x = 500 and
    # 5.0e-155 at x = 1000
    xs = np.array([200.0, 500.0, 1000.0])
    assert np.allclose(noncentral_chi2_sf(xs, 5, 30.0), stats.ncx2.sf(xs, 5, 30.0),
                       rtol=1e-10, atol=0.0)


def test_noncentral_series_large_noncentrality():
    # far enough out that naive Poisson weights would underflow
    nc = 6000.0
    df = 5
    grid = np.array([nc * 0.8, nc + df, nc * 1.2])
    vals = noncentral_chi2_cdf(grid, df, nc)
    assert np.all(np.diff(vals) > 0.0)
    assert vals[0] < 0.01 and vals[-1] > 0.99
    assert noncentral_chi2_cdf(nc + df - 1.0, df, nc) == pytest.approx(0.5, abs=0.02)


def test_noncentral_series_terminates_at_huge_noncentrality():
    # Bingham against exp(s^3): nc = 6.0e3 at tau = 3 and 7.8e5 at tau = 4.5,
    # where rounding in the Poisson log-weights used to keep the window
    # growing until memory ran out
    taus = [0.0, 1.5, 3.0, 4.5]
    rows = power_curve(BINGHAM, 3, power(3), taus, 0.05)
    assert len(rows) == 4
    nc = limit_law(BINGHAM, 3, power(3), 4.5, 1.0 / 12.0).terms[0][2]
    assert nc > 7e5
    ref = stats.ncx2.sf(stats.chi2.ppf(0.95, 5), 5, nc)
    assert rows[-1].power == pytest.approx(ref, rel=1e-9)
    for nc in (9495.0, 3.8e4, 7.8e5):
        x = nc + 5.0 + np.array([-2.0, 0.0, 2.0]) * math.sqrt(2.0 * (5.0 + 2.0 * nc))
        assert np.allclose(noncentral_chi2_sf(x, 5, nc), stats.ncx2.sf(x, 5, nc),
                           rtol=1e-10, atol=0.0)


def test_noncentral_series_stays_a_probability():
    # the window dot product used to overshoot 1 by a few ulp out here
    assert noncentral_chi2_sf(11.0705, 5, 6025.41) <= 1.0
    assert noncentral_chi2_cdf(1e6, 5, 6025.41) <= 1.0
    assert noncentral_chi2_sf(1e-12, 3, 4000.0) <= 1.0


def test_single_term_quantile_is_deterministic_series_value():
    law = MixtureLaw(3, [(1.0, 3, 0.0)])
    value, se = law.quantile(0.05)
    assert value == pytest.approx(stats.chi2.ppf(0.95, 3), rel=1e-10)
    assert value == pytest.approx(7.814727903251179, rel=1e-10)
    # the contour's error bound
    assert 0.0 <= se <= 1e-12
    noncentral = MixtureLaw(3, [(2.0, 5, 3.7)])
    value, se = noncentral.quantile(0.1)
    assert value == pytest.approx(2.0 * stats.ncx2.ppf(0.9, 5, 3.7), rel=1e-8)
    assert 0.0 <= se <= 1e-12
    # far below the resolution of a CDF near 1
    value, se = law.quantile(1e-20)
    assert abs(stats.chi2.sf(value, 3) - 1e-20) <= se
    assert value == pytest.approx(stats.chi2.isf(1e-20, 3), rel=1e-12)


def test_single_term_tail_series_value():
    law = MixtureLaw(3, [(1.0, 3, 3.0)])
    value, se = law.tail(7.814727903251179)
    assert value == pytest.approx(stats.ncx2.sf(7.814727903251179, 3, 3.0), rel=1e-9)
    # frozen from a direct Poisson-mixture sum over central tails
    assert value == pytest.approx(0.2746396149, rel=1e-8)
    # the contour's error bound
    assert 0.0 <= se <= 1e-12
    # deep in a noncentral tail, where the mode-centred Poisson window
    # misses the terms that carry the mass
    law = MixtureLaw(3, [(1.0, 5, 30.0)])
    value, se = law.tail(500.0)
    assert abs(value - stats.ncx2.sf(500.0, 5, 30.0)) <= se
    assert value == pytest.approx(stats.ncx2.sf(500.0, 5, 30.0), rel=1e-11, abs=0.0)


def test_series_bound_covers_rounding_at_large_noncentrality():
    # the contour's bound covers its distance from scipy on both sides of
    # the mean, where rounding in the exponent grows with the noncentrality
    for nc in (10.0, 500.0, 9495.0, 3.8e4, 2e5, 7.8e5, 2e6, 5e6):
        for df in (3, 5, 54):
            law = MixtureLaw(3, [(1.0, df, nc)])
            for x in nc + df + np.array([-2.0, 0.0, 2.0]) * math.sqrt(2.0 * (df + 2.0 * nc)):
                value, se = law.tail(x)
                cdf_err = abs((1.0 - value) - stats.ncx2.cdf(x, df, nc))
                sf_err = abs(value - stats.ncx2.sf(x, df, nc))
                assert cdf_err <= se + 1e-15, (nc, df, x, cdf_err, se)
                assert sf_err <= se + 1e-15, (nc, df, x, sf_err, se)
                if x >= nc + df:
                    assert sf_err <= 1e-11 * stats.ncx2.sf(x, df, nc), (nc, df, x, sf_err)
    assert 0.0 <= MixtureLaw(3, [(1.0, 5, 0.0)]).tail(4.0)[1] <= 1e-12


def test_single_term_law_draws_nothing(monkeypatch):
    # and no multi-term law, nor any function that builds laws
    def no_sample(*args, **kwargs):
        raise AssertionError("a law evaluation drew a Monte Carlo sample")

    monkeypatch.setattr(MixtureLaw, "sample", no_sample)
    for terms in ([(1.0, 3, 0.0)], [(0.5, 5, 2.5)],
                  [(1.0, 3, 0.0), (0.25, 5, 0.0)], [(1.0, 2, 3.0), (0.5, 2, 0.0)]):
        law = MixtureLaw(3, terms)
        law.quantile(0.05)
        law.tail(4.0)
    weights = WeightSequence.finite([1.0, 0.5])
    limit_law(weights, 3).quantile(0.05)
    power_curve(weights, 3, power(3), [1.5], 0.05)
    power_curve(weights, 3, vmf(), [0.0, 1.0], 0.05)
    power_curve_csv(weights, 2, watson(), [1.0], 0.05)


def test_single_term_tail_at_other_law_seeds():
    # a pointwise Monte Carlo cross-check used to raise ArithmeticError for
    # laws with Monte Carlo seed 5; the seed-5 sample still agrees
    law = limit_law(BINGHAM, 3)
    value, se = law.tail(14.32)
    assert value == pytest.approx(stats.chi2.sf(14.32, 5), rel=1e-10)
    assert 0.0 <= se <= 1e-12
    sample = law.sample(seed=5)
    beyond = np.count_nonzero(sample > 14.32) / sample.size
    assert abs(beyond - value) <= 5.0 * math.sqrt(value * (1.0 - value) / sample.size)


def _dkw_gap(law, seed, cdf):
    """Largest distance between `cdf` and the empirical CDF of the seeded
    sample, and the Dvoretzky-Kiefer-Wolfowitz bound eps: sup_x
    |F_N(x) - F(x)| <= eps with probability >= 1 - 1e-6, simultaneously
    over all x."""
    sample = law.sample(seed=seed)
    size = sample.size
    eps = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * size))
    # the supremum sits at order statistics; check a dense set of them
    # from both sides of each jump
    idx = np.unique(np.concatenate([np.linspace(0, size - 1, 2001).astype(int),
                                    np.arange(50), size - 1 - np.arange(50)]))
    values = cdf(sample[idx])
    gap = np.maximum(np.abs(values - (idx + 1) / size), np.abs(values - idx / size))
    return gap.max(), eps


@pytest.mark.parametrize("p", [3, 10])
@pytest.mark.parametrize("nc", [0.0, 6.5])
def test_single_term_series_within_dkw_band_of_sample(p, nc):
    df = harmonic_dim(p, 2)
    law = MixtureLaw(p, [(0.5, df, nc)])
    for seed in (0, 5, 10, 11):
        gap, eps = _dkw_gap(law, seed, lambda x: noncentral_chi2_cdf(x / 0.5, df, nc))
        assert gap <= eps, (seed, gap, eps)


@pytest.mark.parametrize("p", [2, 3, 10])
@pytest.mark.parametrize("nc", [0.0, 6.5])
def test_multi_term_inversion_within_dkw_band_of_sample(p, nc):
    law = MixtureLaw(p, [(1.0, harmonic_dim(p, 1), nc), (0.25, harmonic_dim(p, 2), 0.0),
                         (0.16, harmonic_dim(p, 3), 0.5 * nc)])
    for seed in (0, 5, 10, 11):
        gap, eps = _dkw_gap(law, seed, lambda xs: np.array([1.0 - law.tail(x)[0] for x in xs]))
        assert gap <= eps, (seed, gap, eps)


def test_mixture_sample_determinism_and_scaling():
    terms = [(1.0, 3, 0.0), (0.5, 5, 1.2)]
    law_a = MixtureLaw(3, terms)
    law_b = MixtureLaw(3, terms)
    assert np.array_equal(law_a.sample(seed=11), law_b.sample(seed=11))
    assert not np.array_equal(law_a.sample(seed=11), law_a.sample(seed=12))

    doubled = MixtureLaw(3, [(2.0, 3, 0.0), (1.0, 5, 1.2)])
    assert np.array_equal(doubled.sample(seed=11), 2.0 * law_a.sample(seed=11))
    q1, _ = law_a.quantile(0.05)
    q2, _ = doubled.quantile(0.05)
    assert q2 == pytest.approx(2.0 * q1, rel=1e-12)


def test_two_term_mixture_against_collapsed_chi_square():
    cases = [
        # chi2_3 + chi2_5 = chi2_8
        ([(1.0, 3, 0.0), (1.0, 5, 0.0)], stats.chi2(8)),
        # 0.5 chi2(3, 2) + 0.5 chi2(5, 1) = 0.5 chi2(8, 3)
        ([(0.5, 3, 2.0), (0.5, 5, 1.0)], stats.ncx2(8, 3.0, scale=0.5)),
        # p = 2: chi2_2 + chi2_2 = chi2_4
        ([(1.0, 2, 0.0), (1.0, 2, 0.0)], stats.chi2(4)),
        # one degree of freedom, where the branch point is nearest the
        # contour: 2 chi2_1 + 2 chi2_1 = 2 chi2_2
        ([(2.0, 1, 0.0), (2.0, 1, 0.0)], stats.chi2(2, scale=2.0)),
    ]
    for terms, exact in cases:
        law = MixtureLaw(3, terms)
        for alpha in (0.01, 0.05, 0.5, 0.9):
            value, se = law.quantile(alpha)
            level = exact.sf(value)
            assert abs(level - alpha) <= min(se, 1e-9), (terms, alpha, level, se)
        for x in (-1.0, 0.0, 0.2, 1.0, 4.0, 7.5, 15.5, 30.0, 60.0, 150.0):
            tail, se = law.tail(x)
            ref = exact.sf(x)
            assert abs(tail - ref) <= min(se, 1e-9), (terms, x, tail, ref, se)
            # relative accuracy above the mean
            if x >= exact.mean():
                assert abs(tail - ref) <= 1e-11 * ref, (terms, x, tail, ref)


def test_multi_term_deep_tails_against_a_convolution():
    # chi2_3 + 0.25 chi2_5 by a 50-digit mpmath convolution, with relative
    # accuracy where an absolute bound of 1e-12 says nothing
    law = MixtureLaw(3, [(1.0, 3, 0.0), (0.25, 5, 0.0)])
    for x, ref in ((60.0, 1.190300076712181e-12), (100.0, 3.164158476626641e-21),
                   (200.0, 8.623994182577256e-43)):
        value, se = law.tail(x)
        assert abs(value - ref) <= se, (x, value, ref, se)
        assert value == pytest.approx(ref, rel=1e-11, abs=0.0)


def test_p2_law_against_its_closed_form():
    # w chi2_2 is exponential with rate l = 1 / (2 w), and a sum of
    # exponentials with distinct rates has the upper tail
    # sum_k prod_{j != k} l_j / (l_j - l_k) exp(-l_k x)
    weights = (1.0, 0.25, 0.0625)
    law = MixtureLaw(2, [(w, 2, 0.0) for w in weights])
    rates = [0.5 / w for w in weights]
    for x in (10.0, 50.0, 1000.0):
        ref = math.fsum(
            math.prod(lj / (lj - lk) for j, lj in enumerate(rates) if j != k) * math.exp(-lk * x)
            for k, lk in enumerate(rates))
        value, se = law.tail(x)
        assert abs(value - ref) <= se, (x, value, ref, se)
        assert value == pytest.approx(ref, rel=1e-11, abs=0.0)


def test_law_table_gate():
    """Critical values at alpha = 0.05 of the named tests and two weight
    lists at p = 2, 3 and 10, frozen from the previous evaluators (Poisson
    series for one term, characteristic-function inversion for more).
    `se` is the bound those returned; `root_tol` the level change across
    their root finder's tolerance (1e-12 of its bracket), which `se` left
    out."""
    with open(Path(__file__).parent / "golden" / "law_table.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 15
    for row in rows:
        law = limit_law(parse_weights(row["test"]), int(row["p"]))
        alpha, stored = float(row["alpha"]), float(row["critical_value"])
        assert law.quantile(alpha)[0] == pytest.approx(stored, rel=1e-10), row
        level, se = law.tail(stored)
        assert abs(level - alpha) <= float(row["se"]) + float(row["root_tol"]) + se, (row, level)


def test_import_loads_neither_scipy_stats_nor_optimize():
    code = ("import sys, sobotest; "
            "print(*[m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules])")
    src = str(Path(sobotest.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60)
    assert out.stdout.strip() == ""


def test_inversion_matches_series_on_single_terms():
    # the contour against the Poisson-series oracle and its truncation bound
    for terms in ([(1.0, 5, 0.0)], [(2.0, 10, 30.0)], [(0.7, 54, 4.0)]):
        law = MixtureLaw(3, terms)
        (weight, df, nc), = terms
        for alpha in (0.9, 0.5, 0.05, 1e-4):
            x = law.quantile(alpha)[0]
            value, se = law.tail(x)
            series = noncentral_chi2_sf(x / weight, df, nc)
            assert abs(value - series) <= se + series_bound(nc), (terms, alpha)
            assert abs(value - series) <= 1e-11


def test_multi_term_results_do_not_depend_on_call_history():
    terms = [(1.0, 2, 1.5), (0.25, 2, 0.0), (0.09, 2, 0.0)]
    xs = [0.05, 30.0, 2.0, 6.0, 0.5]
    alphas = [0.05, 0.5, 0.01]
    tails = {x: MixtureLaw(2, terms).tail(x) for x in xs}
    quantiles = {a: MixtureLaw(2, terms).quantile(a) for a in alphas}
    law = MixtureLaw(2, terms)
    assert [law.quantile(a) for a in reversed(alphas)] == [quantiles[a] for a in reversed(alphas)]
    assert [law.tail(x) for x in reversed(xs)] == [tails[x] for x in reversed(xs)]
    law = MixtureLaw(2, terms)
    assert [law.tail(x) for x in xs[::2] + xs[1::2]] == [tails[x] for x in xs[::2] + xs[1::2]]
    assert [law.quantile(a) for a in alphas[1:] + alphas[:1]] == [
        quantiles[a] for a in alphas[1:] + alphas[:1]]


def test_three_term_power_curve_against_power_3():
    weights = WeightSequence.finite([1.0, 0.5, 0.6])
    rows = power_curve(weights, 3, power(3), [0.0, 1.5, 3.0, 4.5, 6.0], 0.05)
    powers = [row.power for row in rows]
    assert len(rows) == 5 and not any(row.trivial for row in rows)
    assert powers[0] == pytest.approx(0.05, abs=1e-9)
    # monotone within the evaluator's error bound
    assert all(b.power >= a.power - a.se - b.se for a, b in zip(rows, rows[1:]))
    assert powers[-1] == pytest.approx(1.0, abs=1e-9)


def test_mixture_quantile_monotone_in_alpha():
    law = MixtureLaw(3, [(1.0, 3, 0.0), (0.7, 5, 2.0)])
    values = [law.quantile(a)[0] for a in (0.01, 0.05, 0.1, 0.5)]
    assert values == sorted(values, reverse=True)


def test_mixture_tail_monotone_and_wrappers():
    law = MixtureLaw(3, [(1.0, 3, 0.0), (0.7, 5, 2.0)])
    t1, _ = law.tail(2.0)
    t2, _ = law.tail(8.0)
    assert t1 > t2
    q, se = law.quantile(0.05)
    assert q > 0 and se >= 0.0


def test_mixture_validation():
    with pytest.raises(ValueError):
        MixtureLaw(3, [])
    with pytest.raises(ValueError):
        MixtureLaw(3, [(0.0, 3, 0.0)])
    with pytest.raises(ValueError):
        MixtureLaw(3, [(1.0, 0, 0.0)])
    with pytest.raises(ValueError):
        MixtureLaw(3, [(1.0, 3, -0.5)])
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"term weights must be finite and > 0, got {value}"):
            MixtureLaw(3, [(value, 3, 0.0)])
        with pytest.raises(ValueError, match=f"noncentrality must be finite and >= 0, got {value}"):
            MixtureLaw(3, [(1.0, 3, value)])
    law = MixtureLaw(3, [(1.0, 3, 0.0)])
    with pytest.raises(ValueError):
        law.quantile(0.0)


def test_mixture_record():
    law = MixtureLaw(3, [(1.0, 3, 0.0), (0.25, 5, 1.5)], tail_bound=1e-7)
    assert law.terms == ((1.0, 3, 0.0), (0.25, 5, 1.5))
    assert law.tail_bound == 1e-7
    assert not hasattr(law, "draws") and not hasattr(law, "seed")


def test_asymptotic_power_reference_points():
    # tau = 0 sits at the level by continuity
    [row] = power_curve(RAYLEIGH, 3, vmf(), [0.0], 0.05)
    assert not row.trivial
    assert row.power == pytest.approx(0.05, abs=1e-9)
    # noncentrality 1 at tau = sqrt(3); frozen from a direct Poisson sum
    [row] = power_curve(RAYLEIGH, 3, vmf(), [math.sqrt(3.0)], 0.05)
    ref = stats.ncx2.sf(stats.chi2.ppf(0.95, 3), 3, 1.0)
    assert row.power == pytest.approx(ref, rel=1e-9)
    assert row.power == pytest.approx(0.1156588374, rel=1e-8)


def test_asymptotic_power_blind_is_exact_alpha():
    [row] = power_curve(RAYLEIGH, 3, watson(), [2.5], 0.05, q=8)
    assert row == AsymptoticPower(0.05, 0.0, True)
    [row] = power_curve(THREE, 3, watson(), [1.0], 0.05, q=8)
    assert row.trivial and row.power == 0.05
    # a blind curve builds no law, so the grid is checked on its own
    for tau in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="tau must be finite and >= 0"):
            power_curve(RAYLEIGH, 3, watson(), [1.0, tau], 0.05, q=8)


def test_asymptotic_power_monotone_in_tau():
    taus = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    rows = power_curve(RAYLEIGH, 3, vmf(), taus, 0.05)
    powers = [r.power for r in rows]
    assert all(b >= a - 1e-9 for a, b in zip(powers, powers[1:]))
    assert powers[0] == pytest.approx(0.05, abs=1e-9)
    assert powers[-1] == pytest.approx(stats.ncx2.sf(stats.chi2.ppf(0.95, 3), 3, 16.0 / 3.0),
                                       rel=1e-9)

    rows = power_curve(BINGHAM, 3, watson(), [0.0, 1.0, 2.0, 3.0, 4.0], 0.05)
    powers = [r.power for r in rows]
    assert all(b >= a - 1e-9 for a, b in zip(powers, powers[1:]))
    assert powers[-1] > 0.8


def test_power_curve_matches_single_calls():
    taus = [0.0, 1.0, 2.0]
    rows = power_curve(BINGHAM, 3, watson(), taus, 0.05)
    for tau, row in zip(taus, rows):
        [single] = power_curve(BINGHAM, 3, watson(), [tau], 0.05)
        assert row.power == pytest.approx(single.power, rel=1e-12)


def test_power_curve_csv_format():
    text = power_curve_csv(RAYLEIGH, 3, watson(), [0.0, 1.0], 0.05, q=8)
    lines = text.strip().splitlines()
    assert lines[0] == "tau,power,se,flag"
    assert lines[1] == "0,0.05,0,trivial"
    assert lines[2] == "1,0.05,0,trivial"
    text = power_curve_csv(RAYLEIGH, 3, vmf(), [1.0], 0.05)
    assert text.strip().splitlines()[1].endswith(",ok")
