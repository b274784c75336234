"""End-to-end validation of the statistical claims the package makes.

Each test covers one claim family and prints a single
"ACCEPTANCE <n> (<name>): PASS/FAIL" line; a failing test also lists
every offending cell with its measured value, target, and tolerance.
Monte Carlo grids run at base_seed=0 with M=2000 replicates, so every
number below is reproducible bit for bit on any machine.

Tolerances on frequency cells are multiples of the binomial standard
error sqrt(q (1 - q) / M) evaluated at the target probability q.
Structural identities run at fixed numerical tolerances.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from sobotest.asymptotics import (
    classify_threshold,
    expansion_coeffs,
    expansion_system,
    noncentrality_delayed,
    noncentrality_standard,
)
from sobotest.harness import ExperimentConfig, run_power_experiment
from sobotest.harmonics import addition_kernel, basis_matrix
from sobotest.rotsym import cauchy, power, vmf, watson
from sobotest.rotsym import SphericalSample, sample_uniform
from sobotest.sobolev import (
    WeightSequence,
    stat_harmonic,
    stat_kernel,
)
from sobotest import specfun

from oracles.asymptotics_oracle import neumann_inverse
from oracles.chi2_series_oracle import noncentral_chi2_sf
from oracles.rotsym_moments_oracle import t_moment_oracle
from oracles.sobolev_oracle import bingham_stat, rayleigh_stat

pytestmark = pytest.mark.acceptance

M = 2000
SEED = 0
EPS = 1e-12

BUILTINS = {
    "vmf": vmf(),
    "watson": watson(),
    "power_3": power(3),
    "cauchy": cauchy(),
}


def _report(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status}")
    for line in failures:
        print(f"  {line}")
    assert not failures, f"{len(failures)} check(s) out of tolerance"


def _se(target):
    return math.sqrt(max(target * (1.0 - target), 0.0) / M)


def _check(failures, ok, msg):
    if not ok:
        failures.append(msg)


def test_criterion_1_null_size():
    # under uniformity each test should reject near its nominal level
    cfg = ExperimentConfig(
        p=3, f_id="vmf", tests=("rayleigh", "bingham", "3-test"),
        n_list=(500,), rate_exponents=(2,), tau_grid=(0.0,),
        replicates=M, base_seed=SEED)
    start = time.monotonic()
    table = run_power_experiment(cfg)
    elapsed = time.monotonic() - start
    failures = []
    for r in table.rows:
        _check(failures, 0.035 <= r.reject_freq <= 0.065,
               f"{r.test} n=500: freq={r.reject_freq:.4f} "
               f"outside [0.035, 0.065]")
    _check(failures, elapsed < 120.0,
           f"runtime {elapsed:.0f}s exceeded 120s")
    _report(1, "null size", failures)


def test_criterion_2_vmf_power_curves():
    # each delta test against its own threshold-rate noncentral curve
    f = vmf()
    legs = (("rayleigh", 1, 2, 3), ("bingham", 2, 4, 5), ("3-test", 3, 6, 7))
    failures = []
    start = time.monotonic()
    for name, k, ell, df in legs:
        cfg = ExperimentConfig(
            p=3, f_id="vmf", tests=(name,), n_list=(5000,),
            rate_exponents=(ell,), tau_grid=tuple(float(t) for t in range(7)),
            replicates=M, base_seed=SEED)
        table = run_power_experiment(cfg)
        cv = stats.chi2.ppf(0.95, df)
        for r in table.rows:
            nc = noncentrality_standard(3, k, r.tau, f)
            target = noncentral_chi2_sf(cv, df, nc)
            _check(failures,
                   r.asym_power is not None
                   and abs(r.asym_power - target) <= 1e-8,
                   f"{name} tau={r.tau:g}: attached curve {r.asym_power} "
                   f"does not match series value {target:.10f}")
            band = 3.0 * _se(target)
            _check(failures, abs(r.reject_freq - target) <= band + EPS,
                   f"{name} ell={ell} tau={r.tau:g}: "
                   f"freq={r.reject_freq:.4f} target={target:.4f} "
                   f"band=3 SE={band:.4f}")
    elapsed = time.monotonic() - start
    # the curves themselves reduce to the advertised closed forms
    for tau in (1.0, 2.0, 5.5):
        _check(failures,
               noncentrality_standard(3, 1, tau, f)
               == pytest.approx(tau**2 / 3.0, rel=1e-12),
               f"degree-1 noncentrality at tau={tau:g} is not tau^2/3")
        _check(failures,
               noncentrality_standard(3, 2, tau, f)
               == pytest.approx(tau**4 / 45.0, rel=1e-12),
               f"degree-2 noncentrality at tau={tau:g} is not tau^4/45")
        _check(failures,
               noncentrality_standard(3, 3, tau, f)
               == pytest.approx(tau**6 / 1575.0, rel=1e-12),
               f"degree-3 noncentrality at tau={tau:g} is not tau^6/1575")
    _check(failures, elapsed < 900.0,
           f"runtime {elapsed:.0f}s exceeded 900s")
    _report(2, "power curves under a first-order alternative", failures)


def test_criterion_3_watson_blindness():
    # odd-degree tests stay at the null level against a symmetric
    # alternative at every polynomial rate; the degree-2 test follows
    # its noncentral curve at the matching rate
    f = watson()
    lo = 0.05 - 3.0 * _se(0.05)
    hi = 0.05 + 3.0 * _se(0.05)
    failures = []
    cfg = ExperimentConfig(
        p=3, f_id="watson", tests=("rayleigh", "3-test"), n_list=(5000,),
        rate_exponents=(2, 4, 6, 12), tau_grid=(0.0, 1.0, 2.0, 3.0, 4.0),
        replicates=M, base_seed=SEED)
    table = run_power_experiment(cfg)
    for r in table.rows:
        _check(failures, lo - EPS <= r.reject_freq <= hi + EPS,
               f"{r.test} ell={r.ell} tau={r.tau:g}: "
               f"freq={r.reject_freq:.4f} outside [{lo:.4f}, {hi:.4f}]")
    cfg = ExperimentConfig(
        p=3, f_id="watson", tests=("bingham",), n_list=(5000,),
        rate_exponents=(4,), tau_grid=(0.0, 1.0, 2.0, 3.0, 4.0),
        replicates=M, base_seed=SEED)
    table = run_power_experiment(cfg)
    cv = stats.chi2.ppf(0.95, 5)
    for r in table.rows:
        nc = noncentrality_standard(3, 2, r.tau, f)
        target = noncentral_chi2_sf(cv, 5, nc)
        band = 3.0 * _se(target)
        _check(failures, abs(r.reject_freq - target) <= band + EPS,
               f"bingham ell=4 tau={r.tau:g}: freq={r.reject_freq:.4f} "
               f"target={target:.4f} band=3 SE={band:.4f}")
    for tau in (1.0, 3.5):
        _check(failures,
               noncentrality_standard(3, 2, tau, f)
               == pytest.approx(4.0 * tau**4 / 45.0, rel=1e-12),
               f"degree-2 noncentrality at tau={tau:g} is not 4 tau^4/45")
    _report(3, "blindness to a symmetric alternative", failures)


def test_criterion_4_cubic_delayed_detection():
    # a cubic alternative: odd tests detect at the delayed n^(-1/6)
    # rate, the degree-2 test only at n^(-1/12), and stays at level
    # below that threshold
    f = power(3)
    failures = []
    cfg = ExperimentConfig(
        p=3, f_id="power", b=3, tests=("rayleigh", "3-test"),
        n_list=(5000,), rate_exponents=(6,), tau_grid=(0.0, 1.0, 2.0, 3.0),
        replicates=M, base_seed=SEED)
    table = run_power_experiment(cfg)
    cv3 = stats.chi2.ppf(0.95, 3)
    cv7 = stats.chi2.ppf(0.95, 7)
    for r in table.rows:
        if r.test == "rayleigh":
            nc = noncentrality_delayed(3, 1, 3, r.tau, f)
            target = noncentral_chi2_sf(cv3, 3, nc)
        else:
            nc = noncentrality_standard(3, 3, r.tau, f)
            target = noncentral_chi2_sf(cv7, 7, nc)
        _check(failures,
               r.asym_power is not None
               and abs(r.asym_power - target) <= 1e-8,
               f"{r.test} tau={r.tau:g}: attached curve {r.asym_power} "
               f"does not match series value {target:.10f}")
        band = 4.0 * _se(target)
        _check(failures, abs(r.reject_freq - target) <= band + EPS,
               f"{r.test} ell=6 tau={r.tau:g}: freq={r.reject_freq:.4f} "
               f"target={target:.4f} band=4 SE={band:.4f}")
    cfg = ExperimentConfig(
        p=3, f_id="power", b=3, tests=("bingham",), n_list=(5000,),
        rate_exponents=(2, 4, 6, 12), tau_grid=(0.0, 1.0, 2.0, 3.0),
        replicates=M, base_seed=SEED)
    table = run_power_experiment(cfg)
    cv5 = stats.chi2.ppf(0.95, 5)
    lo = 0.05 - 3.0 * _se(0.05)
    hi = 0.05 + 3.0 * _se(0.05)
    for r in table.rows:
        if r.ell == 12:
            nc = noncentrality_delayed(3, 2, 6, r.tau, f)
            target = noncentral_chi2_sf(cv5, 5, nc)
            band = 4.0 * _se(target)
            _check(failures, abs(r.reject_freq - target) <= band + EPS,
                   f"bingham ell=12 tau={r.tau:g}: "
                   f"freq={r.reject_freq:.4f} target={target:.4f} "
                   f"band=4 SE={band:.4f}")
        else:
            _check(failures, lo - EPS <= r.reject_freq <= hi + EPS,
                   f"bingham ell={r.ell} tau={r.tau:g}: "
                   f"freq={r.reject_freq:.4f} outside [{lo:.4f}, {hi:.4f}]")
    for tau in (1.0, 2.5):
        _check(failures,
               noncentrality_delayed(3, 1, 3, tau, f)
               == pytest.approx(9.0 * tau**6 / 75.0, rel=1e-12),
               f"delayed degree-1 noncentrality at tau={tau:g} "
               f"is not 9 tau^6/75")
        _check(failures,
               noncentrality_standard(3, 3, tau, f)
               == pytest.approx(4.0 * tau**6 / 175.0, rel=1e-12),
               f"degree-3 noncentrality at tau={tau:g} is not 4 tau^6/175")
    _report(4, "delayed detection of a cubic alternative", failures)


def test_criterion_5_expansion_against_quadrature():
    # moment expansions agree with direct quadrature, with the
    # remainder shrinking at the order the truncation promises
    kappas = (0.2, 0.1, 0.05)
    failures = []
    for name in sorted(BUILTINS):
        f = BUILTINS[name]
        for p in (2, 3, 4):
            for m in (1, 2, 3):
                q = m + 4 if m % 2 == 0 else m + 3
                b = expansion_coeffs(p, m, q, f)
                peak = float(np.max(np.abs(b)))
                label = f"f={name} p={p} m={m}"
                if peak == 0.0:
                    bad = [kap for kap in kappas
                           if abs(t_moment_oracle(p, kap, f, m)) >= 1e-12]
                    _check(failures, not bad,
                           f"{label}: zero expansion but oracle moment "
                           f"is nonzero at kappa={bad}")
                    continue
                ratios = []
                for kap in kappas:
                    approx = sum(c * kap**i for i, c in enumerate(b))
                    exact = t_moment_oracle(p, kap, f, m)
                    ratios.append(abs(exact - approx) / kap ** (q - m))
                monotone = (ratios[0] >= ratios[1] >= ratios[2]
                            or max(ratios) < 1e-9)
                _check(failures, monotone,
                       f"{label}: remainder ratios {ratios} not decreasing")
                _check(failures, ratios[-1] < 0.1 * peak,
                       f"{label}: final ratio {ratios[-1]:.3g} not below "
                       f"0.1 max|b| = {0.1 * peak:.3g}")
    _report(5, "moment expansion vs quadrature oracle", failures)


def test_criterion_6_structural_identities():
    failures = []
    start = time.monotonic()

    # kernel and harmonic routes compute the same statistic (1e-8)
    for p in (2, 3, 4):
        sample = sample_uniform(p, 400, seed=13)
        w = WeightSequence.finite([1.0, 0.5, 0.25])
        a = stat_kernel(sample, w)
        b = stat_harmonic(sample, w)
        _check(failures, abs(a - b) <= 1e-8 * max(abs(a), abs(b)),
               f"kernel/harmonic p={p}: {a!r} vs {b!r}")

    # closed-form Rayleigh and Bingham match the generic routes (1e-9)
    for p in (2, 3, 5):
        sample = sample_uniform(p, 300, seed=11)
        w1 = WeightSequence.delta(1)
        ray = rayleigh_stat(sample)
        for route, val in (("harmonic", stat_harmonic(sample, w1)),
                           ("kernel", stat_kernel(sample, w1))):
            _check(failures, abs(ray - val) <= 1e-9 * abs(ray),
                   f"rayleigh/{route} p={p}: {ray!r} vs {val!r}")
        sample = sample_uniform(p, 300, seed=12)
        w2 = WeightSequence.delta(2)
        bing = bingham_stat(sample)
        for route, val in (("harmonic", stat_harmonic(sample, w2)),
                           ("kernel", stat_kernel(sample, w2))):
            _check(failures, abs(bing - val) <= 1e-9 * abs(bing),
                   f"bingham/{route} p={p}: {bing!r} vs {val!r}")

    # statistics are invariant under a common rotation (1e-9)
    rng = np.random.default_rng(77)
    for p in (2, 3, 4):
        sample = sample_uniform(p, 200, seed=16)
        qmat, _ = np.linalg.qr(rng.standard_normal((p, p)))
        rotated = SphericalSample.from_points(sample.points @ qmat.T)
        w = WeightSequence.finite([1.0, 0.3, 0.0, 0.1])
        pairs = (("stat", stat_harmonic(sample, w),
                  stat_harmonic(rotated, w)),
                 ("rayleigh", rayleigh_stat(sample), rayleigh_stat(rotated)),
                 ("bingham", bingham_stat(sample), bingham_stat(rotated)))
        for label, before, after in pairs:
            _check(failures, abs(before - after) <= 1e-9 * abs(before),
                   f"rotation {label} p={p}: {before!r} vs {after!r}")

    # pairwise basis products reproduce the degree-k kernel (1e-9 per dim)
    rng = np.random.default_rng(5)
    for p in (2, 3, 4, 5):
        U = rng.standard_normal((100, p))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        V = rng.standard_normal((100, p))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        s = np.einsum("ij,ij->i", U, V)
        for k in range(1, 7):
            lhs = np.einsum("ij,ij->i", basis_matrix(p, k, U),
                            basis_matrix(p, k, V))
            rhs = addition_kernel(p, k, s)
            err = float(np.max(np.abs(lhs - rhs)))
            _check(failures, err <= 1e-9 * specfun.harmonic_dim(p, k),
                   f"addition formula p={p} k={k}: max err {err:.3g}")

    # weighted Gegenbauer orthogonality under the projection density (1e-9)
    for p in (2, 3, 4, 5):
        rule = specfun.gauss_jacobi_rule(p, 64)
        cp = specfun.surface_constant(p)
        lam = (p - 2) / 2.0
        for k in range(9):
            ck = specfun.gegenbauer_eval(lam, k, rule.nodes)
            for j in range(k, 9):
                got = cp * rule.integrate(
                    ck * specfun.gegenbauer_eval(lam, j, rule.nodes))
                if k != j:
                    _check(failures, abs(got) < 1e-9,
                           f"orthogonality p={p} ({k},{j}): {got!r}")
                else:
                    tkk = 1.0 if k == 0 else specfun.t_factor(p, k)
                    want = 1.0 / tkk**2
                    _check(failures, abs(got - want) <= 1e-9 * want,
                           f"norm p={p} k={k}: {got!r} vs {want!r}")

    # the two closed forms of the noncentrality agree (1e-10); the
    # routines raise if their internal cross-check ever fails
    for p in (2, 3, 4, 5):
        for k in range(1, 7):
            prod = 1.0
            for ell in range(k):
                prod *= p + 2 * ell
            tau = 1.3
            want = specfun.harmonic_dim(p, k) * tau ** (2 * k) / prod**2
            try:
                got = noncentrality_standard(p, k, tau, vmf())
                _check(failures, abs(got - want) <= 1e-10 * want,
                       f"noncentrality p={p} k={k}: {got!r} vs {want!r}")
                for k_star in (k + 2, k + 4):
                    noncentrality_delayed(p, k, k_star, 1.1, vmf())
            except ArithmeticError as exc:
                failures.append(f"dual forms p={p} k={k}: {exc}")

    # Neumann inversion of the moment system matches substitution (1e-12)
    for name, f in sorted(BUILTINS.items()):
        system = expansion_system(3, f, 7, m=1)
        inv = neumann_inverse(system)
        size = system.order + 1
        for col in range(size):
            e = np.zeros(size)
            e[col] = 1.0
            err = float(np.max(np.abs(system.solve(e) - inv[:, col])))
            _check(failures, err <= 1e-12,
                   f"neumann f={name} col={col}: max err {err:.3g}")
        resid = float(np.max(np.abs(inv @ system.A - np.eye(size))))
        _check(failures, resid <= 1e-12,
               f"neumann f={name}: inverse residual {resid:.3g}")

    # parity forces exact zeros (1e-14)
    for p in (2, 3, 5):
        for i in range(13):
            mono = specfun.monomial_to_gegenbauer(p, i)
            for k in range(i + 1):
                if (i - k) % 2 == 1:
                    _check(failures, abs(mono[k]) <= 1e-14,
                           f"monomial parity p={p} i={i} k={k}: {mono[k]!r}")
    system = expansion_system(3, vmf(), 7, m=1)
    for i in range(system.order + 1):
        for j in range(i):
            if (i - j) % 2 == 1:
                _check(failures, abs(system.A[i, j]) <= 1e-14,
                       f"system parity ({i},{j}): {system.A[i, j]!r}")
    odd = expansion_coeffs(3, 1, 4, watson())
    _check(failures, float(np.max(np.abs(odd))) <= 1e-14,
           f"odd moment of a symmetric density: {odd}")

    elapsed = time.monotonic() - start
    _check(failures, elapsed < 60.0, f"runtime {elapsed:.1f}s exceeded 60s")
    _report(6, "structural identities", failures)


def test_criterion_7_classification_table():
    # detection-rate classification across tests and alternatives
    failures = []
    delta1 = WeightSequence.delta(1, name="rayleigh")
    delta2 = WeightSequence.delta(2, name="bingham")
    delta3 = WeightSequence.delta(3, name="3-test")
    expected = (
        (delta1, "vmf", "n^(-1/2)"),
        (delta2, "vmf", "n^(-1/4)"),
        (delta2, "watson", "n^(-1/4)"),
        (delta1, "watson", "blind"),
        (delta1, "power_3", "n^(-1/6)"),
        (delta2, "power_3", "n^(-1/12)"),
        (delta3, "power_3", "n^(-1/6)"),
    )
    for weights, fname, want in expected:
        rep = classify_threshold(weights, BUILTINS[fname], 12)
        got = "blind" if rep.case == "blind" else rep.rate_string()
        _check(failures, got == want,
               f"({weights.name}, {fname}): got {got}, want {want}")
    # a sequence with two supported degrees detects at the rate of the
    # better of its single-degree oracles, for every built-in density
    combined = WeightSequence.finite([1.0, 0.5])
    for fname, f in sorted(BUILTINS.items()):
        parts = [classify_threshold(w, f, 12) for w in (delta1, delta2)]
        exps = [r.rate_exponent for r in parts if r.rate_exponent is not None]
        rep = classify_threshold(combined, f, 12)
        if exps:
            _check(failures,
                   rep.rate_exponent is not None
                   and rep.rate_exponent == pytest.approx(max(exps), abs=0),
                   f"combined vs oracles f={fname}: got {rep.rate_exponent}, "
                   f"want {max(exps)}")
        else:
            _check(failures, rep.case == "blind",
                   f"combined f={fname}: expected blind, got {rep.case}")
    _report(7, "classification table", failures)
