"""Tests for rotationally symmetric sampling.

Frozen reference values come from tests/oracles/rotsym_oracle.py (mpmath
adaptive quadrature at 30 digits).  The inverse-CDF sampler is checked
against quadrature CDFs and moments computed here in log space with
scipy, against closed forms for vMF at p = 3 (Wood 1994), and against
the rejection sampler in tests/oracles/rotsym_sampler_oracle.py.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from oracles import rotsym_sampler_oracle
from sobotest import rotsym
from sobotest.cli import cli

# frozen from tests/oracles/rotsym_oracle.py
NORM_CONSTANTS = [
    (3, 1.0, "vmf", 0.42545906411966077),
    (3, 1.0, "watson", 0.34184487277925793),
    (2, 0.8, "power3", 0.30559394424198086),
    (3, 0.4, "cauchy", 0.36409569065073494),
    (4, 2.5, "vmf", 0.31619564460203637),
]
FIRST_MOMENTS = [
    (3, 1.0, "vmf", 0.3130352854993313),
    (3, 1.0, "watson", 0.0),
    (3, 0.4, "cauchy", -0.33976077337316264),
    (2, 0.8, "power3", 0.1896706077742928),
]
HIGHER_MOMENTS = [
    (3, 0.5, "vmf", 2, 0.3441863450453886),
    (3, 1.0, "watson", 2, 0.42923070582775096),
    (3, 1.0, "watson", 4, 0.28538464708612452),
    (2, 0.8, "power3", 2, 0.51501417255168861),
    (3, 0.4, "cauchy", 2, 0.42470096671645328),
]


def _profile(name):
    return {
        "vmf": rotsym.vmf,
        "watson": rotsym.watson,
        "power3": lambda: rotsym.power(3),
        "cauchy": rotsym.cauchy,
    }[name]()


def test_derivatives_at_zero():
    f = rotsym.vmf()
    assert [f.derivative_at_zero(k) for k in range(5)] == [1.0] * 5
    f = rotsym.watson()
    assert [f.derivative_at_zero(k) for k in range(5)] == [1.0, 0.0, 2.0, 0.0, 12.0]
    f = rotsym.power(3)
    assert f.derivative_at_zero(3) == 6.0
    assert f.derivative_at_zero(4) == 0.0
    assert f.derivative_at_zero(6) == math.factorial(6) / math.factorial(2)
    f = rotsym.cauchy()
    assert [f.derivative_at_zero(k) for k in range(4)] == [1.0, -2.0, 8.0, -48.0]


def test_custom_profile_validation():
    with pytest.raises(ValueError):
        rotsym.custom(lambda s: np.exp(s), [2.0, 1.0])
    f = rotsym.custom(lambda s: 1.0 + np.tanh(s), [1.0, 1.0, 0.0])
    assert f.derivative_at_zero(2) == 0.0
    with pytest.raises(ValueError):
        f.derivative_at_zero(3)


def test_normalizing_constants():
    for p, kappa, name, expected in NORM_CONSTANTS:
        got = rotsym.normalizing_constant(p, kappa, _profile(name))
        assert got == pytest.approx(expected, rel=1e-10)
    # kappa = 0 reduces to the uniform constant
    assert rotsym.normalizing_constant(3, 0.0, rotsym.vmf()) == pytest.approx(0.5)
    assert rotsym.normalizing_constant(2, 0.0, rotsym.vmf()) == pytest.approx(1 / math.pi)


def test_t_moment_oracle_values():
    for p, kappa, name, expected in FIRST_MOMENTS:
        got = rotsym.t_moment_oracle(p, kappa, _profile(name), 1)
        assert got == pytest.approx(expected, abs=1e-10)
    for p, kappa, name, m, expected in HIGHER_MOMENTS:
        got = rotsym.t_moment_oracle(p, kappa, _profile(name), m)
        assert got == pytest.approx(expected, rel=1e-10)
    # kappa = 0: uniform moments
    assert rotsym.t_moment_oracle(5, 0.0, rotsym.vmf(), 2) == pytest.approx(1 / 5)
    assert rotsym.t_moment_oracle(5, 0.0, rotsym.vmf(), 3) == pytest.approx(0.0, abs=1e-14)


def test_cauchy_domain():
    with pytest.raises(ValueError):
        rotsym.RotSymConfig(p=3, kappa=0.5, f=rotsym.cauchy())
    with pytest.raises(ValueError):
        rotsym.RotSymConfig(p=3, kappa=0.8, f=rotsym.cauchy())
    rotsym.RotSymConfig(p=3, kappa=0.49, f=rotsym.cauchy())


def test_config_validation():
    with pytest.raises(ValueError):
        rotsym.RotSymConfig(p=1, kappa=0.0, f=rotsym.vmf())
    with pytest.raises(ValueError):
        rotsym.RotSymConfig(p=3, kappa=-0.1, f=rotsym.vmf())
    with pytest.raises(ValueError):
        rotsym.RotSymConfig(p=3, kappa=1.0, f=rotsym.vmf(), theta=[1.0, 1.0, 0.0])
    cfg = rotsym.RotSymConfig(p=4, kappa=1.0, f=rotsym.vmf())
    np.testing.assert_allclose(cfg.theta, [0, 0, 0, 1])


def test_uniform_sampler_moments():
    s = rotsym.sample_uniform(3, 200_000, seed=7)
    assert s.p == 3 and s.n == 200_000
    np.testing.assert_allclose(np.linalg.norm(s.points, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(s.points.mean(axis=0), 0.0, atol=0.01)
    np.testing.assert_allclose((s.points**2).mean(axis=0), 1 / 3, atol=0.01)


def test_sampler_determinism():
    cfg = rotsym.RotSymConfig(p=3, kappa=1.0, f=rotsym.vmf(), seed=99)
    a = rotsym.sample_rotsym(cfg, 500)
    b = rotsym.sample_rotsym(cfg, 500)
    np.testing.assert_array_equal(a.points, b.points)
    c = rotsym.sample_rotsym(cfg, 500, replicate=1)
    assert not np.array_equal(a.points, c.points)
    u1 = rotsym.sample_uniform(4, 100, seed=5)
    u2 = rotsym.sample_uniform(4, 100, seed=5)
    np.testing.assert_array_equal(u1.points, u2.points)


@pytest.mark.parametrize("p,kappa,name", [(3, 0.5, "vmf"), (3, 1.0, "watson"),
                                          (2, 0.8, "power3"), (3, 0.4, "cauchy")])
def test_sampler_moments_match_oracle(p, kappa, name):
    f = _profile(name)
    cfg = rotsym.RotSymConfig(p=p, kappa=kappa, f=f, seed=1234)
    n = 200_000
    s = rotsym.sample_rotsym(cfg, n)
    t = s.points @ cfg.theta
    for m in (1, 2, 3, 4):
        target = rotsym.t_moment_oracle(p, kappa, f, m)
        se = float(np.std(t**m)) / math.sqrt(n)
        assert abs(float(np.mean(t**m)) - target) < 5.0 * se + 1e-12


def test_kappa_zero_matches_uniform_moments():
    cfg = rotsym.RotSymConfig(p=3, kappa=0.0, f=rotsym.vmf(), seed=11)
    s = rotsym.sample_rotsym(cfg, 200_000)
    t = s.points @ cfg.theta
    for m in (1, 2, 3, 4):
        target = rotsym.t_moment_oracle(3, 0.0, rotsym.vmf(), m)
        se = float(np.std(t**m)) / math.sqrt(s.n) + 1e-12
        assert abs(float(np.mean(t**m)) - target) < 5.0 * se


def test_tangent_directions_are_rotation_symmetric():
    # tangent parts, projected into the plane orthogonal to theta and
    # renormalized, must be uniform on that circle
    cfg = rotsym.RotSymConfig(p=3, kappa=2.0, f=rotsym.vmf(), seed=21)
    n = 100_000
    s = rotsym.sample_rotsym(cfg, n)
    t = s.points @ cfg.theta
    tang = s.points - t[:, None] * cfg.theta[None, :]
    tang = tang[:, :2] / np.linalg.norm(tang[:, :2], axis=1, keepdims=True)
    resultant = 2.0 * n * float(tang.mean(axis=0) @ tang.mean(axis=0))
    assert resultant < 18.5  # chi^2_2 far-tail bound, seed-fixed


def test_p2_tangent_signs():
    cfg = rotsym.RotSymConfig(p=2, kappa=1.0, f=rotsym.vmf(), seed=3)
    s = rotsym.sample_rotsym(cfg, 50_000)
    t = s.points @ cfg.theta
    perp = s.points @ np.array([-cfg.theta[1], cfg.theta[0]])
    np.testing.assert_allclose(t**2 + perp**2, 1.0, atol=1e-12)
    frac_pos = float(np.mean(perp > 0))
    assert abs(frac_pos - 0.5) < 5.0 / math.sqrt(4 * s.n)


# log f for the references below, written out independently of the package
LOG_PROFILES = {
    "vmf": lambda s: s,
    "watson": lambda s: s * s,
    "power3": lambda s: s**3,
    "cauchy": lambda s: -math.log1p(2.0 * s),
}


def _log_density(p, kappa, name):
    """phi |-> log of the density of phi = arccos(t), up to a constant,
    shifted so that its maximum on a fine grid is 0."""
    logf = LOG_PROFILES[name]

    def raw(phi):
        s = math.sin(phi)
        if p > 2 and s <= 0.0:
            return -math.inf
        return logf(kappa * math.cos(phi)) + ((p - 2) * math.log(s) if p > 2 else 0.0)

    near_pole = np.geomspace(1e-12, 0.1, 400)
    grid = np.concatenate([np.linspace(0.0, math.pi, 4001), near_pole, math.pi - near_pole])
    shift = max(raw(x) for x in grid)
    return lambda phi: raw(phi) - shift


def _quad_cdf_phi(p, kappa, name, phis):
    """P[phi <= x] at the sorted points phis, by adaptive quadrature between
    consecutive points."""
    log_density = _log_density(p, kappa, name)

    def dens(x):
        return math.exp(log_density(x))

    edges = np.concatenate([[0.0], phis, [math.pi]])
    pieces = [integrate.quad(dens, lo, hi, epsabs=1e-15, epsrel=1e-12, limit=1000)[0]
              if hi > lo else 0.0 for lo, hi in zip(edges[:-1], edges[1:])]
    cum = np.cumsum(pieces)
    return cum[:-1] / cum[-1]


def _quad_moments(p, kappa, name, orders):
    """E[t^m] by adaptive quadrature in phi, in log space."""
    log_density = _log_density(p, kappa, name)
    mass = [integrate.quad(lambda x: math.cos(x) ** m * math.exp(log_density(x)),
                           0.0, math.pi, epsabs=0.0, epsrel=1e-12, limit=400,
                           points=[math.pi / 2])[0] for m in (0,) + tuple(orders)]
    return [v / mass[0] for v in mass[1:]]


def _check_moments(s, theta, reference):
    t = s.points @ theta
    for m, target in enumerate(reference, start=1):
        se = float(np.std(t**m)) / math.sqrt(s.n)
        assert abs(float(np.mean(t**m)) - target) < 5.0 * se + 1e-12, m


KS_CASES = [(p, name, kappa)
            for p in (2, 3, 10, 20)
            for name in ("vmf", "watson", "power3", "cauchy")
            for kappa in ((0.01, 0.45) if name == "cauchy" else (0.01, 1.0, 10.0, 100.0, 800.0))]


@pytest.mark.parametrize("p,name,kappa", KS_CASES)
def test_table_kolmogorov_distance(p, name, kappa):
    # the table's law against a quadrature CDF: for a monotone inverse CDF
    # Q, sup_x |P[Q(U) <= x] - F(x)| = sup_u |F(Q(u)) - u|; it is probed at
    # quarter points of cells (where the within-cell error peaks), on a
    # grid, and in both tails
    table = rotsym.RotSymConfig(p=p, kappa=kappa, f=_profile(name)).table
    cdf = table.cdf
    gen = np.random.default_rng(17)
    cells = gen.choice(cdf.size - 1, size=min(150, cdf.size - 1), replace=False)
    u = np.concatenate([
        (cdf[cells, None] + np.diff(cdf)[cells, None] * [0.25, 0.5, 0.75]).ravel(),
        np.linspace(0.0, 1.0, 101)[1:-1], [1e-9, 1e-6, 1.0 - 1e-6, 1.0 - 1e-9]])
    u = np.sort(u[(u > 0.0) & (u < 1.0)])
    phi = table.angles(u)
    assert np.all(np.diff(phi) >= -1e-12)
    assert np.max(np.abs(_quad_cdf_phi(p, kappa, name, phi) - u)) <= 1e-7


def _ks_reference_cdf(p, kappa, name):
    """CDF of t on a grid fine enough for a 200k-draw KS test."""
    phis = np.linspace(0.0, math.pi, 4001)[1:-1]
    upper = _quad_cdf_phi(p, kappa, name, phis)      # P[phi <= x] = P[t >= cos x]
    t = np.cos(phis)[::-1]
    cdf = 1.0 - upper[::-1]
    return lambda x: np.interp(x, t, cdf, left=0.0, right=1.0)


@pytest.mark.parametrize("p,name,kappa,seed", [
    (3, "vmf", 10.0, 101), (2, "power3", 2.0, 102), (10, "watson", 5.0, 103),
    (20, "cauchy", 0.45, 104)])
def test_sampler_one_sample_ks(p, name, kappa, seed):
    cfg = rotsym.RotSymConfig(p=p, kappa=kappa, f=_profile(name), seed=seed)
    t = rotsym.sample_rotsym(cfg, 200_000).points @ cfg.theta
    if (p, name) == (3, "vmf"):
        # closed form: the density of t is proportional to exp(kappa t)
        cdf = lambda x: np.expm1(kappa * (x + 1.0)) / np.expm1(2.0 * kappa)  # noqa: E731
    else:
        cdf = _ks_reference_cdf(p, kappa, name)
    assert stats.kstest(t, cdf).pvalue > 1e-3


@pytest.mark.parametrize("p,name,kappa", [(3, "watson", 2.0), (3, "power3", 1.5),
                                          (10, "vmf", 3.0), (10, "cauchy", 0.4)])
def test_sampler_matches_rejection_oracle(p, name, kappa):
    f = _profile(name)
    cfg = rotsym.RotSymConfig(p=p, kappa=kappa, f=f, seed=7)
    t = rotsym.sample_rotsym(cfg, 50_000).points @ cfg.theta
    oracle = rotsym_sampler_oracle.sample_t(np.random.default_rng(8), p, kappa, f, 50_000)
    assert stats.ks_2samp(t, oracle).pvalue > 1e-3


def test_vmf_kappa_800_p3(capsys):
    # the sampler used to overflow exp(800) in its positivity probe
    assert cli(["simulate", "--p", "3", "--n", "10", "--kappa", "800",
                "--f", "vmf"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 11
    kappa = 800.0
    cfg = rotsym.RotSymConfig(p=3, kappa=kappa, f=rotsym.vmf(), seed=5)
    t = rotsym.sample_rotsym(cfg, 100_000).points @ cfg.theta
    mean = 1.0 / math.tanh(kappa) - 1.0 / kappa
    assert abs(float(t.mean()) - mean) < 5.0 * float(t.std()) / math.sqrt(t.size)


def test_power40_kappa3_builds_and_samples():
    # log f(3 t) = (3 t)^40 reaches 1.2e19: the law sits at |t| = 1 to
    # double precision, half of it on each side (f is even)
    cfg = rotsym.RotSymConfig(p=3, kappa=3.0, f=rotsym.power(40), seed=2)
    s = rotsym.sample_rotsym(cfg, 20_000)
    t = s.points @ cfg.theta
    np.testing.assert_allclose(np.linalg.norm(s.points, axis=1), 1.0, atol=1e-12)
    assert np.all(np.abs(t) > 1.0 - 1e-12)
    assert abs(float(np.mean(t > 0.0)) - 0.5) < 5.0 * 0.5 / math.sqrt(t.size)


@pytest.mark.parametrize("p,kappa", [(10, 100.0), (20, 200.0), (15, 40.0)])
def test_concentrated_vmf_moments(p, kappa):
    # the rejection sampler's acceptance fell below 1e-6 on all three
    cfg = rotsym.RotSymConfig(p=p, kappa=kappa, f=rotsym.vmf(), seed=1)
    s = rotsym.sample_rotsym(cfg, 200_000)
    _check_moments(s, cfg.theta, _quad_moments(p, kappa, "vmf", (1, 2, 3, 4)))


def test_table_that_does_not_converge_raises():
    # a profile oscillating faster than 65536 cells can resolve is a
    # numerical failure (ArithmeticError, CLI exit 3), not a silent table
    f = rotsym.custom(lambda s: 1.0 + 0.5 * np.sin(1e7 * s), [1.0, 5e6])
    with pytest.raises(ArithmeticError):
        rotsym.RotSymConfig(p=3, kappa=1.0, f=f)


def test_log_profiles():
    s = np.linspace(-0.4, 0.4, 9)
    for f in (rotsym.vmf(), rotsym.watson(), rotsym.power(3), rotsym.cauchy()):
        np.testing.assert_allclose(f.log(s), np.log(f(s)), rtol=1e-13, atol=1e-15)
    # custom profiles default to the log of fn; the positivity probe runs
    # in log space and rejects a profile that reaches 0 on [-kappa, kappa]
    f = rotsym.custom(lambda x: 1.0 + x, [1.0, 1.0])
    np.testing.assert_allclose(f.log(s), np.log1p(s), rtol=1e-13)
    rotsym.RotSymConfig(p=3, kappa=0.99, f=f)
    with pytest.raises(ValueError):
        rotsym.RotSymConfig(p=3, kappa=1.0, f=f)


def test_csv_round_trip(tmp_path):
    s = rotsym.sample_uniform(4, 37, seed=13)
    path = tmp_path / "sample.csv"
    rotsym.save_csv(s, path)
    header = path.read_text().splitlines()[0]
    assert header == "x1,x2,x3,x4"
    loaded = rotsym.load_csv(path)
    assert loaded.p == 4 and loaded.n == 37
    np.testing.assert_array_equal(loaded.points, s.points)


def test_csv_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,0,0\n")
    with pytest.raises(ValueError):
        rotsym.load_csv(path)
    path.write_text("x1,x2,x3\n0.5,0.5,0.5\n")
    with pytest.raises(ValueError):
        rotsym.load_csv(path)
    path.write_text("x1,x2,x3\n")
    with pytest.raises(ValueError):
        rotsym.load_csv(path)
    path.write_text("x1,x2,x3\n1,0,zero\n")
    with pytest.raises(ValueError):
        rotsym.load_csv(path)
