"""Tests for rotationally symmetric sampling.

Frozen reference values come from tests/oracles/rotsym_oracle.py (mpmath
adaptive quadrature at 30 digits).  The inverse-CDF sampler is checked
against quadrature CDFs and moments computed here in log space with
scipy, against closed forms for vMF at p = 3 (Wood 1994) and p = 2
(Bessel ratios), and against the rejection sampler in
tests/oracles/rotsym_sampler_oracle.py.  Its cos and sin by angle
addition are checked against np.longdouble and libm references.
"""

import math

import numpy as np
import pytest
from scipy import integrate, special, stats

from oracles import rotsym_sampler_oracle
from oracles.normalizing_constant_oracle import normalizing_constant
from oracles.rotsym_moments_oracle import gegenbauer_expectation_oracle, t_moment_oracle
from oracles.uniform_sample_oracle import sample_uniform
from sobotest import rng, rotsym
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
    # exact integers past the largest double keep their sign, and a zero stays 0
    assert (f.derivative_at_zero(185), f.derivative_at_zero(186)) == (-math.inf, math.inf)
    f = rotsym.watson()
    assert (f.derivative_at_zero(400), f.derivative_at_zero(401)) == (math.inf, 0.0)


def test_custom_profile_validation():
    with pytest.raises(ValueError):
        rotsym.custom(lambda s: np.exp(s), [2.0, 1.0])
    f = rotsym.custom(lambda s: 1.0 + np.tanh(s), [1.0, 1.0, 0.0])
    assert f.derivative_at_zero(2) == 0.0
    with pytest.raises(ValueError):
        f.derivative_at_zero(3)


def test_normalizing_constants():
    for p, kappa, name, expected in NORM_CONSTANTS:
        got = normalizing_constant(p, kappa, _profile(name))
        assert got == pytest.approx(expected, rel=1e-10)
    # kappa = 0 reduces to the uniform constant
    assert normalizing_constant(3, 0.0, rotsym.vmf()) == pytest.approx(0.5)
    assert normalizing_constant(2, 0.0, rotsym.vmf()) == pytest.approx(1 / math.pi)


def test_t_moment_oracle_values():
    for p, kappa, name, expected in FIRST_MOMENTS:
        got = t_moment_oracle(p, kappa, _profile(name), 1)
        assert got == pytest.approx(expected, abs=1e-10)
    for p, kappa, name, m, expected in HIGHER_MOMENTS:
        got = t_moment_oracle(p, kappa, _profile(name), m)
        assert got == pytest.approx(expected, rel=1e-10)
    # kappa = 0: uniform moments
    assert t_moment_oracle(5, 0.0, rotsym.vmf(), 2) == pytest.approx(1 / 5)
    assert t_moment_oracle(5, 0.0, rotsym.vmf(), 3) == pytest.approx(0.0, abs=1e-14)


def test_quadrature_oracles_at_large_kappa():
    # f(kappa s) = exp(kappa s) overflows past kappa = 709; vMF at p = 3 has
    # E[t] = coth(kappa) - 1 / kappa, and C_1(t) = t there
    for kappa in (100.0, 800.0, 2000.0):
        ref = 1.0 / math.tanh(kappa) - 1.0 / kappa
        assert t_moment_oracle(3, kappa, rotsym.vmf(), 1) == pytest.approx(ref, rel=1e-12)
        assert gegenbauer_expectation_oracle(3, kappa, rotsym.vmf(), 1) == pytest.approx(
            ref, rel=1e-12)
    # the constant itself, kappa / (2 sinh kappa), is below the smallest double
    assert normalizing_constant(3, 800.0, rotsym.vmf()) == 0.0


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
    for kappa in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"kappa must be finite and >= 0, got {kappa}"):
            rotsym.RotSymConfig(p=3, kappa=kappa, f=rotsym.vmf())


def test_uniform_sampler_moments():
    s = sample_uniform(3, 200_000, seed=7)
    assert s.p == 3 and s.n == 200_000
    np.testing.assert_allclose(np.linalg.norm(s.points, axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(s.points.mean(axis=0), 0.0, atol=0.01)
    np.testing.assert_allclose((s.points**2).mean(axis=0), 1 / 3, atol=0.01)


def test_sample_size_and_dimension_are_the_array_shape():
    # a sample carries no n or p of its own that could disagree with its points
    points = sample_uniform(3, 10, seed=8).points
    sample = rotsym.SphericalSample(points)
    assert (sample.n, sample.p) == (10, 3)
    with pytest.raises(TypeError):
        rotsym.SphericalSample(4, 7, points)


@pytest.mark.parametrize("p", [2, 3, 20])
def test_samples_store_coordinate_rows(p, tmp_path):
    # points is the (n, p) view of a C-contiguous (p, n) array, from the
    # sampler, from_points (given either layout) and load_csv
    sample = rotsym.sample_rotsym(rotsym.RotSymConfig(p=p, kappa=1.0, f=rotsym.vmf(), seed=9), 40)
    assert sample.points.shape == (40, p) and sample.points.T.flags.c_contiguous
    for points in (np.ascontiguousarray(sample.points), sample.points):
        copy = rotsym.SphericalSample.from_points(points)
        assert copy.points.T.flags.c_contiguous
        np.testing.assert_array_equal(copy.points, sample.points)
    rotsym.save_csv(sample, tmp_path / "sample.csv")
    loaded = rotsym.load_csv(tmp_path / "sample.csv")
    assert loaded.points.T.flags.c_contiguous
    np.testing.assert_array_equal(loaded.points, sample.points)


def test_from_points_rejects_an_empty_sample():
    with pytest.raises(ValueError, match="n >= 1"):
        rotsym.SphericalSample.from_points(np.empty((0, 3)))


def test_sampler_determinism():
    cfg = rotsym.RotSymConfig(p=3, kappa=1.0, f=rotsym.vmf(), seed=99)
    a = rotsym.sample_rotsym(cfg, 500)
    b = rotsym.sample_rotsym(cfg, 500)
    np.testing.assert_array_equal(a.points, b.points)
    c = rotsym.sample_rotsym(cfg, 500, replicate=1)
    assert not np.array_equal(a.points, c.points)
    u1 = sample_uniform(4, 100, seed=5)
    u2 = sample_uniform(4, 100, seed=5)
    np.testing.assert_array_equal(u1.points, u2.points)


@pytest.mark.parametrize("p,kappa,name", [(3, 0.5, "vmf"), (3, 1.0, "watson"),
                                          (2, 0.8, "power3"), (3, 0.4, "cauchy")])
def test_sampler_moments_match_oracle(p, kappa, name):
    f = _profile(name)
    cfg = rotsym.RotSymConfig(p=p, kappa=kappa, f=f, seed=1234)
    n = 200_000
    s = rotsym.sample_rotsym(cfg, n)
    t = s.points[:, -1]
    for m in (1, 2, 3, 4):
        target = t_moment_oracle(p, kappa, f, m)
        se = float(np.std(t**m)) / math.sqrt(n)
        assert abs(float(np.mean(t**m)) - target) < 5.0 * se + 1e-12


def test_kappa_zero_matches_uniform_moments():
    cfg = rotsym.RotSymConfig(p=3, kappa=0.0, f=rotsym.vmf(), seed=11)
    s = rotsym.sample_rotsym(cfg, 200_000)
    t = s.points[:, -1]
    for m in (1, 2, 3, 4):
        target = t_moment_oracle(3, 0.0, rotsym.vmf(), m)
        se = float(np.std(t**m)) / math.sqrt(s.n) + 1e-12
        assert abs(float(np.mean(t**m)) - target) < 5.0 * se


def test_tangent_directions_are_rotation_symmetric():
    # tangent parts, the first two coordinates of draws about e_3,
    # renormalized, must be uniform on that circle
    cfg = rotsym.RotSymConfig(p=3, kappa=2.0, f=rotsym.vmf(), seed=21)
    n = 100_000
    s = rotsym.sample_rotsym(cfg, n)
    tang = s.points[:, :2] / np.linalg.norm(s.points[:, :2], axis=1, keepdims=True)
    resultant = 2.0 * n * float(tang.mean(axis=0) @ tang.mean(axis=0))
    assert resultant < 18.5  # chi^2_2 far-tail bound, seed-fixed


def test_p2_tangent_signs():
    cfg = rotsym.RotSymConfig(p=2, kappa=1.0, f=rotsym.vmf(), seed=3)
    s = rotsym.sample_rotsym(cfg, 50_000)
    t = s.points[:, -1]
    perp = s.points[:, 0]
    np.testing.assert_allclose(t**2 + perp**2, 1.0, atol=1e-12)
    frac_pos = float(np.mean(perp > 0))
    assert abs(frac_pos - 0.5) < 5.0 / math.sqrt(4 * s.n)


class _ZeroRowStream:
    """A stream whose first normal draw has row 0 all zero and row 1 zero
    but for its last entry; counts normals."""

    def __init__(self, gen):
        self.gen, self.normals = gen, 0

    def random(self, size):
        return self.gen.random(size)

    def standard_normal(self, size):
        z = self.gen.standard_normal(size)
        if self.normals == 0:
            z[0] = 0.0
            z[1, :-1] = 0.0
        self.normals += z.size
        return z


@pytest.mark.parametrize("p,kappa", [(4, 0.0), (5, 2.0)])
def test_tiny_gaussian_rows_are_redrawn(monkeypatch, p, kappa):
    # every kappa draws p - 1 tangent normals per point: row 0 is tiny and
    # redrawn, row 1 keeps its one nonzero entry
    cfg = rotsym.RotSymConfig(p=p, kappa=kappa, f=rotsym.vmf(), seed=4)
    n = 50
    plain = rotsym.sample_rotsym(cfg, n).points
    stream, streams = rng.stream, []

    def zero_row_stream(*key):
        streams.append(_ZeroRowStream(stream(*key)))
        return streams[-1]

    monkeypatch.setattr(rng, "stream", zero_row_stream)
    points = rotsym.sample_rotsym(cfg, n).points
    assert streams[0].normals == (n + 1) * (p - 1)
    np.testing.assert_allclose(np.linalg.norm(points[:2], axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(points[2:], plain[2:])
    np.testing.assert_array_equal(points[:, -1], plain[:, -1])  # t is drawn before xi


# log f(kappa cos phi) - log f(kappa) for the references below, written out
# independently of the package in d = 1 - cos phi = 2 sin^2(phi/2) and
# e = 1 + cos phi = 2 cos^2(phi/2): nothing of the size of log f(kappa)
# cancels, so exp of it keeps its digits at kappa = 800
LOG_PROFILES = {
    "vmf": lambda kappa, d, e: -kappa * d,
    "watson": lambda kappa, d, e: -kappa * kappa * d * e,
    "power3": lambda kappa, d, e: -kappa**3 * d * (3.0 - 3.0 * d + d * d),
    "cauchy": lambda kappa, d, e: -np.log1p(-2.0 * kappa * d / (1.0 + 2.0 * kappa)),
}


def _log_density(p, kappa, name):
    """phi |-> log of the density of phi = arccos(t), up to a constant,
    shifted so that its maximum on a fine grid is 0; phi may be an array."""
    logf = LOG_PROFILES[name]

    def raw(phi):
        phi = np.asarray(phi, dtype=float)
        d, e = 2.0 * np.sin(phi / 2.0) ** 2, 2.0 * np.cos(phi / 2.0) ** 2
        out = logf(kappa, d, e)
        if p > 2:
            with np.errstate(divide="ignore"):
                out = out + (p - 2) * np.log(np.sin(phi))
        return out

    near_pole = np.geomspace(1e-12, 0.1, 400)
    grid = np.concatenate([np.linspace(0.0, math.pi, 4001), near_pole, math.pi - near_pole])
    shift = float(np.max(raw(grid)))
    return lambda phi: raw(phi) - shift


# Gauss-Legendre rules on [0, 1] at two orders: on a smooth piece their
# difference estimates the error of the order-12 value, which far exceeds
# that of the order-24 value returned
_GL_LOW, _GL_HIGH = ((0.5 * (x + 1.0), 0.5 * w) for x, w in
                     (np.polynomial.legendre.leggauss(m) for m in (12, 24)))
_PIECE_TOL = 1e-14   # per piece, relative to the total mass


def _graded_cdf_phi(p, kappa, name, phis):
    """P[phi <= x] at the points phis, and a bound on its own error.

    [0, pi] is cut at phis, at 64 equal steps and at steps graded down to
    1e-15 at both poles; pieces are halved until Gauss-Legendre at orders
    12 and 24 agree within 1e-14 of the total mass, the density taken in
    log space.  The bound is twice the sum of those differences over the
    total mass (the error of a partial mass and of the total each add at
    most one such sum), plus one rounding per piece of the running sum:
    an error bound on the CDF at every point as far as the order
    differences bound the piece errors, which the p = 3 vMF closed form
    checks."""
    log_density = _log_density(p, kappa, name)
    grade = math.pi / 64 * 0.5 ** np.arange(1, 50)
    edges = np.unique(np.concatenate([np.linspace(0.0, math.pi, 65), grade, math.pi - grade,
                                      np.asarray(phis, dtype=float)]))
    done_left, done_mass, done_err = [], [], []
    left, width = edges[:-1], np.diff(edges)
    for _ in range(60):
        low, high = (np.exp(log_density(left[:, None] + width[:, None] * nodes)) @ wts * width
                     for nodes, wts in (_GL_LOW, _GL_HIGH))
        err = np.abs(high - low)
        total = sum(m.sum() for m in done_mass) + high.sum()
        split = err > _PIECE_TOL * total
        done_left.append(left[~split])
        done_mass.append(high[~split])
        done_err.append(err[~split])
        if not split.any():
            break
        half = width[split] / 2.0
        left = np.concatenate([left[split], left[split] + half])
        width = np.concatenate([half, half])
    assert not split.any(), "graded quadrature did not converge"
    left, mass, err = (np.concatenate(parts) for parts in (done_left, done_mass, done_err))
    order = np.argsort(left)
    cum = np.concatenate([[0.0], np.cumsum(mass[order])])
    at = np.searchsorted(left[order], np.asarray(phis, dtype=float))
    return cum[at] / cum[-1], 2.0 * err.sum() / cum[-1] + mass.size * np.finfo(float).eps


def _quad_cdf_phi(p, kappa, name, phis):
    """P[phi <= x] at the points phis, checked to carry an error below 1e-9."""
    cdf, bound = _graded_cdf_phi(p, kappa, name, phis)
    assert bound <= 1e-9, bound
    return cdf


@pytest.mark.parametrize("kappa", [0.01, 1.0, 100.0, 800.0])
def test_graded_reference_within_its_bound_of_vmf_closed_form(kappa):
    # p = 3 vMF: P[phi <= x] = expm1(-kappa (1 - cos x)) / expm1(-2 kappa)
    phis = np.sort(np.random.default_rng(3).uniform(0.0, math.pi, 300))
    cdf, bound = _graded_cdf_phi(3, kappa, "vmf", phis)
    exact = np.expm1(-2.0 * kappa * np.sin(phis / 2.0) ** 2) / np.expm1(-2.0 * kappa)
    assert bound <= 1e-12
    assert np.max(np.abs(cdf - exact)) <= bound


def _quad_moments(p, kappa, name, orders):
    """E[t^m] by adaptive quadrature in phi, in log space."""
    log_density = _log_density(p, kappa, name)
    mass = [integrate.quad(lambda x: math.cos(x) ** m * math.exp(log_density(x)),
                           0.0, math.pi, epsabs=0.0, epsrel=1e-12, limit=400,
                           points=[math.pi / 2])[0] for m in (0,) + tuple(orders)]
    return [v / mass[0] for v in mass[1:]]


def _check_moments(s, reference):
    t = s.points[:, -1]
    for m, target in enumerate(reference, start=1):
        se = float(np.std(t**m)) / math.sqrt(s.n)
        assert abs(float(np.mean(t**m)) - target) < 5.0 * se + 1e-12, m


_EPS = np.finfo(float).eps
KS_CASES = [(p, name, kappa)
            for p in (2, 3, 10, 20)
            for name in ("vmf", "watson", "power3", "cauchy")
            for kappa in ((0.0, 0.01, 0.45) if name == "cauchy"
                          else (0.0, 0.01, 1.0, 10.0, 100.0, 800.0))]
# a concentrated law at p = 3, a mild one at p = 20, and the cauchy positivity limit
KS_CASES += [(3, "vmf", 30.0), (20, "vmf", 0.9), (3, "cauchy", 0.4999999), (20, "cauchy", 0.4999)]


@pytest.mark.parametrize("p,name,kappa", KS_CASES)
def test_table_kolmogorov_distance(p, name, kappa):
    # the table's law against a quadrature CDF: for a monotone inverse CDF
    # Q, sup_x |P[Q(U) <= x] - F(x)| = sup_u |F(Q(u)) - u|; it is probed at
    # quarter points of cells (where the within-cell error peaks), on a
    # grid, and in both tails.  The same probes check cos_sin against libm
    # at phi = left[j] + d, in cells at most pi/128 wide, where its Taylor
    # polynomials hold (the equal cells' edges round to the spacing of pi)
    table = rotsym.RotSymConfig(p=p, kappa=kappa, f=_profile(name)).table
    assert table.width.max() <= math.pi / 128 + np.spacing(math.pi)
    cdf = table.cdf
    gen = np.random.default_rng(17)
    cells = gen.choice(cdf.size - 1, size=min(150, cdf.size - 1), replace=False)
    u = np.concatenate([
        (cdf[cells, None] + np.diff(cdf)[cells, None] * [0.25, 0.5, 0.75]).ravel(),
        np.linspace(0.0, 1.0, 101)[1:-1], [1e-9, 1e-6, 1.0 - 1e-6, 1.0 - 1e-9]])
    u = np.sort(u[(u > 0.0) & (u < 1.0)])
    j, d = table._locate(u)
    phi = table.left[j] + d
    cos, sin = table.cos_sin(u)
    assert np.max(np.abs(cos - np.cos(phi))) <= 2.0 * _EPS
    assert np.max(np.abs(sin - np.sin(phi))) <= 2.0 * _EPS
    assert np.all(np.diff(phi) >= -1e-12)
    assert np.max(np.abs(_quad_cdf_phi(p, kappa, name, phi) - u)) <= 1e-7


def test_rotate_against_longdouble():
    # angle addition with Taylor polynomials for sin d and cos d - 1,
    # over every base angle and cell offset the tables can hand it: cells
    # are at most pi/128 wide
    gen = np.random.default_rng(31)
    a = np.concatenate([gen.uniform(0.0, math.pi, 100_000), [0.0, math.pi / 2, math.pi]])
    d = np.concatenate([gen.uniform(-math.pi / 128, math.pi / 128, 100_000),
                        [math.pi / 128, -math.pi / 128, math.pi / 128]])
    cos_a, sin_a = np.cos(a), np.sin(a)
    cos, sin = rotsym._rotate(cos_a, sin_a, d)
    dl = d.astype(np.longdouble)
    cos_dl, sin_dl = np.cos(dl), np.sin(dl)
    assert np.max(np.abs(cos - (cos_a * cos_dl - sin_a * sin_dl))) <= _EPS
    assert np.max(np.abs(sin - (sin_a * cos_dl + cos_a * sin_dl))) <= _EPS


def test_circle_against_longdouble():
    # the step angles are taken in (-pi, pi]: over [0, 2 pi) they round
    # twice as far; every step edge and midpoint of the 4096-step circle
    gen = np.random.default_rng(32)
    steps = np.arange(4096) / 4096
    u = np.concatenate([gen.random(200_000), steps, steps + 0.5 / 4096, [1.0 - 2.0**-53]])
    cos, sin = rotsym._circle(u)
    w = 2.0 * np.arccos(np.longdouble(-1.0)) * u.astype(np.longdouble)
    assert np.max(np.abs(cos - np.cos(w))) <= 2.0 * _EPS
    assert np.max(np.abs(sin - np.sin(w))) <= 2.0 * _EPS


@pytest.mark.parametrize("p", [2, 3, 20])
def test_sampled_cos_sin_on_the_unit_circle(p):
    # t and s of a sample, drawn as sample_rotsym draws them
    cfg = rotsym.RotSymConfig(p=p, kappa=2.0, f=rotsym.vmf(), seed=34)
    n = 100_000
    t, s = cfg.table.cos_sin(rng.stream(34, 0).random(n))
    points = rotsym.sample_rotsym(cfg, n).points
    np.testing.assert_array_equal(points[:, -1], t)
    if p == 2:
        np.testing.assert_array_equal(np.abs(points[:, 0]), s)
    assert np.max(np.abs(t * t + s * s - 1.0)) <= 4.0 * _EPS


@pytest.mark.parametrize("kappa", [0.5, 4.0, 50.0])
def test_p2_vmf_chebyshev_moments_closed_form(kappa):
    # p = 2 vMF: E[T_k(t)] = E[cos k phi] = I_k(kappa) / I_0(kappa)
    cfg = rotsym.RotSymConfig(p=2, kappa=kappa, f=rotsym.vmf(), seed=35)
    t = rotsym.sample_rotsym(cfg, 200_000).points[:, -1]
    for k in (1, 2, 3, 4):
        tk = special.eval_chebyt(k, t)
        se = float(np.std(tk)) / math.sqrt(t.size)
        exact = special.ive(k, kappa) / special.ive(0, kappa)
        assert abs(float(np.mean(tk)) - exact) < 5.0 * se, k


@pytest.mark.parametrize("kappa", [0.05, 1.0, 10.0, 100.0])
def test_p3_vmf_mean_closed_form(kappa):
    # p = 3 vMF: E[t] = coth kappa - 1/kappa
    cfg = rotsym.RotSymConfig(p=3, kappa=kappa, f=rotsym.vmf(), seed=36)
    t = rotsym.sample_rotsym(cfg, 200_000).points[:, -1]
    se = float(np.std(t)) / math.sqrt(t.size)
    assert abs(float(np.mean(t)) - (1.0 / math.tanh(kappa) - 1.0 / kappa)) < 5.0 * se


def _ks_reference_cdf(p, kappa, name):
    """CDF of t on a grid fine enough for a 200k-draw KS test."""
    phis = np.linspace(0.0, math.pi, 4001)[1:-1]
    upper = _quad_cdf_phi(p, kappa, name, phis)      # P[phi <= x] = P[t >= cos x]
    t = np.cos(phis)[::-1]
    cdf = 1.0 - upper[::-1]
    return lambda x: np.interp(x, t, cdf, left=0.0, right=1.0)


@pytest.mark.parametrize("p,name,kappa,seed", [
    (3, "vmf", 10.0, 101), (2, "power3", 2.0, 102), (10, "watson", 5.0, 103),
    (20, "cauchy", 0.45, 104), (3, "vmf", 0.0, 105)])
def test_sampler_one_sample_ks(p, name, kappa, seed):
    cfg = rotsym.RotSymConfig(p=p, kappa=kappa, f=_profile(name), seed=seed)
    t = rotsym.sample_rotsym(cfg, 200_000).points[:, -1]
    if (p, kappa) == (3, 0.0):
        cdf = stats.uniform(-1.0, 2.0).cdf  # Archimedes: t is uniform on [-1, 1]
    elif (p, name) == (3, "vmf"):
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
    t = rotsym.sample_rotsym(cfg, 50_000).points[:, -1]
    oracle = rotsym_sampler_oracle.sample_t(np.random.default_rng(8), p, kappa, f, 50_000)
    assert stats.ks_2samp(t, oracle).pvalue > 1e-3


def test_vmf_kappa_800_p3(capsys):
    # the sampler used to overflow exp(800) in its positivity probe
    assert cli(["simulate", "--p", "3", "--n", "10", "--kappa", "800",
                "--f", "vmf"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 11
    kappa = 800.0
    cfg = rotsym.RotSymConfig(p=3, kappa=kappa, f=rotsym.vmf(), seed=5)
    t = rotsym.sample_rotsym(cfg, 100_000).points[:, -1]
    mean = 1.0 / math.tanh(kappa) - 1.0 / kappa
    assert abs(float(t.mean()) - mean) < 5.0 * float(t.std()) / math.sqrt(t.size)


def test_power40_kappa3_builds_and_samples():
    # log f(3 t) = (3 t)^40 reaches 1.2e19: the law sits at |t| = 1 to
    # double precision, half of it on each side (f is even)
    cfg = rotsym.RotSymConfig(p=3, kappa=3.0, f=rotsym.power(40), seed=2)
    s = rotsym.sample_rotsym(cfg, 20_000)
    t = s.points[:, -1]
    np.testing.assert_allclose(np.linalg.norm(s.points, axis=1), 1.0, atol=1e-12)
    assert np.all(np.abs(t) > 1.0 - 1e-12)
    assert abs(float(np.mean(t > 0.0)) - 0.5) < 5.0 * 0.5 / math.sqrt(t.size)


@pytest.mark.parametrize("p,kappa", [(10, 100.0), (20, 200.0), (15, 40.0)])
def test_concentrated_vmf_moments(p, kappa):
    # the rejection sampler's acceptance fell below 1e-6 on all three
    cfg = rotsym.RotSymConfig(p=p, kappa=kappa, f=rotsym.vmf(), seed=1)
    s = rotsym.sample_rotsym(cfg, 200_000)
    _check_moments(s, _quad_moments(p, kappa, "vmf", (1, 2, 3, 4)))


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
    s = sample_uniform(4, 37, seed=13)
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
