import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from sobotest import sobolev
from sobotest.asymptotics import limit_law
from sobotest.harmonics import basis_matrix
from sobotest.rotsym import RotSymConfig, SphericalSample, sample_rotsym, vmf
from sobotest.sobolev import (
    TestResult,
    WeightSequence,
    run_test,
    stat_harmonic,
    stat_harmonics,
    stat_kernel,
)
from sobotest.specfun import _gegen_poly_exact, gegenbauer_eval, harmonic_dim

from oracles.poisson_kernel_oracle import poisson_rule, poisson_stat
from oracles.sobolev_oracle import bingham_stat, rayleigh_stat
from oracles.uniform_sample_oracle import sample_uniform


class _Chi2Law:
    """Minimal stand-in law for run_test: a single chi-square component."""

    def __init__(self, p, weights, df, scale=1.0):
        self.terms = weights.null_terms(p)
        self._df = df
        self._scale = scale

    def quantile(self, alpha):
        return self._scale * stats.chi2.ppf(1.0 - alpha, self._df), 0.0

    def tail(self, x):
        return float(stats.chi2.sf(x / self._scale, self._df)), 0.0


def _kernel_direct(sample, weights):
    # independent O(n^2) evaluation straight from the degree-k kernels
    X = sample.points
    p = sample.p
    gram = np.clip(X @ X.T, -1.0, 1.0)
    lam = 0.0 if p == 2 else (p - 2) / 2.0
    total = 0.0
    for k in weights.active_degrees(p):
        factor = 2.0 if p == 2 else 1.0 + 2.0 * k / (p - 2)
        total += weights.weight(k) ** 2 * factor * gegenbauer_eval(lam, k, gram).sum()
    return total / sample.n


def _great_circle(n):
    theta = 2.0 * np.pi * np.arange(n) / n
    pts = np.column_stack([np.cos(theta), np.sin(theta), np.zeros(n)])
    return SphericalSample.from_points(pts)


def test_weight_sequence_accessors():
    w = WeightSequence.finite([0.0, 2.0, 0.0, 1.0], name="w")
    assert w.k_v == 2
    assert w.K_v == 4
    assert w.weight(2) == 2.0
    assert w.weight(7) == 0.0
    assert w.support_through(10) == [2, 4]
    d = WeightSequence.delta(3)
    assert d.k_v == d.K_v == 3
    assert d.name == "delta_3"
    assert d.weight(3) == 1.0 and d.weight(2) == 0.0
    # a rule has no last degree
    assert WeightSequence.from_rule(lambda k: 2.0 ** (-k)).K_v is None
    # a vector finds its first degree however deep; a rule looks through 600
    assert WeightSequence.delta(601).k_v == 601
    with pytest.raises(ValueError, match="no nonzero weight found"):
        WeightSequence.from_rule(lambda k: float(k == 601)).k_v


def test_weight_sequence_validation():
    with pytest.raises(ValueError):
        WeightSequence.finite([])
    with pytest.raises(ValueError):
        WeightSequence.finite([0.0, 0.0])
    with pytest.raises(ValueError):
        WeightSequence(values=[1.0], rule=lambda k: 1.0)
    with pytest.raises(ValueError):
        WeightSequence(values=None, rule=None)
    with pytest.raises(ValueError):
        WeightSequence.delta(0)
    with pytest.raises(ValueError):
        WeightSequence.delta(1).weight(0)
    # the weights enter squared: a NaN or infinite one, one whose square
    # overflows (1e200), is subnormal and keeps only a few digits (1e-160)
    # or underflows to 0 (1e-200) is named in the error, before any law or
    # statistic sees it
    for v in (math.nan, math.inf, -math.inf, 1e200, -1e200, 1e-160, 1e-200, 5e-324):
        with pytest.raises(ValueError, match=re.escape(repr(v))):
            WeightSequence.finite([1.0, v])
    w = WeightSequence.finite([1e-150, 0.0, -0.0, 1e150])
    assert w.support_through(4) == [1, 4]


def test_truncation_geometric_rule():
    w = WeightSequence.from_rule(lambda k: 2.0 ** (-k), name="geom")
    info = w.truncation(3)
    exact_total = sum(4.0 ** (-k) * harmonic_dim(3, k) for k in range(1, 200))
    assert info.tail_mass < 1e-6 * info.total_mass
    assert info.total_mass == pytest.approx(exact_total, rel=1e-6)
    exact_tail = exact_total - sum(
        4.0 ** (-k) * harmonic_dim(3, k) for k in range(1, info.k_trunc + 1))
    assert exact_tail <= info.tail_mass


def test_truncation_rejects_nonsummable_mass():
    w = WeightSequence.from_rule(lambda k: 1.0, name="flat")
    with pytest.raises(ValueError):
        w.truncation(3)


@pytest.mark.parametrize("rule, value", [(lambda k: 1e200 * 2.0 ** -k, 5e199),
                                         (lambda k: math.nan, math.nan)],
                         ids=["overflow", "nan"])
def test_rule_weights_get_the_finite_square_check(rule, value):
    # a rule's weights are checked as they are read, as a list's are
    w = WeightSequence.from_rule(rule)
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        w.truncation(3)


def test_truncation_finite_is_exact():
    w = WeightSequence.finite([1.0, 0.5])
    info = w.truncation(4)
    assert info.k_trunc == 2
    assert info.tail_mass == 0.0
    assert info.total_mass == pytest.approx(harmonic_dim(4, 1) + 0.25 * harmonic_dim(4, 2))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rayleigh_closed_form_matches_degree_one(p):
    sample = sample_uniform(p, 300, seed=11)
    w = WeightSequence.delta(1)
    assert rayleigh_stat(sample) == pytest.approx(stat_harmonic(sample, w), rel=1e-9)
    assert rayleigh_stat(sample) == pytest.approx(stat_kernel(sample, w), rel=1e-9)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_bingham_closed_form_matches_degree_two(p):
    sample = sample_uniform(p, 300, seed=12)
    w = WeightSequence.delta(2)
    assert bingham_stat(sample) == pytest.approx(stat_harmonic(sample, w), rel=1e-9)
    assert bingham_stat(sample) == pytest.approx(stat_kernel(sample, w), rel=1e-9)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_kernel_and_harmonic_routes_agree(p):
    sample = sample_uniform(p, 400, seed=13)
    w = WeightSequence.finite([1.0, 0.5, 0.25])
    a = stat_kernel(sample, w)
    b = stat_harmonic(sample, w)
    assert a == pytest.approx(b, rel=1e-8)
    assert a == pytest.approx(_kernel_direct(sample, w), rel=1e-10)


def test_routes_agree_for_infinite_sequence():
    sample = sample_uniform(3, 250, seed=14)
    w = WeightSequence.from_rule(lambda k: 2.0 ** (-k))
    assert stat_kernel(sample, w) == pytest.approx(stat_harmonic(sample, w), rel=1e-8)


@pytest.mark.parametrize("p", [2, 3, 20])
def test_statistics_of_a_list_keep_each_ones_bits(p):
    # the power sums and basis column sums a list requests are the union of
    # its sequences' degrees; each statistic must not see the others
    sample = sample_rotsym(RotSymConfig(p=p, kappa=0.4, f=vmf(), seed=21), 300)
    weight_list = [WeightSequence.delta(1), WeightSequence.delta(2),
                   WeightSequence.finite([1.0, 0.5, 0.25]), WeightSequence.delta(4),
                   WeightSequence.delta(2), WeightSequence.finite([0.0, 0.0, 1.0, 0.0, 0.3])]
    if p == 3:
        weight_list.append(WeightSequence.from_rule(lambda k: 2.0 ** (-k)))
        assert weight_list[-1].truncation(3).k_trunc > 5
    stats_ = stat_harmonics(sample, weight_list)
    assert len(stats_) == len(weight_list)
    for w, value in zip(weight_list, stats_):
        assert float.hex(value) == float.hex(stat_harmonic(sample, w))


@pytest.mark.parametrize("rho", [0.3, 0.6])
@pytest.mark.parametrize("p", [2, 3, 10, 20])
def test_truncated_poisson_rule_matches_its_closed_form(p, rho):
    # the rule v_k = rho^(k/2) truncated after k_trunc (12 to 84 here)
    # misses at most n tail_mass of the untruncated closed form, since
    # |h_{p,k}| <= d_{p,k}; observed: 0.13-0.29 % of that bound
    sample = sample_rotsym(RotSymConfig(p=p, kappa=0.5, f=vmf(), seed=3), 400)
    weights = poisson_rule(rho)
    want = poisson_stat(sample, rho)
    bound = sample.n * weights.truncation(p).tail_mass
    assert abs(stat_kernel(sample, weights) - want) <= bound
    if p <= 3:
        assert abs(stat_harmonic(sample, weights) - want) <= bound


def test_blocked_gram_matches_direct():
    # force several row blocks by using enough points
    sample = sample_uniform(3, 2500, seed=15)
    w = WeightSequence.finite([1.0, 0.0, 0.7])
    assert stat_kernel(sample, w) == pytest.approx(_kernel_direct(sample, w), rel=1e-10)


@pytest.mark.parametrize("p", [2, 3, 4])
def test_rotation_invariance(p):
    rng = np.random.default_rng(77)
    sample = sample_uniform(p, 200, seed=16)
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    rotated = SphericalSample.from_points(sample.points @ q.T)
    w = WeightSequence.finite([1.0, 0.3, 0.0, 0.1])
    assert stat_harmonic(rotated, w) == pytest.approx(stat_harmonic(sample, w), rel=1e-9)
    assert rayleigh_stat(rotated) == pytest.approx(rayleigh_stat(sample), rel=1e-9)
    assert bingham_stat(rotated) == pytest.approx(bingham_stat(sample), rel=1e-9)


def test_single_point_value():
    # with one observation the statistic collapses to sum_k v_k^2 d_{p,k}
    for p in (2, 3, 5):
        pts = np.zeros((1, p))
        pts[0, -1] = 1.0
        sample = SphericalSample.from_points(pts)
        w = WeightSequence.finite([1.0, 0.5])
        want = harmonic_dim(p, 1) + 0.25 * harmonic_dim(p, 2)
        assert stat_kernel(sample, w) == pytest.approx(want, rel=1e-12)
        assert stat_harmonic(sample, w) == pytest.approx(want, rel=1e-12)


def test_great_circle_degenerate_values():
    # evenly spaced points on a great circle of S^2: mean is 0, scatter is
    # diag(1/2, 1/2, 0), so the degree-2 statistic is n p(p+2)/2 * 1/6
    sample = _great_circle(100)
    assert rayleigh_stat(sample) == pytest.approx(0.0, abs=1e-20)
    assert bingham_stat(sample) == pytest.approx(125.0, rel=1e-12)


def test_run_test_decision_and_pvalue():
    sample = sample_uniform(3, 500, seed=21)
    w = WeightSequence.delta(1, name="rayleigh")
    law = _Chi2Law(3, w, df=3)
    res = run_test(sample, w, alpha=0.05, law=law)
    assert res.test == "rayleigh"
    assert res.n == 500 and res.p == 3
    assert res.statistic == pytest.approx(rayleigh_stat(sample), rel=1e-12)
    assert res.critical_value == pytest.approx(stats.chi2.ppf(0.95, 3), rel=1e-12)
    assert res.reject == (res.statistic > res.critical_value)
    assert res.p_value == pytest.approx(stats.chi2.sf(res.statistic, 3), rel=1e-12)
    # decision must match the p-value side of alpha
    assert res.reject == (res.p_value < 0.05)


def test_run_test_boundary_is_not_rejection():
    sample = sample_uniform(3, 50, seed=22)
    w = WeightSequence.delta(1, name="rayleigh")

    class _BoundaryLaw(_Chi2Law):
        def __init__(self, p, weights, value):
            super().__init__(p, weights, df=3)
            self._value = value

        def quantile(self, alpha):
            return self._value, 0.0

    stat = stat_harmonic(sample, w)
    res = run_test(sample, w, alpha=0.05, law=_BoundaryLaw(3, w, stat))
    assert res.reject is False


def test_run_test_validation():
    sample = sample_uniform(3, 40, seed=23)
    w = WeightSequence.delta(1)
    law = _Chi2Law(3, w, df=3)
    with pytest.raises(ValueError):
        run_test(sample, w, alpha=0.0, law=law)
    with pytest.raises(ValueError):
        run_test(sample, w, alpha=1.0, law=law)
    law4 = _Chi2Law(4, w, df=4)
    with pytest.raises(ValueError):
        run_test(sample, w, alpha=0.05, law=law4)
    other = _Chi2Law(3, WeightSequence.delta(2), df=5)
    with pytest.raises(ValueError):
        run_test(sample, w, alpha=0.05, law=other)


def test_run_test_decides_only_with_the_null_law():
    # an alternative law of the same degrees and weights, or the null law
    # at another p, would move the critical value
    sample = sample_uniform(3, 40, seed=23)
    w = WeightSequence.delta(1)
    assert run_test(sample, w, 0.05, limit_law(w, 3)).critical_value == pytest.approx(
        stats.chi2.ppf(0.95, 3), rel=1e-10)
    with pytest.raises(ValueError, match="not the null law"):
        run_test(sample, w, 0.05, limit_law(w, 3, vmf(), 2.0, 0.5))
    with pytest.raises(ValueError, match="not the null law"):
        run_test(sample, w, 0.05, limit_law(w, 4))


def test_result_record_round_trip():
    res = TestResult(test="bingham", p=3, n=200, statistic=11.25,
                     critical_value=11.0705, alpha=0.05, reject=True,
                     p_value=0.0467, p_value_se=0.0002)
    # the record that `sobotest test` prints carries every field, each at
    # a precision that gives back the same value
    kv = dict(line.split("=", 1) for line in res.to_record().splitlines())
    assert kv == {"test": "bingham", "p": "3", "n": "200", "statistic": "11.25",
                  "critical_value": "11.0705", "alpha": "0.05", "reject": "true",
                  "p_value": "0.0467", "p_value_se": "0.0002"}


# ----------------------------------------------- routes of stat_harmonic

# Stated relative bound between the power-sum route (degrees 1-4), the
# basis column sums and the kernel sum.  Measured over the cases of
# test_power_sum_route_matches_basis_and_kernel: at most 6.2e-14 (p = 2,
# n = 5000, uniform, k = 2); 8.5e-14 on the vMF kappa = 1 sample of
# test_degree_three_with_a_strong_mean_direction.
_ROUTE_REL_BOUND = 1e-11


def _basis_value(sample, k):
    col = basis_matrix(sample.p, k, sample.points).sum(axis=0)
    return float(col @ col) / sample.n


def test_power_sums_drop_only_a_null_mean_term():
    # sum_m a_{k,m} E_0[s^m] = E_0[h_{p,k}(s)] = 0 for k >= 1, exactly, so
    # the n^2 parts removed from the power sums cancel in every degree
    for p in (2, 3, 4, 10, 31):
        lam = Fraction(p - 2, 2)
        for k in range(1, 5):
            moments = [Fraction(math.prod(range(1, m, 2)),
                                math.prod(range(p, p + m, 2))) if m % 2 == 0 else 0
                       for m in range(k + 1)]
            coeffs = _gegen_poly_exact(lam, k)
            assert sum(c * mu for c, mu in zip(coeffs, moments)) == 0


# (6, 2000) and (7, 2000) put the degree-4 Gram of W (21 and 28 rows) on either
# side of sobolev._gram's gemm range, (22, 2000) and (23, 2000) the scatter X'X
@pytest.mark.parametrize("p,n", [(2, 5000), (3, 5000), (6, 2000), (7, 2000), (10, 2000),
                                 (20, 1000), (22, 2000), (23, 2000), (30, 500)])
def test_power_sum_route_matches_basis_and_kernel(p, n):
    """Degrees 1-4 from the centered power sums against stat_kernel and,
    where the n x d_{p,k} basis is small, its column sums: relative
    _ROUTE_REL_BOUND = 1e-11, on a uniform and a vMF sample, and degree 4
    at p <= 3 on a vMF kappa = 1 sample with its strong mean direction
    (degree 3 there: test_degree_three_with_a_strong_mean_direction)."""
    samples = [(sample_uniform(p, n, seed=31), range(1, 5)),
               (sample_rotsym(RotSymConfig(p=p, kappa=4.0, f=vmf(), seed=32), n), range(1, 5))]
    if p <= 3:
        samples.append((sample_rotsym(RotSymConfig(p=p, kappa=1.0, f=vmf(), seed=32), n), (4,)))
    for sample, degrees in samples:
        for k in degrees:
            w = WeightSequence.delta(k)
            got = stat_harmonic(sample, w)
            assert got == pytest.approx(stat_kernel(sample, w), rel=_ROUTE_REL_BOUND)
            if harmonic_dim(p, k) * n <= 2_000_000:
                assert got == pytest.approx(_basis_value(sample, k), rel=_ROUTE_REL_BOUND)


@pytest.mark.parametrize("p", [2, 3])
def test_degree_three_with_a_strong_mean_direction(p):
    # on vMF kappa = 1 a_{3,3} P_3 and a_{3,1} P_1 nearly cancel; the
    # traceless third-moment tensor takes the P_1 term out entry by entry,
    # so degree 3 stays within the route bound of stat_kernel (the sum of
    # the two terms missed it by 1.4e-11 at p = 2 and 1.1e-11 at p = 3)
    sample = sample_rotsym(RotSymConfig(p=p, kappa=1.0, f=vmf(), seed=32), 5000)
    w = WeightSequence.delta(3)
    assert stat_harmonic(sample, w) == pytest.approx(stat_kernel(sample, w), rel=_ROUTE_REL_BOUND)


@pytest.mark.parametrize("p,n", [(3, 500), (20, 40)])
def test_mixed_degrees_take_both_routes(p, n, monkeypatch):
    # degrees 1 and 3 from power sums, 5 and 6 from the basis, in one call
    # over row slices that cover the sample once, each of at most
    # 4 _FEATURE_BLOCK entries (at p = 20, n = 40 degree 6 takes two)
    calls = []

    def recording_basis(p_, k, X):
        calls.append((k, X.shape[0]))
        return basis_matrix(p_, k, X)

    monkeypatch.setattr(sobolev, "basis_matrix", recording_basis)
    sample = sample_uniform(p, n, seed=33)
    w = WeightSequence.finite([1, 0, 0.5, 0, 0.3, 0.2])
    got = stat_harmonic(sample, w)
    assert {k for k, _ in calls} == {5, 6}
    for k in (5, 6):
        rows = [r for kk, r in calls if kk == k]
        assert sum(rows) == n
        assert max(rows) * harmonic_dim(p, k) <= 4 * sobolev._FEATURE_BLOCK
    assert got == pytest.approx(stat_kernel(sample, w), rel=_ROUTE_REL_BOUND)


def test_high_degree_memory_does_not_grow_with_n():
    # d_{10,6} = 4290: the n x d basis of n = 4000 points alone would be
    # 131 MiB; summed over row slices the traced peak stays below 64 MiB
    sample = sample_uniform(10, 4000, seed=36)
    tracemalloc.start()
    try:
        stat_harmonic(sample, WeightSequence.delta(6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def _no_basis(*args):
    raise AssertionError("degrees 1-4 must not build a harmonic basis")


def test_low_degrees_build_no_basis(monkeypatch):
    monkeypatch.setattr(sobolev, "basis_matrix", _no_basis)
    for p in (2, 3, 7):
        sample = sample_uniform(p, 300, seed=34)
        for w in (WeightSequence.finite([1.0, 0.5, 0.25, 0.125]),
                  WeightSequence.delta(4)):
            assert stat_harmonic(sample, w) == pytest.approx(
                stat_kernel(sample, w), rel=_ROUTE_REL_BOUND)


def test_high_p_degree_three_without_basis(monkeypatch):
    # at p = 50, n = 5000 the degree-3 basis alone would take about 880 MB
    monkeypatch.setattr(sobolev, "basis_matrix", _no_basis)
    sample = sample_uniform(50, 5000, seed=35)
    w = WeightSequence.delta(3)
    assert stat_harmonic(sample, w) == pytest.approx(
        stat_kernel(sample, w), rel=_ROUTE_REL_BOUND)


@pytest.mark.parametrize("p", [2, 3, 4, 10, 20, 30, 50])
def test_degree_three_distinct_entries_match_kernel(p, monkeypatch):
    """Degree 3 forms each distinct third-moment entry once, in one product
    or in chunks of two coordinates; against stat_kernel within
    _ROUTE_REL_BOUND on uniform samples.  At p = 50 a row block holds 822
    points, so n = 2000 spans three blocks, the last one short."""
    monkeypatch.setattr(sobolev, "basis_matrix", _no_basis)
    w = WeightSequence.delta(3)
    for n in (1, 2, 7, 2000):
        sample = sample_uniform(p, n, seed=37)
        assert stat_harmonic(sample, w) == pytest.approx(
            stat_kernel(sample, w), rel=_ROUTE_REL_BOUND)
    assert 2000 // (sobolev._FEATURE_BLOCK // (50 * 51 // 2)) == 2


@pytest.mark.parametrize("p", [2, 3, 20])
def test_power_sums_ignore_the_memory_layout(p):
    # the sampler's coordinate rows, a C-ordered SphericalSample(points), a
    # Fortran-ordered copy and a column slice of a wider array give the
    # same floats, alone and in lists
    sample = sample_rotsym(RotSymConfig(p=p, kappa=0.7, f=vmf(), seed=38), 900)
    points = np.ascontiguousarray(sample.points)
    wide = np.zeros((900, p + 3))
    wide[:, 1:p + 1] = points
    weight_list = [WeightSequence.delta(k) for k in range(1, 5)] + [
        WeightSequence.finite([1.0, 0.5, 0.25]), WeightSequence.finite([0.0, 1.0, 0.0, 0.5]),
        WeightSequence.finite([1.0, 1.0, 1.0, 1.0])]
    want = [float.hex(v) for v in stat_harmonics(sample, weight_list)]
    for X in (points, np.asfortranarray(points), wide[:, 1:p + 1]):
        got = stat_harmonics(SphericalSample(X), weight_list)
        assert [float.hex(v) for v in got] == want
        assert [float.hex(stat_harmonic(SphericalSample(X), w)) for w in weight_list] == want


@pytest.mark.parametrize("p", [2, 3, 20])
def test_kernel_and_basis_read_either_layout(p):
    # stat_kernel within the route bound, basis_matrix within the golden
    # basis tolerance, on the sampler's coordinate rows and a C-ordered copy
    sample = sample_rotsym(RotSymConfig(p=p, kappa=0.7, f=vmf(), seed=39), 700)
    copy = SphericalSample(np.ascontiguousarray(sample.points))
    assert not copy.points.T.flags.c_contiguous
    for k in (1, 2, 5):
        w = WeightSequence.delta(k)
        assert stat_kernel(copy, w) == pytest.approx(stat_kernel(sample, w), rel=_ROUTE_REL_BOUND)
    want = basis_matrix(p, 3, sample.points)
    np.testing.assert_allclose(basis_matrix(p, 3, copy.points), want, rtol=0,
                               atol=1e-13 * math.sqrt(want.shape[1]))


def test_norm_tolerance_is_the_same_on_every_route():
    # SphericalSample accepts norms within 1e-8; the basis route must too
    points = sample_uniform(3, 200, seed=36).points.copy()
    points[0] *= 1.0 + 5e-9
    sample = SphericalSample.from_points(points)
    for k in (1, 5):   # power-sum route, basis route
        w = WeightSequence.delta(k)
        assert stat_harmonic(sample, w) == pytest.approx(stat_kernel(sample, w), rel=1e-6)
    points = points.copy()
    points[0] *= (1.0 + 2e-8) / (1.0 + 5e-9)
    with pytest.raises(ValueError):
        SphericalSample.from_points(points)
