"""The three benchmark workloads: their inputs, their rounds, and the checks
of their outputs.

A workload is built from the seed alone.  Each round runs the same list of
operations, a main part followed by single-sample tests made from scratch
the way `sobotest test` makes them:

* grid_p3 — `run_power_experiment` at p = 3, n = 5000: vMF cells on the
  Rayleigh, Bingham and 3-test thresholds (ell = 2, 4, 6), and Watson and
  exp(s^3) cells at ell = 12 and large tau, where the rejection sampler
  accepts 16 and 9 proposals in 100.  The sampler dominates; the null
  law is only queried.
* grid_high_p — `run_power_experiment` with vMF at p = 20 and p = 30,
  n = 2000, few replicates.  The harmonic statistic and its n x d basis
  matrix dominate; a sampler change should not move it.
* asymptotic_laws — `power_curve` over a fixed tau grid for single- and
  multi-term weights against vMF, Watson and exp(s^3) at p = 3 and
  p = 10.  Building Monte Carlo null and alternative laws dominates.

Every program call goes through a module attribute looked up at call time
(`harness.run_power_experiment`, `asymptotics.power_curve`, ...), so the
traced run sees the calls the benchmark makes as well as those the
program makes internally.
"""

import math
from dataclasses import dataclass

import numpy as np

import refs

ALPHA = 0.05

# the seed chooses the inputs; the program's own Monte Carlo law seed
# stays at its default 0, as in the CLI and the harness
_GRID_P3 = dict(p=3, n=5000, replicates=60, cells=(
    # (f id, tests, rate exponent ell, tau grid)
    ("vmf", ("rayleigh",), 2, (0.0, 3.0)),
    ("vmf", ("bingham",), 4, (0.0, 4.0)),
    ("vmf", ("3-test",), 6, (0.0, 5.0)),
    ("watson", ("rayleigh", "bingham"), 12, (4.0,)),
    ("power", ("bingham",), 12, (3.0,)),
))
_GRID_HIGH_P = dict(n=2000, cells=(
    # (p, test, ell, tau grid, replicates)
    (20, "rayleigh", 2, (6.0,), 4),
    (20, "bingham", 4, (6.0,), 4),
    (20, "3-test", 6, (6.0,), 2),
    (30, "rayleigh", 2, (6.0,), 4),
    (30, "bingham", 4, (6.0,), 2),
    (30, "3-test", 6, (6.0,), 1),
))
_CURVE_TAUS = (0.0, 1.5, 3.0)
_CURVES = (
    # (p, test, f id); "multi" is the seed's three-term weight list
    (3, "rayleigh", "vmf"), (3, "bingham", "watson"), (3, "3-test", "power"),
    (3, "rayleigh", "watson"),
    (3, "multi", "vmf"), (3, "multi", "watson"), (3, "multi", "power"),
    (10, "rayleigh", "vmf"), (10, "3-test", "power"), (10, "multi", "watson"),
)
_NAMED = {"rayleigh": (1.0,), "bingham": (0.0, 1.0), "3-test": (0.0, 0.0, 1.0)}


def _weights(text):
    return tuple(float(v) for v in text.split(",")) if text not in _NAMED else _NAMED[text]


@dataclass
class Op:
    """One timed call; `run` returns what the checks look at."""

    kind: str            # "main" or "single"
    label: str
    run: object
    items: int = 0       # replicates or asymptotic power values it computes
    meta: object = None  # what the checks need to know about the call


@dataclass
class Workload:
    name: str
    ops: list
    null_laws: list      # (weights text, p) built at set-up
    checks: object       # checks(st, workload, first outputs, laws, seed, fail)


def _sphere_sample(rng, p, n):
    """Projected normal sample with a small seeded mean shift."""
    shift = np.zeros(p)
    shift[-1] = rng.uniform(0.02, 0.12)
    z = rng.standard_normal((n, p)) + shift
    return z / np.linalg.norm(z, axis=1)[:, None]


def _single_ops(st, rng, specs):
    ops = []
    for p, n, text in specs:
        points = _sphere_sample(rng, p, n)
        sample = st.SphericalSample.from_points(points)

        def run(sample=sample, text=text, p=p):
            weights = st.harness.parse_weights(text)
            law = st.asymptotics.limit_law(weights, p)
            return st.sobolev.run_test(sample, weights, ALPHA, law)

        ops.append(Op("single", f"test p={p} n={n} {text}", run, meta=(points, text)))
    return ops


def _grid_ops(st, configs):
    ops = []
    for cfg in configs:
        cells = len(cfg.tests) * len(cfg.n_list) * len(cfg.rate_exponents) * len(cfg.tau_grid)
        ops.append(Op("main", f"experiment p={cfg.p} f={cfg.f_id} {'+'.join(cfg.tests)} "
                              f"ell={cfg.rate_exponents[0]}",
                      lambda cfg=cfg: st.harness.run_power_experiment(cfg),
                      items=cells * cfg.replicates, meta=cfg))
    return ops


def build(st, name, seed):
    rng = np.random.default_rng(seed)
    if name == "grid_p3":
        spec = _GRID_P3
        configs = [st.ExperimentConfig(
            p=spec["p"], f_id=f_id, tests=tests, n_list=(spec["n"],),
            rate_exponents=(ell,), tau_grid=taus, replicates=spec["replicates"],
            alpha=ALPHA, base_seed=seed, parallelism=1)
            for f_id, tests, ell, taus in spec["cells"]]
        singles = [(3, 5000, t) for t in ("rayleigh", "bingham", "3-test")]
        null_laws = [(t, 3) for t in ("rayleigh", "bingham", "3-test")]
    elif name == "grid_high_p":
        spec = _GRID_HIGH_P
        configs = [st.ExperimentConfig(
            p=p, f_id="vmf", tests=(test,), n_list=(spec["n"],),
            rate_exponents=(ell,), tau_grid=taus, replicates=reps,
            alpha=ALPHA, base_seed=seed, parallelism=1)
            for p, test, ell, taus, reps in spec["cells"]]
        singles = [(20, 2000, t) for t in ("rayleigh", "bingham", "3-test")]
        null_laws = [(t, p) for p in (20, 30) for t in ("rayleigh", "bingham", "3-test")]
    elif name == "asymptotic_laws":
        multi = "1," + ",".join(f"{v:.3f}" for v in rng.uniform(0.3, 0.8, size=2))
        curves = [(p, multi if t == "multi" else t, f_id) for p, t, f_id in _CURVES]
        ops = []
        for p, text, f_id in curves:
            def run(p=p, text=text, f_id=f_id):
                weights = st.harness.parse_weights(text)
                f = st.harness.angular_function(f_id)
                return st.asymptotics.power_curve(weights, p, f, _CURVE_TAUS, ALPHA)
            trivial = refs.threshold(_weights(text), f_id, 12) is None
            ops.append(Op("main", f"power_curve p={p} {text} f={f_id}", run,
                          items=0 if trivial else len(_CURVE_TAUS), meta=(p, text, f_id)))
        singles = [(p, 2000, t) for p in (3, 10) for t in ("rayleigh", "bingham", "3-test", multi)]
        ops += _single_ops(st, rng, singles)
        null_laws = sorted({(t, p) for p, t, _ in curves} | {(t, p) for p, _, t in singles})
        return Workload(name, ops, null_laws, _check_curves)
    else:
        raise ValueError(f"unknown workload {name!r}")
    ops = _grid_ops(st, configs) + _single_ops(st, rng, singles)
    return Workload(name, ops, null_laws, _check_grid)


def build_null_laws(st, null_laws):
    """Set-up: each workload's null laws with their critical values."""
    out = {}
    for text, p in null_laws:
        law = st.asymptotics.limit_law(st.harness.parse_weights(text), p)
        out[text, p] = (law, law.quantile(ALPHA)[0])
    return out


# ---------------------------------------------------------------- checks

def _close(a, b, rel, abs_=0.0):
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


def _mc_se(prob, draws=1_000_000):
    return math.sqrt(max(prob * (1.0 - prob), 1.0 / draws) / draws)


def _binomial_ok(rejects, total, z):
    return abs(rejects / total - ALPHA) <= z * math.sqrt(ALPHA * (1.0 - ALPHA) / total)


def _check_single(op, result, laws, fail):
    points, text = op.meta
    weights = _weights(text)
    p = points.shape[1]
    if text == "rayleigh":
        ref = refs.rayleigh_stat(points)
    elif text == "bingham":
        ref = refs.bingham_stat(points)
    else:
        ref = refs.kernel_stat(points, weights)
    if not _close(result.statistic, ref, 1e-9, 1e-9):
        fail(f"{op.label}: statistic {result.statistic!r} vs reference {ref!r}")
    if result.reject != (result.statistic > result.critical_value):
        fail(f"{op.label}: decision does not follow statistic > critical value")
    terms = refs.mixture_terms(weights, p)
    if len(terms) == 1:
        _, df, _ = terms[0]
        crit = refs.chi2_crit(df, ALPHA)
        if not _close(result.critical_value, crit, 1e-9):
            fail(f"{op.label}: critical value {result.critical_value!r} vs chi2 {crit!r}")
        pval = refs.chi2_sf(result.statistic, df)
        if not _close(result.p_value, pval, 1e-8, 1e-12):
            fail(f"{op.label}: p-value {result.p_value!r} vs chi2 {pval!r}")
    else:
        level = refs.imhof_sf(result.critical_value, terms)
        if abs(level - ALPHA) > 5.0 * _mc_se(ALPHA) + 1e-7:
            fail(f"{op.label}: Imhof level at the critical value is {level!r}")
        pval = refs.imhof_sf(result.statistic, terms)
        if abs(result.p_value - pval) > 5.0 * _mc_se(pval) + 1e-7:
            fail(f"{op.label}: p-value {result.p_value!r} vs Imhof {pval!r}")
    if laws[text, p][1] != result.critical_value:
        fail(f"{op.label}: critical value differs from the set-up law's")


def _kappas(cfg):
    """(tau index, kappa) of each cell of a one-n, one-ell experiment."""
    return [(i, tau * cfg.n_list[0] ** (-1.0 / cfg.rate_exponents[0]))
            for i, tau in enumerate(cfg.tau_grid)]


def _check_grid(st, wl, outputs, laws, seed, fail):
    """Experiment tables against closed forms; samplers against quadrature.
    An operation that failed in every round has no output to check."""
    tau0 = [0, 0]
    for op, out in zip(wl.ops, outputs):
        if out is None:
            continue
        if op.kind == "single":
            _check_single(op, out, laws, fail)
            continue
        cfg = op.meta
        rows = out.rows
        if len(rows) != op.items // cfg.replicates:
            fail(f"{op.label}: {len(rows)} rows")
        for row in rows:
            weights = _weights(row.test)
            thr = refs.threshold(weights, cfg.f_id, row.ell // 2)
            on = thr is not None and 2 * thr[0] == row.ell
            if row.trivial == on or (row.asym_power is None) == on:
                fail(f"{op.label}: tau={row.tau} trivial flag {row.trivial} disagrees "
                     f"with the threshold rule")
                continue
            if on:
                (_, df, nc), = refs.mixture_terms(weights, cfg.p, cfg.f_id, row.tau,
                                                  row.ell // 2)
                ref = refs.ncx2_sf(refs.chi2_crit(df, ALPHA), df, nc)
                if not _close(row.asym_power, ref, 1e-7, 1e-9):
                    fail(f"{op.label}: tau={row.tau} asymptotic power "
                         f"{row.asym_power!r} vs ncx2 {ref!r}")
            rejects = round(row.reject_freq * cfg.replicates)
            if row.tau == 0.0:
                tau0[0] += rejects
                tau0[1] += cfg.replicates
            elif thr is None and cfg.replicates >= 20 and not _binomial_ok(
                    rejects, cfg.replicates, 6.0):
                fail(f"{op.label}: blind cell tau={row.tau} rejects "
                     f"{row.reject_freq} against alpha {ALPHA}")
        _check_sampler(st, cfg, seed, fail)
    if tau0[1] >= 20 and not _binomial_ok(tau0[0], tau0[1], 5.0):
        fail(f"tau = 0 cells reject {tau0[0]}/{tau0[1]} against alpha {ALPHA}")


def _check_sampler(st, cfg, seed, fail):
    """Mean of t = u'theta from sample_rotsym against quadrature E[t]."""
    n = 20000
    for taui, kappa in _kappas(cfg):
        if kappa == 0.0:
            continue
        f = st.harness.angular_function(cfg.f_id)
        sampler = st.RotSymConfig(p=cfg.p, kappa=kappa, f=f, seed=seed * 1000 + taui)
        t = st.rotsym.sample_rotsym(sampler, n).points[:, -1]
        mean, var = refs.t_moments(cfg.p, kappa, cfg.f_id)
        if abs(t.mean() - mean) > 5.0 * math.sqrt(var / n):
            fail(f"sampler {cfg.f_id} p={cfg.p} kappa={kappa:.4g}: mean t "
                 f"{t.mean():.6f} vs quadrature {mean:.6f}")


def _check_curves(st, wl, outputs, laws, seed, fail):
    """Power curves against ncx2 and Imhof; curve properties."""
    for op, out in zip(wl.ops, outputs):
        if out is None:
            continue
        if op.kind == "single":
            _check_single(op, out, laws, fail)
            continue
        p, text, f_id = op.meta
        weights = _weights(text)
        powers = [row.power for row in out]
        if refs.threshold(weights, f_id, 12) is None:
            if not all(row.trivial and row.power == ALPHA for row in out):
                fail(f"{op.label}: blind curve is not the constant alpha")
            continue
        _, crit = laws[text, p]
        null_terms = refs.mixture_terms(weights, p)
        single = len(null_terms) == 1
        if single and not _close(crit, refs.chi2_crit(null_terms[0][1], ALPHA), 1e-9):
            fail(f"{op.label}: critical value {crit!r} vs chi2")
        for tau, row in zip(_CURVE_TAUS, out):
            terms = refs.mixture_terms(weights, p, f_id, tau)
            if single:
                _, df, nc = terms[0]
                ref = refs.ncx2_sf(refs.chi2_crit(df, ALPHA), df, nc)
                tol = 1e-7 * max(ref, 1e-2)
            else:
                ref = refs.imhof_sf(crit, terms)
                tol = 5.0 * _mc_se(ref) + 1e-7
            if abs(row.power - ref) > tol:
                fail(f"{op.label}: tau={tau} power {row.power!r} vs reference {ref!r}")
        if abs(powers[0] - ALPHA) > (1e-9 if single else 5.0 * _mc_se(ALPHA)):
            fail(f"{op.label}: power at tau = 0 is {powers[0]!r}, not alpha")
        for lo, hi in zip(out, out[1:]):
            if hi.power < lo.power - 5.0 * math.hypot(lo.se, hi.se) - 1e-12:
                fail(f"{op.label}: power decreases in tau: {powers}")


def acceptance_metrics(wl):
    """Expected rejection-sampler acceptance over the grid's p = 3 cells of
    each angular function, weighted by the draws each cell makes; 0 where
    the workload samples none."""
    cells = []
    for op in wl.ops:
        cfg = op.meta
        if hasattr(cfg, "tau_grid") and cfg.p == 3:  # experiments at p = 3
            draws = len(cfg.tests) * cfg.replicates * cfg.n_list[0]
            cells += [(cfg.f_id, kappa, draws) for _, kappa in _kappas(cfg) if kappa > 0.0]
    out = {}
    for f_id, label in (("vmf", "vmf_p3"), ("watson", "watson_p3"), ("power", "power3_p3")):
        rates = [(refs.acceptance(3, kappa, f), draws) for f, kappa, draws in cells if f == f_id]
        out[f"rotsym.acceptance.{label}"] = (
            sum(d for _, d in rates) / sum(d / a for a, d in rates) if rates else 0.0)
    return out
