"""Spans around the calls into each sobotest layer, recorded from outside.

`Tracer.install` replaces public functions at the names their calling
modules look up (for example `sobotest.harness.sample_rotsym`, which the
harness calls, and `sobotest.sobolev.stat_harmonic`, which `run_test`
calls) with wrappers that record a span: id, parent id, name, key, start,
end, the time covered by child spans, and the round it belongs to.
`uninstall` puts the originals back, so an untraced round runs the
program exactly as shipped.  Spans stay in memory until the run ends.
"""

import math
import statistics
import time
import weakref
from collections import defaultdict

# (module attribute path, span name); a class path wraps a method
_SITES = (
    ("sobotest.rng:stream", "rng.stream"),          # looked up by rotsym
    ("sobotest.harness:stream", "rng.stream"),      # cell seeds
    ("sobotest.asymptotics:stream", "rng.stream"),  # Monte Carlo law blocks
    ("sobotest.harness:sample_rotsym", "rotsym.sample_rotsym"),
    ("sobotest.sobolev:basis_matrix", "harmonics.basis_matrix"),
    ("sobotest.sobolev:stat_harmonic", "sobolev.stat_harmonic"),
    ("sobotest.sobolev:run_test", "sobolev.run_test"),
    ("sobotest.harness:run_test", "sobolev.run_test"),
    ("sobotest.asymptotics:limit_law", "asymptotics.limit_law"),
    ("sobotest.harness:limit_law", "asymptotics.limit_law"),
    ("sobotest.asymptotics:MixtureLaw.quantile", "asymptotics.quantile"),
    ("sobotest.asymptotics:MixtureLaw.tail", "asymptotics.tail"),
    ("sobotest.asymptotics:MixtureLaw.sample", "asymptotics.sample"),
    ("sobotest.asymptotics:power_curve", "asymptotics.power_curve"),
    ("sobotest.harness:power_curve", "asymptotics.power_curve"),
    ("sobotest.asymptotics:classify_threshold", "asymptotics.classify_threshold"),
    ("sobotest.harness:classify_threshold", "asymptotics.classify_threshold"),
    ("sobotest.harness:run_power_experiment", "harness.run_power_experiment"),
)

_F_LABEL = {"power_3": "power3"}


def _degrees(weights, p):
    degrees = weights.active_degrees(p)
    return f"k{degrees[0]}" if len(degrees) == 1 else "multi"


def _key(name, args, kwargs, seen):
    """Label a call by the property its layer metric is split on."""
    if name == "rotsym.sample_rotsym":
        cfg = args[0]
        if cfg.kappa == 0.0:
            return f"uniform_p{cfg.p}"
        return f"{_F_LABEL.get(cfg.f.name, cfg.f.name)}_p{cfg.p}"
    if name == "harmonics.basis_matrix":
        p, k, x = args[:3]
        return f"p{p}_k{k}:{len(x)}"
    if name in ("sobolev.stat_harmonic", "sobolev.run_test"):
        sample, weights = args[:2]
        return f"p{sample.p}_{_degrees(weights, sample.p)}"
    if name == "asymptotics.limit_law":
        weights, p = args[:2]
        return "single" if len(weights.active_degrees(p)) == 1 else "multi"
    if name == "asymptotics.sample":
        law = args[0]
        draws = args[1] if len(args) > 1 else kwargs.get("draws")
        seed = args[2] if len(args) > 2 else kwargs.get("seed")
        key = (law.draws if draws is None else int(draws),
               law.seed if seed is None else int(seed))
        # the first call per law and key draws the Monte Carlo sample; later
        # ones return the law's cached copy
        keys = seen.setdefault(law, set())
        miss = key not in keys
        keys.add(key)
        terms = len(law.terms)
        return f"{'miss' if miss else 'hit'}:{'single' if terms == 1 else 'multi'}:{key[0] * terms}"
    return ""


class Tracer:
    def __init__(self):
        self.spans = []      # [id, parent, name, key, start, end, child_time, round]
        self._stack = []
        self._saved = []
        self._seen = weakref.WeakKeyDictionary()
        self.round = -1

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            key = _key(name, args, kwargs, tracer._seen)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [len(tracer.spans), None if parent is None else parent[0],
                    name, key, 0.0, 0.0, 0.0, tracer.round]
            tracer.spans.append(span)
            tracer._stack.append(span)
            span[4] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent[6] += span[5] - span[4]

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        import importlib
        for path, name in _SITES:
            module_name, attr = path.split(":")
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(spans, rounds):
    """Per-layer metrics from the spans of `rounds` traced rounds.  A layer
    the workload never calls reads 0."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append(s)

    def named(name):
        return [s for s in spans if s[2] == name]

    def dur(s):
        return s[5] - s[4]

    def inside(s, ancestor):
        parent = s[1]
        while parent is not None:
            if by_id[parent][2] == ancestor:
                return True
            parent = by_id[parent][1]
        return False

    out = {}
    streams = named("rng.stream")
    out["rng.stream_us"] = _median([dur(s) for s in streams], 1e6)
    experiment_samples = [s for s in named("rotsym.sample_rotsym")
                          if inside(s, "harness.run_power_experiment")]
    experiment_streams = [s for s in streams if inside(s, "harness.run_power_experiment")
                          and not inside(s, "asymptotics.sample")]
    out["rng.streams_per_replicate"] = (len(experiment_streams) / len(experiment_samples)
                                        if experiment_samples else 0.0)
    for label in ("vmf_p3", "watson_p3", "power3_p3", "vmf_p20", "vmf_p30"):
        out[f"rotsym.sample_ms.{label}"] = _median(
            [dur(s) for s in named("rotsym.sample_rotsym") if s[3] == label], 1e3)
    basis = named("harmonics.basis_matrix")
    for label in ("p3_k1", "p3_k2", "p3_k3", "p20_k3", "p30_k3"):
        out[f"harmonics.basis_ms.{label}"] = _median(
            [dur(s) for s in basis if s[3].split(":")[0] == label], 1e3)
        out_n = [int(s[3].split(":")[1]) for s in basis if s[3].split(":")[0] == label]
        if label == "p30_k3":
            # n x d_{30,3} doubles, computed from the call's size, not measured
            dim = math.comb(32, 3) - math.comb(30, 1)
            out["harmonics.basis_mib_computed.p30_k3"] = (
                max(out_n) * dim * 8 / 2 ** 20 if out_n else 0.0)
    stats_spans = named("sobolev.stat_harmonic")
    for label in ("p3_k1", "p3_k2", "p3_k3", "p20_k3", "p30_k3"):
        out[f"sobolev.stat_ms.{label}"] = _median(
            [dur(s) for s in stats_spans if s[3] == label], 1e3)
    tests = named("sobolev.run_test")
    out["sobolev.decision_us"] = _median([
        dur(s) - sum(dur(c) for c in children[s[0]] if c[2] == "sobolev.stat_harmonic")
        for s in tests], 1e6)
    tails = named("asymptotics.tail")
    out["asymptotics.tail_us"] = _median([dur(s) - s[6] for s in tails], 1e6)
    out["asymptotics.quantile_us"] = _median(
        [dur(s) - s[6] for s in named("asymptotics.quantile")], 1e6)
    replicate_tests = [s for s in tests if inside(s, "harness.run_power_experiment")]
    replicate_ids = {s[0] for s in replicate_tests}
    out["asymptotics.tail_calls_per_replicate"] = (
        sum(1 for s in tails if s[1] in replicate_ids) / len(replicate_tests)
        if replicate_tests else 0.0)
    for kind in ("single", "multi"):
        out[f"asymptotics.limit_law_ms.{kind}"] = _median(
            [dur(s) for s in named("asymptotics.limit_law") if s[3] == kind], 1e3)
    misses = [s for s in named("asymptotics.sample") if s[3].startswith("miss")]
    for kind in ("single", "multi"):
        out[f"asymptotics.law_sample_ms.{kind}"] = _median(
            [dur(s) for s in misses if s[3].split(":")[1] == kind], 1e3)
    out["asymptotics.mc_draws_per_law"] = (
        sum(int(s[3].split(":")[2]) for s in misses) / len(misses) if misses else 0.0)
    out["asymptotics.power_curve_ms"] = _median(
        [dur(s) for s in named("asymptotics.power_curve")], 1e3)
    out["asymptotics.classify_us"] = _median(
        [dur(s) for s in named("asymptotics.classify_threshold")], 1e6)
    experiments = named("harness.run_power_experiment")
    refs = [s for s in named("asymptotics.power_curve") if inside(s, "harness.run_power_experiment")]
    out["harness.refs_s"] = sum(dur(s) for s in refs) / rounds if experiments else 0.0
    out["harness.self_s"] = sum(dur(s) - s[6] for s in experiments) / rounds if experiments else 0.0
    return out
