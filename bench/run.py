"""Benchmark for sobotest: one workload per run, metrics as one JSON line.

    python3 bench/run.py --workload grid_p3 --seed 1 --seconds 30 --trace 0

Runs from a source checkout: the package is imported from `src/` next to
this directory, and the run fails without printing a result when it is
not there.  `--trace 0` reports the end-to-end metrics with no wrappers
installed; `--trace 1` reports the per-layer metrics from wrapped rounds
and writes them, with every span, to bench/out/.  See bench/README.md.
"""

import os

# one BLAS/OpenMP thread, set before numpy loads, in this process and in
# the set-up probes it starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("grid_p3", "grid_high_p", "asymptotic_laws")
SETUP_REPEATS = 3
# median time of SpeedProbe's kernel on the reference machine (see README)
PROBE_REF_S = 0.006


class SpeedProbe:
    """A fixed numpy and interpreter kernel, timed between operations.

    The host this runs on is shared and its speed drifts by tens of percent
    within seconds, CPU time included.  Each operation's time is scaled by
    PROBE_REF_S over the probe time measured around it, which reports the
    time it would take at the reference speed.  The kernel mixes what the
    workloads do: short-vector arithmetic in a Python loop, sorting and
    exponentials of a 1.6 MB array, one pass over an 8 MB array (larger
    than the 4 MB L2 cache), and pure interpreter work.
    """

    def __init__(self):
        # numpy is imported here, not at the top, so that the set-up probe
        # process times the package's import of it
        import numpy as np
        self._np = np
        gen = np.random.default_rng(0)
        self._short = gen.random(2000)
        self._mid = gen.random(200_000)
        self._long = gen.random(1_000_000)

    def _kernel(self):
        t0 = time.perf_counter()
        x = self._short.copy()
        for _ in range(300):
            x = x * self._short + 0.5
        self._np.sort(self._mid)
        self._np.exp(self._mid).sum()
        (self._long * 1.0001).sum()
        acc = 0
        for i in range(20_000):
            acc += i * i
        return time.perf_counter() - t0

    def __call__(self):
        """Median of three timings of the kernel, in seconds."""
        return statistics.median(self._kernel() for _ in range(3))


def _check_source():
    if not (SRC / "sobotest" / "__init__.py").is_file():
        raise SystemExit(f"error: no sobotest package under {SRC}")


def _import_sobotest():
    """Import the package from this checkout's src/ and nowhere else."""
    _check_source()
    sys.path.insert(0, str(SRC))
    import sobotest
    if Path(sobotest.__file__).resolve().parent != (SRC / "sobotest").resolve():
        raise SystemExit(f"error: imported sobotest from {sobotest.__file__}")
    return sobotest


def setup_probe(workload, seed):
    """Set-up in a fresh interpreter: import plus the workload's null laws
    and critical values.  Prints the two times as JSON."""
    t0 = time.perf_counter()
    st = _import_sobotest()
    t1 = time.perf_counter()
    import workloads
    wl = workloads.build(st, workload, seed)
    t2 = time.perf_counter()
    workloads.build_null_laws(st, wl.null_laws)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "laws_s": t3 - t2}))


def measure_setup(workload, seed, speed):
    times = []
    for _ in range(SETUP_REPEATS):
        before = speed()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        scale = PROBE_REF_S / (0.5 * (before + speed()))
        setup = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(scale * (setup["import_s"] + setup["laws_s"]))
    return statistics.median(times)


def _digest(out):
    """Comparable form of an operation's output, to check that every round
    reproduces the first."""
    if hasattr(out, "to_csv"):
        return out.to_csv()
    if hasattr(out, "to_record"):
        return out.to_record()
    return repr([(row.power, row.se, row.trivial) for row in out])


class Runner:
    def __init__(self, wl, speed):
        self.wl = wl
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.first = [None] * len(wl.ops)
        self.digests = [None] * len(wl.ops)
        self.mismatch = []

    def round(self):
        """Run every operation once; returns each one's time at the
        reference speed, None where it raised."""
        times = []
        before = self.speed()
        for i, op in enumerate(self.wl.ops):
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:  # an operation that raises counts as failed
                self.failed += 1
                print(f"failed: {op.label}\n{traceback.format_exc()}", file=sys.stderr)
                times.append(None)
                before = self.speed()
                continue
            dt = time.perf_counter() - t0
            after = self.speed()
            times.append(dt * PROBE_REF_S / (0.5 * (before + after)))
            before = after
            digest = _digest(out)
            if self.first[i] is None:
                self.first[i], self.digests[i] = out, digest
            elif digest != self.digests[i]:
                self.mismatch.append(op.label)
        return times

    def rounds(self, seconds, tracer=None, warmup=False):
        """Whole rounds within `seconds`, the first one untimed if `warmup`;
        a round is started only if one more of the last one's length fits."""
        deadline = time.perf_counter() + seconds
        if warmup:
            self.round()
        done = []
        last = 0.0
        while not done or time.perf_counter() + last <= deadline:
            if tracer is not None:
                tracer.round = len(done)
            t0 = time.perf_counter()
            done.append(self.round())
            last = time.perf_counter() - t0
        return done


def summarize(ops, rounds):
    """Each operation's median time over the rounds, combined into the
    end-to-end metrics; an operation that never succeeded is left out."""
    med = []
    for i, op in enumerate(ops):
        times = [r[i] for r in rounds if r[i] is not None]
        if times:
            med.append((op, statistics.median(times)))
    main = [(op.items, t) for op, t in med if op.kind == "main"]
    single = [t for op, t in med if op.kind == "single"]
    return {"wall_s": sum(t for _, t in med),
            "items_per_s": sum(n for n, _ in main) / sum(t for _, t in main) if main else 0.0,
            "single_test_ms": 1e3 * statistics.fmean(single) if single else 0.0}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _check_source()

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    speed = SpeedProbe()
    setup_s = measure_setup(args.workload, args.seed, speed)
    st = _import_sobotest()
    import tracing
    import workloads
    wl = workloads.build(st, args.workload, args.seed)
    runner = Runner(wl, speed)

    # lazy set-up inside the package (basis tables, quadrature rules) is
    # paid once per process; an untimed first round lets it finish
    if args.trace:
        untraced = runner.rounds(args.seconds / 2.0, warmup=True)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = runner.rounds(args.seconds / 2.0, tracer)
        finally:
            tracer.uninstall()
    else:
        untraced = runner.rounds(args.seconds, warmup=True)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = [f"round output differs from the first round: {label}"
                for label in sorted(set(runner.mismatch))]
    laws = workloads.build_null_laws(st, wl.null_laws)
    wl.checks(st, wl, runner.first, laws, args.seed, failures.append)
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)

    if args.trace:
        metrics = tracing.layer_metrics(tracer.spans, len(traced))
        metrics.update(workloads.acceptance_metrics(wl))
        metrics["trace.wall_s_untraced"] = summarize(wl.ops, untraced)["wall_s"]
        metrics["trace.wall_s_traced"] = summarize(wl.ops, traced)["wall_s"]
        metrics["trace.overhead_pct"] = 100.0 * (
            metrics["trace.wall_s_traced"] / metrics["trace.wall_s_untraced"] - 1.0)
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "rounds": len(traced),
            "metrics": metrics,
            "span_fields": ["id", "parent", "name", "key", "start", "end", "child_s", "round"],
            "spans": tracer.spans}))
    else:
        metrics = {"setup_s": setup_s, **summarize(wl.ops, untraced),
                   "peak_rss_mib": peak_rss_mib}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({
        "correct": not failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
