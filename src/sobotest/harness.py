"""Monte Carlo power experiments over rotationally symmetric alternatives.

An experiment sweeps a grid of (sample size, rate exponent, tau) cells.
Each cell draws M independent samples with concentration
kappa = tau * n**(-1/ell), runs every requested test at level alpha on
each of them, and records per test the rejection frequency next to the
asymptotic power of the test whenever the cell sits exactly on the
test's detection threshold (ell = 2 k_star); every other row is flagged
trivial.  Rows come out in (test, n, ell, tau) order.

Each cell draws a 63-bit cell seed, the first integer in [0, 2^63 - 1)
of stream(base_seed, 0, n, ell, tau index), and replicate r samples
from stream(cell seed, r): the tests of a cell share its samples, the 0
keeps the key of the first test of stream contract 2, any cell can be
reproduced in isolation, and the resulting table is byte-identical for
every parallelism degree.
"""

import configparser
import math
from dataclasses import dataclass, fields
from typing import Optional

from . import sobolev
# power_curve and run_test are not called here; the benchmark's tracer wraps these names
from .asymptotics import _threshold_powers, classify_threshold, limit_law, power_curve  # noqa: F401
from .rng import stream
from .rotsym import AngularFunction, RotSymConfig, cauchy, power, sample_rotsym, vmf, watson
from .sobolev import WeightSequence, run_test  # noqa: F401

_NAMED_TESTS = {
    "rayleigh": 1,
    "bingham": 2,
    "3-test": 3,
}


# angular function ids in the order the CLI lists them; power takes its exponent b
_ANGULAR_FUNCTIONS = {"vmf": lambda b: vmf(), "watson": lambda b: watson(),
                      "power": power, "cauchy": lambda b: cauchy()}


def angular_function(f_id: str, b: int = 3) -> AngularFunction:
    """Resolve an angular function id; `power` takes its exponent from b."""
    if f_id not in _ANGULAR_FUNCTIONS:
        *ids, last = _ANGULAR_FUNCTIONS
        raise ValueError(f"unknown angular function {f_id!r}; "
                         f"expected {', '.join(ids)}, or {last}")
    return _ANGULAR_FUNCTIONS[f_id](b)


def _split_fields(text: str, what: str, sep: str = ",") -> list:
    """Stripped fields of a separated list; an empty field is malformed
    text, not a value to skip."""
    fields = [v.strip() for v in text.split(sep)]
    if not all(fields):
        raise ValueError(f"empty field in {what} {text!r}")
    return fields


def parse_weights(text: str) -> WeightSequence:
    """Weight sequence from a name (rayleigh, bingham, 3-test) or a
    comma-separated list of weights for degrees 1, 2, ..."""
    name = text.strip()
    if name in _NAMED_TESTS:
        return WeightSequence.delta(_NAMED_TESTS[name], name=name)
    fields = _split_fields(text, "weight list")
    try:
        values = [float(v) for v in fields]
    except ValueError:
        raise ValueError(f"unknown test {text!r}; expected one of "
                         f"{sorted(_NAMED_TESTS)} or a comma-separated "
                         "weight list") from None
    label = "weights(" + " ".join(format(v, "g") for v in values) + ")"
    return WeightSequence.finite(values, name=label)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one power study."""

    p: int
    f_id: str
    b: int = 3
    tests: tuple = ("rayleigh", "bingham", "3-test")
    n_list: tuple = (500, 5000)
    rate_exponents: tuple = (2, 4, 6, 12)
    tau_grid: tuple = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0,
                       3.5, 4.0, 4.5, 5.0, 5.5, 6.0)
    replicates: int = 2000
    alpha: float = 0.05
    base_seed: int = 0
    parallelism: int = 1

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"p must be >= 2, got {self.p}")
        angular_function(self.f_id, self.b)
        if self.b < 1:
            raise ValueError(f"b must be >= 1, got {self.b}")
        if not self.tests:
            raise ValueError("tests must be nonempty")
        labels = [parse_weights(t).name for t in self.tests]
        if not self.n_list or any(n < 1 for n in self.n_list):
            raise ValueError(f"sample sizes must be >= 1, got {self.n_list}")
        if not self.rate_exponents or any(e < 1 for e in self.rate_exponents):
            raise ValueError(
                f"rate exponents must be >= 1, got {self.rate_exponents}")
        if not self.tau_grid or not all(0.0 <= t < math.inf for t in self.tau_grid):
            raise ValueError(f"tau grid must be finite and >= 0, got {self.tau_grid}")
        # a repeated value would put two rows on one cell, for a tau with two frequencies
        # (its index keys the cell's stream)
        for what, values in (("test label", labels), ("sample size", self.n_list),
                             ("rate exponent", self.rate_exponents), ("tau", self.tau_grid)):
            if len(set(values)) < len(values):
                raise ValueError(f"each {what} must appear once, got {list(values)}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {self.parallelism}")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """Parse a flat `key = value` file with an [experiment] section.

        Keys are the field names, with `f` for f_id; an unknown key is an
        error.  List values are comma-separated, except that tests are
        separated by semicolons so that explicit weight lists can keep
        their commas: `tests = rayleigh; 1,0.5`.
        """
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except configparser.Error as exc:
            raise ValueError(f"malformed config file {path}: {exc}") from exc
        if "experiment" not in parser:
            raise ValueError(f"config file {path} lacks an [experiment] section")
        by_key = {"f" if fd.name == "f_id" else fd.name: fd for fd in fields(cls)}
        kwargs = {}
        for key, text in parser["experiment"].items():
            if key not in by_key:
                raise ValueError(f"config file {path} has unknown key {key!r}")
            fd = by_key[key]
            try:
                if fd.type is tuple:
                    kind = type(fd.default[0])
                    items = _split_fields(text, "list", ";" if fd.name == "tests" else ",")
                    kwargs[fd.name] = tuple(kind(v) for v in items)
                else:
                    kwargs[fd.name] = fd.type(text)
            except ValueError as exc:
                raise ValueError(f"malformed value of {key} in config file "
                                 f"{path}: {exc}") from exc
        if "p" not in kwargs or "f_id" not in kwargs:
            raise ValueError(f"config file {path} must set p and f")
        return cls(**kwargs)


@dataclass(frozen=True)
class PowerRow:
    """One (test, n, ell, tau) cell of a power table."""

    test: str
    n: int
    ell: int
    tau: float
    reject_freq: float
    mc_se: float
    asym_power: Optional[float]

    @property
    def trivial(self) -> bool:
        """Off the test's detection threshold: no asymptotic power."""
        return self.asym_power is None


_CSV_HEADER = "test,n,ell,tau,reject_freq,mc_se,asym_power,trivial"


def _fmt(value: float) -> str:
    return format(float(value), ".10g")


@dataclass(frozen=True)
class PowerTable:
    """Rejection frequencies with asymptotic references, CSV round-trip."""

    rows: tuple

    def __post_init__(self):
        for row in self.rows:
            if not 0.0 <= row.reject_freq <= 1.0:
                raise ValueError(
                    f"rejection frequency out of range: {row.reject_freq}")
            if row.n < 1 or row.ell < 1:
                raise ValueError(f"n and ell must be >= 1, got {row.n} and {row.ell}")
            if not (0.0 <= row.tau < math.inf and 0.0 <= row.mc_se < math.inf):
                raise ValueError(f"tau and mc_se must be finite and >= 0, "
                                 f"got {row.tau} and {row.mc_se}")
            # powers may round to exactly 1, so only finiteness is checked
            if row.asym_power is not None and not math.isfinite(row.asym_power):
                raise ValueError(f"asymptotic power must be finite, got {row.asym_power}")
            if "," in row.test or "\n" in row.test:
                raise ValueError(f"test label not CSV-safe: {row.test!r}")

    def to_csv(self) -> str:
        lines = [_CSV_HEADER]
        for r in self.rows:
            asym = "" if r.asym_power is None else _fmt(r.asym_power)
            flag = "true" if r.trivial else "false"
            lines.append(f"{r.test},{r.n},{r.ell},{_fmt(r.tau)},"
                         f"{_fmt(r.reject_freq)},{_fmt(r.mc_se)},{asym},{flag}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "PowerTable":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != _CSV_HEADER:
            raise ValueError(f"expected header {_CSV_HEADER!r}")
        rows = []
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != 8:
                raise ValueError(f"malformed power table row: {ln!r}")
            test, n, ell, tau, freq, se, asym, flag = parts
            # a row is trivial exactly when it has no asymptotic power
            if flag != ("true" if asym == "" else "false"):
                raise ValueError(f"malformed trivial flag in row: {ln!r}")
            try:
                rows.append(PowerRow(
                    test=test, n=int(n), ell=int(ell), tau=float(tau),
                    reject_freq=float(freq), mc_se=float(se),
                    asym_power=None if asym == "" else float(asym)))
            except ValueError as exc:
                raise ValueError(f"malformed power table row {ln!r}: "
                                 f"{exc}") from exc
        return cls(tuple(rows))


class _Engine:
    """The experiment as a picklable value: its config, tests and their null
    upper-alpha points (critical value, se), computed once by the caller and
    sent with each cell to a pool worker."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.tests = [parse_weights(name) for name in config.tests]
        self.quantiles = [limit_law(weights, config.p).quantile(config.alpha)
                          for weights in self.tests]

    def run_cell(self, cell) -> list:
        """(rejection frequency, Monte Carlo se) of every test at cell
        (n, ell, tau index), all decided on the same samples."""
        n, ell, taui = cell
        cfg = self.config
        tau = cfg.tau_grid[taui]
        kappa = tau * float(n) ** (-1.0 / ell)
        cell_seed = int(stream(cfg.base_seed, 0, n, ell, taui).integers(
            0, 2**63 - 1))
        sampler = RotSymConfig(p=cfg.p, kappa=kappa, f=angular_function(cfg.f_id, cfg.b),
                               seed=cell_seed)
        rejects = [0] * len(self.quantiles)
        for replicate in range(cfg.replicates):
            sample = sample_rotsym(sampler, n, replicate=replicate)
            stats = sobolev.stat_harmonics(sample, self.tests)
            # the decision rule of run_test (strict exceedance), without the
            # p-value it would compute and this loop would discard
            for ti, (stat, (crit, _)) in enumerate(zip(stats, self.quantiles)):
                rejects[ti] += stat > crit
        outcomes = []
        for count in rejects:
            freq = count / cfg.replicates
            outcomes.append((freq, math.sqrt(freq * (1.0 - freq) / cfg.replicates)))
        return outcomes


def _asymptotic_references(config: ExperimentConfig, engine: _Engine) -> dict:
    """Per (test index, ell): power_curve along the tau grid, from this classification
    and the engine's null quantile, on the detection threshold; None off it."""
    f = angular_function(config.f_id, config.b)
    refs = {}
    for ti, weights in enumerate(engine.tests):
        for ell in config.rate_exponents:
            horizon = max(1, ell // 2)
            report = classify_threshold(weights, f, horizon)
            on_threshold = (report.case != "blind"
                            and 2 * report.k_star == ell)
            if on_threshold:
                curve = _threshold_powers(weights, config.p, f, config.tau_grid,
                                          config.alpha, report, *engine.quantiles[ti])
                refs[ti, ell] = [row.power for row in curve]
            else:
                refs[ti, ell] = None
    return refs


def run_power_experiment(config: ExperimentConfig) -> PowerTable:
    """Rejection frequencies over the full (test, n, ell, tau) grid.

    Deterministic in config.base_seed for every parallelism degree; each
    test's null critical value is computed once and shared by all cells
    and replicates, and every test of a cell is decided on the same
    samples.
    """
    engine = _Engine(config)
    refs = _asymptotic_references(config, engine)
    cells = [(n, ell, taui)
             for n in config.n_list
             for ell in config.rate_exponents
             for taui in range(len(config.tau_grid))]
    # the same bound run_cell either way; a pool worker gets the engine pickled with each cell
    if config.parallelism > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.parallelism) as pool:
            outcomes = list(pool.map(engine.run_cell, cells))
    else:
        outcomes = list(map(engine.run_cell, cells))
    rows = []
    for ti, weights in enumerate(engine.tests):
        for (n, ell, taui), per_test in zip(cells, outcomes):
            freq, se = per_test[ti]
            curve = refs[ti, ell]
            # rows carry the parsed name: an explicit weight list gets a
            # comma-free form so the table stays CSV-safe
            rows.append(PowerRow(
                test=weights.name, n=n, ell=ell,
                tau=config.tau_grid[taui], reject_freq=freq, mc_se=se,
                asym_power=None if curve is None else curve[taui]))
    return PowerTable(tuple(rows))
