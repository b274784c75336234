"""Power-experiment harness: config parsing, CSV round trips, cell
determinism, and attachment of asymptotic reference curves."""

import math
import pickle
from dataclasses import fields
from pathlib import Path

import pytest

from sobotest.asymptotics import limit_law
from sobotest.harness import (
    ExperimentConfig,
    PowerRow,
    PowerTable,
    _asymptotic_references,
    _Engine,
    angular_function,
    parse_weights,
    run_power_experiment,
)
from sobotest.rng import stream
from sobotest.rotsym import AngularFunction, RotSymConfig, sample_rotsym
from sobotest.sobolev import stat_harmonic

# Frozen reference: asymptotic Rayleigh power at p=3, vmf, threshold rate,
# tau=2 (noncentral chi-square, 3 df, noncentrality 4/3, at the 5% point).
RAYLEIGH_VMF_TAU2 = 0.1402363953

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def tiny_config(**overrides):
    kwargs = dict(
        p=3,
        f_id="vmf",
        tests=("rayleigh", "bingham"),
        n_list=(60,),
        rate_exponents=(2, 4),
        tau_grid=(0.0, 2.0),
        replicates=30,
        base_seed=2024,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


# ---------------------------------------------------------------- weights

def test_named_weights():
    for name, k in (("rayleigh", 1), ("bingham", 2), ("3-test", 3)):
        w = parse_weights(name)
        assert w.name == name
        assert w.k_v == k
        assert w.weight(k) == 1.0
        assert all(w.weight(j) == 0.0 for j in range(1, k))


def test_weight_list():
    w = parse_weights("1, 0.5")
    assert w.weight(1) == 1.0
    assert w.weight(2) == 0.5
    assert w.weight(3) == 0.0
    assert "," not in w.name


def test_weights_whitespace_tolerant():
    assert parse_weights("  bingham  ").name == "bingham"


def test_weights_rejects_garbage():
    with pytest.raises(ValueError):
        parse_weights("raileigh")
    with pytest.raises(ValueError):
        parse_weights("")
    with pytest.raises(ValueError):
        parse_weights(",,")


def test_angular_function_ids():
    assert angular_function("vmf").name == "vmf"
    assert angular_function("watson").name == "watson"
    assert angular_function("cauchy").name == "cauchy"
    assert angular_function("power", 4).name == "power_4"
    with pytest.raises(ValueError, match="expected vmf, watson, power, or cauchy$"):
        angular_function("fisher")


# ----------------------------------------------------------------- config

def test_config_defaults():
    cfg = ExperimentConfig(p=3, f_id="vmf")
    assert cfg.tests == ("rayleigh", "bingham", "3-test")
    assert cfg.n_list == (500, 5000)
    assert cfg.rate_exponents == (2, 4, 6, 12)
    assert len(cfg.tau_grid) == 13
    assert cfg.replicates == 2000
    assert cfg.alpha == 0.05
    assert cfg.parallelism == 1


@pytest.mark.parametrize("bad", [
    dict(p=1),
    dict(f_id="gauss"),
    dict(b=0),
    dict(tests=()),
    dict(tests=("rayleigh", "nope")),
    dict(n_list=()),
    dict(n_list=(0,)),
    dict(rate_exponents=(0,)),
    dict(tau_grid=(-1.0,)),
    dict(replicates=0),
    dict(alpha=0.0),
    dict(alpha=1.0),
    dict(parallelism=0),
    dict(tau_grid=(0.0, math.nan)),
    dict(tau_grid=(math.inf,)),
    # a repeated value would put two rows on one cell, and a repeated tau two
    # different frequencies, since the tau index keys the cell's stream
    dict(tests=("bingham", "bingham")),
    dict(tests=("1,0.5", "1, 0.5")),
    dict(n_list=(200, 200)),
    dict(rate_exponents=(2, 2)),
    dict(tau_grid=(2.0, 2.0)),
    dict(tau_grid=(0.0, -0.0)),
])
def test_config_validation(bad):
    kwargs = dict(p=3, f_id="vmf")
    kwargs.update(bad)
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs)


def test_config_from_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(
        "[experiment]\n"
        "p = 3\n"
        "f = power  # cubic exponent\n"
        "b = 3\n"
        "tests = rayleigh; 1,0.5\n"
        "n_list = 100, 200\n"
        "rate_exponents = 2, 6\n"
        "tau_grid = 0, 1.5, 3\n"
        "replicates = 50\n"
        "alpha = 0.1\n"
        "base_seed = 42\n"
        "parallelism = 2\n",
        encoding="utf-8")
    cfg = ExperimentConfig.from_file(path)
    assert cfg.p == 3
    assert cfg.f_id == "power"
    assert cfg.b == 3
    assert cfg.tests == ("rayleigh", "1,0.5")
    assert cfg.n_list == (100, 200)
    assert cfg.rate_exponents == (2, 6)
    assert cfg.tau_grid == (0.0, 1.5, 3.0)
    assert cfg.replicates == 50
    assert cfg.alpha == 0.1
    assert cfg.base_seed == 42
    assert cfg.parallelism == 2


def test_config_from_file_minimal(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text("[experiment]\np = 4\nf = watson\n", encoding="utf-8")
    cfg = ExperimentConfig.from_file(path)
    assert cfg.p == 4
    assert cfg.f_id == "watson"
    assert cfg.replicates == 2000


@pytest.mark.parametrize("text", [
    "p = 3\nf = vmf\n",
    "[experiment]\nf = vmf\n",
    "[experiment]\np = 3\n",
    "[experiment]\np = three\nf = vmf\n",
    "[experiment]\np = 3\nf = vmf\nn_list = 10, x\n",
    "not an ini file at all [\n",
    "[experiment]\np = 3\nf = vmf\nreplicate = 10\n",
    "[experiment]\np = 3\nf = vmf\ntests = rayleigh; 0,,1\n",
])
def test_config_from_file_malformed(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError):
        ExperimentConfig.from_file(path)


@pytest.mark.parametrize("key,value", [
    ("n_list", "20,,30"), ("n_list", "20,"), ("tau_grid", "0,,2"),
    ("rate_exponents", ",2"), ("tests", "rayleigh;;bingham"), ("tests", "rayleigh;"),
])
def test_config_list_with_an_empty_field_names_the_key(tmp_path, key, value):
    # an empty field is malformed text, not a value to skip
    path = tmp_path / "exp.ini"
    path.write_text(f"[experiment]\np = 3\nf = vmf\n{key} = {value}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"malformed value of {key} .*empty field"):
        ExperimentConfig.from_file(path)


@pytest.mark.parametrize("text, message", [
    ("[other]\np = 3\nf = vmf\n", "config file {path} lacks an [experiment] section"),
    ("[experiment]\nf = vmf\n", "config file {path} must set p and f"),
    ("[experiment]\np = 3\nf = vmf\nreplicate = 10\n",
     "config file {path} has unknown key 'replicate'"),
])
def test_config_file_errors_name_the_file_and_the_fault(tmp_path, text, message):
    path = tmp_path / "exp.ini"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        ExperimentConfig.from_file(path)
    assert str(excinfo.value) == message.format(path=path)


# ------------------------------------------------------------ power table

def sample_table():
    return PowerTable((
        PowerRow("rayleigh", 500, 2, 0.0, 0.05, 0.004873, 0.05),
        PowerRow("rayleigh", 500, 4, 1.5, 0.049, 0.004828, None),
        PowerRow("weights(1 0.5)", 5000, 2, 3.0, 0.731, 0.009916, 0.74021),
    ))


def test_table_csv_round_trip():
    table = sample_table()
    text = table.to_csv()
    lines = text.splitlines()
    assert lines[0] == "test,n,ell,tau,reject_freq,mc_se,asym_power,trivial"
    assert lines[2].endswith(",,true")
    assert PowerTable.from_csv(text) == table


def test_trivial_follows_asym_power():
    # trivial is read from the asymptotic cell, never stored beside it
    assert len(fields(PowerRow)) == 7
    with pytest.raises(TypeError):
        PowerRow("rayleigh", 500, 2, 0.0, 0.05, 0.004873, 0.6, trivial=True)
    on, off, _ = sample_table().rows
    assert not on.trivial and off.trivial


@pytest.mark.parametrize("name", ["readme_vmf_m8", "readme_watson_m8",
                                  "p20_vmf_multi_m8", "p2_vmf_m8"])
def test_golden_table_csv_round_trip(name):
    text = (GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8")
    assert PowerTable.from_csv(text).to_csv() == text


def test_table_rejects_bad_frequency():
    with pytest.raises(ValueError):
        PowerTable((PowerRow("rayleigh", 10, 2, 0.0, 1.2, 0.0, None),))


def test_table_rejects_unsafe_label():
    with pytest.raises(ValueError):
        PowerTable((PowerRow("1,0.5", 10, 2, 0.0, 0.1, 0.0, None),))


def test_weight_list_rows_round_trip():
    cfg = tiny_config(tests=("1,0.5",), rate_exponents=(2,),
                      tau_grid=(0.0,), n_list=(40,), replicates=10)
    table = run_power_experiment(cfg)
    assert table.rows[0].test == "weights(1 0.5)"
    text = table.to_csv()
    assert PowerTable.from_csv(text).to_csv() == text


@pytest.mark.parametrize("text", [
    "wrong,header\nrayleigh,10,2,0,0.05,0.01,,true\n",
    "test,n,ell,tau,reject_freq,mc_se,asym_power,trivial\nrayleigh,10,2,0\n",
    "test,n,ell,tau,reject_freq,mc_se,asym_power,trivial\n"
    "rayleigh,10,2,0,0.05,0.01,,maybe\n",
    "test,n,ell,tau,reject_freq,mc_se,asym_power,trivial\n"
    "rayleigh,ten,2,0,0.05,0.01,,true\n",
] + [
    # rows a figure cannot place: each parses, and is out of range
    "test,n,ell,tau,reject_freq,mc_se,asym_power,trivial\n" + row for row in (
        "rayleigh,500,2,nan,0.5,0.01,0.6,false\n",
        "rayleigh,500,2,inf,0.5,0.01,0.6,false\n",
        "rayleigh,500,2,-1,0.5,0.01,0.6,false\n",
        "rayleigh,-5,2,1,0.5,0.01,0.6,false\n",
        "rayleigh,500,0,1,0.5,0.01,0.6,false\n",
        "rayleigh,500,2,1,0.5,-0.01,0.6,false\n",
        "rayleigh,500,2,1,0.5,nan,0.6,false\n",
        "rayleigh,500,2,1,0.5,0.01,nan,false\n",
        "rayleigh,500,2,1,0.5,0.01,inf,false\n",
    )
])
def test_table_from_csv_malformed(text):
    with pytest.raises(ValueError):
        PowerTable.from_csv(text)


# ------------------------------------------------------------- experiment

def test_reference_attachment():
    cfg = tiny_config()
    engine = _Engine(cfg)
    refs = _asymptotic_references(cfg, engine)
    # rayleigh detects vmf at ell = 2, bingham at ell = 4; off-threshold
    # exponents carry no reference curve.
    assert refs[0, 2] is not None and refs[0, 4] is None
    assert refs[1, 4] is not None and refs[1, 2] is None
    assert refs[0, 2][0] == pytest.approx(0.05, abs=1e-9)
    assert refs[0, 2][1] == pytest.approx(RAYLEIGH_VMF_TAU2, rel=1e-8)


def test_reference_attachment_delayed():
    cfg = tiny_config(f_id="power", b=3, tests=("bingham",),
                      rate_exponents=(2, 4, 6, 12), tau_grid=(0.0, 3.0))
    engine = _Engine(cfg)
    refs = _asymptotic_references(cfg, engine)
    assert refs[0, 2] is None and refs[0, 4] is None and refs[0, 6] is None
    assert refs[0, 12] is not None
    assert refs[0, 12][0] == pytest.approx(0.05, abs=1e-9)
    assert refs[0, 12][1] > 0.05


def test_reference_blind_everywhere():
    cfg = tiny_config(f_id="watson", tests=("rayleigh",),
                      rate_exponents=(2, 4, 6, 12))
    engine = _Engine(cfg)
    refs = _asymptotic_references(cfg, engine)
    assert all(refs[0, ell] is None for ell in (2, 4, 6, 12))


def test_experiment_rows_and_flags():
    cfg = tiny_config()
    table = run_power_experiment(cfg)
    # 2 tests x 1 n x 2 ells x 2 taus
    assert len(table.rows) == 8
    by_key = {(r.test, r.ell, r.tau): r for r in table.rows}
    on = by_key["rayleigh", 2, 2.0]
    assert not on.trivial
    assert on.asym_power == pytest.approx(RAYLEIGH_VMF_TAU2, rel=1e-8)
    off = by_key["rayleigh", 4, 2.0]
    assert off.trivial and off.asym_power is None
    assert not by_key["bingham", 4, 2.0].trivial
    assert by_key["bingham", 2, 2.0].trivial
    for r in table.rows:
        assert 0.0 <= r.reject_freq <= 1.0
        assert r.mc_se == pytest.approx(
            math.sqrt(r.reject_freq * (1.0 - r.reject_freq) / cfg.replicates))


def test_experiment_deterministic():
    cfg = tiny_config()
    assert (run_power_experiment(cfg).to_csv()
            == run_power_experiment(cfg).to_csv())


def test_experiment_seed_sensitive():
    base = run_power_experiment(tiny_config()).to_csv()
    moved = run_power_experiment(tiny_config(base_seed=2025)).to_csv()
    assert base != moved


def test_parallelism_byte_identical():
    serial = run_power_experiment(tiny_config(parallelism=1))
    pooled = run_power_experiment(tiny_config(parallelism=2))
    assert serial.to_csv() == pooled.to_csv()


def test_cell_reproducible_in_isolation():
    cfg = tiny_config()
    cell = (60, 2, 1)
    first = _Engine(cfg).run_cell(cell)
    second = _Engine(cfg).run_cell(cell)
    assert first == second
    assert len(first) == len(cfg.tests)


def test_engine_run_cell_pickles_for_the_pool():
    # a pool worker runs the engine it is sent: the bound run_cell pickles, with the
    # parent's critical values, and holds no angular function (built from lambdas)
    cfg = tiny_config(tests=("rayleigh", "bingham", "3-test", "1,0.5"))
    engine = _Engine(cfg)
    sent = pickle.loads(pickle.dumps(engine.run_cell))
    assert sent.__self__.quantiles == engine.quantiles
    assert not any(isinstance(v, AngularFunction) for v in vars(engine).values())
    cell = (60, 2, 1)
    assert sent(cell) == engine.run_cell(cell)


def test_frequencies_rebuilt_from_the_documented_stream_keys():
    # each cell draws a 63-bit seed from stream(base_seed, 0, n, ell, tau
    # index), and replicate r samples from stream(cell seed, r)
    cfg = tiny_config(rate_exponents=(2,), n_list=(40,), replicates=12)
    f = angular_function(cfg.f_id)
    tests = [parse_weights(name) for name in cfg.tests]
    crits = [limit_law(w, cfg.p).quantile(cfg.alpha)[0] for w in tests]
    want = []
    for weights, crit in zip(tests, crits):
        for taui, tau in enumerate(cfg.tau_grid):
            n, ell = cfg.n_list[0], cfg.rate_exponents[0]
            cell_seed = int(stream(cfg.base_seed, 0, n, ell, taui).integers(0, 2**63 - 1))
            config = RotSymConfig(cfg.p, tau * n ** (-1.0 / ell), f, cell_seed)
            rejects = 0
            for r in range(cfg.replicates):
                rejects += stat_harmonic(sample_rotsym(config, n, r), weights) > crit
            want.append(rejects / cfg.replicates)
    assert [row.reject_freq for row in run_power_experiment(cfg).rows] == want
    assert len(set(want)) > 1


@pytest.mark.parametrize("tests", [("rayleigh", "bingham"), ("3-test", "1,0.5", "rayleigh")])
def test_first_test_rows_equal_the_test_run_alone(tests):
    # stream contract 3 keys a cell's samples as contract 2 keyed its
    # first test's, and every test of the cell reads the same samples
    cfg = tiny_config(tests=tests, n_list=(60, 90), tau_grid=(0.0, 2.0, 5.0))
    together = run_power_experiment(cfg).to_csv().splitlines()
    alone = run_power_experiment(tiny_config(
        tests=tests[:1], n_list=(60, 90), tau_grid=(0.0, 2.0, 5.0))).to_csv().splitlines()
    assert together[:len(alone)] == alone
    assert len(together) == 1 + len(tests) * (len(alone) - 1)


def test_null_size_at_tau_zero():
    # tau = 0 rows are exact null draws; with the seed fixed this is a
    # deterministic check that the frequency sits inside a 3 SE band.
    cfg = tiny_config(tests=("rayleigh",), rate_exponents=(2,),
                      tau_grid=(0.0,), n_list=(100,), replicates=400)
    row = run_power_experiment(cfg).rows[0]
    band = 3.0 * math.sqrt(0.05 * 0.95 / cfg.replicates)
    assert abs(row.reject_freq - 0.05) <= band


def test_power_rises_with_tau():
    cfg = tiny_config(tests=("rayleigh",), rate_exponents=(2,),
                      tau_grid=(0.0, 4.0), n_list=(200,), replicates=200)
    rows = run_power_experiment(cfg).rows
    assert rows[1].reject_freq > rows[0].reject_freq + 0.1
