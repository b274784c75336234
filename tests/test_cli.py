"""Command line interface: subcommand behaviour and exit codes."""

import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import sobotest.cli as cli_module
from oracles.chi2_series_oracle import exponential_sum_sf
from oracles.uniform_sample_oracle import sample_uniform
from sobotest.asymptotics import MixtureLaw
from sobotest.cli import cli
from sobotest.harness import PowerTable, parse_weights
from sobotest.rotsym import SphericalSample, load_csv, save_csv
from sobotest.sobolev import stat_harmonic

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------- classify

def test_classify_blind(capsys):
    # f^(k)(0) = k!/(k/2)! is past the largest double from k = 300 on
    for order in ("8", "400"):
        code, out, _ = run(capsys, "classify", "--weights", "rayleigh",
                           "--f", "watson", "--order", order)
        assert code == 0
        assert out == f"case=blind, q={order}\n"


def test_classify_delayed(capsys):
    code, out, _ = run(capsys, "classify", "--weights", "bingham",
                       "--f", "power", "--b", "3", "--order", "12")
    assert code == 0
    assert out.splitlines() == [
        "case=delayed, q=12",
        "k_star=6 k_dagger=2 rate=n^(-1/12)",
    ]


def test_classify_standard(capsys):
    code, out, _ = run(capsys, "classify", "--weights", "rayleigh",
                       "--f", "vmf", "--order", "4")
    assert code == 0
    assert out.splitlines() == [
        "case=standard, q=4",
        "k_star=1 k_dagger=1 rate=n^(-1/2)",
    ]


# ------------------------------------------------------- simulate and test

def test_simulate_then_test(tmp_path, capsys):
    sample = tmp_path / "sample.csv"
    code, out, _ = run(capsys, "simulate", "--p", "3", "--n", "500",
                       "--kappa", "1.0", "--f", "vmf", "--seed", "5",
                       "--out", str(sample))
    assert code == 0
    assert out == ""
    lines = sample.read_text().splitlines()
    assert lines[0] == "x1,x2,x3"
    assert len(lines) == 501

    code, out, _ = run(capsys, "test", str(sample))
    assert code == 0
    record = dict(ln.split("=", 1) for ln in out.splitlines())
    assert record["test"] == "rayleigh"
    assert record["p"] == "3"
    assert record["n"] == "500"
    assert record["reject"] == "true"


def test_simulate_to_stdout(capsys):
    code, out, _ = run(capsys, "simulate", "--p", "2", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x1,x2"
    assert len(lines) == 4


def test_test_alpha_and_weights(tmp_path, capsys):
    sample = tmp_path / "u.csv"
    run(capsys, "simulate", "--p", "3", "--n", "50", "--seed", "1",
        "--out", str(sample))
    code, out, _ = run(capsys, "test", str(sample),
                       "--weights", "1,0.5", "--alpha", "0.01")
    assert code == 0
    record = dict(ln.split("=", 1) for ln in out.splitlines())
    assert record["test"] == "weights(1 0.5)"
    assert record["alpha"] == "0.01"
    assert record["reject"] in ("true", "false")


def test_multi_term_p_value_in_the_deep_tail(tmp_path, capsys):
    # the p = 2 law of 1,0.5,0.25 is a sum of exponentials: the p-value is
    # its closed-form tail at the statistic of the simulated sample (near 1e-62)
    sample = tmp_path / "c.csv"
    code, _, _ = run(capsys, "simulate", "--p", "2", "--n", "500", "--kappa", "0.4",
                     "--f", "cauchy", "--seed", "0", "--out", str(sample))
    assert code == 0
    code, out, _ = run(capsys, "test", str(sample), "--weights", "1,0.5,0.25")
    assert code == 0
    record = dict(ln.split("=", 1) for ln in out.splitlines())
    stat = stat_harmonic(load_csv(sample), parse_weights("1,0.5,0.25"))
    want = exponential_sum_sf(stat, (1.0, 0.25, 0.0625))
    assert want < 1e-50
    assert float(record["p_value"]) == pytest.approx(want, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("weight", ["1e-60", "1e150", "1e-150"])
def test_one_weight_at_any_scale_has_the_p_value_of_weight_1(tmp_path, capsys, weight):
    # a common factor on the weights scales the statistic and the critical
    # value together and changes no p-value
    sample = tmp_path / "v.csv"
    run(capsys, "simulate", "--p", "3", "--n", "200", "--kappa", "0.2", "--seed", "3",
        "--out", str(sample))
    records = []
    for w in ("1", weight):
        code, out, _ = run(capsys, "test", str(sample), "--weights", w)
        assert code == 0
        records.append(dict(ln.split("=", 1) for ln in out.splitlines()))
    unit, scaled = records
    v2 = float(weight) ** 2
    for key in ("statistic", "critical_value"):
        assert float(scaled[key]) == pytest.approx(v2 * float(unit[key]), rel=1e-9)
    assert float(scaled["p_value"]) == pytest.approx(float(unit["p_value"]), rel=1e-11)
    assert scaled["reject"] == unit["reject"]


@pytest.mark.parametrize("weight, code, message", [
    ("1e154", 3, "statistic inf is not finite"),
    ("1e-160", 2, "weight 1e-160 must be 0"),
    ("3e-162", 2, "weight 3e-162 must be 0")])
def test_weight_outside_the_double_range_is_an_error(tmp_path, capsys, weight, code, message):
    # 1e154 squared overflows the statistic; the squares of 1e-160 and
    # 3e-162 fall below the normal doubles, where they lose digits
    sample = tmp_path / "v.csv"
    run(capsys, "simulate", "--p", "3", "--n", "200", "--kappa", "0.2", "--seed", "3",
        "--out", str(sample))
    got, out, err = run(capsys, "test", str(sample), "--weights", weight)
    assert (got, out) == (code, "")
    assert message in err


# ------------------------------------------------- power-curve, asymptotic

def test_power_curve_from_config(tmp_path, capsys):
    cfgfile = tmp_path / "exp.ini"
    cfgfile.write_text(
        "[experiment]\n"
        "p = 3\n"
        "f = vmf\n"
        "tests = rayleigh\n"
        "n_list = 50\n"
        "rate_exponents = 2\n"
        "tau_grid = 0, 2\n"
        "replicates = 20\n",
        encoding="utf-8")
    out_csv = tmp_path / "table.csv"
    code, out, _ = run(capsys, "power-curve", str(cfgfile),
                       "--out", str(out_csv))
    assert code == 0
    table = PowerTable.from_csv(out_csv.read_text())
    assert len(table.rows) == 2
    assert table.rows[0].test == "rayleigh"


def test_asymptotic_curve(capsys):
    code, out, _ = run(capsys, "asymptotic", "--weights", "rayleigh",
                       "--f", "vmf", "--p", "3", "--taus", "0,2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "tau,power,se,flag"
    assert len(lines) == 3
    assert lines[1].endswith(",ok")


def test_asymptotic_far_out_is_power_one_or_exit_3(capsys):
    # nc = tau^2 / 3: at 3.3e119 the critical value lies too far below the
    # mean for the saddlepoint search, and a Chernoff bound gives power 1;
    # 3.3e399 is past the largest double
    for tau in ("1e40", "1e60"):
        code, out, _ = run(capsys, "asymptotic", "--weights", "rayleigh",
                           "--f", "vmf", "--p", "3", "--taus", f"0,{tau}")
        assert code == 0
        assert out.splitlines()[2].split(",")[1:] == ["1", "0", "ok"]
    code, out, err = run(capsys, "asymptotic", "--weights", "rayleigh",
                         "--f", "vmf", "--p", "3", "--taus", "0,1e200")
    assert (code, out) == (3, "")
    assert err == ("numerical error: noncentrality at tau=1e+200, k=1, k_star=1: "
                   "closed forms give inf and inf, not one finite value\n")


def test_asymptotic_blind_is_trivial(capsys):
    for order in ("12", "400"):
        code, out, _ = run(capsys, "asymptotic", "--weights", "rayleigh",
                           "--f", "watson", "--p", "3", "--taus", "0,1",
                           "--order", order)
        assert code == 0
        assert out.splitlines()[1:] == ["0,0.05,0,trivial", "1,0.05,0,trivial"]


def test_multi_term_commands_draw_nothing(tmp_path, capsys, monkeypatch):
    def no_sample(*args, **kwargs):
        raise AssertionError("a command drew a Monte Carlo law sample")

    monkeypatch.setattr(MixtureLaw, "sample", no_sample)
    sample = tmp_path / "s.csv"
    run(capsys, "simulate", "--p", "3", "--n", "300", "--kappa", "0.5",
        "--f", "vmf", "--seed", "2", "--out", str(sample))
    cfgfile = tmp_path / "exp.ini"
    cfgfile.write_text(
        "[experiment]\np = 3\nf = vmf\ntests = 1,0.5\nn_list = 50\n"
        "rate_exponents = 2\ntau_grid = 0, 2\nreplicates = 5\n", encoding="utf-8")
    for argv in (("test", str(sample), "--weights", "1,0.5"),
                 ("asymptotic", "--weights", "1,0.5,0.25", "--f", "vmf",
                  "--p", "3", "--taus", "0,1,2"),
                 ("power-curve", str(cfgfile))):
        first = run(capsys, *argv)
        assert first[0] == 0, first
        assert run(capsys, *argv) == first


# ------------------------------------------------------------------- plot

def test_plot_round_trip(tmp_path, capsys):
    table_csv = tmp_path / "table.csv"
    table_csv.write_text(
        "test,n,ell,tau,reject_freq,mc_se,asym_power,trivial\n"
        "rayleigh,500,2,0,0.05,0.004873,0.05,false\n"
        "rayleigh,500,2,2,0.14,0.007758,0.1402363953,false\n",
        encoding="utf-8")
    out_svg = tmp_path / "fig.svg"
    code, _, _ = run(capsys, "plot", str(table_csv), "--out", str(out_svg))
    assert code == 0
    root = ET.fromstring(out_svg.read_text())
    assert root.tag.endswith("svg")


def test_plot_to_stdout(tmp_path, capsys):
    table_csv = tmp_path / "table.csv"
    table_csv.write_text(
        "test,n,ell,tau,reject_freq,mc_se,asym_power,trivial\n"
        "bingham,500,4,1,0.2,0.008944,,true\n",
        encoding="utf-8")
    code, out, _ = run(capsys, "plot", str(table_csv))
    assert code == 0
    assert out.startswith('<?xml version="1.0"')


def solid_polylines(svg_text):
    root = ET.fromstring(svg_text)
    return [p for p in root.iter("{http://www.w3.org/2000/svg}polyline")
            if p.get("stroke-dasharray") is None]


def test_power_curve_then_plot_with_two_sample_sizes(tmp_path, capsys):
    # the README flow: every sample size carries the asymptotic curve of
    # the threshold cell, so each tau of that curve appears twice
    config = tmp_path / "exp.ini"
    config.write_text(
        "[experiment]\np = 3\nf = vmf\ntests = rayleigh\nn_list = 20, 40\n"
        "rate_exponents = 2\ntau_grid = 0, 1\nreplicates = 4\n", encoding="utf-8")
    table_csv = tmp_path / "table.csv"
    out_svg = tmp_path / "fig.svg"
    assert run(capsys, "power-curve", str(config), "--out", str(table_csv))[0] == 0
    assert run(capsys, "plot", str(table_csv), "--out", str(out_svg))[0] == 0
    assert len(solid_polylines(out_svg.read_text(encoding="utf-8"))) == 1


def test_plot_readme_golden_table(capsys):
    code, out, _ = run(capsys, "plot", str(GOLDEN_DIR / "readme_vmf_m8.csv"))
    assert code == 0
    # rayleigh at ell = 2, bingham at 4 and the 3-test at 6
    assert len(solid_polylines(out)) == 3


# ------------------------------------------------------------- exit codes

def test_usage_errors_exit_1(capsys):
    assert cli(["test", "--no-such-flag", "x.csv"]) == 1
    assert cli(["no-such-command"]) == 1
    assert cli([]) == 1
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert cli(["--help"]) == 0
    assert cli(["simulate", "--help"]) == 0
    capsys.readouterr()


def test_data_errors_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, "test", str(tmp_path / "missing.csv"))
    assert code == 2
    assert "error" in err

    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,sample\n1,2,3\n", encoding="utf-8")
    code, _, err = run(capsys, "test", str(bad))
    assert code == 2

    good = tmp_path / "good.csv"
    run(capsys, "simulate", "--p", "3", "--n", "10", "--out", str(good))
    code, _, err = run(capsys, "test", str(good), "--weights", "raileigh")
    assert code == 2
    assert "raileigh" in err

    code, _, _ = run(capsys, "power-curve", str(tmp_path / "missing.ini"))
    assert code == 2

    typo = tmp_path / "typo.ini"
    typo.write_text("[experiment]\np = 3\nf = vmf\nreplicate = 10\n", encoding="utf-8")
    code, out, err = run(capsys, "power-curve", str(typo))
    assert code == 2
    assert "replicate" in err and out == ""

    # one cell, one row: a tau given twice is a data error, not a second row
    twice = tmp_path / "twice.ini"
    twice.write_text("[experiment]\np = 3\nf = vmf\ntests = rayleigh\nn_list = 200\n"
                     "tau_grid = 2, 2\nreplicates = 40\n", encoding="utf-8")
    code, out, err = run(capsys, "power-curve", str(twice))
    assert code == 2
    assert "tau must appear once" in err and out == ""

    empty_taus = run(capsys, "asymptotic", "--weights", "rayleigh",
                     "--f", "vmf", "--p", "3", "--taus", ",")
    assert empty_taus[0] == 2


@pytest.mark.parametrize("argv, message", [
    (("classify", "--weights", "rayleigh", "--f", "vmf", "--order", "0"),
     "search horizon must be >= 1, got 0"),
    (("simulate", "--p", "3", "--n", "0"), "n must be >= 1, got 0"),
    (("test", "{narrow}"), "row width does not match the header"),
    # a blind curve reads p nowhere else
    (("asymptotic", "--weights", "rayleigh", "--f", "watson", "--p", "1"), "p must be >= 2, got 1"),
], ids=["classify-order", "simulate-n", "test-narrow-rows", "asymptotic-blind-p"])
def test_argument_out_of_range_exits_2(tmp_path, capsys, argv, message):
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("x1,x2,x3\n0.6,0.8\n1,0\n", encoding="utf-8")
    code, out, err = run(capsys, *(arg.format(narrow=narrow) for arg in argv))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("weights", ["0,,1", ",1", "1,", "1, ,2"])
def test_weight_list_with_an_empty_field_exits_2(tmp_path, capsys, weights):
    # an empty field is malformed text, not a weight to skip
    sample = tmp_path / "s.csv"
    run(capsys, "simulate", "--p", "3", "--n", "50", "--out", str(sample))
    code, out, err = run(capsys, "test", str(sample), "--weights", weights)
    assert code == 2
    assert out == ""
    assert repr(weights) in err


@pytest.mark.parametrize("key,value", [
    ("--taus", "0,,1"), ("tau_grid", "0,,2"), ("n_list", "20,,30"),
    ("tests", "rayleigh;;bingham"),
])
def test_list_with_an_empty_field_exits_2(tmp_path, capsys, key, value):
    # as in a weight list, an empty field is an error, not a value to skip
    if key == "--taus":
        argv = ("asymptotic", "--weights", "rayleigh", "--f", "vmf", "--p", "3", key, value)
    else:
        config = tmp_path / "exp.ini"
        config.write_text(f"[experiment]\np = 3\nf = vmf\nreplicates = 5\n{key} = {value}\n",
                          encoding="utf-8")
        argv = ("power-curve", str(config))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert key in err and repr(value) in err


@pytest.mark.parametrize("asym,flag", [("0.5", "true"), ("", "false")])
def test_plot_rejects_a_trivial_flag_that_disagrees_with_asym_power(
        tmp_path, capsys, asym, flag):
    # a row is trivial exactly when its asymptotic power cell is empty
    table_csv = tmp_path / "table.csv"
    table_csv.write_text(
        "test,n,ell,tau,reject_freq,mc_se,asym_power,trivial\n"
        f"rayleigh,500,2,0,0.05,0.004873,{asym},{flag}\n",
        encoding="utf-8")
    code, out, err = run(capsys, "plot", str(table_csv))
    assert code == 2
    assert out == ""
    assert "malformed trivial flag" in err


def test_plot_rejects_a_non_finite_tau(tmp_path, capsys):
    table_csv = tmp_path / "table.csv"
    table_csv.write_text(
        "test,n,ell,tau,reject_freq,mc_se,asym_power,trivial\n"
        "rayleigh,500,2,nan,0.5,0.01,0.6,false\n",
        encoding="utf-8")
    code, out, err = run(capsys, "plot", str(table_csv), "--out", str(tmp_path / "fig.svg"))
    assert (code, out) == (2, "")
    assert "tau and mc_se must be finite and >= 0, got nan and 0.01" in err
    assert not (tmp_path / "fig.svg").exists()


@pytest.mark.parametrize("weights", ["nan", "inf", "1e200", "1e-200"])
def test_weights_without_a_usable_square_exit_2(tmp_path, capsys, weights):
    # NaN, an infinity, a square that overflows and one that underflows
    # to 0 are data errors that name the weight
    sample = tmp_path / "s.csv"
    run(capsys, "simulate", "--p", "3", "--n", "50", "--out", str(sample))
    code, out, err = run(capsys, "test", str(sample), "--weights", weights)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert repr(float(weights)) in lines[0]


def test_norm_tolerance_exit_codes(tmp_path, capsys):
    # norms within the sample's 1e-8 contract pass on both statistic
    # routes (degree 1 from power sums, degree 5 from the basis); beyond
    # it the sample is a data error
    points = sample_uniform(3, 60, seed=4).points.copy()
    for scale, want in ((1.0 + 5e-9, 0), (1.0 + 2e-8, 2)):
        off = points.copy()
        off[0] *= scale
        path = tmp_path / f"off{want}.csv"
        save_csv(SphericalSample(off), path)
        for weights in ("rayleigh", "0,0,0,0,1"):
            code, _, _ = run(capsys, "test", str(path), "--weights", weights)
            assert code == want


def test_nan_point_is_a_data_error(tmp_path, capsys):
    # a NaN coordinate gives a NaN norm, which is not within 1e-8 of 1
    path = tmp_path / "nan.csv"
    path.write_text("x1,x2,x3\nnan,0,1\n0,0,1\n", encoding="utf-8")
    code, out, err = run(capsys, "test", str(path))
    assert (code, out) == (2, "")
    assert err == "error: all points must have unit norm (tolerance 1e-8)\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_kappa_and_tau_exit_2(tmp_path, capsys, value):
    # each is a data error that names the value
    code, out, err = run(capsys, "simulate", "--p", "3", "--n", "5", "--kappa", value)
    assert (code, out, err) == (2, "", f"error: kappa must be finite and >= 0, got {value}\n")
    config = tmp_path / "taus.ini"
    config.write_text(f"[experiment]\np = 3\nf = vmf\ntau_grid = 0, {value}\n",
                      encoding="utf-8")
    code, out, err = run(capsys, "power-curve", str(config))
    assert (code, out) == (2, "")
    assert err == f"error: tau grid must be finite and >= 0, got (0.0, {value})\n"
    code, out, err = run(capsys, "asymptotic", "--weights", "rayleigh", "--f", "vmf",
                         "--p", "3", "--taus", f"1,{value}")
    assert (code, out, err) == (2, "", f"error: tau must be finite and >= 0, got {value}\n")


DEGREE_31 = ",".join(["0"] * 30 + ["1"])
DEGREE_601 = ",".join(["0"] * 600 + ["1"])


@pytest.mark.parametrize("argv,want", [
    (("asymptotic", "--weights", DEGREE_31, "--f", "vmf", "--p", "3", "--order", "40"), 0),
    (("classify", "--weights", DEGREE_601, "--f", "vmf", "--order", "700"), 0),
    (("test", "{sample}", "--weights", "rayleigh"), 0),
    # tau^2 / p is past the largest double
    (("asymptotic", "--weights", "rayleigh", "--f", "vmf", "--p", "3", "--taus", "1e200"), 3),
    # f^(3)(0)^2 tau^6 is past it, the noncentrality 3 tau^6 / 25 = 7.7e306 is not
    (("asymptotic", "--weights", "rayleigh", "--f", "power", "--b", "3", "--p", "3",
      "--taus", "2e51", "--order", "4"), 0),
], ids=["asymptotic-degree-31", "classify-degree-601", "test", "asymptotic-overflow",
        "asymptotic-past-float-product"])
def test_exit_code_contract(tmp_path, capsys, argv, want):
    # 0 success, 1 usage, 2 data, 3 numerical; never a traceback
    sample = tmp_path / "s.csv"
    run(capsys, "simulate", "--p", "3", "--n", "50", "--out", str(sample))
    code, out, err = run(capsys, *(arg.format(sample=sample) for arg in argv))
    assert code == want, err
    assert "Traceback" not in err
    assert bool(out) == (want == 0) and bool(err) == (want != 0)


def test_numerical_errors_exit_3(tmp_path, capsys, monkeypatch):
    sample = tmp_path / "s.csv"
    run(capsys, "simulate", "--p", "3", "--n", "10", "--out", str(sample))

    def blow_up(*args, **kwargs):
        raise ArithmeticError("series failed to converge")

    monkeypatch.setattr(cli_module, "run_test", blow_up)
    code, _, err = run(capsys, "test", str(sample))
    assert code == 3
    assert "numerical error" in err


def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    # a request too large for memory, e.g. a degree-13 weight on a p = 20
    # sample (d_{20,13} ~ 3e8 basis columns), is a data error, not a
    # traceback with the usage code
    sample = tmp_path / "s.csv"
    run(capsys, "simulate", "--p", "3", "--n", "10", "--out", str(sample))

    for message, want in (("Unable to allocate 2.13 TiB", "error: out of memory: Unable to allocate 2.13 TiB"),
                          ("", "error: out of memory")):
        def exhaust(*args, message=message, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli_module, "run_test", exhaust)
        code, out, err = run(capsys, "test", str(sample))
        assert code == 2
        assert out == "" and err.strip() == want
