"""Command line interface: subcommand behaviour and exit codes."""

import xml.etree.ElementTree as ET

import pytest

import sobotest.cli as cli_module
from sobotest.asymptotics import MixtureLaw
from sobotest.cli import cli
from sobotest.harness import PowerTable
from sobotest.rotsym import SphericalSample, sample_uniform, save_csv


def run(capsys, *argv):
    code = cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------- classify

def test_classify_blind(capsys):
    code, out, _ = run(capsys, "classify", "--weights", "rayleigh",
                       "--f", "watson", "--order", "8")
    assert code == 0
    assert out == "case=blind, q=8\n"


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
    # the p = 2 law of 1,0.5,0.25 is a sum of exponentials, whose closed-form
    # tail at this statistic is 8.848314643532757e-63
    sample = tmp_path / "c.csv"
    code, _, _ = run(capsys, "simulate", "--p", "2", "--n", "500", "--kappa", "0.4",
                     "--f", "cauchy", "--seed", "0", "--out", str(sample))
    assert code == 0
    code, out, _ = run(capsys, "test", str(sample), "--weights", "1,0.5,0.25")
    assert code == 0
    record = dict(ln.split("=", 1) for ln in out.splitlines())
    assert float(record["p_value"]) == pytest.approx(8.848314643532757e-63, rel=1e-10, abs=0.0)


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


def test_asymptotic_blind_is_trivial(capsys):
    code, out, _ = run(capsys, "asymptotic", "--weights", "rayleigh",
                       "--f", "watson", "--p", "3", "--taus", "0,1")
    assert code == 0
    assert all(ln.endswith(",trivial") for ln in out.splitlines()[1:])


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

    empty_taus = run(capsys, "asymptotic", "--weights", "rayleigh",
                     "--f", "vmf", "--p", "3", "--taus", ",")
    assert empty_taus[0] == 2


@pytest.mark.parametrize("weights", ["0,,1", ",1", "1,", "1, ,2"])
def test_weight_list_with_an_empty_field_exits_2(tmp_path, capsys, weights):
    # an empty field is malformed text, not a weight to skip
    sample = tmp_path / "s.csv"
    run(capsys, "simulate", "--p", "3", "--n", "50", "--out", str(sample))
    code, out, err = run(capsys, "test", str(sample), "--weights", weights)
    assert code == 2
    assert out == ""
    assert repr(weights) in err


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
