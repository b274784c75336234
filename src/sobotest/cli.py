"""Command line entry points.

Subcommands: test (single-sample uniformity test from a CSV), simulate
(draw a rotationally symmetric sample), power-curve (full Monte Carlo
experiment from a config file), asymptotic (asymptotic power curve CSV),
classify (detection-threshold report), plot (power table CSV to SVG).

Exit codes: 0 success, 1 usage error, 2 data or validation error (or
not enough memory for the request), 3 numerical error.
"""

import argparse
import sys

from .asymptotics import classify_threshold, limit_law, power_curve_csv
from .harness import (
    _ANGULAR_FUNCTIONS,
    ExperimentConfig,
    PowerTable,
    _split_fields,
    angular_function,
    parse_weights,
    run_power_experiment,
)
from .rotsym import RotSymConfig, load_csv, sample_rotsym, save_csv
from .sobolev import run_test
from .svgplot import emit_svg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sobotest",
        description="Tests of uniformity on the unit hypersphere and their "
                    "power against rotationally symmetric alternatives.")
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("test", help="test a sample CSV for uniformity")
    t.add_argument("sample", help="CSV with header x1,...,xp, one point per row")
    t.add_argument("--weights", default="rayleigh",
                   help="rayleigh, bingham, 3-test, or comma-separated weights")
    t.add_argument("--alpha", type=float, default=0.05)

    s = sub.add_parser("simulate", help="draw a rotationally symmetric sample")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--kappa", type=float, default=0.0)
    s.add_argument("--f", default="vmf", choices=tuple(_ANGULAR_FUNCTIONS))
    s.add_argument("--b", type=int, default=3,
                   help="exponent for the power angular function")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default="-", help="output CSV path, - for stdout")

    pc = sub.add_parser("power-curve",
                        help="run a power experiment from a config file")
    pc.add_argument("config", help="key = value file with an [experiment] section")
    pc.add_argument("--out", default="-", help="output CSV path, - for stdout")

    a = sub.add_parser("asymptotic", help="asymptotic power curve CSV")
    a.add_argument("--weights", required=True)
    a.add_argument("--f", required=True, choices=tuple(_ANGULAR_FUNCTIONS))
    a.add_argument("--b", type=int, default=3)
    a.add_argument("--p", type=int, required=True)
    a.add_argument("--taus", default="0,0.5,1,1.5,2,2.5,3,3.5,4,4.5,5,5.5,6")
    a.add_argument("--alpha", type=float, default=0.05)
    a.add_argument("--order", type=int, default=12,
                   help="derivative order scanned for the detection threshold")
    a.add_argument("--out", default="-")

    c = sub.add_parser("classify", help="detection-threshold report")
    c.add_argument("--weights", required=True)
    c.add_argument("--f", required=True, choices=tuple(_ANGULAR_FUNCTIONS))
    c.add_argument("--b", type=int, default=3)
    c.add_argument("--order", type=int, default=12)

    pl = sub.add_parser("plot", help="render a power table CSV as SVG")
    pl.add_argument("table", help="CSV produced by power-curve")
    pl.add_argument("--out", default="-", help="output SVG path, - for stdout")
    pl.add_argument("--alpha", type=float, default=0.05)
    return parser


def _write_out(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_test(args) -> int:
    sample = load_csv(args.sample)
    weights = parse_weights(args.weights)
    law = limit_law(weights, sample.p)
    result = run_test(sample, weights, args.alpha, law)
    sys.stdout.write(result.to_record())
    return 0


def _cmd_simulate(args) -> int:
    f = angular_function(args.f, args.b)
    config = RotSymConfig(p=args.p, kappa=args.kappa, f=f, seed=args.seed)
    sample = sample_rotsym(config, args.n)
    if args.out == "-":
        save_csv(sample, sys.stdout)
    else:
        save_csv(sample, args.out)
    return 0


def _cmd_power_curve(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    table = run_power_experiment(config)
    _write_out(args.out, table.to_csv())
    return 0


def _cmd_asymptotic(args) -> int:
    weights = parse_weights(args.weights)
    f = angular_function(args.f, args.b)
    taus = [float(v) for v in _split_fields(args.taus, "--taus")]
    text = power_curve_csv(weights, args.p, f, taus, args.alpha, q=args.order)
    _write_out(args.out, text)
    return 0


def _cmd_classify(args) -> int:
    weights = parse_weights(args.weights)
    f = angular_function(args.f, args.b)
    report = classify_threshold(weights, f, args.order)
    print(f"case={report.case}, q={report.q}")
    if report.case != "blind":
        print(f"k_star={report.k_star} k_dagger={report.k_dagger} "
              f"rate={report.rate_string()}")
    return 0


def _cmd_plot(args) -> int:
    with open(args.table, "r", encoding="utf-8") as fh:
        table = PowerTable.from_csv(fh.read())
    svg = emit_svg(table, alpha=args.alpha)
    _write_out(args.out, svg)
    return 0


_COMMANDS = {
    "test": _cmd_test,
    "simulate": _cmd_simulate,
    "power-curve": _cmd_power_curve,
    "asymptotic": _cmd_asymptotic,
    "classify": _cmd_classify,
    "plot": _cmd_plot,
}


def cli(argv) -> int:
    """Run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
