"""Bit-identity gate of the sampler and the harmonic statistic.

The golden experiment CSVs pin only the decisions of each replicate.
`tests/golden/sampler_bits.json` pins the bits under them: for every
sampler config below and every (seed, replicate), the sha256 of the
points of `sample_rotsym` (after `+ 0.0`, which folds -0.0 into 0.0)
and `float.hex` of `stat_harmonic` at degrees 1-4 on that sample.  The
file records the `sobotest.rng.STREAM_VERSION` it was written under, and
like the CSVs it changes only with a bump of that version (protocol in
tests/test_stream_golden.py): a change that moves a point by one ulp
moves its digest, even when no decision moves.  It is written by

    PYTHONPATH=src python3 tests/test_sampler_bits.py --write

which prints every field it moves as `label.field: old -> new`, the list
that CHANGES.md takes, and ends with the count of moved fields per kind.
It exits non-zero without writing while STREAM_VERSION equals the
version the file records.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from sobotest.rng import STREAM_VERSION
from sobotest.rotsym import RotSymConfig, cauchy, sample_rotsym, vmf, watson
from sobotest.sobolev import WeightSequence, stat_harmonic

GOLDEN = Path(__file__).resolve().parent / "golden" / "sampler_bits.json"
# (p, profile, kappa): every tangent-direction branch (p = 2, 3, >= 4) and kappa = 0
CONFIGS = [(2, "vmf", 0.8), (3, "vmf", 0.0424), (3, "watson", 1.967), (3, "vmf", 0.0),
           (4, "cauchy", 0.4), (10, "vmf", 0.0), (20, "vmf", 0.134), (30, "vmf", 1.69)]
SEEDS, REPLICATES, N = (1, 97), (0, 4), 500
PROFILES = {"vmf": vmf, "watson": watson, "cauchy": cauchy}


def _label(p, name, kappa, seed, replicate):
    return f"p{p}_{name}_{kappa!r}_s{seed}_r{replicate}"


def _digests(p, name, kappa):
    """{label: {"points": sha256, "stat_k": hex}} over the seeds and replicates."""
    out = {}
    for seed in SEEDS:
        config = RotSymConfig(p=p, kappa=kappa, f=PROFILES[name](), seed=seed)
        for replicate in REPLICATES:
            sample = sample_rotsym(config, N, replicate=replicate)
            entry = {"points": hashlib.sha256((sample.points + 0.0).tobytes()).hexdigest()}
            for k in range(1, 5):
                entry[f"stat_{k}"] = float.hex(stat_harmonic(sample, WeightSequence.delta(k)))
            out[_label(p, name, kappa, seed, replicate)] = entry
    return out


def test_fixture_matches_stream_version():
    assert json.loads(GOLDEN.read_text())["stream_version"] == STREAM_VERSION, (
        "STREAM_VERSION moved: regenerate tests/golden/sampler_bits.json")


@pytest.mark.parametrize("p,name,kappa", CONFIGS)
def test_sampler_and_statistic_bits(p, name, kappa):
    golden = json.loads(GOLDEN.read_text())["digests"]
    assert _digests(p, name, kappa) == {
        key: value for key, value in golden.items() if key.startswith(f"p{p}_{name}_{kappa!r}_")}


def _write() -> None:
    recorded = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if recorded.get("stream_version") == STREAM_VERSION:
        sys.exit(f"STREAM_VERSION {STREAM_VERSION} is the version of {GOLDEN.name}: "
                 "bump it before regenerating the file")
    old = recorded.get("digests", {})
    table = {}
    for cfg in CONFIGS:
        table.update(_digests(*cfg))
    GOLDEN.write_text(json.dumps({"stream_version": STREAM_VERSION, "digests": table},
                                 indent=1, sort_keys=True) + "\n")
    moved = dict.fromkeys(["points"] + [f"stat_{k}" for k in range(1, 5)], 0)
    for label in sorted(old | table):
        before, after = old.get(label, {}), table.get(label, {})
        for field in sorted(before | after):
            if before.get(field) != after.get(field):
                print(f"{label}.{field}: {before.get(field)} -> {after.get(field)}")
                moved[field] += 1
    print(f"wrote {GOLDEN}")
    print("moved: " + ", ".join(f"{field} {count}" for field, count in moved.items()))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python3 tests/test_sampler_bits.py --write")
    _write()
