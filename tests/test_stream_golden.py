"""Golden-output gate for the stream contract.

`run_power_experiment` must reproduce the checked-in CSVs under
`tests/golden/` byte for byte, at parallelism 1 and at parallelism 2.
The four configs cover the README experiment at reduced M for a vMF and
a Watson alternative, a p = 20 multi-term config whose tests mix
degrees 1-3, and the three named tests at p = 2, where the harmonics
are Chebyshev polynomials.  Version 2 (the inverse-CDF sampler) added
tau = 14 to the p = 20 config.  Version 3: one sample per cell and
replicate for every test; it added the p = 2 config.  Version 4: the
sampler's cos/sin by angle addition; points move by a few ulp, no golden
row moved.  Version 5: one sampler path for every kappa, kappa = 0
through the inverse-CDF table too, and p - 1 tangent normals per point
at p >= 4; every tau = 0 row and every p = 20 row was redrawn.
Version 6: the degree-3 power sum from the distinct entries of the
third-moment tensor; degree-3 statistics move by rounding, no golden
row moved, only `stat_3` digests of sampler_bits.json.  Version 7: table
cells at most pi/128 wide with shorter angle-addition polynomials, a
4096-step tangent circle at p = 3, one pass for the tangent rows at
p >= 4, samples stored as coordinate rows, and degree 3 from the
traceless third-moment tensor; points and statistics move by rounding
(points within 4 eps), no golden row moved; in sampler_bits.json every
`points` digest and 92 of the 128 `stat_k` fields moved.  Version 8:
the sampler's table starts from 128 equal cells at most pi/128 wide and
keeps the cells its refinement makes, with no later split; points move
by up to 1.7e-7 in sampler_bits.json's configs, no golden row moved; there
every `points` digest and all 128 `stat_k` fields moved.  Version 9: the
degree-2 scatter and the degree-4 Gram by gemm where they are small, and
W's sqrt(2) applied to the squared entries of the results, not to W;
points do not move, statistics of degrees 2-4 move by rounding, no golden
row moved; in sampler_bits.json 25 `stat_2`, 23 `stat_3` and 31 `stat_4`
of the 32 fields each moved, by at most 2.9e-14 relative.  Version 10:
every stream is SFC64 under the same SeedSequence keys (Philox before),
and at p >= 4 the tangent normals fill the (p - 1, n) coordinate rows,
one column per point, where they were drawn point by point; every draw
moves: 119 of 312 rows of readme_vmf_m8, 134 of 312 of readme_watson_m8,
3 of 8 of p20_vmf_multi_m8 and 6 of 18 of p2_vmf_m8, and all 160 fields
of sampler_bits.json.

Protocol: a fixture changes only together with a bump of
`sobotest.rng.STREAM_VERSION`, and the change that bumps it lists every
moved row in CHANGES.md with the reason it moved.  A change that is
meant to keep the stream contract (a faster sampler, statistic or law
evaluator) must leave these files untouched; if a last-bit difference
flips a decision, that is a stream-contract change and follows the same
protocol.

Regenerate (only under the protocol above): bump STREAM_VERSION, run

    PYTHONPATH=src python3 tests/test_stream_golden.py --write

which prints every row it moves as `name: old -> new`, the list that
CHANGES.md takes, and ends with one `name: moved/total rows` line per
file; then set FIXTURE_STREAM_VERSION to the new version.
The writer exits non-zero without writing while STREAM_VERSION equals
FIXTURE_STREAM_VERSION, the version the files were written under.
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

from sobotest.harness import ExperimentConfig, run_power_experiment
from sobotest.rng import STREAM_VERSION

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# the version the files in GOLDEN_DIR were generated under
FIXTURE_STREAM_VERSION = 10

_README_GRID = dict(
    p=3,
    tests=("rayleigh", "bingham", "3-test"),
    n_list=(500, 5000),
    rate_exponents=(2, 4, 6, 12),
    tau_grid=(0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0),
    replicates=8,
    alpha=0.05,
    base_seed=0,
)

CONFIGS = {
    "readme_vmf_m8": ExperimentConfig(f_id="vmf", **_README_GRID),
    "readme_watson_m8": ExperimentConfig(f_id="watson", **_README_GRID),
    # tau = 14 sits where the 3-test's asymptotic power is 0.57, so its
    # decisions are pinned by rejections too, not only by acceptances
    "p20_vmf_multi_m8": ExperimentConfig(
        p=20, f_id="vmf", tests=("3-test", "1,0.5,0.25"), n_list=(500,),
        rate_exponents=(6,), tau_grid=(0.0, 3.0, 6.0, 14.0), replicates=8),
    # tau = 4 puts each test's asymptotic power on its threshold at
    # 0.72 (rayleigh, bingham) and 0.37 (3-test)
    "p2_vmf_m8": ExperimentConfig(
        p=2, f_id="vmf", tests=("rayleigh", "bingham", "3-test"), n_list=(500,),
        rate_exponents=(2, 4, 6), tau_grid=(0.0, 4.0), replicates=8),
}


def _fixture(name: str) -> str:
    return (GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8")


def test_fixture_matches_stream_version():
    assert STREAM_VERSION == FIXTURE_STREAM_VERSION, (
        "STREAM_VERSION moved: regenerate tests/golden/ and list every "
        "moved row in CHANGES.md")


@pytest.mark.parametrize("parallelism", [1, 2])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_experiment_reproduces_golden_csv(name, parallelism):
    config = replace(CONFIGS[name], parallelism=parallelism)
    assert run_power_experiment(config).to_csv() == _fixture(name)


def _rows(text: str) -> dict:
    """CSV rows keyed by their (test, n, ell, tau) cell."""
    return {line.rsplit(",", 4)[0]: line for line in text.splitlines()[1:]}


def _write() -> None:
    if STREAM_VERSION == FIXTURE_STREAM_VERSION:
        sys.exit(f"STREAM_VERSION {STREAM_VERSION} is the version of the fixtures: "
                 "bump it before regenerating them")
    GOLDEN_DIR.mkdir(exist_ok=True)
    counts = {}
    for name, config in CONFIGS.items():
        path = GOLDEN_DIR / f"{name}.csv"
        old = _rows(path.read_text(encoding="utf-8")) if path.exists() else {}
        text = run_power_experiment(config).to_csv()
        path.write_text(text, encoding="utf-8")
        new = _rows(text)
        moved = [cell for cell in old | new if old.get(cell) != new.get(cell)]
        for cell in moved:
            print(f"{name}: {old.get(cell)} -> {new.get(cell)}")
        print(f"wrote {path}")
        counts[name] = (len(moved), len(old | new))
    for name, (moved, total) in counts.items():
        print(f"{name}: moved/total rows {moved}/{total}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python3 tests/test_stream_golden.py --write")
    _write()
