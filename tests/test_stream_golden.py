"""Golden-output gate for the stream contract.

`run_power_experiment` must reproduce the checked-in CSVs under
`tests/golden/` byte for byte, at parallelism 1 and at parallelism 2.
The three configs cover the README experiment at reduced M for a vMF and
a Watson alternative, and a p = 20 multi-term config whose tests mix
degrees 1-3.  Version 2 (the inverse-CDF sampler) added tau = 14 to the
p = 20 config.

Protocol: a fixture changes only together with a bump of
`sobotest.rng.STREAM_VERSION`, and the change that bumps it lists every
moved row in CHANGES.md with the reason it moved.  A change that is
meant to keep the stream contract (a faster sampler, statistic or law
evaluator) must leave these files untouched; if a last-bit difference
flips a decision, that is a stream-contract change and follows the same
protocol.

Regenerate (only under the protocol above):

    PYTHONPATH=src python3 tests/test_stream_golden.py --write
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

from sobotest.harness import ExperimentConfig, run_power_experiment
from sobotest.rng import STREAM_VERSION

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# the version the files in GOLDEN_DIR were generated under
FIXTURE_STREAM_VERSION = 2

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


def _write() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, config in CONFIGS.items():
        path = GOLDEN_DIR / f"{name}.csv"
        path.write_text(run_power_experiment(config).to_csv(), encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python3 tests/test_stream_golden.py --write")
    _write()
