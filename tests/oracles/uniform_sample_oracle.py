"""Uniform samples on the sphere for the tests: the kappa = 0 draw of
`sobotest.rotsym.sample_rotsym`, which every profile gives alike.

Imported by the tests as `from oracles.uniform_sample_oracle import sample_uniform`.
"""

from sobotest.rotsym import RotSymConfig, SphericalSample, sample_rotsym, vmf


def sample_uniform(p: int, n: int, seed: int = 0, replicate: int = 0) -> SphericalSample:
    """n independent uniform draws on the sphere in R^p, from the
    stream keyed by (seed, replicate)."""
    return sample_rotsym(RotSymConfig(p, 0.0, vmf(), seed), n, replicate)
