"""Sobolev tests of uniformity on the unit hypersphere.

Statistics, their asymptotic laws under rotationally symmetric local
alternatives, samplers, and a Monte Carlo power harness with CSV and
SVG output.
"""

from .asymptotics import (
    AsymptoticPower,
    MixtureLaw,
    ThresholdReport,
    classify_threshold,
    expansion_coeffs,
    gegenbauer_expectation_coeffs,
    limit_law,
    noncentrality_delayed,
    noncentrality_standard,
    power_curve,
    power_curve_csv,
)
from .harmonics import addition_kernel, basis_matrix
from .harness import (
    ExperimentConfig,
    PowerRow,
    PowerTable,
    angular_function,
    parse_weights,
    run_power_experiment,
)
from .rotsym import (
    AngularFunction,
    RotSymConfig,
    SphericalSample,
    cauchy,
    custom,
    load_csv,
    power,
    sample_rotsym,
    save_csv,
    vmf,
    watson,
)
from .sobolev import (
    TestResult,
    WeightSequence,
    run_test,
    stat_harmonic,
    stat_kernel,
)
from .specfun import (
    gegenbauer_eval,
    harmonic_dim,
    null_moment,
    surface_constant,
    t_factor,
)
from .svgplot import emit_svg

__version__ = "0.1.0"

__all__ = [
    "AngularFunction",
    "AsymptoticPower",
    "ExperimentConfig",
    "MixtureLaw",
    "PowerRow",
    "PowerTable",
    "RotSymConfig",
    "SphericalSample",
    "TestResult",
    "ThresholdReport",
    "WeightSequence",
    "addition_kernel",
    "angular_function",
    "basis_matrix",
    "cauchy",
    "classify_threshold",
    "custom",
    "emit_svg",
    "expansion_coeffs",
    "gegenbauer_eval",
    "gegenbauer_expectation_coeffs",
    "harmonic_dim",
    "limit_law",
    "load_csv",
    "noncentrality_delayed",
    "noncentrality_standard",
    "null_moment",
    "parse_weights",
    "power",
    "power_curve",
    "power_curve_csv",
    "run_power_experiment",
    "run_test",
    "sample_rotsym",
    "save_csv",
    "stat_harmonic",
    "stat_kernel",
    "surface_constant",
    "t_factor",
    "vmf",
    "watson",
    "__version__",
]
