"""Rotationally symmetric distributions on the sphere: angular functions,
normalizing constants, exact-moment references, and tangent-normal
samplers.

A draw is cos(phi) theta + sin(phi) xi, xi uniform on the subsphere
orthogonal to theta, phi with log-density log f(kappa cos phi) + (p - 2)
log sin phi on [0, pi].  `RotSymConfig` builds the inverse CDF of phi once,
a linear density per cell within 1e-8 of the total mass; a replicate
inverts n uniforms through a guide table with no rejection loop."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import rng
from .specfun import gauss_jacobi_rule, gegenbauer_eval, surface_constant

__all__ = [
    "AngularFunction", "vmf", "watson", "power", "cauchy", "custom", "RotSymConfig",
    "SphericalSample", "normalizing_constant", "t_moment_oracle", "sample_uniform",
    "sample_rotsym", "save_csv", "load_csv",
]

_NORM_TOL = 1e-8
# inverse-CDF table: error bound relative to the total mass, and size limits
_TABLE_TOL, _TABLE_MAX_CELLS, _TABLE_MAX_LEVELS = 1e-8, 1 << 16, 120
# integrals to 1/4, 1/2, 3/4, 1 of the quartic through a unit cell's _NODES (Boole's last)
_NODES = np.linspace(0.0, 1.0, 5)
_PARTIALS = np.array([[251, 232, 243, 224], [646, 992, 918, 1024], [-264, 192, 648, 384],
                      [106, 32, 378, 1024], [-19, -8, -27, 224]]) / 2880.0


@dataclass(frozen=True)
class AngularFunction:
    """Scalar profile s |-> f(s) with f(0) = 1, applied to kappa * u'theta.

    deriv0(k) returns the exact k-th derivative at 0; max_order bounds the
    orders available (None = all); log_fn = log f (None: the log of fn)."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    deriv0: Callable[[int], float]
    max_order: Optional[int] = None
    log_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, s):
        return self.fn(np.asarray(s, dtype=float))

    def log(self, s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return self.log_fn(s) if self.log_fn is not None else np.log(self.fn(s))

    def derivative_at_zero(self, k: int) -> float:
        if k < 0:
            raise ValueError(f"derivative order must be >= 0, got {k}")
        if self.max_order is not None and k > self.max_order:
            raise ValueError(
                f"angular function '{self.name}' provides derivatives only "
                f"up to order {self.max_order}, requested {k}")
        return float(self.deriv0(k))


def vmf() -> AngularFunction:
    """Exponential profile; every derivative at 0 equals 1."""
    return AngularFunction("vmf", np.exp, lambda k: 1.0, log_fn=lambda s: s)


def _power_deriv0(b: int):
    return lambda k: 0.0 if k % b else float(math.factorial(k) // math.factorial(k // b))


def power(b: int) -> AngularFunction:
    """Profile exp(s^b) for integer b >= 1; f^(k)(0) = k!/(k/b)! when b
    divides k, else 0."""
    if b < 1 or int(b) != b:
        raise ValueError(f"exponent b must be a positive integer, got {b}")
    b = int(b)
    name = "vmf" if b == 1 else ("watson" if b == 2 else f"power_{b}")
    return AngularFunction(name, lambda s: np.exp(s**b), _power_deriv0(b),
                           log_fn=lambda s: s**b)


def watson() -> AngularFunction:
    """Profile exp(s^2), the axial special case of power(2)."""
    return power(2)


def cauchy() -> AngularFunction:
    """Profile 1/(1 + 2s); requires kappa < 1/2 for positivity on [-1, 1].
    f^(k)(0) = (-2)^k k!."""
    return AngularFunction("cauchy", lambda s: 1.0 / (1.0 + 2.0 * s),
                           lambda k: float((-2) ** k * math.factorial(k)),
                           log_fn=lambda s: -np.log1p(2.0 * s))


def custom(fn, derivs, name: str = "custom") -> AngularFunction:
    """User-supplied profile with explicit derivatives at zero
    (derivs[k] = f^(k)(0), starting at order 0); its log is the log of fn."""
    derivs = [float(v) for v in derivs]
    if not derivs or abs(derivs[0] - 1.0) > 1e-12:
        raise ValueError("custom angular functions must satisfy f(0) = 1")
    if abs(float(fn(np.asarray(0.0))) - 1.0) > 1e-12:
        raise ValueError("fn(0) must equal 1")
    return AngularFunction(
        name, lambda s: np.asarray(fn(s), dtype=float),
        lambda k: derivs[k], max_order=len(derivs) - 1)


def _cell_masses(logs, width, shift):
    """Cell masses up to the quarter points, and edge densities, over exp(shift)."""
    vals = np.exp(logs - shift)
    return (vals @ _PARTIALS) * width[:, None], vals[:, 0], vals[:, 4]


class _InverseCDF:
    """Inverse CDF of phi = arccos(u'theta) over cells [left, left + width]:
    the CDF at the edges, a density 1 - tilt + 2 tilt y on each unit cell,
    and a guide table: the last edge at or below each of 2^k steps in u."""

    def __init__(self, p: int, kappa: float, f: AngularFunction):
        # positivity probe: f(kappa s) > 0, with a finite log, on [-1, 1]
        if not np.all(np.isfinite(f.log(kappa * np.linspace(-1.0, 1.0, 2049)))):
            raise ValueError(f"log f(kappa*s) must be finite on [-1, 1]; "
                             f"'{f.name}' with kappa={kappa} is not")

        def log_density(phi):
            out = f.log(kappa * np.cos(phi))
            if p > 2:
                with np.errstate(divide="ignore"):  # sin of the distance to the nearer pole
                    out = out + (p - 2) * np.log(np.sin(np.minimum(phi, math.pi - phi)))
            return out

        # 32 equal cells graded down to 1e-15 at both poles: a peak there is seen however narrow
        grade = math.pi / 32 * 0.5 ** np.arange(1, 48)
        edges = np.unique(np.concatenate([np.linspace(0.0, math.pi, 33), grade, math.pi - grade]))
        left, width = edges[:-1], np.diff(edges)
        done, shift, z_done = [], -np.inf, 0.0
        for _ in range(_TABLE_MAX_LEVELS):
            logs = log_density(left[:, None] + width[:, None] * _NODES)
            z_done *= math.exp(shift - max(shift, logs.max())) if z_done else 0.0
            shift = max(shift, logs.max())
            partial, fa, fb = _cell_masses(logs, width, shift)
            x = _NODES[1:]
            linear = width[:, None] * x * (fa[:, None] + (fb - fa)[:, None] * x / 2.0)
            err = np.abs(linear - partial).max(axis=1)
            err /= _TABLE_TOL * (z_done + partial[:, -1].sum())
            split = err > 1.0
            done.append((left[~split], width[~split], logs[~split]))
            z_done += partial[~split, -1].sum()
            # the error falls as width^3: cut a cell into as many pieces as should meet the bound
            pieces = np.clip(np.ceil(np.cbrt(err[split])), 2, 64).astype(np.intp)
            if not split.any() or pieces.sum() > _TABLE_MAX_CELLS:
                break
            width = np.repeat(width[split] / pieces, pieces)
            left = np.repeat(left[split], pieces) + width * (
                np.arange(pieces.sum()) - np.repeat(np.cumsum(pieces) - pieces, pieces))
        if split.any():
            raise ArithmeticError(f"the inverse CDF of u'theta does not converge for "
                                  f"'{f.name}' at p={p}, kappa={kappa}")
        left, width, logs = (np.concatenate(parts) for parts in zip(*done))
        order = np.argsort(left)
        self.left, self.width, logs = left[order], width[order], logs[order]
        partial, fa, fb = _cell_masses(logs, self.width, logs.max())
        mass = np.cumsum(partial[:, -1])
        self.cdf = np.append(0.0, mass / mass[-1])  # ends at 1.0 exactly
        self.inv_mass = 1.0 / np.maximum(np.diff(self.cdf), 1e-300)
        self.tilt = np.divide(fb - fa, fa + fb, out=np.zeros_like(fa), where=fa + fb > 0.0)
        steps = 1 << max(10, (4 * left.size - 1).bit_length())
        self.guide = np.repeat(np.arange(left.size),
                               np.diff(np.ceil(self.cdf * steps).astype(np.intp)))

    def angles(self, u: np.ndarray) -> np.ndarray:
        """phi at CDF values u in [0, 1)."""
        cdf = self.cdf
        j = self.guide[(u * self.guide.size).astype(np.intp)]
        j += u >= cdf[j + 1]
        far = u >= cdf[j + 1]  # steps of u holding several edges: tails, empty cells
        if far.any():
            j[far] = np.searchsorted(cdf, u[far], side="right") - 1
        q, tilt = (u - cdf[j]) * self.inv_mass[j], self.tilt[j]
        lo = 1.0 - tilt
        y = 2.0 * q / (lo + np.sqrt(np.maximum(lo * lo + 4.0 * tilt * q, 0.0)) + 1e-300)
        return self.left[j] + self.width[j] * y


@dataclass(frozen=True)
class RotSymConfig:
    """Sampling configuration: density proportional to f(kappa * u'theta).
    kappa > 0 builds the inverse CDF of phi = arccos(u'theta) here, once."""

    p: int
    kappa: float
    f: AngularFunction
    theta: np.ndarray = None
    seed: int = 0
    table: Optional[_InverseCDF] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"p must be >= 2, got {self.p}")
        if self.kappa < 0.0:
            raise ValueError(f"kappa must be >= 0, got {self.kappa}")
        theta = np.asarray(np.eye(1, self.p, self.p - 1)[0] if self.theta is None
                           else self.theta, dtype=float)
        if theta.shape != (self.p,):
            raise ValueError("theta must be a vector in R^p")
        nrm = np.linalg.norm(theta)
        if abs(nrm - 1.0) > 1e-9:
            raise ValueError("theta must be a unit vector")
        theta = theta / nrm
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        if self.kappa > 0.0:
            object.__setattr__(self, "table", _InverseCDF(self.p, self.kappa, self.f))


@dataclass(frozen=True)
class SphericalSample:
    """n unit vectors in R^p, one per row."""

    p: int
    n: int
    points: np.ndarray

    @classmethod
    def from_points(cls, points) -> "SphericalSample":
        points = np.ascontiguousarray(np.asarray(points, dtype=float))
        if points.ndim != 2 or points.shape[1] < 2:
            raise ValueError("points must form an (n, p) array with p >= 2")
        norms = np.linalg.norm(points, axis=1)
        if np.any(np.abs(norms - 1.0) > _NORM_TOL):
            raise ValueError("all points must have unit norm (tolerance 1e-8)")
        points.setflags(write=False)
        return cls(points.shape[1], points.shape[0], points)


def _adaptive_integral(p: int, g) -> float:
    """Quadrature of g(s) * (1-s^2)^((p-3)/2) at order 64, escalating to 128
    and 256 while successive orders disagree by more than 1e-10 relative."""
    prev = val = None
    for order in (64, 128, 256):
        rule = gauss_jacobi_rule(p, order)
        vals = np.asarray(g(rule.nodes), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("integrand is not finite at the quadrature nodes")
        val = rule.integrate(vals)
        if prev is not None and abs(val - prev) <= 1e-10 * max(1.0, abs(val)):
            return val
        prev = val
    return val


def normalizing_constant(p: int, kappa: float, f: AngularFunction) -> float:
    """1 / integral of f(kappa*s) (1-s^2)^((p-3)/2) over (-1, 1); equals
    surface_constant(p) at kappa = 0."""
    if kappa < 0.0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    if kappa == 0.0:
        return surface_constant(p)

    def integrand(s):
        vals = f(kappa * s)
        if np.any(vals <= 0.0):
            raise ValueError("f(kappa*s) must be positive at the quadrature nodes")
        return vals

    return 1.0 / _adaptive_integral(p, integrand)


def t_moment_oracle(p: int, kappa: float, f: AngularFunction, m: int) -> float:
    """Exact-quadrature moment E[(u'theta)^m] of the tangent projection."""
    if m < 0:
        raise ValueError(f"moment order must be >= 0, got {m}")
    c = normalizing_constant(p, kappa, f)
    return c * _adaptive_integral(p, lambda s: s**m * f(kappa * s))


def gegenbauer_expectation_oracle(p: int, kappa: float, f: AngularFunction,
                                  k: int) -> float:
    """Exact-quadrature value of E[C_k(u'theta)] under concentration kappa;
    reference curve for the degree-k expansion coefficients."""
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")
    lam = 0.0 if p == 2 else (p - 2) / 2.0
    c = normalizing_constant(p, kappa, f)
    return c * _adaptive_integral(p, lambda s: gegenbauer_eval(lam, k, s) * f(kappa * s))


def sample_uniform(p: int, n: int, seed: int = 0, replicate: int = 0) -> SphericalSample:
    """n independent uniform draws on the sphere in R^p (normalized
    Gaussians), from the counter-based stream (seed, replicate)."""
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    gen = rng.stream(seed, replicate)
    return SphericalSample(p, n, _normalized_gaussians(gen, n, p))


def _normalized_gaussians(gen, n: int, p: int, theta=None) -> np.ndarray:
    """n normalized Gaussians in R^p, orthogonal to theta if given (tiny rows redrawn)."""
    def draw(m):
        z = gen.standard_normal((m, p))
        if theta is not None:
            z -= np.outer(z @ theta, theta)
        return z

    z = draw(n)
    norms = np.linalg.norm(z, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        z[bad] = draw(int(bad.sum()))
        norms = np.linalg.norm(z, axis=1)
    return z / norms[:, None]


def sample_rotsym(config: RotSymConfig, n: int, replicate: int = 0) -> SphericalSample:
    """n draws from the density proportional to f(kappa * u'theta),
    deterministic in (config, n, replicate).  The tangent direction is a
    sign at p = 2, one uniform angle at p = 3, else a projected Gaussian."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    gen = rng.stream(config.seed, replicate)
    p, theta = config.p, config.theta
    if config.kappa == 0.0:
        return SphericalSample(p, n, _normalized_gaussians(gen, n, p))
    phi = config.table.angles(gen.random(n))
    t, s = np.cos(phi), np.sin(phi)
    if p == 3:
        e1 = np.cross(theta, np.eye(3)[np.argmin(np.abs(theta))])
        e1 /= np.linalg.norm(e1)
        w = 2.0 * math.pi * gen.random(n)
        return SphericalSample(p, n, np.column_stack([t, s * np.cos(w), s * np.sin(w)])
                               @ np.array([theta, e1, np.cross(theta, e1)]))
    if p == 2:
        xi = (2.0 * gen.integers(0, 2, size=n) - 1.0)[:, None] * [-theta[1], theta[0]]
    else:
        xi = _normalized_gaussians(gen, n, p, theta)
    return SphericalSample(p, n, t[:, None] * theta + s[:, None] * xi)


def save_csv(sample: SphericalSample, path) -> None:
    """Write the sample with header x1,...,xp at full double precision."""
    header = ",".join(f"x{i + 1}" for i in range(sample.p))
    np.savetxt(path, sample.points, delimiter=",", header=header, comments="", fmt="%.17g")


def load_csv(path) -> SphericalSample:
    """Read a sample written by save_csv; unit norms are revalidated."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        cols = header.split(",")
        if not cols or any(c != f"x{i + 1}" for i, c in enumerate(cols)):
            raise ValueError(f"malformed sample header: {header!r}")
        body = fh.read()
        if not body.strip():
            raise ValueError("sample file contains no rows")
        try:
            data = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"malformed sample rows: {exc}") from exc
    if data.shape[1] != len(cols):
        raise ValueError("row width does not match the header")
    return SphericalSample.from_points(data)
