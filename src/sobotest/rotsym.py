"""Rotationally symmetric distributions on the sphere: angular functions
and tangent-normal samplers.

Every draw is about the north pole e_p: u = (sin(phi) xi, cos(phi)), xi
uniform on the unit sphere of R^(p-1), phi with log-density
log f(kappa cos phi) + (p - 2) log sin phi on [0, pi].  That loses no
generality: a Sobolev statistic sees a sample only through the products
u_i'u_j, so it takes the same value on Q u_1, ..., Q u_n for any
orthogonal Q, and multiplying the rows by any such Q with Q e_p = theta
gives a sample about theta.  `RotSymConfig` builds the inverse CDF of
phi once for every kappa >= 0 (the uniform law at kappa = 0 has density
(sin phi)^(p-2)), a linear density per cell within 1e-8 of the total
mass; a replicate inverts n uniforms through a guide table with no
rejection loop.  No sin or cos is taken per point: cos phi and sin phi
come by angle addition from the cos and sin of each cell's left edge,
stored with the table (cells at most pi/128 wide), and the uniform angle
w of the tangent direction at p = 3 the same way from a 4096-step
circle.  A sample is stored as coordinate rows: `points` is the (n, p)
view of a C-contiguous (p, n) array, which the sampler writes one
coordinate row at a time."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import rng

__all__ = [
    "AngularFunction", "vmf", "watson", "power", "cauchy", "custom", "RotSymConfig",
    "SphericalSample", "sample_rotsym", "save_csv", "load_csv",
]

_NORM_TOL = 1e-8
# inverse-CDF table: error bound relative to the total mass, and size limits
_TABLE_TOL, _TABLE_MAX_CELLS, _TABLE_MAX_LEVELS = 1e-8, 1 << 16, 120
# integrals to 1/4, 1/2, 3/4, 1 of the quartic through a unit cell's _NODES (Boole's last)
_NODES = np.linspace(0.0, 1.0, 5)
_PARTIALS = np.array([[251, 232, 243, 224], [646, 992, 918, 1024], [-264, 192, 648, 384],
                      [106, 32, 378, 1024], [-19, -8, -27, 224]]) / 2880.0
# the widest table cell: _InverseCDF starts from cells this wide and only splits them
_CELL_MAX = math.pi / 128
# Taylor coefficients of sin d - d (d^3 to d^7) and cos d - 1 (d^2 to d^6), highest first:
# the next terms are below 4e-18 of the value for |d| <= _CELL_MAX
_SIN_D = (-1.0 / 5040.0, 1.0 / 120.0, -1.0 / 6.0)
_COS_D = (-1.0 / 720.0, 1.0 / 24.0, -0.5)
# the tangent angle at p = 3 on a circle of 4096 steps: cos and sin at each
# step, at angles taken in (-pi, pi], where they round half as far as in [0, 2 pi);
# the remainder d below one step takes sin d - d through d^3 (d^5 / 120 < 0.33 eps)
# and cos d - 1 through d^4
_CIRCLE_STEPS = 4096
_CIRCLE_SIN_D, _CIRCLE_COS_D = (-1.0 / 6.0,), (1.0 / 24.0, -0.5)
_CIRCLE_STEP = 2.0 * math.pi / _CIRCLE_STEPS
_steps = np.arange(_CIRCLE_STEPS)
_steps[_CIRCLE_STEPS // 2 + 1:] -= _CIRCLE_STEPS
_CIRCLE_COS, _CIRCLE_SIN = np.cos(_steps * _CIRCLE_STEP), np.sin(_steps * _CIRCLE_STEP)
del _steps


@dataclass(frozen=True)
class AngularFunction:
    """Scalar profile s |-> f(s) with f(0) = 1, applied to kappa * u'theta.

    deriv0(k) returns the exact k-th derivative at 0, an int or a float;
    max_order bounds the orders available (None = all); log_fn = log f
    (None: the log of fn)."""

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
        value = self.deriv0(k)
        try:
            return float(value)
        except OverflowError:  # an exact int past the largest double
            return math.inf if value > 0 else -math.inf


def vmf() -> AngularFunction:
    """Exponential profile exp(s), power(1); every derivative at 0 equals 1."""
    return power(1)


def _power_deriv0(b: int):
    return lambda k: 0 if k % b else math.factorial(k) // math.factorial(k // b)


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
                           lambda k: (-2) ** k * math.factorial(k),
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


def _rotate(cos_a, sin_a, d, sin_terms=_SIN_D, cos_terms=_COS_D):
    """cos(a + d) and sin(a + d) from cos a, sin a and |d| <= _CELL_MAX, by
    angle addition with sin d and cos d - 1 as the Taylor polynomials of
    the given coefficients."""
    d2 = d * d
    sin_d, cos_d = d2 * sin_terms[0], d2 * cos_terms[0]
    for c in sin_terms[1:]:
        sin_d += c
        sin_d *= d2
    for c in cos_terms[1:]:
        cos_d += c
        cos_d *= d2
    sin_d *= d
    sin_d += d
    cos = cos_a * cos_d
    cos -= sin_a * sin_d
    cos += cos_a
    sin = sin_a * cos_d
    sin += cos_a * sin_d
    sin += sin_a
    return cos, sin


def _circle(u: np.ndarray):
    """cos w and sin w of the angle w = 2 pi u, u in [0, 1): the step
    below w from the table and the exact remainder of 4096 u."""
    d = u * _CIRCLE_STEPS  # exact: a power of two
    step = d.astype(np.intp)
    d -= step
    d *= _CIRCLE_STEP
    return _rotate(_CIRCLE_COS.take(step), _CIRCLE_SIN.take(step), d,
                   _CIRCLE_SIN_D, _CIRCLE_COS_D)


class _InverseCDF:
    """Inverse CDF of phi = arccos(u'e_p) over the cells [left, left + width]
    that refining 128 equal cells of _CELL_MAX leaves: the CDF at the edges,
    a density 1 - tilt + 2 tilt y on each unit cell, cos and sin of each left
    edge, and a guide table: the last edge at or below each of 2^k steps in u."""

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

        # 128 equal cells of _CELL_MAX graded down to 1e-15 at both poles: a peak
        # there is seen however narrow, and refinement only ever narrows a cell
        grade = _CELL_MAX * 0.5 ** np.arange(1, 46)
        edges = np.unique(np.concatenate([np.linspace(0.0, math.pi, 129), grade, math.pi - grade]))
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
            raise ArithmeticError(f"the inverse CDF of u'e_p does not converge for "
                                  f"'{f.name}' at p={p}, kappa={kappa}")
        left, width, logs = (np.concatenate(parts) for parts in zip(*done))
        order = np.argsort(left)
        left, width, logs = left[order], width[order], logs[order]
        partial, fa, fb = _cell_masses(logs, width, logs.max())
        mass = np.cumsum(partial[:, -1])
        self.left, self.width = left, width
        self.cos_left, self.sin_left = np.cos(left), np.sin(left)
        self.cdf = np.append(0.0, mass / mass[-1])  # ends at 1.0 exactly
        self.upper = self.cdf[1:]
        tilt = np.divide(fb - fa, fa + fb, out=np.zeros_like(fa), where=fa + fb > 0.0)
        # per cell, the terms of the inversion: 2 width / mass, 4 tilt / mass,
        # 1 - tilt (+ 1e-300, which keeps 0 / 0 out of a cell with tilt 1) and its square
        mass = np.maximum(np.diff(self.cdf), 1e-300)
        self.scale, self.slope = 2.0 * width / mass, 4.0 * tilt / mass
        self.lo_sq = (1.0 - tilt) ** 2
        self.lo = 1.0 - tilt + 1e-300
        steps = 1 << max(10, (4 * width.size - 1).bit_length())
        self.guide = np.repeat(np.arange(width.size),
                               np.diff(np.ceil(self.cdf * steps).astype(np.intp)))

    def _locate(self, u: np.ndarray):
        """Cell j and offset d = phi - left[j] of the CDF values u in [0, 1)."""
        j = self.guide.take((u * self.guide.size).astype(np.intp))
        j += u >= self.upper.take(j)
        far = u >= self.upper.take(j)  # steps of u holding several edges: tails, empty cells
        if far.any():
            j[far] = np.searchsorted(self.cdf, u[far], side="right") - 1
        r = u - self.cdf.take(j)  # the mass into cell j
        d = self.scale.take(j) * r
        d /= self.lo.take(j) + np.sqrt(np.maximum(self.lo_sq.take(j) + self.slope.take(j) * r, 0.0))
        return j, d

    def cos_sin(self, u: np.ndarray):
        """cos phi and sin phi at CDF values u in [0, 1), from the cell edges."""
        j, d = self._locate(u)
        return _rotate(self.cos_left.take(j), self.sin_left.take(j), d)


@dataclass(frozen=True)
class RotSymConfig:
    """Sampling configuration: density proportional to f(kappa * u'e_p).
    Builds the inverse CDF of phi = arccos(u'e_p) here, once."""

    p: int
    kappa: float
    f: AngularFunction
    seed: int = 0
    table: _InverseCDF = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"p must be >= 2, got {self.p}")
        if not 0.0 <= self.kappa < math.inf:
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa}")
        object.__setattr__(self, "table", _InverseCDF(self.p, self.kappa, self.f))


def _check_unit_norms(points: np.ndarray) -> None:
    """Raise ValueError unless every row of the (n, p) array has norm
    within _NORM_TOL of 1 (a NaN norm is not)."""
    if not np.all(np.abs(np.linalg.norm(points, axis=1) - 1.0) <= _NORM_TOL):
        raise ValueError("all points must have unit norm (tolerance 1e-8)")


@dataclass(frozen=True)
class SphericalSample:
    """n unit vectors in R^p, one per row of the (n, p) array `points`;
    n and p are read from its shape.  Samples from sample_rotsym,
    from_points and load_csv store coordinate rows: `points` is the
    transpose of a C-contiguous (p, n) array, so `points.T` holds each
    coordinate over the sample in one contiguous row.  Any other layout
    is read the same, at the cost of a copy."""

    points: np.ndarray

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def p(self) -> int:
        return self.points.shape[1]

    @classmethod
    def from_points(cls, points) -> "SphericalSample":
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] < 1 or points.shape[1] < 2:
            raise ValueError("points must form an (n, p) array with n >= 1 and p >= 2")
        _check_unit_norms(points)
        rows = np.ascontiguousarray(points.T)
        rows.setflags(write=False)
        return cls(rows.T)


def sample_rotsym(config: RotSymConfig, n: int, replicate: int = 0) -> SphericalSample:
    """n draws from the density proportional to f(kappa * u'e_p),
    deterministic in (config, n, replicate): u = (sin(phi) xi, cos(phi))
    with xi a sign at p = 2, one uniform angle at p = 3, else a
    normalized Gaussian in R^(p-1), written into the sample's (p, n)
    coordinate rows one row at a time."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    gen = rng.stream(config.seed, replicate)
    p = config.p
    t, s = config.table.cos_sin(gen.random(n))
    rows = np.empty((p, n))
    rows[-1] = t
    if p == 2:
        np.multiply(1.0 - 2.0 * gen.integers(0, 2, size=n), s, out=rows[0])
    elif p == 3:
        # (-s sin w, s cos w); negating the product is exact, so the bits are those of -s * sin w
        cos_w, sin_w = _circle(gen.random(n))
        np.multiply(sin_w, s, out=rows[0])
        np.negative(rows[0], out=rows[0])
        np.multiply(cos_w, s, out=rows[1])
    else:
        # xi = z / |z| for n normals z in R^(p-1), rows with a tiny norm redrawn;
        # one pass writes the rows s xi = z' (s / |z|)
        z = gen.standard_normal((n, p - 1))
        norms = np.sqrt(np.einsum("ij,ij->i", z, z))
        while (bad := norms < 1e-12).any():
            z[bad] = gen.standard_normal((int(bad.sum()), p - 1))
            norms = np.sqrt(np.einsum("ij,ij->i", z, z))
        np.multiply(z.T, s / norms, out=rows[:-1])
    return SphericalSample(rows.T)


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
