"""Flat-manifold mixture models: types, validation, and the JSON config schema.

A model is a convex combination of flat components embedded in R^D.  Each
component occupies the leading ``dim`` coordinate axes and is shifted by an
orthogonal ``offset`` in the trailing ``D - dim`` axes.  On-manifold mass is
described by a per-component density on R^dim: an improper constant, a
diagonal Gaussian or a uniform box, and on a component of dimension 0
always ``PointMass``, a unit mass at the offset.

Each density kind is one class holding every formula that depends on the
kind, so callers never test a density's type:

- ``check(dim)``, ``improper`` and ``to_dict()``: validation, the rule that
  an improper density mixes only with improper peers, and the JSON schema;
- ``contains(x)``: which rows of a (P, dim) block lie in the support;
- ``smoothed(ts, x)``: the (P, T) log density convolved with a variance-t
  Gaussian and its Laplacian-to-value ratio (the closed forms);
- ``axis_integrand(j, ts, xj)``: the quadrature window [lo, hi] of one
  axis at each time of ``ts``, its ``scale`` and ``vertex``, its log
  integrand ``log_f(u, k)`` at nodes ``u`` of time ``ts[k]``, free of
  error functions, and a bound on the mass the window cuts off (the
  quadrature oracle).  The contract the oracle's reach relies on:
  ``log_f(u) = log_f(vertex) - (u - vertex)^2 / (2 scale^2)`` up to
  rounding of the terms and nodes, wherever ``scale`` is finite and at
  least 1e-76 (below it a subnormal sigma^2 t or x sigma^2 may cost more
  than rounding);
- ``draw(rng, n)``: n samples and each axis's (shift, scale), for the
  proper kinds only (the Monte Carlo oracle);
- ``variances``: the squared scales that floor a finite-difference step.

``LIMITS`` holds every finite numeric bound on the input space, and
``require`` is the one check that refuses a number outside its range, by
name.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ._erf import erf, erfcx

__all__ = [
    "ModelError",
    "Limits",
    "LIMITS",
    "require",
    "ConstantOne",
    "PointMass",
    "GaussianDiag",
    "UniformBox",
    "DensitySpec",
    "ManifoldComponent",
    "MixtureModel",
    "validate_model",
    "component_split",
    "model_from_json",
    "model_to_dict",
    "model_to_json",
    "as_point",
    "as_points",
    "as_times",
    "whole_number",
]

# Below this drift the weights are considered already normalized, which
# makes validate_model idempotent at the bit level.
_WEIGHT_SUM_EXACT = 1e-12


class ModelError(ValueError):
    """An input is refused: a mixture model violates its structural
    invariants, or a number lies outside its accepted range."""


@dataclass(frozen=True)
class Limits:
    """Every finite numeric bound on the input space.

    - ``sigma``: the closed range of a Gaussian axis's sigma.  Inside it
      sigma^2 is a normal double; past about 1.3e154 it overflows.
    - ``grid_size``: the most times a ``TimeGrid`` constructor builds.
    - ``decades``: the least span of a centered grid.  Narrower grids put
      their times so few ulps apart that the fitted slope drifts: a unit
      line's lid reads 0.52250 for spans from 1e-3 to 1e-9 decades,
      0.52252 at 1e-12, 0.5 at 1e-14 and 2.0 at 1e-16.
    - ``samples``: the most draws a Monte Carlo run takes.
    - ``weight_sum_band``: config weights must sum to 1 within this band;
      wider errors are real mistakes rather than round-off.

    Times are any positive finite number and coordinates any finite one.
    """

    sigma: tuple[float, float] = (1e-150, 1e150)
    grid_size: int = 100_000
    decades: float = 1e-9
    samples: int = 10**9
    weight_sum_band: float = 1e-6


LIMITS = Limits()


def require(ok, name: str, rule: str, value) -> None:
    """Refuse ``value``, the input called ``name``, unless ``ok``: a
    ModelError that says what ``name`` must be."""
    if not ok:
        raise ModelError(f"{name} must be {rule}, got {value!r}")


_LOG_2PI = math.log(2.0 * math.pi)
_LOG_HALF = math.log(0.5)
_NORMAL_MIN = float(np.finfo(float).tiny)  # the smallest normal double

# Half-width of the quadrature window of a Gaussian or constant axis, in
# units of sqrt(sigma^2 + t) (sqrt(t) on a constant axis); _WINDOW_TAIL is
# the mass the window cuts off.
TRUNCATION_RADIUS_SIGMAS = 8.0
_WINDOW_TAIL = math.erfc(TRUNCATION_RADIUS_SIGMAS / math.sqrt(2.0))


def _log_times(ts: np.ndarray) -> np.ndarray:
    """log t at each time, through the C library's log, which numpy's own
    may not match to the last bit."""
    return np.array([math.log(t) for t in ts.tolist()])


def _half_log_2pi(ts: np.ndarray) -> np.ndarray:
    """0.5 log(2 pi t) at each time, through ``_log_times``."""
    return 0.5 * (_LOG_2PI + _log_times(ts))


def _check_dim(density, dim: int) -> None:
    if density.dim != dim:
        raise ModelError(
            f"density dimension {density.dim} does not match component dim {dim}"
        )


def _check_width(x: np.ndarray, dim: int) -> None:
    if x.shape[1] != dim:
        raise ModelError(f"point dim {x.shape[1]} != density dim {dim}")


def _axis_sums(log_p: np.ndarray, ratio: np.ndarray):
    # the per-axis terms of a point and time are contiguous, so each sum
    # runs in numpy's fixed pairwise order over the axes
    return log_p.sum(axis=-1), ratio.sum(axis=-1)


@dataclass(frozen=True)
class ConstantOne:
    """Improper density, identically 1 (the idealized uniform case)."""

    improper = True
    variances = ()

    @property
    def dim(self) -> int | None:
        return None  # adapts to the component dimension

    def check(self, dim: int) -> None:
        pass

    def to_dict(self) -> dict:
        return {"type": "constant"}

    def contains(self, x: np.ndarray) -> np.ndarray:
        return np.ones(len(x), dtype=bool)

    def smoothed(self, ts: np.ndarray, x: np.ndarray):
        zeros = np.zeros((len(x), ts.size))
        return zeros, zeros

    def axis_integrand(self, j: int, ts: np.ndarray, xj: float):
        """The kernel of variance t around ``xj``: vertex ``xj`` and scale
        sqrt(t), on a window of ``TRUNCATION_RADIUS_SIGMAS`` scales."""
        scale = np.sqrt(ts)
        norm, two_t = -_half_log_2pi(ts), 2.0 * ts

        def log_f(u, k):
            return norm[k] - (xj - u) ** 2 / two_t[k]

        radius = TRUNCATION_RADIUS_SIGMAS * scale
        return xj - radius, xj + radius, scale, np.full(ts.shape, xj), log_f, _WINDOW_TAIL


@dataclass(frozen=True)
class PointMass(ConstantOne):
    """Unit mass: the constant 1 on R^0, proper unlike a constant on R^n.  It
    has no axes, so it smooths to 0 and a draw takes nothing from the rng."""

    improper = False
    dim = 0

    def check(self, dim: int) -> None:
        # a left-out density is a point mass too, so the refusal names the
        # kinds a component with axes may have
        require(dim == 0, f"the density of a dim-{dim} component",
                "given, of type gaussian, box or constant", "point")

    def to_dict(self) -> dict:
        return {"type": "point"}

    def draw(self, rng: np.random.Generator, n: int):
        return np.empty((n, 0)), []


@dataclass(frozen=True)
class GaussianDiag:
    """Centered Gaussian with diagonal covariance, one sigma per axis."""

    sigmas: tuple[float, ...]
    improper = False

    def __init__(self, sigmas: Sequence[float]):
        object.__setattr__(self, "sigmas", tuple(float(s) for s in sigmas))

    @property
    def dim(self) -> int:
        return len(self.sigmas)

    @property
    def variances(self) -> tuple[float, ...]:
        return tuple(s * s for s in self.sigmas)

    def check(self, dim: int) -> None:
        _check_dim(self, dim)
        lo, hi = LIMITS.sigma
        rule = f"in [{lo:g}, {hi:g}]"
        for s in self.sigmas:
            require(lo <= s <= hi, "sigma", rule, s)

    def to_dict(self) -> dict:
        return {"type": "gaussian", "sigmas": list(self.sigmas)}

    def contains(self, x: np.ndarray) -> np.ndarray:
        # positive at every point, even where its value underflows
        return np.ones(len(x), dtype=bool)

    @np.errstate(over="ignore")  # squares of coordinates beyond ~1e154 are inf
    def smoothed(self, ts: np.ndarray, x: np.ndarray):
        _check_width(x, self.dim)
        sig = np.asarray(self.sigmas)
        v = sig * sig + ts[:, None]
        x2 = (x * x)[:, None, :]
        log_p = -0.5 * (_LOG_2PI + np.log(v)) - x2 / (2.0 * v)
        vv = v * v  # inf past v ~ 1.34e154, subnormal or 0 below ~1.5e-154
        odd = (vv < _NORMAL_MIN) | np.isinf(vv)
        with np.errstate(invalid="ignore", divide="ignore"):  # on the odd rows
            ratio = (x2 - v) / vv
        if odd.any():  # divide by v twice there
            ratio = np.where(odd, (x2 / v - 1.0) / v, ratio)
        far = np.isinf(x2)  # past |x| ~ 1.34e154: x^2 / v is (x / sqrt(v))^2 there
        if far.any():
            x2_v = np.square(x[:, None, :] / np.sqrt(v))
            log_p = np.where(far, -0.5 * (_LOG_2PI + np.log(v)) - 0.5 * x2_v, log_p)
            ratio = np.where(far, (x2_v - 1.0) / v, ratio)
        return _axis_sums(log_p, ratio)

    def axis_integrand(self, j: int, ts: np.ndarray, xj: float):
        """The axis's Gaussian times the kernel of variance t around ``xj``:
        with v = sigma^2 + t, vertex xj sigma^2 / v and scale
        sqrt(sigma^2 t / v), on a window of ``TRUNCATION_RADIUS_SIGMAS``
        times sqrt(v) around the vertex."""
        sigma = self.sigmas[j]
        v = sigma * sigma + ts
        center = xj * sigma * sigma / v  # peak of the product integrand
        radius = TRUNCATION_RADIUS_SIGMAS * np.sqrt(v)
        scale = np.sqrt(sigma * sigma * ts / v)
        norm = -0.5 * (_LOG_2PI + 2.0 * math.log(sigma))
        half_log, two_t = _half_log_2pi(ts), 2.0 * ts

        def log_f(u, k):
            return (
                norm
                - u * u / (2.0 * sigma * sigma)
                - half_log[k]
                - (xj - u) ** 2 / two_t[k]
            )

        return center - radius, center + radius, scale, center, log_f, _WINDOW_TAIL

    def draw(self, rng: np.random.Generator, n: int):
        return rng.standard_normal((n, self.dim)), [(0.0, s) for s in self.sigmas]


@dataclass(frozen=True)
class UniformBox:
    """Uniform density on an axis-aligned box, one (low, high) pair per axis."""

    bounds: tuple[tuple[float, float], ...]
    improper = False
    variances = ()

    def __init__(self, bounds: Sequence[Sequence[float]]):
        object.__setattr__(
            self, "bounds", tuple((float(a), float(b)) for a, b in bounds)
        )

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def check(self, dim: int) -> None:
        _check_dim(self, dim)
        for a, b in self.bounds:
            require(-math.inf < a < b < math.inf and b - a < math.inf, "box interval",
                    "finite, of finite positive width", (a, b))

    def to_dict(self) -> dict:
        return {"type": "box", "bounds": [list(pair) for pair in self.bounds]}

    def contains(self, x: np.ndarray) -> np.ndarray:
        a, b = np.array(self.bounds).T
        return ((a <= x) & (x <= b)).all(axis=1)

    @np.errstate(over="ignore")  # squares of coordinates beyond ~1e154 are inf
    def smoothed(self, ts: np.ndarray, x: np.ndarray):
        _check_width(x, self.dim)
        a, b = np.array(self.bounds).T
        log_p, ratio = _box_terms(ts, x - b, x - a)
        # the C library's log, which numpy's own may not match to the last bit
        log_p -= [math.log(width) for width in b - a]
        return _axis_sums(log_p, ratio)

    def axis_integrand(self, j: int, ts: np.ndarray, xj: float):
        """The kernel of variance t around ``xj`` on the box's interval:
        vertex ``xj`` and scale sqrt(t), on a window of the interval, which
        cuts off nothing."""
        a, b = self.bounds[j]
        norm, two_t = -math.log(b - a) - _half_log_2pi(ts), 2.0 * ts

        def log_f(u, k):
            return norm[k] - (xj - u) ** 2 / two_t[k]

        ends = np.full(ts.shape, a), np.full(ts.shape, b)
        return *ends, np.sqrt(ts), np.full(ts.shape, xj), log_f, 0.0

    def draw(self, rng: np.random.Generator, n: int):
        return rng.random((n, self.dim)), [(a, b - a) for a, b in self.bounds]


# The smoothed box density per axis is (Phi_t(x-a) - Phi_t(x-b)) / (b-a),
# with Phi_t the normal CDF of variance t.  Outside the box both CDF terms
# saturate and the naive difference underflows; the scaled complementary
# error function keeps the log exact arbitrarily far out.  Which of the
# three forms applies depends on the point only, so each (point, axis)
# picks one: the (point, axis) rows of a box are grouped by form, and each
# form is evaluated once on all its rows over the whole time array, giving
# the log factor and the Laplacian ratio together.

def _damping(zl: np.ndarray, zh: np.ndarray) -> np.ndarray:
    # exp(zl^2 - zh^2), set to 0 once exp(-745) would leave the double range
    # (squares that overflow give an infinite or NaN exponent, also 0).
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        delta = zh * zh - zl * zl
        return np.where(delta < 745.0, np.exp(-delta), 0.0)


def _box_terms(ts: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Per-axis log factor and Laplacian ratio of a box, two (P, T, d)
    blocks, from (P, d) blocks ``lo = x - b < hi = x - a``.  Rows right of
    the box take the tail form, rows left of it the mirrored tail form (the
    mirror x -> a + b - x leaves both values unchanged) and the rest the
    inside form."""
    shape = (len(lo), ts.size, lo.shape[1])
    log_p, ratio = np.empty(shape), np.empty(shape)
    # (P, d, T) views: one (point, axis) row per time array
    log_rows, ratio_rows = log_p.transpose(0, 2, 1), ratio.transpose(0, 2, 1)
    right = lo >= 0.0
    tail = right | (hi <= 0.0)
    inside = ~tail
    if tail.any():
        near = np.where(right, lo, -hi)[tail, None]
        far = np.where(right, hi, -lo)[tail, None]
        log_rows[tail], ratio_rows[tail] = _box_tail(ts, near, far)
    if inside.any():
        log_rows[inside], ratio_rows[inside] = _box_inside(
            ts, lo[inside, None], hi[inside, None]
        )
    return log_p, ratio


def _box_tail(ts: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    # Outside the box, lo = distance past the near edge >= 0 and hi past the
    # far one: log(Q(lo/s) - Q(hi/s)), Q(z) = erfc(z)/2, s = sqrt(2t), and
    # the second-derivative-to-value ratio.
    z = np.stack((lo, hi)) / np.sqrt(2.0 * ts)
    zl, zh = z
    damp = _damping(zl, zh)
    scaled_l, scaled_h = erfcx(z)
    diff = scaled_l - scaled_h * damp
    num = (lo - hi * damp) / np.sqrt(2.0 * math.pi * ts)
    return _LOG_HALF - zl * zl + np.log(diff), num / (0.5 * ts * diff)


def _box_inside(ts: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    s = np.sqrt(2.0 * ts)
    erf_h, erf_l = erf(np.stack((hi, lo)) / s)
    diff = erf_h - erf_l
    num = (
        lo * np.exp(-lo * lo / (2.0 * ts)) - hi * np.exp(-hi * hi / (2.0 * ts))
    ) / np.sqrt(2.0 * math.pi * ts)
    return _LOG_HALF + np.log(diff), num / (0.5 * ts * diff)


DensitySpec = Union[ConstantOne, GaussianDiag, UniformBox]


@dataclass(frozen=True)
class ManifoldComponent:
    """A flat ``dim``-dimensional component of the data distribution.

    The component spans the leading ``dim`` coordinate axes of the ambient
    space and sits at ``offset`` in the remaining axes.  At dimension 0 it is
    a point mass at ``offset``: its density is always ``PointMass()``.
    """

    dim: int
    offset: tuple[float, ...]
    density: DensitySpec

    def __init__(self, dim: int, offset: Sequence[float], density: DensitySpec):
        object.__setattr__(self, "dim", whole_number(dim, "dim"))
        object.__setattr__(self, "offset", tuple(float(v) for v in offset))
        object.__setattr__(self, "density", density if self.dim else PointMass())

    @property
    def offset_norm(self) -> float:
        return math.sqrt(math.fsum(v * v for v in self.offset))


@dataclass(frozen=True)
class MixtureModel:
    """Convex combination of flat components sharing one ambient space."""

    ambient_dim: int
    components: tuple[ManifoldComponent, ...]
    weights: tuple[float, ...]

    def __init__(
        self,
        ambient_dim: int,
        components: Sequence[ManifoldComponent],
        weights: Sequence[float],
    ):
        object.__setattr__(
            self, "ambient_dim", whole_number(ambient_dim, "ambient_dim")
        )
        object.__setattr__(self, "components", tuple(components))
        object.__setattr__(self, "weights", tuple(float(w) for w in weights))


PointLike = Union[Sequence[float], np.ndarray]


def as_points(z: PointLike, ambient_dim: int) -> np.ndarray:
    """Coerce ``z``, one point or a (P, ``ambient_dim``) block of points, to
    a validated coordinate array of the same shape."""
    try:
        arr = np.asarray(z, dtype=float)
    except ValueError as exc:  # ragged rows or non-numeric entries
        raise ModelError(
            "evaluation point is not a point or a rectangular block of numbers"
        ) from exc
    width = arr.shape[1] if arr.ndim == 2 else arr.size
    if arr.ndim not in (1, 2) or width != ambient_dim:
        raise ModelError(
            f"evaluation point has {width} coordinates, expected {ambient_dim}"
        )
    bad = arr[~np.isfinite(arr)].tolist()
    require(not bad, "evaluation point coordinate", "finite", bad and bad[0])
    return arr


def as_point(z: PointLike, ambient_dim: int) -> np.ndarray:
    """Coerce ``z`` to a validated coordinate array of length ``ambient_dim``."""
    arr = as_points(z, ambient_dim)
    if arr.ndim != 1:
        raise ModelError(
            f"evaluation point has {arr.size} coordinates, expected {ambient_dim}"
        )
    return arr


def as_times(t) -> tuple[np.ndarray, bool]:
    """``t`` as a 1-D array of positive finite times, and whether it was
    given as a scalar."""
    ts = np.asarray(t, dtype=float)
    scalar = ts.ndim == 0
    require(ts.ndim <= 1, "times", "a scalar or a 1-D array", ts)
    ts = ts.reshape(-1)
    bad = ts[~((ts > 0.0) & np.isfinite(ts))].tolist()
    require(not bad, "time", "positive and finite", bad and bad[0])
    return ts, scalar


def validate_model(model: MixtureModel) -> MixtureModel:
    """Check all structural invariants and return the normalized model.

    Weights of any positive total are accepted and rescaled to sum to 1
    (they are mixture proportions); a model whose weights already sum to 1
    is returned unchanged, so validation is idempotent.  The stricter
    near-1 requirement on configuration files lives in model_from_json.
    """
    D = model.ambient_dim
    require(D >= 1, "ambient_dim", "positive", D)
    if not model.components:
        raise ModelError("component list is empty")
    if len(model.weights) != len(model.components):
        raise ModelError(
            f"{len(model.weights)} weights for {len(model.components)} components"
        )
    for w in model.weights:
        require(0.0 < w < math.inf, "weight", "positive and finite", w)

    improper = 0
    for comp in model.components:
        d = comp.dim
        require(0 <= d <= D, "component dim", f"in [0, {D}]", d)
        if len(comp.offset) != D - d:
            raise ModelError(
                f"offset length {len(comp.offset)} != ambient_dim - dim = {D - d}"
            )
        for v in comp.offset:
            require(math.isfinite(v), "offset coordinate", "finite", v)
        if not isinstance(comp.density, (ConstantOne, GaussianDiag, UniformBox)):
            raise ModelError(f"unknown density spec: {comp.density!r}")
        comp.density.check(d)
        improper += comp.density.improper
    # An improper (non-normalizable) density has no meaningful mixing scale
    # against probability measures: allow it only alone or with equally
    # improper peers.
    if improper and improper != len(model.components):
        raise ModelError(
            "improper constant density cannot be mixed with proper components"
        )

    total = math.fsum(model.weights)
    # positive weights sum to a positive total, which may overflow
    require(math.isfinite(total), "weight sum", "finite", total)
    if abs(total - 1.0) <= _WEIGHT_SUM_EXACT:
        return model
    weights = tuple(w / total for w in model.weights)
    return MixtureModel(D, model.components, weights)


def component_split(
    component: ManifoldComponent, z: PointLike
) -> tuple[np.ndarray, np.ndarray]:
    """Split ``z`` into on-manifold coordinates x and normal displacement y.

    x collects the leading ``dim`` coordinates; y is the trailing block
    minus the component offset, so ``y == 0`` exactly when ``z`` lies on the
    component's affine subspace.  A (P, D) block of points splits row by
    row into (P, dim) and (P, D - dim) blocks.
    """
    arr = np.atleast_1d(np.asarray(z, dtype=float))
    d = component.dim
    width = d + len(component.offset)
    if arr.shape[-1] != width:
        raise ModelError(f"point has {arr.shape[-1]} coordinates, expected {width}")
    x = arr[..., :d].copy()
    y = arr[..., d:] - np.asarray(component.offset, dtype=float)
    return x, y


# ---------------------------------------------------------------------------
# JSON config schema
# ---------------------------------------------------------------------------

def _number(value, what: str) -> float:
    # A JSON number: strings and booleans are malformed, not coerced.
    require(isinstance(value, numbers.Real) and not isinstance(value, bool),
            what, "a number", value)
    return float(value)


def _numbers(value, what: str) -> list[float]:
    require(isinstance(value, (list, tuple)), what, "a list of numbers", value)
    return [_number(v, f"{what} entry") for v in value]


def whole_number(value, what: str) -> int:
    """``value`` as an int if it is a number with no fractional part (so
    ``2.0`` gives 2); anything else, ``1.5`` included, is a ModelError."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)  # exact at any size, where float() would overflow
    require(_number(value, what).is_integer(), what, "a whole number", value)
    return int(value)


def _density_from_dict(obj: dict) -> DensitySpec:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ModelError(f"density must be an object with a 'type': {obj!r}")
    kind = obj["type"]
    if kind == "gaussian":
        return GaussianDiag(_numbers(obj.get("sigmas", []), "sigmas"))
    if kind == "box":
        return UniformBox([_numbers(pair, "bounds") for pair in obj.get("bounds", [])])
    if kind == "constant":
        return ConstantOne()
    if kind == "point":
        return PointMass()
    raise ModelError(f"unknown density type: {kind!r}")


def model_from_json(source: str | dict) -> MixtureModel:
    """Parse the JSON model schema and return a validated model.

    Unlike programmatic construction, configuration weights must already
    sum to 1 within ``LIMITS.weight_sum_band`` (round-off is tolerated,
    real errors are rejected).
    """
    if isinstance(source, str):
        try:
            obj = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ModelError(f"invalid JSON: {exc}") from exc
    else:
        obj = source
    if not isinstance(obj, dict):
        raise ModelError("model config must be a JSON object")
    try:
        D = whole_number(obj["ambient_dim"], "ambient_dim")
        weights = _numbers(obj["weights"], "weights")
        raw_components = obj["components"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelError(f"malformed model config: {exc}") from exc
    if not isinstance(raw_components, list) or not raw_components:
        raise ModelError("'components' must be a non-empty list")

    components = []
    for entry in raw_components:
        try:
            dim = whole_number(entry["dim"], "dim")
            offset = _numbers(entry.get("offset", []), "offset")
            density = _density_from_dict(entry.get("density", {"type": "point"}))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ModelError(f"malformed component: {exc}") from exc
        components.append(ManifoldComponent(dim, offset, density))

    band = LIMITS.weight_sum_band
    total = math.fsum(weights)
    require(abs(total - 1.0) <= band, "weight sum", f"within {band:g} of 1", total)
    return validate_model(MixtureModel(D, components, weights))


def model_to_dict(model: MixtureModel) -> dict:
    return {
        "ambient_dim": model.ambient_dim,
        "weights": list(model.weights),
        "components": [
            {
                "dim": comp.dim,
                "offset": list(comp.offset),
                "density": comp.density.to_dict(),
            }
            for comp in model.components
        ],
    }


def model_to_json(model: MixtureModel, indent: int | None = 2) -> str:
    return json.dumps(model_to_dict(model), indent=indent)
