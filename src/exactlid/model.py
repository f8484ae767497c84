"""Flat-manifold mixture models: types, validation, and the JSON config schema.

A model is a convex combination of flat components embedded in R^D.  Each
component occupies the leading ``dim`` coordinate axes and is shifted by an
orthogonal ``offset`` in the trailing ``D - dim`` axes.  On-manifold mass is
described by a per-component density on R^dim (an improper constant, a
diagonal Gaussian, or a uniform box); ``dim == 0`` denotes a point mass at
the offset.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

__all__ = [
    "ModelError",
    "ConstantOne",
    "GaussianDiag",
    "UniformBox",
    "DensitySpec",
    "ManifoldComponent",
    "MixtureModel",
    "validate_model",
    "component_split",
    "eval_psi",
    "model_from_json",
    "model_to_dict",
    "model_to_json",
    "as_point",
    "as_points",
    "as_time",
    "as_times",
    "whole_number",
]

# Config weights must sum to 1 within this band; wider errors are rejected
# as real mistakes rather than round-off (see model_from_json).
WEIGHT_SUM_BAND = 1e-6
# Below this drift the weights are considered already normalized, which
# makes validate_model idempotent at the bit level.
_WEIGHT_SUM_EXACT = 1e-12


class ModelError(ValueError):
    """A mixture model violates its structural invariants."""


@dataclass(frozen=True)
class ConstantOne:
    """Improper density, identically 1 (the idealized uniform case)."""

    @property
    def dim(self) -> int | None:
        return None  # adapts to the component dimension


@dataclass(frozen=True)
class GaussianDiag:
    """Centered Gaussian with diagonal covariance, one sigma per axis."""

    sigmas: tuple[float, ...]

    def __init__(self, sigmas: Sequence[float]):
        object.__setattr__(self, "sigmas", tuple(float(s) for s in sigmas))

    @property
    def dim(self) -> int:
        return len(self.sigmas)


@dataclass(frozen=True)
class UniformBox:
    """Uniform density on an axis-aligned box, one (low, high) pair per axis."""

    bounds: tuple[tuple[float, float], ...]

    def __init__(self, bounds: Sequence[Sequence[float]]):
        object.__setattr__(
            self, "bounds", tuple((float(a), float(b)) for a, b in bounds)
        )

    @property
    def dim(self) -> int:
        return len(self.bounds)


DensitySpec = Union[ConstantOne, GaussianDiag, UniformBox]


@dataclass(frozen=True)
class ManifoldComponent:
    """A flat ``dim``-dimensional component of the data distribution.

    The component spans the leading ``dim`` coordinate axes of the ambient
    space and sits at ``offset`` in the remaining axes.  ``dim == 0`` is a
    point mass at ``offset`` (the density is ignored).
    """

    dim: int
    offset: tuple[float, ...]
    density: DensitySpec

    def __init__(self, dim: int, offset: Sequence[float], density: DensitySpec):
        object.__setattr__(self, "dim", whole_number(dim, "dim"))
        object.__setattr__(self, "offset", tuple(float(v) for v in offset))
        object.__setattr__(self, "density", density)

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
    if not np.isfinite(arr).all():
        raise ModelError("evaluation point has non-finite coordinates")
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
    if ts.ndim > 1:
        raise ValueError(f"times must be a scalar or a 1-D array, got shape {ts.shape}")
    ts = ts.reshape(-1)
    bad = ~((ts > 0.0) & np.isfinite(ts))
    if bad.any():
        raise ValueError(f"time must be positive and finite, got {float(ts[bad][0])!r}")
    return ts, scalar


def as_time(t: float) -> float:
    """``t`` as one positive finite time."""
    ts, _ = as_times(float(t))
    return float(ts[0])


def _validate_density(density: DensitySpec, dim: int) -> None:
    if isinstance(density, ConstantOne):
        return
    if not isinstance(density, (GaussianDiag, UniformBox)):
        raise ModelError(f"unknown density spec: {density!r}")
    if density.dim != dim:
        raise ModelError(
            f"density dimension {density.dim} does not match component dim {dim}"
        )
    if isinstance(density, GaussianDiag):
        for s in density.sigmas:
            if not (s > 0.0 and math.isfinite(s)):
                raise ModelError(f"non-positive sigma: {s!r}")
    else:
        for a, b in density.bounds:
            if not (math.isfinite(a) and math.isfinite(b) and 0.0 < b - a < math.inf):
                raise ModelError(
                    f"box interval ({a!r}, {b!r}) must have a finite positive width"
                )


def validate_model(model: MixtureModel) -> MixtureModel:
    """Check all structural invariants and return the normalized model.

    Weights of any positive total are accepted and rescaled to sum to 1
    (they are mixture proportions); a model whose weights already sum to 1
    is returned unchanged, so validation is idempotent.  The stricter
    near-1 requirement on configuration files lives in model_from_json.
    """
    D = model.ambient_dim
    if D < 1:
        raise ModelError(f"ambient_dim must be positive, got {D}")
    if not model.components:
        raise ModelError("component list is empty")
    if len(model.weights) != len(model.components):
        raise ModelError(
            f"{len(model.weights)} weights for {len(model.components)} components"
        )
    for w in model.weights:
        if not (w > 0.0 and math.isfinite(w)):
            raise ModelError(f"non-positive weight: {w!r}")

    improper = 0
    for comp in model.components:
        d = comp.dim
        if not 0 <= d <= D:
            raise ModelError(f"component dim {d} outside [0, {D}]")
        if len(comp.offset) != D - d:
            raise ModelError(
                f"offset length {len(comp.offset)} != ambient_dim - dim = {D - d}"
            )
        for v in comp.offset:
            if not math.isfinite(v):
                raise ModelError("non-finite offset coordinate")
        if d > 0:
            _validate_density(comp.density, d)
            if isinstance(comp.density, ConstantOne):
                improper += 1
    # An improper (non-normalizable) density has no meaningful mixing scale
    # against probability measures: allow it only alone or with equally
    # improper peers.
    if improper and improper != len(model.components):
        raise ModelError(
            "improper constant density cannot be mixed with proper components"
        )

    total = math.fsum(model.weights)
    if not math.isfinite(total) or total <= 0.0:
        raise ModelError(f"weights are not normalizable: sum={total!r}")
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


@np.errstate(over="ignore")  # squares of coordinates beyond ~1e154 are inf
def eval_psi(spec: DensitySpec, x: Sequence[float] | np.ndarray) -> float:
    """On-manifold density value at x (before any smoothing)."""
    arr = np.asarray(x, dtype=float)
    if isinstance(spec, ConstantOne):
        return 1.0
    if isinstance(spec, GaussianDiag):
        if arr.size != spec.dim:
            raise ModelError(f"point dim {arr.size} != density dim {spec.dim}")
        log_terms = [
            -0.5 * math.log(2.0 * math.pi * s * s) - xi * xi / (2.0 * s * s)
            for s, xi in zip(spec.sigmas, arr)
        ]
        return math.exp(math.fsum(log_terms))
    if isinstance(spec, UniformBox):
        if arr.size != spec.dim:
            raise ModelError(f"point dim {arr.size} != density dim {spec.dim}")
        val = 1.0
        for (a, b), xi in zip(spec.bounds, arr):
            if not a <= xi <= b:
                return 0.0
            val /= b - a
        return val
    raise ModelError(f"unknown density spec: {spec!r}")


# ---------------------------------------------------------------------------
# JSON config schema
# ---------------------------------------------------------------------------

def _number(value, what: str) -> float:
    # A JSON number: strings and booleans are malformed, not coerced.
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def _numbers(value, what: str) -> list[float]:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list of numbers, got {value!r}")
    return [_number(v, f"{what} entry") for v in value]


def whole_number(value, what: str) -> int:
    """``value`` as an int if it is a number with no fractional part (so
    ``2.0`` gives 2); anything else, ``1.5`` included, is a ValueError."""
    if not _number(value, what).is_integer():
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return int(value)


def _density_from_dict(obj: dict, dim: int) -> DensitySpec:
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
        if dim != 0:
            raise ModelError("density type 'point' requires dim = 0")
        return ConstantOne()
    raise ModelError(f"unknown density type: {kind!r}")


def model_from_json(source: str | dict) -> MixtureModel:
    """Parse the JSON model schema and return a validated model.

    Unlike programmatic construction, configuration weights must already
    sum to 1 within ``WEIGHT_SUM_BAND`` (round-off is tolerated, real
    errors are rejected).
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
            density = _density_from_dict(entry.get("density", {"type": "point"}), dim)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ModelError(f"malformed component: {exc}") from exc
        components.append(ManifoldComponent(dim, offset, density))

    total = math.fsum(weights)
    if not (math.isfinite(total) and abs(total - 1.0) <= WEIGHT_SUM_BAND):
        raise ModelError(f"weights not normalizable: sum={total!r}")
    return validate_model(MixtureModel(D, components, weights))


def _density_to_dict(comp: ManifoldComponent) -> dict:
    if comp.dim == 0:
        return {"type": "point"}
    density = comp.density
    if isinstance(density, ConstantOne):
        return {"type": "constant"}
    if isinstance(density, GaussianDiag):
        return {"type": "gaussian", "sigmas": list(density.sigmas)}
    if isinstance(density, UniformBox):
        return {"type": "box", "bounds": [list(pair) for pair in density.bounds]}
    raise ModelError(f"unknown density spec: {density!r}")


def model_to_dict(model: MixtureModel) -> dict:
    return {
        "ambient_dim": model.ambient_dim,
        "weights": list(model.weights),
        "components": [
            {
                "dim": comp.dim,
                "offset": list(comp.offset),
                "density": _density_to_dict(comp),
            }
            for comp in model.components
        ],
    }


def model_to_json(model: MixtureModel, indent: int | None = 2) -> str:
    return json.dumps(model_to_dict(model), indent=indent)
