"""Closed-form diffused densities, Laplacian ratios, and dimension slopes.

Smoothing a flat component with an isotropic Gaussian of variance ``t``
factors into an on-manifold part (the density convolved with a Gaussian on
R^dim) and a normal part (a Gaussian at the offset displacement).  This
module evaluates those factors, their Laplacian-to-value ratios, and the
reparameterized log-density slope

    beta_t(z) = 2t d/dt log rho_t(z) = t * Laplacian(rho_t)(z) / rho_t(z),

whose small-t limit equals dim - ambient_dim on the manifold.  Everything
is computed in log space so that time scales down to 1e-15 stay exact.

The closed forms take ``t`` as a float or a 1-D array of times and return
a float or an array of the same shape; one point is evaluated over a whole
time grid in a single numpy pass (``mixture_slopes``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, erfcx

from .model import (
    ConstantOne,
    DensitySpec,
    GaussianDiag,
    ManifoldComponent,
    MixtureModel,
    ModelError,
    PointLike,
    UniformBox,
    as_point,
    component_split,
)

__all__ = [
    "BetaValue",
    "MixtureSlopes",
    "log_gaussian_kernel",
    "log_smoothed_density",
    "smoothed_laplacian_ratio",
    "log_component_rho",
    "log_mixture_rho",
    "mixture_slopes",
    "mixture_beta_t",
    "parallel_planes_beta",
    "coefficient_bound",
    "beta_limit",
    "reference_dim",
]

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_HALF = math.log(0.5)


def _times(t) -> tuple[np.ndarray, bool]:
    """``t`` as a 1-D array of times, and whether it was given as a scalar."""
    ts = np.asarray(t, dtype=float)
    scalar = ts.ndim == 0
    if ts.ndim > 1:
        raise ValueError(f"times must be a scalar or a 1-D array, got shape {ts.shape}")
    ts = ts.reshape(-1)
    bad = ~((ts > 0.0) & np.isfinite(ts))
    if bad.any():
        raise ValueError(f"time must be positive and finite, got {float(ts[bad][0])!r}")
    return ts, scalar


def _shaped(values: np.ndarray, scalar: bool):
    return float(values[0]) if scalar else values


def _require_time(t: float) -> float:
    t = float(t)
    _times(t)
    return t


@dataclass(frozen=True)
class BetaValue:
    """A slope sample: ``beta``, its deviation ``bias`` from a reference
    dimension gap, and a flag marking points whose small-t limit blows up.

    ``beta == (d_ref - ambient_dim) + bias`` by construction; ``bias`` is
    accumulated separately so it stays exact when exponentially small.
    """

    beta: float
    bias: float
    diverged: bool = False


@np.errstate(over="ignore")
def _norm2(v: np.ndarray) -> float:
    # |v|^2, inf without an overflow warning for coordinates beyond ~1e154
    return float(v @ v)


def _displacement_norm2(k: int, u) -> float:
    # |u|^2 for a displacement on R^k, after checking k and u agree.
    if k < 0:
        raise ValueError(f"dimension must be non-negative, got {k}")
    if k == 0:
        return 0.0
    arr = np.asarray(u, dtype=float)
    if arr.size != k:
        raise ValueError(f"displacement has {arr.size} coordinates, expected {k}")
    return _norm2(arr)


def log_gaussian_kernel(t, k: int, u):
    """Log of the isotropic Gaussian kernel with variance ``t`` on R^k.

    ``k == 0`` returns 0 (empty product convention).
    """
    ts, scalar = _times(t)
    k = int(k)
    uu = _displacement_norm2(k, u)
    if k == 0:
        return _shaped(np.zeros_like(ts), scalar)
    return _shaped(-0.5 * k * (_LOG_2PI + np.log(ts)) - uu / (2.0 * ts), scalar)


# ---------------------------------------------------------------------------
# One-dimensional box helpers (shared by density and Laplacian ratios)
# ---------------------------------------------------------------------------
#
# The smoothed box density per axis is (Phi_t(x-a) - Phi_t(x-b)) / (b-a),
# with Phi_t the normal CDF of variance t.  Outside the box both CDF terms
# saturate and the naive difference underflows; the scaled complementary
# error function keeps the log exact arbitrarily far out.  Which of the
# three forms applies depends on the point only, so each axis picks one
# and evaluates it over the whole time array.

def _damping(zl: np.ndarray, zh: np.ndarray) -> np.ndarray:
    # exp(zl^2 - zh^2), set to 0 once exp(-745) would leave the double range
    # (squares that overflow give an infinite or NaN exponent, also 0).
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        delta = zh * zh - zl * zl
        return np.where(delta < 745.0, np.exp(-delta), 0.0)


def _log_cdf_diff_tail(zl: np.ndarray, zh: np.ndarray) -> np.ndarray:
    # log(Q(zl) - Q(zh)) for 0 <= zl < zh, Q(z) = erfc(z)/2, in erf units.
    rest = erfcx(zh) * _damping(zl, zh)
    return _LOG_HALF - zl * zl + np.log(erfcx(zl) - rest)


def _log_cdf_diff(ts: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """log(Phi_t(hi) - Phi_t(lo)) for hi > lo, stable in both tails."""
    s = np.sqrt(2.0 * ts)
    if lo >= 0.0:
        return _log_cdf_diff_tail(lo / s, hi / s)
    if hi <= 0.0:
        return _log_cdf_diff_tail(-hi / s, -lo / s)
    return _LOG_HALF + np.log(erf(hi / s) - erf(lo / s))


def _box_axis_ratio_tail(ts: np.ndarray, lo: float, hi: float) -> np.ndarray:
    # Second-derivative-to-value ratio when the point is outside the box
    # (lo = distance past the far edge >= 0 after mirroring).
    s = np.sqrt(2.0 * ts)
    zl = lo / s
    zh = hi / s
    damp = _damping(zl, zh)
    num = (lo - hi * damp) / np.sqrt(2.0 * math.pi * ts)
    den = 0.5 * ts * (erfcx(zl) - erfcx(zh) * damp)
    return num / den


def _box_axis_ratio(ts: np.ndarray, a: float, b: float, x: float) -> np.ndarray:
    lo = x - b
    hi = x - a
    if lo >= 0.0:
        return _box_axis_ratio_tail(ts, lo, hi)
    if hi <= 0.0:
        # Mirror symmetry x -> a + b - x leaves the ratio unchanged.
        return _box_axis_ratio_tail(ts, -hi, -lo)
    s = np.sqrt(2.0 * ts)
    num = (
        lo * np.exp(-lo * lo / (2.0 * ts)) - hi * np.exp(-hi * hi / (2.0 * ts))
    ) / np.sqrt(2.0 * math.pi * ts)
    den = 0.5 * ts * (erf(hi / s) - erf(lo / s))
    return num / den


def _on_manifold_point(spec: DensitySpec, x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.size != spec.dim:
        raise ModelError(f"point dim {arr.size} != density dim {spec.dim}")
    return arr


def _axis_sum(columns: list[np.ndarray]) -> np.ndarray:
    # Per-axis terms, one (T,) column each, summed row by row.
    return np.stack(columns, axis=1).sum(axis=1)


@np.errstate(over="ignore")  # squares of coordinates beyond ~1e154 are inf
def log_smoothed_density(spec: DensitySpec, t, x):
    """Log of the on-manifold density convolved with a variance-``t``
    Gaussian, evaluated at x.  Empty x (a point mass) gives 0.

    ``t`` is a time or a 1-D array of times; the result is a float or an
    array of the same shape.
    """
    ts, scalar = _times(t)
    if isinstance(spec, ConstantOne):
        return _shaped(np.zeros_like(ts), scalar)
    if isinstance(spec, GaussianDiag):
        arr = _on_manifold_point(spec, x)
        sig = np.asarray(spec.sigmas)
        v = sig * sig + ts[:, None]
        terms = -0.5 * (_LOG_2PI + np.log(v)) - arr * arr / (2.0 * v)
        return _shaped(terms.sum(axis=1), scalar)
    if isinstance(spec, UniformBox):
        arr = _on_manifold_point(spec, x)
        columns = [
            _log_cdf_diff(ts, xi - b, xi - a) - math.log(b - a)
            for (a, b), xi in zip(spec.bounds, arr)
        ]
        return _shaped(_axis_sum(columns), scalar)
    raise ModelError(f"unknown density spec: {spec!r}")


@np.errstate(over="ignore")  # as in log_smoothed_density
def smoothed_laplacian_ratio(spec: DensitySpec, t, x):
    """Laplacian of the smoothed on-manifold density divided by its value.

    Per-axis closed forms: 0 for the constant density, the shifted-variance
    Gaussian ratio for diagonal Gaussians, and the edge-kernel ratio for
    boxes (whose density is not twice differentiable before smoothing).
    ``t`` is a time or a 1-D array of times, as in log_smoothed_density.
    """
    ts, scalar = _times(t)
    if isinstance(spec, ConstantOne):
        return _shaped(np.zeros_like(ts), scalar)
    if isinstance(spec, GaussianDiag):
        arr = _on_manifold_point(spec, x)
        sig = np.asarray(spec.sigmas)
        v = sig * sig + ts[:, None]
        return _shaped(((arr * arr - v) / (v * v)).sum(axis=1), scalar)
    if isinstance(spec, UniformBox):
        arr = _on_manifold_point(spec, x)
        columns = [
            _box_axis_ratio(ts, a, b, xi) for (a, b), xi in zip(spec.bounds, arr)
        ]
        return _shaped(_axis_sum(columns), scalar)
    raise ModelError(f"unknown density spec: {spec!r}")


# ---------------------------------------------------------------------------
# Component and mixture level quantities
# ---------------------------------------------------------------------------

def log_component_rho(component: ManifoldComponent, t, z: PointLike):
    """Log diffused density of one component: smoothed on-manifold factor
    times the Gaussian kernel at the normal displacement.  ``t`` is a time
    or a 1-D array of times."""
    ts, scalar = _times(t)
    x, y = component_split(component, z)
    on = 0.0 if component.dim == 0 else log_smoothed_density(component.density, ts, x)
    return _shaped(on + log_gaussian_kernel(ts, y.size, y), scalar)


def _component_bias(component: ManifoldComponent, t, x, y):
    # beta - (dim - D) for one component: normal blow-up plus smoothed
    # curvature contribution.
    ratio = (
        0.0
        if component.dim == 0
        else smoothed_laplacian_ratio(component.density, t, x)
    )
    return _norm2(y) / t + t * ratio


def _contains(component: ManifoldComponent, x, y) -> bool:
    # z lies on the component's support: on its affine subspace and, for a
    # box, within its bounds (a Gaussian or constant density is positive at
    # every on-manifold point, even where its value underflows).
    if _norm2(y) != 0.0:
        return False
    if component.dim and isinstance(component.density, UniformBox):
        return all(a <= xi <= b for (a, b), xi in zip(component.density.bounds, x))
    return True


def _splits(model: MixtureModel, arr: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    return [component_split(comp, arr) for comp in model.components]


def _containing_dims(model: MixtureModel, splits) -> list[int]:
    # Dimensions of the components that contain the point split as ``splits``.
    return [
        comp.dim
        for comp, (x, y) in zip(model.components, splits)
        if _contains(comp, x, y)
    ]


def _reference_dim(model: MixtureModel, dims: list[int]) -> int:
    return min(dims) if dims else min(comp.dim for comp in model.components)


def reference_dim(model: MixtureModel, z: PointLike) -> int:
    """Reference intrinsic dimension at ``z``: the smallest dimension among
    components containing the point, or the model's smallest dimension if
    none does."""
    splits = _splits(model, as_point(z, model.ambient_dim))
    return _reference_dim(model, _containing_dims(model, splits))


def _log_terms(model: MixtureModel, ts: np.ndarray, arr: np.ndarray) -> np.ndarray:
    # (T, K) log weight plus log component density, one column per component.
    return np.stack(
        [
            math.log(w) + log_component_rho(comp, ts, arr)
            for comp, w in zip(model.components, model.weights)
        ],
        axis=1,
    )


def _log_sum_exp(log_terms: np.ndarray) -> np.ndarray:
    """Row-wise log of the summed exponentials of a (T, K) array.

    Each row is shifted by its maximum, whose own term is kept out of the
    sum and added back through log1p, so a dominant term stays exact (the
    scheme of scipy's logsumexp).  A row of -inf gives -inf.
    """
    rows = np.arange(log_terms.shape[0])
    top = log_terms.argmax(axis=1)
    peak = log_terms[rows, top]
    shift = np.where(np.isfinite(peak), peak, 0.0)
    scaled = np.exp(log_terms - shift[:, None])
    scaled[rows, top] = 0.0
    return np.log1p(scaled.sum(axis=1)) + peak


def log_mixture_rho(model: MixtureModel, t, z: PointLike):
    """Log diffused density of the mixture (stable log-sum over components).

    ``t`` is a time or a 1-D array of times; the result is a float or an
    array of the same shape.  A point every component's density underflows
    at gives -inf.
    """
    ts, scalar = _times(t)
    arr = as_point(z, model.ambient_dim)
    return _shaped(_log_sum_exp(_log_terms(model, ts, arr)), scalar)


@dataclass(frozen=True)
class MixtureSlopes:
    """Mixture slope samples at one point over a 1-D array of times.

    ``log_rho``, ``beta``, ``bias`` and ``diverged`` have one entry per
    time and ``responsibilities`` one row per time and one column per
    component.  ``beta == (d_ref - ambient_dim) + bias``.  A time at which
    every component's log density is -inf has ``beta == bias == inf``,
    ``diverged`` set and NaN responsibilities.
    """

    d_ref: int
    log_rho: np.ndarray
    beta: np.ndarray
    bias: np.ndarray
    diverged: np.ndarray
    responsibilities: np.ndarray


def mixture_slopes(
    model: MixtureModel, t, z: PointLike, d_ref: int | None = None
) -> MixtureSlopes:
    """Slope, bias, log density and responsibilities of a mixture at ``z``
    for every time in ``t`` (a time or a 1-D array of times).

    The slope is the responsibility-weighted combination of the component
    slopes.  The bias is accumulated directly (each component contributes
    its own deviation from ``d_ref - ambient_dim``), which keeps it exact
    when a dominated component's exponentially small responsibility is the
    only source of bias.  ``d_ref`` defaults to ``reference_dim`` and must
    be an integer in ``[0, ambient_dim]``.
    """
    ts, _ = _times(t)
    arr = as_point(z, model.ambient_dim)
    splits = _splits(model, arr)
    dims = _containing_dims(model, splits)
    if d_ref is None:
        d_ref = _reference_dim(model, dims)
    elif d_ref not in range(model.ambient_dim + 1):
        raise ValueError(
            f"d_ref must be an integer in [0, {model.ambient_dim}], got {d_ref!r}"
        )

    log_terms = _log_terms(model, ts, arr)
    log_rho = _log_sum_exp(log_terms)
    finite = np.isfinite(log_rho)
    with np.errstate(invalid="ignore"):  # rows of -inf give NaN
        w = np.exp(log_terms - log_rho[:, None])

    comp_bias = np.stack(
        [
            (comp.dim - d_ref) + _component_bias(comp, ts, x, y)
            for comp, (x, y) in zip(model.components, splits)
        ],
        axis=1,
    )
    # A component whose responsibility underflowed to 0 contributes exactly
    # 0: masked, not multiplied, because its own bias may be infinite.
    weighted = np.zeros(w.shape)
    np.multiply(w, comp_bias, out=weighted, where=w != 0.0)
    bias = np.where(finite, weighted.sum(axis=1), math.inf)
    return MixtureSlopes(
        d_ref=int(d_ref),
        log_rho=log_rho,
        beta=(d_ref - model.ambient_dim) + bias,
        bias=bias,
        diverged=~finite | (not dims),
        responsibilities=w,
    )


def mixture_beta_t(
    model: MixtureModel,
    t: float,
    z: PointLike,
    d_ref: int | None = None,
) -> tuple[BetaValue, np.ndarray]:
    """Slope sample for a mixture at one time, plus per-component
    responsibilities: ``mixture_slopes`` at the single time ``t``."""
    s = mixture_slopes(model, [float(t)], z, d_ref)
    value = BetaValue(
        beta=float(s.beta[0]), bias=float(s.bias[0]), diverged=bool(s.diverged[0])
    )
    return value, s.responsibilities[0]


def parallel_planes_beta(
    t: float, lam: float, v_norm: float, base_beta: float
) -> BetaValue:
    """Closed-form slope for two parallel flat components with equal
    on-manifold density, separated by ``v_norm``, the off component carrying
    weight ``lam``.

    The correction to ``base_beta`` (the single-plane slope) is
    ``lam * v_norm^2 / (t ((1-lam) e^{v_norm^2/2t} + lam))``, evaluated in
    log space: the exponent may overflow, in which case the correction
    underflows cleanly to 0.  The returned ``bias`` is the correction, i.e.
    the deviation from ``base_beta``.
    """
    t = _require_time(t)
    lam = float(lam)
    v_norm = float(v_norm)
    if not 0.0 < lam < 1.0:
        raise ValueError(f"weight must lie strictly in (0, 1), got {lam!r}")
    if not (v_norm > 0.0 and math.isfinite(v_norm)):
        raise ValueError(f"separation must be positive, got {v_norm!r}")
    expo = v_norm * v_norm / (2.0 * t)
    log_den = float(np.logaddexp(math.log1p(-lam) + expo, math.log(lam)))
    log_corr = math.log(lam) + 2.0 * math.log(v_norm) - math.log(t) - log_den
    corr = math.exp(log_corr)
    return BetaValue(beta=float(base_beta) + corr, bias=corr, diverged=False)


def coefficient_bound(
    lambda_i: float,
    lambda_j: float,
    mass_c: float,
    big_r: float,
    small_r: float,
    t: float,
) -> float:
    """Upper bound on the responsibility of a component with no mass within
    ``big_r`` of the point, given a competitor holding mass ``mass_c``
    within ``small_r``:

        lambda_i / (lambda_i + mass_c * lambda_j * e^{(R^2 - r^2)/2t})
    """
    t = _require_time(t)
    if not (big_r > small_r > 0.0):
        raise ValueError(
            f"radii must satisfy R > r > 0, got R={big_r!r}, r={small_r!r}"
        )
    if not (lambda_i > 0.0 and lambda_j > 0.0):
        raise ValueError("weights must be positive")
    if not 0.0 < mass_c <= 1.0:
        raise ValueError(f"mass must lie in (0, 1], got {mass_c!r}")
    expo = (big_r * big_r - small_r * small_r) / (2.0 * t)
    log_den = float(
        np.logaddexp(math.log(lambda_i), math.log(mass_c * lambda_j) + expo)
    )
    return math.exp(math.log(lambda_i) - log_den)


def beta_limit(model: MixtureModel, z: PointLike) -> BetaValue:
    """Small-t limit of the mixture slope.

    Among components containing ``z``, the smallest dimension dominates the
    responsibilities (its normal Gaussian factor carries the most negative
    power of t), so the limit is ``d_min - ambient_dim``.  A point on no
    component diverges.
    """
    dims = _containing_dims(model, _splits(model, as_point(z, model.ambient_dim)))
    if not dims:
        return BetaValue(beta=math.inf, bias=math.inf, diverged=True)
    d_min = min(dims)
    return BetaValue(beta=float(d_min - model.ambient_dim), bias=0.0, diverged=False)
