"""Closed-form diffused densities, Laplacian ratios, and dimension slopes.

Smoothing a flat component with an isotropic Gaussian of variance ``t``
factors into an on-manifold part (the density convolved with a Gaussian on
R^dim) and a normal part (a Gaussian at the offset displacement).  This
module evaluates those factors, their Laplacian-to-value ratios, and the
reparameterized log-density slope

    beta_t(z) = 2t d/dt log rho_t(z) = t * Laplacian(rho_t)(z) / rho_t(z),

whose small-t limit equals dim - ambient_dim on the manifold.  Everything
is computed in log space so that time scales down to 1e-15 stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, erfcx, logsumexp

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
    eval_psi,
)

__all__ = [
    "BetaValue",
    "log_gaussian_kernel",
    "gaussian_kernel_laplacian_ratio",
    "log_smoothed_density",
    "smoothed_laplacian_ratio",
    "log_component_rho",
    "log_mixture_rho",
    "component_beta_t",
    "mixture_beta_t",
    "parallel_planes_beta",
    "coefficient_bound",
    "beta_limit",
    "reference_dim",
]

_LOG_2PI = math.log(2.0 * math.pi)
_LOG_HALF = math.log(0.5)


def _require_time(t: float) -> float:
    t = float(t)
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError(f"time must be positive and finite, got {t!r}")
    return t


@dataclass(frozen=True)
class BetaValue:
    """A slope sample: ``beta``, its deviation ``bias`` from a reference
    dimension gap, and a flag marking points whose small-t limit blows up.

    ``beta == (d_ref - ambient_dim) + bias`` by construction; ``bias`` is
    accumulated separately so it stays exact when exponentially small.
    ``log_rho`` is the log diffused mixture density at the same point and
    time when the producer computed it (``mixture_beta_t``), else None.
    """

    beta: float
    bias: float
    diverged: bool = False
    log_rho: float | None = None


def log_gaussian_kernel(t: float, k: int, u) -> float:
    """Log of the isotropic Gaussian kernel with variance ``t`` on R^k.

    ``k == 0`` returns 0 (empty product convention).
    """
    t = _require_time(t)
    k = int(k)
    if k < 0:
        raise ValueError(f"dimension must be non-negative, got {k}")
    if k == 0:
        return 0.0
    arr = np.asarray(u, dtype=float)
    if arr.size != k:
        raise ValueError(f"displacement has {arr.size} coordinates, expected {k}")
    return -0.5 * k * (_LOG_2PI + math.log(t)) - float(arr @ arr) / (2.0 * t)


def gaussian_kernel_laplacian_ratio(t: float, k: int, u) -> float:
    """Laplacian of the variance-``t`` Gaussian kernel divided by its value:
    ``|u|^2 / t^2 - k / t``."""
    t = _require_time(t)
    k = int(k)
    if k < 0:
        raise ValueError(f"dimension must be non-negative, got {k}")
    if k == 0:
        return 0.0
    arr = np.asarray(u, dtype=float)
    if arr.size != k:
        raise ValueError(f"displacement has {arr.size} coordinates, expected {k}")
    return float(arr @ arr) / (t * t) - k / t


# ---------------------------------------------------------------------------
# One-dimensional box helpers (shared by density and Laplacian ratios)
# ---------------------------------------------------------------------------
#
# The smoothed box density per axis is (Phi_t(x-a) - Phi_t(x-b)) / (b-a),
# with Phi_t the normal CDF of variance t.  Outside the box both CDF terms
# saturate and the naive difference underflows; the scaled complementary
# error function keeps the log exact arbitrarily far out.

def _log_cdf_diff_tail(zl: float, zh: float) -> float:
    # log(Q(zl) - Q(zh)) for 0 <= zl < zh, Q(z) = erfc(z)/2, in erf units.
    delta = zh * zh - zl * zl
    rest = erfcx(zh) * math.exp(-delta) if delta < 745.0 else 0.0
    return _LOG_HALF - zl * zl + math.log(erfcx(zl) - rest)


def _log_cdf_diff(t: float, lo: float, hi: float) -> float:
    """log(Phi_t(hi) - Phi_t(lo)) for hi > lo, stable in both tails."""
    s = math.sqrt(2.0 * t)
    zl = lo / s
    zh = hi / s
    if zl >= 0.0:
        return _log_cdf_diff_tail(zl, zh)
    if zh <= 0.0:
        return _log_cdf_diff_tail(-zh, -zl)
    return _LOG_HALF + math.log(erf(zh) - erf(zl))


def _box_axis_ratio_tail(t: float, lo: float, hi: float) -> float:
    # Second-derivative-to-value ratio when the point is outside the box
    # (lo = distance past the far edge >= 0 after mirroring).
    s = math.sqrt(2.0 * t)
    zl = lo / s
    zh = hi / s
    delta = zh * zh - zl * zl
    damp = math.exp(-delta) if delta < 745.0 else 0.0
    num = (lo - hi * damp) / math.sqrt(2.0 * math.pi * t)
    den = 0.5 * t * (erfcx(zl) - erfcx(zh) * damp)
    return num / den


def _box_axis_ratio(t: float, a: float, b: float, x: float) -> float:
    lo = x - b
    hi = x - a
    if lo >= 0.0:
        return _box_axis_ratio_tail(t, lo, hi)
    if hi <= 0.0:
        # Mirror symmetry x -> a + b - x leaves the ratio unchanged.
        return _box_axis_ratio_tail(t, -hi, -lo)
    s = math.sqrt(2.0 * t)
    num = (
        lo * math.exp(-lo * lo / (2.0 * t)) - hi * math.exp(-hi * hi / (2.0 * t))
    ) / math.sqrt(2.0 * math.pi * t)
    den = 0.5 * t * (erf(hi / s) - erf(lo / s))
    return num / den


def log_smoothed_density(spec: DensitySpec, t: float, x) -> float:
    """Log of the on-manifold density convolved with a variance-``t``
    Gaussian, evaluated at x.  Empty x (a point mass) gives 0."""
    t = _require_time(t)
    arr = np.asarray(x, dtype=float)
    if isinstance(spec, ConstantOne):
        return 0.0
    if isinstance(spec, GaussianDiag):
        if arr.size != spec.dim:
            raise ModelError(f"point dim {arr.size} != density dim {spec.dim}")
        terms = []
        for s, xi in zip(spec.sigmas, arr):
            v = s * s + t
            terms.append(-0.5 * (_LOG_2PI + math.log(v)) - xi * xi / (2.0 * v))
        return math.fsum(terms)
    if isinstance(spec, UniformBox):
        if arr.size != spec.dim:
            raise ModelError(f"point dim {arr.size} != density dim {spec.dim}")
        terms = []
        for (a, b), xi in zip(spec.bounds, arr):
            terms.append(_log_cdf_diff(t, xi - b, xi - a) - math.log(b - a))
        return math.fsum(terms)
    raise ModelError(f"unknown density spec: {spec!r}")


def smoothed_laplacian_ratio(spec: DensitySpec, t: float, x) -> float:
    """Laplacian of the smoothed on-manifold density divided by its value.

    Per-axis closed forms: 0 for the constant density, the shifted-variance
    Gaussian ratio for diagonal Gaussians, and the edge-kernel ratio for
    boxes (whose density is not twice differentiable before smoothing).
    """
    t = _require_time(t)
    arr = np.asarray(x, dtype=float)
    if isinstance(spec, ConstantOne):
        return 0.0
    if isinstance(spec, GaussianDiag):
        if arr.size != spec.dim:
            raise ModelError(f"point dim {arr.size} != density dim {spec.dim}")
        terms = []
        for s, xi in zip(spec.sigmas, arr):
            v = s * s + t
            terms.append((xi * xi - v) / (v * v))
        return math.fsum(terms)
    if isinstance(spec, UniformBox):
        if arr.size != spec.dim:
            raise ModelError(f"point dim {arr.size} != density dim {spec.dim}")
        terms = []
        for (a, b), xi in zip(spec.bounds, arr):
            terms.append(_box_axis_ratio(t, a, b, xi))
        return math.fsum(terms)
    raise ModelError(f"unknown density spec: {spec!r}")


# ---------------------------------------------------------------------------
# Component and mixture level quantities
# ---------------------------------------------------------------------------

def log_component_rho(component: ManifoldComponent, t: float, z: PointLike) -> float:
    """Log diffused density of one component: smoothed on-manifold factor
    times the Gaussian kernel at the normal displacement."""
    t = _require_time(t)
    x, y = component_split(component, z)
    on = 0.0 if component.dim == 0 else log_smoothed_density(component.density, t, x)
    return on + log_gaussian_kernel(t, y.size, y)


def _component_bias(component: ManifoldComponent, t: float, x, y) -> float:
    # beta - (dim - D) for one component: normal blow-up plus smoothed
    # curvature contribution.
    ratio = (
        0.0
        if component.dim == 0
        else smoothed_laplacian_ratio(component.density, t, x)
    )
    return float(y @ y) / t + t * ratio


def _contains(component: ManifoldComponent, x, y) -> bool:
    # z lies on the component with positive local density.
    if float(y @ y) != 0.0:
        return False
    if component.dim == 0:
        return True
    return eval_psi(component.density, x) > 0.0


def _containing_dims(model: MixtureModel, arr: np.ndarray) -> list[int]:
    # Dimensions of the components that contain the point.
    return [
        comp.dim
        for comp in model.components
        if _contains(comp, *component_split(comp, arr))
    ]


def component_beta_t(component: ManifoldComponent, t: float, z: PointLike) -> BetaValue:
    """Slope sample for a single component at ``z``.

    ``diverged`` marks points off the component (or outside its support),
    where the slope grows like |y|^2 / t as t shrinks.
    """
    t = _require_time(t)
    x, y = component_split(component, z)
    D = x.size + y.size
    bias = _component_bias(component, t, x, y)
    beta = (component.dim - D) + bias
    return BetaValue(beta=beta, bias=bias, diverged=not _contains(component, x, y))


def reference_dim(model: MixtureModel, z: PointLike) -> int:
    """Reference intrinsic dimension at ``z``: the smallest dimension among
    components containing the point, or the model's smallest dimension if
    none does."""
    dims = _containing_dims(model, as_point(z, model.ambient_dim))
    if dims:
        return min(dims)
    return min(comp.dim for comp in model.components)


def log_mixture_rho(model: MixtureModel, t: float, z: PointLike) -> float:
    """Log diffused density of the mixture (stable log-sum over components)."""
    t = _require_time(t)
    arr = as_point(z, model.ambient_dim)
    terms = [
        math.log(w) + log_component_rho(comp, t, arr)
        for comp, w in zip(model.components, model.weights)
    ]
    finite = [v for v in terms if v > -math.inf]
    if not finite:
        return -math.inf
    return float(logsumexp(terms))


def mixture_beta_t(
    model: MixtureModel,
    t: float,
    z: PointLike,
    d_ref: int | None = None,
) -> tuple[BetaValue, np.ndarray]:
    """Slope sample for a mixture, plus per-component responsibilities.

    The slope is the responsibility-weighted combination of the component
    slopes.  The bias is accumulated directly (each component contributes
    its own deviation from ``d_ref - ambient_dim``), which keeps it exact
    when a dominated component's exponentially small responsibility is the
    only source of bias.
    """
    t = _require_time(t)
    arr = as_point(z, model.ambient_dim)
    D = model.ambient_dim
    if d_ref is None:
        d_ref = reference_dim(model, arr)

    splits = [component_split(comp, arr) for comp in model.components]
    log_terms = np.array(
        [
            math.log(w) + log_component_rho(comp, t, arr)
            for comp, w in zip(model.components, model.weights)
        ]
    )
    log_total = float(logsumexp(log_terms))
    if not math.isfinite(log_total):
        value = BetaValue(
            beta=math.inf, bias=math.inf, diverged=True, log_rho=log_total
        )
        return value, np.full(len(model.components), math.nan)

    w = np.exp(log_terms - log_total)
    bias_terms = []
    for comp, (x, y), wi in zip(model.components, splits, w):
        if wi == 0.0:
            continue  # exponentially dominated; exact contribution limit is 0
        bias_terms.append(wi * ((comp.dim - d_ref) + _component_bias(comp, t, x, y)))
    bias = math.fsum(bias_terms)
    beta = (d_ref - D) + bias
    diverged = not _containing_dims(model, arr)
    return BetaValue(beta=beta, bias=bias, diverged=diverged, log_rho=log_total), w


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
    log_den = float(logsumexp([math.log1p(-lam) + expo, math.log(lam)]))
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
        logsumexp([math.log(lambda_i), math.log(mass_c * lambda_j) + expo])
    )
    return math.exp(math.log(lambda_i) - log_den)


def beta_limit(model: MixtureModel, z: PointLike) -> BetaValue:
    """Small-t limit of the mixture slope.

    Among components containing ``z``, the smallest dimension dominates the
    responsibilities (its normal Gaussian factor carries the most negative
    power of t), so the limit is ``d_min - ambient_dim``.  A point on no
    component diverges.
    """
    dims = _containing_dims(model, as_point(z, model.ambient_dim))
    if not dims:
        return BetaValue(beta=math.inf, bias=math.inf, diverged=True)
    d_min = min(dims)
    return BetaValue(beta=float(d_min - model.ambient_dim), bias=0.0, diverged=False)
