"""Brute-force verification oracles, independent of the closed forms.

The quadrature oracle integrates the defining smoothing convolution with
composite Gauss-Legendre rules; the Monte Carlo oracle averages kernel
values over samples of the data distribution; finite differences verify
Laplacians and time derivatives.  None of these touch the error-function
based closed forms they are used to check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import logsumexp

from .analytic import log_mixture_rho, mixture_beta_t
from .model import (
    ConstantOne,
    DensitySpec,
    GaussianDiag,
    ManifoldComponent,
    MixtureModel,
    PointLike,
    UniformBox,
    as_point,
    component_split,
)

__all__ = [
    "QuadratureSettings",
    "McSettings",
    "OracleEstimate",
    "QuadratureDimensionError",
    "ImproperDensityError",
    "rho_quadrature",
    "rho_monte_carlo",
    "laplacian_fd",
    "beta_fd_time",
    "beta_fd_space",
    "suggested_spatial_step",
    "asymptotic_slope_pair",
    "power_law_slope_pair",
]

_LOG_2PI = math.log(2.0 * math.pi)
_MC_CHUNK = 1 << 16


class QuadratureDimensionError(ValueError):
    """A component exceeds the configured quadrature dimension limit."""


class ImproperDensityError(ValueError):
    """The model contains a non-samplable improper density."""


@dataclass(frozen=True)
class QuadratureSettings:
    """Composite Gauss-Legendre configuration.

    ``nodes_per_axis`` is the rule order inside each panel; panels subdivide
    the truncation window finely enough to resolve the narrowest integrand
    scale, so accuracy improves with the order as usual.
    """

    nodes_per_axis: int = 32
    truncation_radius_sigmas: float = 8.0
    max_quadrature_dim: int = 3

    def __post_init__(self):
        if self.nodes_per_axis < 16:
            raise ValueError("nodes_per_axis must be at least 16")
        if not self.truncation_radius_sigmas > 0.0:
            raise ValueError("truncation radius must be positive")


@dataclass(frozen=True)
class McSettings:
    """Monte Carlo sample count and deterministic seed."""

    samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be at least 1")


@dataclass(frozen=True)
class OracleEstimate:
    """An oracle value with a conservative error bound.

    Quadrature reports a log-density value with an absolute log-space
    bound; Monte Carlo reports a linear-space mean with its standard
    error.  ``degenerate`` flags single-sample runs whose error bound is 0
    by convention.
    """

    value: float
    error_bound: float
    degenerate: bool = False


@lru_cache(maxsize=None)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _composite_nodes(
    lo: float, hi: float, scale: float, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [lo, hi], paneled so each panel
    spans at most a few multiples of the integrand scale."""
    width = hi - lo
    panels = max(1, min(20000, int(math.ceil(width / (4.0 * scale)))))
    edges = np.linspace(lo, hi, panels + 1)
    base_x, base_w = _leggauss(order)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    return nodes, weights


def _axis_log_integral(
    kind: str,
    param,
    t: float,
    xj: float,
    settings: QuadratureSettings,
    order: int,
) -> float:
    """Log of one axis factor of the smoothing integral, by quadrature.

    kind/param: ("gauss", sigma), ("box", (a, b)), or ("const", None).
    """
    radius = settings.truncation_radius_sigmas
    if kind == "gauss":
        sigma = param
        v = sigma * sigma + t
        center = xj * sigma * sigma / v  # peak of the product integrand
        lo, hi = center - radius * math.sqrt(v), center + radius * math.sqrt(v)
        scale = math.sqrt(sigma * sigma * t / v)
        nodes, weights = _composite_nodes(lo, hi, scale, order)
        log_f = (
            -0.5 * (_LOG_2PI + 2.0 * math.log(sigma))
            - nodes * nodes / (2.0 * sigma * sigma)
            - 0.5 * (_LOG_2PI + math.log(t))
            - (xj - nodes) ** 2 / (2.0 * t)
        )
    elif kind == "box":
        a, b = param
        lo, hi = a, b
        scale = math.sqrt(t)
        nodes, weights = _composite_nodes(lo, hi, scale, order)
        log_f = (
            -math.log(b - a)
            - 0.5 * (_LOG_2PI + math.log(t))
            - (xj - nodes) ** 2 / (2.0 * t)
        )
    elif kind == "const":
        scale = math.sqrt(t)
        lo, hi = xj - radius * scale, xj + radius * scale
        nodes, weights = _composite_nodes(lo, hi, scale, order)
        log_f = -0.5 * (_LOG_2PI + math.log(t)) - (xj - nodes) ** 2 / (2.0 * t)
    else:
        raise ValueError(f"unknown axis kind: {kind!r}")
    return float(logsumexp(log_f + np.log(weights)))


def _component_axes(comp: ManifoldComponent) -> list[tuple[str, object]]:
    if comp.dim == 0:
        return []
    density = comp.density
    if isinstance(density, GaussianDiag):
        return [("gauss", s) for s in density.sigmas]
    if isinstance(density, UniformBox):
        return [("box", pair) for pair in density.bounds]
    if isinstance(density, ConstantOne):
        return [("const", None)] * comp.dim
    raise ValueError(f"unknown density spec: {density!r}")


def rho_quadrature(
    model: MixtureModel,
    t: float,
    z: PointLike,
    settings: QuadratureSettings = QuadratureSettings(),
) -> OracleEstimate:
    """Log diffused density by numeric integration over each component.

    The smoothing integral factors per axis for every supported density, so
    the tensor-product Gauss-Legendre sum is evaluated as a product of
    one-dimensional composite rules (identical value, evaluable at any
    panel count).  The error bound combines a half-order rule comparison
    with the window truncation tail.
    """
    if not t > 0.0:
        raise ValueError(f"time must be positive, got {t!r}")
    arr = as_point(z, model.ambient_dim)
    tail = math.erfc(settings.truncation_radius_sigmas / math.sqrt(2.0))

    log_terms = []
    err = 0.0
    for comp, w in zip(model.components, model.weights):
        if comp.dim > settings.max_quadrature_dim:
            raise QuadratureDimensionError(
                f"component dim {comp.dim} exceeds quadrature limit "
                f"{settings.max_quadrature_dim}; use rho_monte_carlo"
            )
        x, y = component_split(comp, arr)
        log_comp = 0.0
        comp_err = 0.0
        for axis_idx, (kind, param) in enumerate(_component_axes(comp)):
            full = _axis_log_integral(
                kind, param, t, float(x[axis_idx]), settings, settings.nodes_per_axis
            )
            half = _axis_log_integral(
                kind, param, t, float(x[axis_idx]), settings,
                max(16, settings.nodes_per_axis // 2),
            )
            log_comp += full
            comp_err += abs(full - half)
            if kind != "box":
                comp_err += tail  # window truncation (box windows are exact)
        # normal-direction kernel, evaluated directly on the displacement
        if y.size:
            log_comp += -0.5 * y.size * (_LOG_2PI + math.log(t)) - float(y @ y) / (
                2.0 * t
            )
        log_terms.append(math.log(w) + log_comp)
        err = max(err, comp_err)

    value = float(logsumexp(log_terms))
    return OracleEstimate(value=value, error_bound=err + 1e-15)


def rho_monte_carlo(
    model: MixtureModel, t: float, z: PointLike, mc: McSettings
) -> OracleEstimate:
    """Diffused density as a sample average of kernel values.

    Draws from the data distribution (component by weight, then per-axis
    coordinates), averages the variance-``t`` Gaussian kernel at the
    displacement from ``z``, and accumulates a streaming mean and variance.
    Deterministic for a fixed seed.
    """
    if not t > 0.0:
        raise ValueError(f"time must be positive, got {t!r}")
    arr = as_point(z, model.ambient_dim)
    for comp in model.components:
        if comp.dim > 0 and isinstance(comp.density, ConstantOne):
            raise ImproperDensityError(
                "improper constant density cannot be sampled"
            )

    D = model.ambient_dim
    rng = np.random.default_rng(mc.seed)
    cum = np.cumsum(model.weights)
    log_norm = -0.5 * D * (_LOG_2PI + math.log(t))

    count = 0
    mean = 0.0
    m2 = 0.0
    remaining = mc.samples
    while remaining > 0:
        m = min(_MC_CHUNK, remaining)
        remaining -= m
        idx = np.searchsorted(cum, rng.random(m), side="right")
        np.clip(idx, 0, len(model.components) - 1, out=idx)
        pts = np.empty((m, D))
        for i, comp in enumerate(model.components):
            mask = idx == i
            cnt = int(mask.sum())
            if cnt == 0:
                continue
            d = comp.dim
            if d > 0:
                if isinstance(comp.density, GaussianDiag):
                    draws = rng.standard_normal((cnt, d)) * np.asarray(
                        comp.density.sigmas
                    )
                else:  # UniformBox
                    bounds = np.asarray(comp.density.bounds)
                    draws = bounds[:, 0] + rng.random((cnt, d)) * (
                        bounds[:, 1] - bounds[:, 0]
                    )
                pts[mask, :d] = draws
            if d < D:
                pts[mask, d:] = np.asarray(comp.offset)
        diff = arr[None, :] - pts
        vals = np.exp(log_norm - 0.5 * np.einsum("ij,ij->i", diff, diff) / t)

        # chunk-merge form of Welford's streaming moments
        chunk_mean = float(vals.mean())
        chunk_m2 = float(((vals - chunk_mean) ** 2).sum())
        delta = chunk_mean - mean
        total = count + m
        mean += delta * m / total
        m2 += chunk_m2 + delta * delta * count * m / total
        count = total

    if count > 1:
        stderr = math.sqrt(m2 / (count * (count - 1)))
        return OracleEstimate(value=mean, error_bound=stderr)
    return OracleEstimate(value=mean, error_bound=0.0, degenerate=True)


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def laplacian_fd(field: Callable[[np.ndarray], float], z, h: float) -> float:
    """Central second-difference Laplacian of a scalar field at ``z``."""
    if not h > 0.0:
        raise ValueError(f"step must be positive, got {h!r}")
    arr = np.asarray(z, dtype=float)
    center = field(arr)
    acc = 0.0
    for j in range(arr.size):
        step = np.zeros_like(arr)
        step[j] = h
        acc += field(arr + step) - 2.0 * center + field(arr - step)
    return acc / (h * h)


def suggested_spatial_step(densities: Iterable[DensitySpec], t: float) -> float:
    """Scale-aware spatial step 1e-4 * sqrt(sigma_min^2 + t), sigma_min
    taken over the Gaussian axes of ``densities``; box and constant
    densities contribute no sigma floor."""
    variances = [
        s * s
        for density in densities
        if isinstance(density, GaussianDiag)
        for s in density.sigmas
    ]
    return 1e-4 * math.sqrt(min(variances, default=0.0) + t)


def beta_fd_time(
    model: MixtureModel, z: PointLike, t: float, h_rel: float = 1e-4
) -> float:
    """Finite-difference slope 2t d/dt log rho_t via a central difference of
    the log density: (log rho at t(1+h) minus at t(1-h)) / h."""
    if not t > 0.0:
        raise ValueError(f"time must be positive, got {t!r}")
    if not 0.0 < h_rel < 1.0:
        raise ValueError(f"relative step must lie in (0, 1), got {h_rel!r}")
    up = log_mixture_rho(model, t * (1.0 + h_rel), z)
    dn = log_mixture_rho(model, t * (1.0 - h_rel), z)
    return (up - dn) / h_rel


def beta_fd_space(
    model: MixtureModel, z: PointLike, t: float, h: float | None = None
) -> float:
    """Finite-difference slope t * Laplacian(rho)/rho.

    Works on log densities shifted by the center value before
    exponentiation, so small-t underflow never occurs.
    """
    if not t > 0.0:
        raise ValueError(f"time must be positive, got {t!r}")
    if h is None:
        h = suggested_spatial_step(
            (comp.density for comp in model.components if comp.dim > 0), t
        )
    arr = as_point(z, model.ambient_dim)
    center = log_mixture_rho(model, t, arr)
    return t * laplacian_fd(
        lambda p: math.exp(log_mixture_rho(model, t, p) - center), arr, h
    )


# ---------------------------------------------------------------------------
# Asymptotic slope sequences
# ---------------------------------------------------------------------------

def _check_decreasing(ts: Sequence[float]) -> np.ndarray:
    arr = np.asarray(ts, dtype=float)
    if arr.size < 3:
        raise ValueError("need at least 3 time values")
    if not np.all(arr > 0.0):
        raise ValueError("time values must be positive")
    if not np.all(np.diff(arr) < 0.0):
        raise ValueError("time values must be strictly decreasing")
    return arr


def asymptotic_slope_pair(
    model: MixtureModel, z: PointLike, t_sequence: Sequence[float]
) -> list[tuple[float, float]]:
    """Two routes to the asymptotic log-density exponent, per time value.

    The first entry of each pair is the discrete slope of log rho against
    log t between consecutive times (the limit-ratio formulation); the
    second is t times the exact log-derivative, i.e. half the analytic
    slope.  Both approach half the limiting slope as t shrinks; values are
    returned raw for the caller to assert on.
    """
    ts = _check_decreasing(t_sequence)
    logs_t = np.log(ts)
    logs_rho = np.array([log_mixture_rho(model, float(t), z) for t in ts])
    out = []
    for i, t in enumerate(ts):
        j = i if i > 0 else 1
        cond3 = (logs_rho[j] - logs_rho[j - 1]) / (logs_t[j] - logs_t[j - 1])
        beta, _ = mixture_beta_t(model, float(t), z)
        out.append((float(cond3), beta.beta / 2.0))
    return out


def power_law_slope_pair(
    alpha: float, t_sequence: Sequence[float]
) -> list[tuple[float, float]]:
    """Slope pairs for the synthetic field f(t) = t^(-alpha).

    The derivative route t f'/f equals -alpha identically, so it is
    returned exactly; the discrete-slope route is computed from the log
    values like the model version.
    """
    ts = _check_decreasing(t_sequence)
    logs_t = np.log(ts)
    logs_f = -float(alpha) * logs_t
    out = []
    for i in range(ts.size):
        j = i if i > 0 else 1
        cond3 = (logs_f[j] - logs_f[j - 1]) / (logs_t[j] - logs_t[j - 1])
        out.append((float(cond3), -float(alpha)))
    return out
