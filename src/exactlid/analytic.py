"""Closed-form diffused densities, Laplacian ratios, and dimension slopes.

Smoothing a flat component with an isotropic Gaussian of variance ``t``
factors into an on-manifold part (the density convolved with a Gaussian on
R^dim) and a normal part (a Gaussian at the offset displacement).  This
module evaluates those factors, their Laplacian-to-value ratios, and the
reparameterized log-density slope

    beta_t(z) = 2t d/dt log rho_t(z) = t * Laplacian(rho_t)(z) / rho_t(z),

whose small-t limit equals dim - ambient_dim on the manifold.  Everything
is computed in log space so that time scales down to 1e-15 stay exact.

The closed forms take ``t`` as a float or a 1-D array of times and ``z``
as one point or a (P, D) block of points.  Results have one row per point
and one column per time; a single point drops the row axis and a scalar
``t`` the column axis, so one point at one time gives a float.  A block is
evaluated over points and times together, and a box over its axes too:
the Python loops run over components only, and each row of a block equals
the single-point result bit for bit (``mixture_slopes``).  The per-axis
closed forms of each density kind are its class's ``smoothed`` (``model``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._erf import _libm_exp
from .model import (
    _LOG_2PI,
    _log_times,
    DensitySpec,
    ManifoldComponent,
    MixtureModel,
    PointLike,
    as_point,
    as_points,
    as_times,
    component_split,
    require,
)

__all__ = [
    "MixtureSlopes",
    "log_smoothed_density",
    "smoothed_laplacian_ratio",
    "log_component_rho",
    "log_mixture_rho",
    "mixture_slopes",
    "mixture_beta_t",
    "parallel_planes_beta",
    "coefficient_bound",
    "reference_dim",
]

def _rows(v) -> tuple[np.ndarray, bool]:
    """``v`` as a (P, n) block of rows, and whether it was given as one row."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim < 2:
        return arr.reshape(1, arr.size), True
    if arr.ndim > 2:
        raise ValueError(f"expected a row or a 2-D block of rows, got {arr.shape}")
    return arr, False


def _shaped(values: np.ndarray, scalar: bool, single: bool = False):
    # A (P, T) block at the caller's shapes: the point axis dropped for one
    # point, the time axis for a scalar time.
    if single:
        values = values[0]
    if scalar:
        values = values[..., 0]
    return values.item() if values.ndim == 0 else values


@np.errstate(over="ignore")
def _norm2(v: np.ndarray) -> np.ndarray:
    # |v|^2 of each row of a (P, n) block, inf without an overflow warning
    # for coordinates beyond ~1e154.  The stacked matmul sums each row in
    # the same order as ``row @ row``, bit for bit.
    return (v[:, None, :] @ v[:, :, None])[:, 0, 0]


def log_smoothed_density(spec: DensitySpec, t, x):
    """Log of the on-manifold density convolved with a variance-``t``
    Gaussian, evaluated at x.  Empty x (a point mass) gives 0.

    ``t`` is a time or a 1-D array of times and ``x`` one point or a
    (P, dim) block of points; the result has one row per point and one
    column per time, with each axis dropped for a single point or a scalar
    ``t``.
    """
    ts, scalar = as_times(t)
    rows, single = _rows(x)
    return _shaped(spec.smoothed(ts, rows)[0], scalar, single)


def smoothed_laplacian_ratio(spec: DensitySpec, t, x):
    """Laplacian of the smoothed on-manifold density divided by its value.

    Per-axis closed forms: 0 for the constant density, the shifted-variance
    Gaussian ratio for diagonal Gaussians, and the edge-kernel ratio for
    boxes (whose density is not twice differentiable before smoothing).
    ``t`` and ``x`` and the result's shape are as in log_smoothed_density.
    """
    ts, scalar = as_times(t)
    rows, single = _rows(x)
    return _shaped(spec.smoothed(ts, rows)[1], scalar, single)


# ---------------------------------------------------------------------------
# Component and mixture level quantities
# ---------------------------------------------------------------------------

def log_component_rho(component: ManifoldComponent, t, z: PointLike):
    """Log diffused density of one component and its own slope deviation,
    from one evaluation: ``(log_rho, bias)``.

    ``log_rho`` is the smoothed on-manifold factor times the Gaussian kernel
    at the normal displacement y (log 1 = 0 with no normal axes); ``bias`` is
    beta - (dim - D), the normal blow-up |y|^2 / t plus t times the
    on-manifold Laplacian ratio.  ``t``, ``z`` and the shapes of both are
    as in log_mixture_rho.
    """
    ts, scalar = as_times(t)
    x, y = component_split(component, z)
    y, single = _rows(y)
    on, ratio = component.density.smoothed(ts, x.reshape(len(y), component.dim))
    k = y.shape[1]
    yy = _norm2(y)[:, None]
    # far off the manifold the kernel is -inf and the bias inf
    with np.errstate(over="ignore"):
        if k == 0:
            kernel = np.zeros((len(y), ts.size))
        else:
            kernel = -0.5 * k * (_LOG_2PI + np.log(ts)) - 0.5 * yy / ts
        bias = yy / ts + ts * ratio
    return _shaped(on + kernel, scalar, single), _shaped(bias, scalar, single)


def _contains(component: ManifoldComponent, x, y) -> np.ndarray:
    # (P,) whether each point lies on the component's support: on its
    # affine subspace and in its density's support.
    return (_norm2(y) == 0.0) & component.density.contains(x)


def _splits(model: MixtureModel, arr: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    return [component_split(comp, arr) for comp in model.components]


def _containment(model: MixtureModel, splits) -> np.ndarray:
    # (P, K): which components contain each point of the block split as
    # ``splits``.
    return np.stack(
        [_contains(comp, x, y) for comp, (x, y) in zip(model.components, splits)],
        axis=1,
    )


def _reference_dims(model: MixtureModel, contains: np.ndarray) -> np.ndarray:
    # (P,) smallest dimension among the components containing each point,
    # or the model's smallest dimension where none does.
    dims = np.array([comp.dim for comp in model.components])
    nearest = np.where(contains, dims, model.ambient_dim).min(axis=1)
    return np.where(contains.any(axis=1), nearest, dims.min())


def reference_dim(model: MixtureModel, z: PointLike) -> int:
    """Reference intrinsic dimension at ``z``: the smallest dimension among
    components containing the point, or the model's smallest dimension if
    none does."""
    block = as_point(z, model.ambient_dim)[None]
    return int(_reference_dims(model, _containment(model, _splits(model, block)))[0])


def _log_sum_exp(log_terms: np.ndarray) -> np.ndarray:
    """Log of the summed exponentials over the last axis of an array, with
    scipy's ``logsumexp`` scheme, bit for bit.

    Each row is shifted by its maximum.  The terms equal to the maximum are
    kept out of the sum and counted, and the result is
    log1p(s / m) + log(m) + max for the sum ``s`` of the other shifted terms
    and the count ``m``, so a dominant term stays exact.  A row of -inf
    gives -inf.
    """
    peak = log_terms.max(axis=-1, keepdims=True)
    top = log_terms == peak
    scaled = np.exp(log_terms - np.where(np.isfinite(peak), peak, 0.0))
    scaled[top] = 0.0
    # a row holding NaN has no term equal to its NaN maximum; it gives NaN
    ties = np.maximum(top.sum(axis=-1), 1)
    return np.log1p(scaled.sum(axis=-1) / ties) + np.log(ties) + peak[..., 0]


def log_mixture_rho(model: MixtureModel, t, z: PointLike):
    """Log diffused density of the mixture (stable log-sum over components):
    the ``log_rho`` of ``mixture_slopes``.

    ``t`` is a time or a 1-D array of times and ``z`` one point or a (P, D)
    block of points; the result has one row per point and one column per
    time, with each axis dropped for a single point or a scalar ``t``.  A
    point every component's density underflows at gives -inf.
    """
    return mixture_slopes(model, t, z).log_rho


@dataclass(frozen=True)
class MixtureSlopes:
    """Mixture slope samples over a 1-D array of times or at one time, at
    one point or at each point of a block.

    For one point and T times, ``log_rho``, ``beta``, ``bias`` and
    ``diverged`` have one entry per time, ``responsibilities`` one row per
    time and one column per component, and ``d_ref`` is an int.  A scalar
    time drops the time axis: floats, a bool and (K,) responsibilities.  A
    block of P points adds a leading axis of length P to each: (P, T)
    columns, (P, T, K) responsibilities and a (P,) array ``d_ref``.
    ``beta == (d_ref - ambient_dim) + bias``.  A time at which every
    component's log density is -inf has ``beta == bias == inf``,
    ``diverged`` set and NaN responsibilities.
    """

    d_ref: int | np.ndarray
    log_rho: np.ndarray
    beta: np.ndarray
    bias: np.ndarray
    diverged: np.ndarray
    responsibilities: np.ndarray


def mixture_slopes(
    model: MixtureModel, t, z: PointLike, d_ref: int | None = None
) -> MixtureSlopes:
    """Slope, bias, log density and responsibilities of a mixture at ``z``
    (one point, or a (P, D) block of points) for every time in ``t`` (a
    time or a 1-D array of times).

    The slope is the responsibility-weighted combination of the component
    slopes.  The bias is accumulated directly (each component contributes
    its own deviation from ``d_ref - ambient_dim``), which keeps it exact
    when a dominated component's exponentially small responsibility is the
    only source of bias.  ``d_ref`` defaults to each point's
    ``reference_dim`` and must be an integer in ``[0, ambient_dim]``.
    """
    ts, scalar = as_times(t)
    block, single = _rows(as_points(z, model.ambient_dim))
    splits = _splits(model, block)
    contains = _containment(model, splits)
    if d_ref is None:
        d_ref = _reference_dims(model, contains)
    else:
        require(d_ref in range(model.ambient_dim + 1), "d_ref",
                f"an integer in [0, {model.ambient_dim}]", d_ref)
    d_ref = np.full(len(block), d_ref, dtype=int)

    per_component = [log_component_rho(comp, ts, block) for comp in model.components]
    log_terms = np.stack(
        [math.log(w) + log_c for w, (log_c, _) in zip(model.weights, per_component)],
        axis=-1,
    )
    log_rho = _log_sum_exp(log_terms)
    finite = np.isfinite(log_rho)
    with np.errstate(invalid="ignore"):  # rows of -inf give NaN
        w = np.exp(log_terms - log_rho[..., None])

    comp_bias = np.stack(
        [
            (comp.dim - d_ref)[:, None] + bias_c
            for comp, (_, bias_c) in zip(model.components, per_component)
        ],
        axis=-1,
    )
    # A component whose responsibility underflowed to 0 contributes exactly
    # 0: masked, not multiplied, because its own bias may be infinite.
    weighted = np.zeros(w.shape)
    np.multiply(w, comp_bias, out=weighted, where=w != 0.0)
    with np.errstate(over="ignore"):  # far off the manifold the bias is inf
        bias = np.where(finite, weighted.sum(axis=-1), math.inf)
    if scalar:
        w = w[:, 0]
    columns = (
        log_rho,
        (d_ref - model.ambient_dim)[:, None] + bias,
        bias,
        ~finite | ~contains.any(axis=1)[:, None],
    )
    return MixtureSlopes(
        int(d_ref[0]) if single else d_ref,
        *(_shaped(c, scalar, single) for c in columns),
        w[0] if single else w,
    )


def mixture_beta_t(
    model: MixtureModel,
    t: float,
    z: PointLike,
    d_ref: int | None = None,
) -> tuple[MixtureSlopes, np.ndarray]:
    """Slope sample for a mixture at one time, plus per-component
    responsibilities: ``mixture_slopes`` at the single time ``t``."""
    s = mixture_slopes(model, float(t), z, d_ref)
    return s, s.responsibilities


# At times near either end of the float range 2t or the exponent overflows
# to inf, silently as in Python floats, and the log-space form gives the limit.
@np.errstate(over="ignore")
def parallel_planes_beta(t, lam: float, v_norm: float):
    """Closed-form slope correction for two parallel flat components with
    equal on-manifold density, separated by ``v_norm``, the off component
    carrying weight ``lam``: the deviation of the mixture's slope from the
    single-plane slope.

    The correction is ``lam * v_norm^2 / (t ((1-lam) e^{v_norm^2/2t} +
    lam))``, evaluated in log space: the exponent may overflow, in which
    case the correction underflows cleanly to 0.  ``t`` is a time or a 1-D
    array of times; a scalar gives a float, an array one entry per time.
    """
    ts, scalar = as_times(t)
    lam = float(lam)
    v_norm = float(v_norm)
    require(0.0 < lam < 1.0, "weight", "in (0, 1)", lam)
    require(0.0 < v_norm < math.inf, "separation", "positive and finite", v_norm)
    expo = v_norm * v_norm / (2.0 * ts)
    log_den = np.logaddexp(math.log1p(-lam) + expo, math.log(lam))
    log_corr = math.log(lam) + 2.0 * math.log(v_norm) - _log_times(ts) - log_den
    return _shaped(_libm_exp(log_corr), scalar)


@np.errstate(over="ignore")  # as in parallel_planes_beta
def coefficient_bound(
    lambda_i: float,
    lambda_j: float,
    mass_c: float,
    big_r: float,
    small_r: float,
    t,
):
    """Upper bound on the responsibility of a component with no mass within
    ``big_r`` of the point, given a competitor holding mass ``mass_c``
    within ``small_r``:

        lambda_i / (lambda_i + mass_c * lambda_j * e^{(R^2 - r^2)/2t})

    ``t`` is a time or a 1-D array of times; a scalar gives a float, an
    array one entry per time.
    """
    ts, scalar = as_times(t)
    require(big_r > small_r > 0.0, "radii (R, r)", "ordered R > r > 0", (big_r, small_r))
    require(lambda_i > 0.0 and lambda_j > 0.0, "weights", "positive", (lambda_i, lambda_j))
    require(0.0 < mass_c <= 1.0, "mass", "in (0, 1]", mass_c)
    expo = (big_r * big_r - small_r * small_r) / (2.0 * ts)
    log_den = np.logaddexp(math.log(lambda_i), math.log(mass_c * lambda_j) + expo)
    return _shaped(_libm_exp(math.log(lambda_i) - log_den), scalar)
