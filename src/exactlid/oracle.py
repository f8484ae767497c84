"""Brute-force verification oracles, independent of the closed forms.

The quadrature oracle integrates the defining smoothing convolution with
composite Gauss-Legendre rules; the Monte Carlo oracle averages kernel
values over samples of the data distribution; central differences of the
log density verify Laplacian ratios (``laplacian_fd``, one field call per
block of points) and time derivatives.  The quadrature integrand and the
Monte Carlo draws come from the density classes (``axis_integrand`` and
``draw`` in ``model``), which also hold the closed forms (``smoothed``);
neither calls an error function or the closed forms the oracles are used
to check.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .analytic import _log_sum_exp, _shaped, log_mixture_rho, mixture_slopes
from .model import (
    _LOG_2PI,
    _log_times,
    LIMITS,
    DensitySpec,
    MixtureModel,
    ModelError,
    PointLike,
    as_point,
    as_times,
    component_split,
    require,
    whole_number,
)

__all__ = [
    "McSettings",
    "OracleEstimate",
    "ImproperDensityError",
    "rho_quadrature",
    "rho_monte_carlo",
    "laplacian_fd",
    "beta_fd_time",
    "suggested_spatial_step",
    "asymptotic_slope_pair",
    "power_law_slope_pair",
]

_MC_CHUNK = 1 << 16

# Gauss-Legendre order inside each quadrature panel, and the order of the
# comparison rule whose disagreement is the reported error bound.
RULE_ORDER = 32
HALF_RULE_ORDER = 16


class ImproperDensityError(ModelError):
    """The model contains a non-samplable improper density (a refused input)."""


@dataclass(frozen=True)
class McSettings:
    """Monte Carlo sample count and deterministic seed.

    ``samples`` must be a whole number from 1 to ``LIMITS.samples``, so a
    run past the bound is refused before any draw, and ``seed`` one of at
    least 0; a whole float such as ``1e5`` is stored as an ``int``.
    """

    samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "samples", whole_number(self.samples, "samples"))
        object.__setattr__(self, "seed", whole_number(self.seed, "seed"))
        require(1 <= self.samples <= LIMITS.samples, "samples",
                f"from 1 to {LIMITS.samples}", self.samples)
        require(self.seed >= 0, "seed", "at least 0", self.seed)


@dataclass(frozen=True)
class OracleEstimate:
    """An oracle's log density with a log-space error, at one time or at
    each time of a 1-D array.

    ``log_rho`` and ``log_error`` are floats for a scalar time and (T,)
    arrays for T times, entry ``k`` the scalar call's value at ``t[k]``, bit
    for bit.  ``log_rho`` is the natural log of the density estimate,
    quadrature's that of the sum over every panel.  Quadrature's
    ``log_error`` is an absolute bound, infinite where ``log_rho`` is not
    finite: the largest over components of the summed per-axis
    disagreement |full - half| of the two Gauss-Legendre rules and the
    window tails, plus 1e-15.  On a smooth integrand |full - half| is a few
    ulps of rounding noise, whose last bits depend on the SIMD kernels
    numpy picks for ``exp``, ``log1p`` and ``log``.  Monte Carlo's is the standard error over the
    mean, the first-order error of log(mean), finite also where squared
    kernel values would overflow; where the mean vanished the record is
    (-inf, inf).  ``degenerate`` flags single-sample runs, whose standard
    error is 0 by convention: one flag for every time.
    """

    log_rho: float | np.ndarray
    log_error: float | np.ndarray
    degenerate: bool = False


@lru_cache(maxsize=None)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


# The most panels of one axis window: it costs accuracy on an axis far
# narrower than its window (README, the sigma = 1e-6 axis at t = 3e-3).
_MAX_PANELS = 20000
# The most terms evaluated at once, unless one time's run of panels holds more.
_MAX_TERMS = 1 << 14
# Below this scale sigma^2 t, x sigma^2 or (x - u)^2 may be subnormal, so an
# axis's scale, vertex or integrand may carry more than rounding error.
_MIN_SCALE = 1e-76


def _reach(lo, hi, scale, vertex, log_f, panels, step, orders):
    """The panels [first, stop) of each window that may hold a term which
    does not underflow to exactly 0 in the log-sum-exp.

    By the contract of ``axis_integrand`` the log integrand falls as
    (u - vertex)^2 / (2 scale^2), and a node lies within ``step`` of the
    window point nearest the vertex, d0 from it.  So every term beyond
    r = sqrt((d0 + step)^2 + 2 G scale^2) lies G - log(w_max / w_min)
    below the top term: past exp's underflow at -745.13 for G = 746 +
    log(w_max / w_min).  ``slop`` covers the rounding of edges, nodes and
    distances, and 1e-12 that of terms whose constants stay below 2000.
    A reach that is not finite, or a scale below ``_MIN_SCALE``, takes
    every panel.
    """
    slop = 1e-14 * (np.abs(lo) + np.abs(hi) + np.abs(vertex))
    near = np.maximum(np.maximum(lo - vertex, vertex - hi), 0.0) + step + slop
    gap = 746.0 + max(math.log(w.max() / w.min()) for _, w in map(_leggauss, orders))
    gap += np.log((step + slop) / (step - slop))
    gap += 1e-12 * (np.abs(log_f(vertex, np.arange(len(panels)))) + 4000.0)
    reach = np.sqrt((1.0 + 1e-12) * near * near + 2.0 * scale * scale * gap) + slop
    first = np.floor((vertex - reach - lo) / step)
    stop = np.floor((vertex + reach - lo) / step) + 1.0
    whole = ~(np.isfinite(first) & np.isfinite(stop) & (scale >= _MIN_SCALE))
    first = np.where(whole, 0, np.clip(first, 0, panels - 1)).astype(np.intp)
    stop = np.where(whole, panels, np.clip(stop, 1, panels)).astype(np.intp)
    return first, stop


def _panel_log_sum_exp(terms: np.ndarray) -> np.ndarray:
    """``_log_sum_exp`` of each (panels, order) slice of a (times, panels,
    order) array: each panel's shifted terms summed pairwise, then the panel
    sums in sequence, so a panel whose terms are all 0 changes no bit."""
    peak = terms.max(axis=(1, 2))
    top = terms == peak[:, None, None]
    scaled = np.exp(terms - np.where(np.isfinite(peak), peak, 0.0)[:, None, None])
    scaled[top] = 0.0
    ties = np.maximum(top.sum(axis=(1, 2)), 1)
    sums = np.add.accumulate(scaled.sum(axis=2), axis=1)[:, -1]
    return np.log1p(sums / ties) + np.log(ties) + peak


def _axis_log_integrals(lo, hi, scale, vertex, log_f, orders) -> np.ndarray:
    """Log of one axis factor of the smoothing integral at each time, by
    quadrature of ``log_f`` over the windows [lo, hi] of a density's
    ``axis_integrand``: one row per Gauss-Legendre order of ``orders``, on
    one set of panels per time, and one column per time.

    A window takes panels enough to resolve ``scale``, from 1 (where the
    ratio is not a number) to ``_MAX_PANELS`` (also where it overflows).
    Only those within ``_reach`` are evaluated, one (times, panels, order)
    array per chunk of times, padded with -inf, and ``_panel_log_sum_exp``
    gives each value of the every-panel sum and of its time's own call,
    bit for bit.
    """
    ratio = (hi - lo) / (4.0 * scale)
    panels = np.where(ratio > 1.0, np.minimum(np.ceil(ratio), _MAX_PANELS), 1.0)
    panels = panels.astype(np.intp)
    step = (hi - lo) / panels
    first, stop = _reach(lo, hi, scale, vertex, log_f, panels, step, orders)
    per = max(1, _MAX_TERMS // (max(orders) * int((stop - first).max())))
    values = np.empty((len(orders), len(panels)))
    for start in range(0, len(panels), per):
        k = slice(start, start + per)
        index = first[k, None] + np.arange((stop[k] - first[k]).max())
        pad = index >= stop[k, None]
        index = np.minimum(index, stop[k, None] - 1)
        # the edges of np.linspace(lo, hi, panels + 1): i * step + lo, the last hi
        left = index * step[k, None] + lo[k, None]
        right = (index + 1) * step[k, None] + lo[k, None]
        right = np.where(index + 1 == panels[k, None], hi[k, None], right)
        half = 0.5 * (right - left)
        mid = 0.5 * (left + right)
        times = np.arange(len(panels))[k, None, None]
        for row, order in enumerate(orders):
            base_x, base_w = _leggauss(order)
            terms = log_f(mid[..., None] + half[..., None] * base_x, times)
            terms += np.log(half[..., None] * base_w)
            terms[pad] = -np.inf
            values[row, k] = _panel_log_sum_exp(terms)
    return values


# At coordinates near the float range the squares overflow and the window
# collapses to zero-width panels or overflows: the value is not finite,
# which the estimator reports, and the intermediate warnings are noise.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def rho_quadrature(model: MixtureModel, t, z: PointLike) -> OracleEstimate:
    """Log diffused density by numeric integration over each component, at
    one time or at each time of a 1-D array.

    The smoothing integral factors per axis for every supported density, so
    the tensor-product Gauss-Legendre sum is a product of one-dimensional
    composite rules of order ``RULE_ORDER``, for a component of any
    dimension.  The error bound combines a ``HALF_RULE_ORDER`` rule
    comparison with the window truncation tail.  Each axis evaluates only
    the panels within reach of its peak, at every time at once
    (``_axis_log_integrals``): every value equals the sum over every panel,
    and entry ``k`` of an array call the scalar call at ``t[k]``, bit for
    bit.  A scalar ``t`` gives a record of floats, an array one of columns.
    """
    ts, scalar = as_times(t)
    arr = as_point(z, model.ambient_dim)
    log_ts = _log_times(ts)

    splits = [component_split(comp, arr) for comp in model.components]

    log_terms = []
    err = np.zeros(ts.size)
    for comp, w, (x, y) in zip(model.components, model.weights, splits):
        log_comp = np.zeros(ts.size)
        comp_err = np.zeros(ts.size)
        for j in range(comp.dim):
            *window, log_f, cut = comp.density.axis_integrand(j, ts, float(x[j]))
            full, half = _axis_log_integrals(*window, log_f, (RULE_ORDER, HALF_RULE_ORDER))
            log_comp += full
            comp_err += np.abs(full - half)
            comp_err += cut
        # normal-direction kernel, evaluated directly on the displacement
        if y.size:
            yy = float(y @ y)
            log_comp += -0.5 * y.size * (_LOG_2PI + log_ts) - yy / (2.0 * ts)
        log_terms.append(math.log(w) + log_comp)
        # a failed integral has no bound: abs(full - half) is NaN there,
        # which fmax passes over
        err = np.fmax(err, comp_err)

    values = _log_sum_exp(np.stack(log_terms, axis=-1))
    bounds = np.where(np.isfinite(values), err + 1e-15, math.inf)
    return OracleEstimate(_shaped(values, scalar), _shaped(bounds, scalar))


@np.errstate(over="ignore")  # a square past |c_j| ~ 1.3e154 is inf: a kernel of 0
def _squared_distances(rng, comp, x, y, n: int) -> np.ndarray:
    """Squared distances from the point ``z = (x, y)`` to ``n`` fresh draws
    of ``comp``, from ``rng``'s stream as one (n, dim) block.

    Every distance is summed in one fixed order,
    ``((c_0^2 + c_1^2) + ...) + |y|^2``, with ``c_j = x_j - (a_j + w_j u_j)``
    on a box axis, ``x_j - sigma_j u_j`` on a Gaussian one (a point mass
    has no axes and takes no draws), and ``|y|^2`` one float summed axis by
    axis.  Each column is built in one scratch buffer and its square added
    to one accumulator, so every value equals that sum taken draw by draw
    in Python floats, whatever the CPU.  (A row sum such as ``einsum``
    groups its terms by the CPU's SIMD width.)
    The kernel values still pass through numpy's vector ``exp`` in
    ``_kernel_exp``, which may differ in the last bit between CPUs.
    """
    y2 = 0.0
    for v in y.tolist():
        y2 += v * v
    draws, axes = comp.density.draw(rng, n)
    acc = np.zeros(n)  # 0 + c_0^2 is c_0^2, bit for bit
    col = np.empty(n)
    for j, (a, w) in enumerate(axes):
        np.multiply(draws[:, j], w, out=col)
        if a:  # adding 0 would change no square
            col += a
        np.subtract(x[j], col, out=col)
        np.multiply(col, col, out=col)
        acc += col
    acc += y2
    return acc


# numpy's vector exp costs about 0.8 ns per element in range on an AVX-512
# Xeon, but about 100-150x that where the result is subnormal (below
# -708.4) and about 17x where it is 0 (below -745.13).  So no argument goes
# below -700: a kernel value under e^-700 ~ 9.9e-305 counts as 0, and an
# estimate keeps its bits unless it is itself that small (relative to the
# shifted peak where log_norm passes _LOG_NORM_MAX or falls below
# _EXP_FLOOR: there the floor sits log_norm - shift nats from e^-700).
_EXP_FLOOR = -700.0
_EXP_FLOOR_VALUE = float(np.exp(_EXP_FLOOR))
# the largest log_norm for which 2 _MC_CHUNK kernel values of exp(log_norm)
# sum to a finite double (about 698.0)
_LOG_NORM_MAX = math.log(sys.float_info.max) - math.log(2 * _MC_CHUNK)


def _kernel_exp(q: np.ndarray) -> np.ndarray:
    """``np.exp(q)`` in place, in in-range passes: 0 where ``q <= -700``, bit
    for bit where it is >= 2^54 e^-700 ~ 1.8e-288, within 2 e^-700 between."""
    np.maximum(q, _EXP_FLOOR, out=q)
    np.exp(q, out=q)
    q -= _EXP_FLOOR_VALUE
    return q


def rho_monte_carlo(
    model: MixtureModel, t, z: PointLike, mc: McSettings
) -> OracleEstimate:
    """Log diffused density as the log of a sample average of kernel
    values, at one time or at each time of a 1-D array.

    Draws from the data distribution (component by weight, then per-axis
    coordinates), averages the variance-``t`` Gaussian kernel at the
    displacement from ``z``, and accumulates a streaming mean and variance;
    each record is (log(mean), standard error / mean).
    One set of draws serves every time: the draws and their distances do
    not depend on ``t``, so entry ``k`` of an array call equals the scalar
    call at ``t[k]`` with the same settings, bit for bit.  A scalar ``t``
    gives a record of floats, an array one of columns.  Deterministic for a
    fixed seed.
    """
    ts, scalar = as_times(t)
    times = ts.tolist()
    arr = as_point(z, model.ambient_dim)
    if any(comp.density.improper for comp in model.components):
        raise ImproperDensityError("improper constant density cannot be sampled")

    D = model.ambient_dim
    rng = np.random.default_rng(mc.seed)
    # component i takes the draws whose uniform variate lies in
    # [cum_{i-1}, cum_i) for the cumulative weights cum (nondecreasing, as
    # weights are positive), the first from -inf and the last up to inf
    edges = [-math.inf, *np.cumsum(model.weights)[:-1].tolist(), math.inf]
    log_norms = [-0.5 * D * (_LOG_2PI + math.log(tk)) for tk in times]
    # where a chunk's sum of kernel values up to exp(log_norm) could
    # overflow, they are taken relative to exp(log_norm - _LOG_NORM_MAX),
    # which is added back to log(mean): the peak becomes exp(_LOG_NORM_MAX),
    # so about 1398 nats below it still count, as below an unshifted peak
    # of 698.  Where exp(log_norm) itself is below e^-700, every kernel
    # value would count as 0 (a D = 200 line at t ~ 300): they are taken
    # relative to exp(log_norm), whose peak becomes 1.  Every other time
    # keeps a shift of 0, and so its bits
    shifts = [ln if ln < _EXP_FLOOR else max(0.0, ln - _LOG_NORM_MAX) for ln in log_norms]
    log_norms = [ln - shift for ln, shift in zip(log_norms, shifts)]
    # squared deviations are summed in units of 2^(2 u), 2^(u + 480) >= the
    # largest kernel value exp(log_norm), so a sum of LIMITS.samples < 2^30
    # squares stays below 2^992; u = 0 below 2^480 keeps those bits
    units = [max(0, math.ceil(log_norm / math.log(2.0)) - 480) for log_norm in log_norms]
    splits = [component_split(comp, arr) for comp in model.components]

    count = 0
    means = [0.0] * len(times)
    m2s = [0.0] * len(times)
    remaining = mc.samples
    while remaining > 0:
        m = min(_MC_CHUNK, remaining)
        remaining -= m
        # one component takes every draw: the general path below gives the
        # same bits, but its masks and scatter make a 7-time, 1e5-sample fit
        # of a unit line about 1.5x slower (6.9 against 4.7 ms, AVX-512 Xeon)
        if len(splits) == 1:
            rng.random(m)  # the component draw, kept so the stream stays
            r2 = _squared_distances(rng, model.components[0], *splits[0], m)
        else:
            choice = rng.random(m)
            masks = [(choice >= lo) & (choice < hi) for lo, hi in zip(edges, edges[1:])]
            del choice  # freed before the draws, to keep the peak low
            r2 = np.empty(m)
            for comp, (x, y), mask in zip(model.components, splits, masks):
                cnt = np.count_nonzero(mask)
                if cnt == 0:
                    continue
                part = _squared_distances(rng, comp, x, y, cnt)
                if cnt == m:
                    r2 = part
                else:  # an index scatter is several times faster than a mask's
                    r2[np.flatnonzero(mask)] = part
            del masks, part  # freed before the kernel buffer, to keep the peak low
        r2 *= 0.5
        vals = np.empty(m)
        total = count + m
        for k, (tk, log_norm, unit) in enumerate(zip(times, log_norms, units)):
            # q = log_norm - (0.5 * r2) / t, built in the kernel buffer
            np.divide(r2, tk, out=vals)
            np.subtract(log_norm, vals, out=vals)
            _kernel_exp(vals)

            # chunk-merge form of Welford's streaming moments
            chunk_mean = float(vals.sum()) / m  # what vals.mean() computes
            vals -= chunk_mean
            delta = chunk_mean - means[k]
            means[k] += delta * m / total
            if unit:  # exact: a power of 2
                np.ldexp(vals, -unit, out=vals)
                delta = math.ldexp(delta, -unit)
            chunk_m2 = float(np.square(vals, out=vals).sum())
            m2s[k] += chunk_m2 + delta * delta * count * m / total
        count = total

    se = [math.ldexp(math.sqrt(m2 / (count * (count - 1))), unit) if count > 1
          else 0.0 for m2, unit in zip(m2s, units)]
    log_rho, log_error = np.array([
        (math.log(mean) + shift, e / mean) if mean > 0.0 else (-math.inf, math.inf)
        for mean, e, shift in zip(means, se, shifts)
    ]).T
    return OracleEstimate(
        _shaped(log_rho, scalar), _shaped(log_error, scalar), count == 1
    )


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def laplacian_fd(
    log_field: Callable[[np.ndarray], Sequence[float]], z, h: float
) -> float | np.ndarray:
    """Central second-difference ratio Laplacian(rho)/rho of rho = exp(f),
    at one point ``z`` or at each point of a (P, n) block.

    ``log_field`` maps an (M, n) block of points to its M values of f.  It
    is called once, on the 2n + 1 stencil rows of each point in turn: the
    point, then ``+ h e_j`` for each axis j, then ``- h e_j``.  A point's
    ratio is the sum over axes of (exp(f(z + h e_j) - f(z)) - 2 +
    exp(f(z - h e_j) - f(z))) / h^2, each exponential by ``math.exp``
    (numpy's vector ``exp`` may move the last bit); taken about the center
    value, it never underflows at small t.  It is ``inf`` where every
    stencil log of the point is -inf.  One point gives a float, a block a
    (P,) array.
    """
    require(0.0 < h < math.inf, "step", "positive and finite", h)
    arr = np.asarray(z, dtype=float)
    pts = np.atleast_2d(arr)
    n = pts.shape[1]
    steps = h * np.vstack([np.zeros(n), np.eye(n), -np.eye(n)])
    logs = np.asarray(log_field((pts[:, None, :] + steps).reshape(-1, n))).tolist()
    rows = 2 * n + 1
    if len(logs) != len(pts) * rows:
        raise ValueError(f"field gave {len(logs)} values for {len(pts) * rows} points")
    ratios = []
    for k in range(0, len(logs), rows):
        center, *values = logs[k : k + rows]
        # an explicit loop keeps the axis-by-axis order: from Python 3.12 on,
        # sum() of floats is compensated
        acc = 0.0
        for up, dn in zip(values[:n], values[n:]):
            acc += math.exp(up - center) - 2.0 + math.exp(dn - center)
        vanished = all(v == -math.inf for v in logs[k : k + rows])
        ratios.append(math.inf if vanished else acc / (h * h))
    return ratios[0] if arr.ndim == 1 else np.array(ratios)


def suggested_spatial_step(densities: Iterable[DensitySpec], t: float) -> float:
    """Scale-aware spatial step 1e-4 * sqrt(sigma_min^2 + t), sigma_min^2
    the smallest of the ``variances`` of ``densities``; box and constant
    densities have none, so they contribute no floor."""
    variances = [v for density in densities for v in density.variances]
    return 1e-4 * math.sqrt(min(variances, default=0.0) + t)


def beta_fd_time(model: MixtureModel, z: PointLike, t, h_rel: float = 1e-4):
    """Finite-difference slope 2t d/dt log rho_t via a central difference of
    the log density: (log rho at t(1+h) minus at t(1-h)) / h.

    ``z`` is one point or a (P, D) block and ``t`` a time or a 1-D array of
    times, shaped as in ``log_mixture_rho``: one point at one time gives a
    float.  The whole block takes two ``log_mixture_rho`` calls.  Where the
    log density is -inf at both stencil times the slope is ``inf``, the
    value ``mixture_slopes`` gives there.
    """
    as_times(t)
    require(0.0 < h_rel < 1.0, "relative step", "in (0, 1)", h_rel)
    ts = np.asarray(t, dtype=float)
    up = log_mixture_rho(model, ts * (1.0 + h_rel), z)
    dn = log_mixture_rho(model, ts * (1.0 - h_rel), z)
    vanished = (up == -np.inf) & (dn == -np.inf)
    with np.errstate(invalid="ignore"):  # -inf - -inf, replaced below
        beta = np.where(vanished, np.inf, (up - dn) / h_rel)
    return float(beta) if beta.ndim == 0 else beta


# ---------------------------------------------------------------------------
# Asymptotic slope sequences
# ---------------------------------------------------------------------------

def _check_decreasing(ts: Sequence[float]) -> np.ndarray:
    arr, _ = as_times(ts)
    if arr.size < 3:
        raise ValueError("need at least 3 time values")
    require(np.all(np.diff(arr) < 0.0), "time sequence", "strictly decreasing",
            tuple(arr.tolist()))
    return arr


def _discrete_slopes(logs_t: np.ndarray, logs_f: np.ndarray) -> list[float]:
    """Slope of log f against log t between each time and the one before
    it; the first time takes the slope of the first interval."""
    slopes = np.diff(logs_f) / np.diff(logs_t)
    return np.concatenate([slopes[:1], slopes]).tolist()


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
    slopes = mixture_slopes(model, ts, z)
    discrete = _discrete_slopes(np.log(ts), slopes.log_rho)
    return [(d, float(beta) / 2.0) for d, beta in zip(discrete, slopes.beta)]


def power_law_slope_pair(
    alpha: float, t_sequence: Sequence[float]
) -> list[tuple[float, float]]:
    """Slope pairs for the synthetic field f(t) = t^(-alpha).

    The derivative route t f'/f equals -alpha identically, so it is
    returned exactly; the discrete-slope route is computed from the log
    values like the model version.
    """
    logs_t = np.log(_check_decreasing(t_sequence))
    discrete = _discrete_slopes(logs_t, -float(alpha) * logs_t)
    return [(d, -float(alpha)) for d in discrete]
