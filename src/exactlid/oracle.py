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
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .analytic import _log_sum_exp, log_mixture_rho, mixture_slopes
from .model import (
    _LOG_2PI,
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
    """An oracle value with a conservative error bound.

    Quadrature reports a log-density value with an absolute log-space
    bound, infinite when the value is not finite: the largest over
    components of the summed per-axis disagreement |full - half| of the two
    Gauss-Legendre rules and the window tails, plus 1e-15.  On a smooth
    integrand |full - half| is a few ulps of rounding noise, whose last bits
    depend on the SIMD kernels numpy picks for ``exp``, ``log1p`` and
    ``log``.  Monte Carlo reports a linear-space mean with its standard
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
    edges: np.ndarray, order: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of ``order`` points in each panel
    between consecutive ``edges``.

    Built per panel, so the nodes of a run of panels are the same floats
    whether the run is sliced from ``edges`` or from the full result.
    ``_axis_log_integrals`` drops a panel only when every one of its terms
    underflows to exactly 0 after the log-sum-exp shift.

    Panels are capped at 20000 per axis, which limits accuracy on axes far
    narrower than their window: the sigma=1e-6 axis of aniso-gaussian-3d
    (window 8 sqrt(sigma^2 + t) around the peak) leaves an error of 4.2e-11
    at t=1e-3 (bound 3.7e-5) and 1.8e-7 at t=3e-3 (bound 4.5e-3).
    """
    base_x, base_w = _leggauss(order)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    return nodes, weights


# A term more than this far below the largest one has exp(term - max) < the
# smallest subnormal / 2, i.e. exactly 0 (exp(-745.13) rounds to 0).
_UNDERFLOW_GAP = 746.0
# Panels whose bound is this far below the top bound are not evaluated; the
# extra 54 leaves room for the top bound to sit above the top term.
_SKIP_GAP = 800.0


def _axis_log_integrals(lo, hi, scale, vertex, log_f, orders) -> list[float]:
    """Log of one axis factor of the smoothing integral, by quadrature of
    ``log_f`` over the window [lo, hi] from a density's ``axis_integrand``:
    one value per Gauss-Legendre order of ``orders``, all on one set of
    panels.

    Panels subdivide the window finely enough to resolve the integrand
    scale, up to 20000 panels.  Since the log integrand is concave, no term
    of a panel exceeds its value at the panel point nearest the vertex plus
    the log of the panel's largest weight.  Per order, only the run of
    panels whose bound comes within ``_SKIP_GAP`` of the top is evaluated;
    if a skipped panel's bound is not ``_UNDERFLOW_GAP`` below the largest
    evaluated term (so some of its terms might not underflow), every panel
    is evaluated.
    """
    panels = max(1, min(20000, int(math.ceil((hi - lo) / (4.0 * scale)))))
    edges = np.linspace(lo, hi, panels + 1)
    nearest_log_f = log_f(np.clip(vertex, edges[:-1], edges[1:]))
    half = 0.5 * np.diff(edges)
    values = []
    for order in orders:
        bound = nearest_log_f + np.log(half * _leggauss(order)[1].max())
        keep = np.flatnonzero(bound >= bound.max() - _SKIP_GAP)
        first, last = int(keep[0]), int(keep[-1]) + 1
        nodes, weights = _composite_nodes(edges[first : last + 1], order)
        terms = log_f(nodes) + np.log(weights)
        # a slack of 1e-12 |bound| covers the rounding of bound and terms;
        # a -inf bound (NaN here) holds no mass and forces nothing
        skipped = np.concatenate([bound[:first], bound[last:]])
        with np.errstate(invalid="ignore"):
            unsure = skipped + 1e-12 * np.abs(skipped) >= terms.max() - _UNDERFLOW_GAP
        if np.any(unsure):
            nodes, weights = _composite_nodes(edges, order)
            terms = log_f(nodes) + np.log(weights)
        values.append(float(_log_sum_exp(terms)))
    return values


# At coordinates near the float range the squares overflow and the window
# collapses to zero-width panels: the value is not finite, which the
# estimator reports, and the intermediate warnings are noise.
@np.errstate(over="ignore", divide="ignore")
def rho_quadrature(
    model: MixtureModel, t, z: PointLike
) -> OracleEstimate | list[OracleEstimate]:
    """Log diffused density by numeric integration over each component, at
    one time or at each time of a 1-D array.

    The smoothing integral factors per axis for every supported density, so
    the tensor-product Gauss-Legendre sum is evaluated as a product of
    one-dimensional composite rules of order ``RULE_ORDER`` (identical
    value, evaluable at any panel count and for a component of any
    dimension).  The error bound combines a ``HALF_RULE_ORDER`` rule
    comparison with the window truncation tail.  The windows depend on the
    time, so each time is integrated on its own: entry ``k`` of an array
    call equals the scalar call at ``t[k]``, bit for bit.  A scalar ``t``
    returns one estimate, an array a list of one per time.
    """
    ts, scalar = as_times(t)
    arr = as_point(z, model.ambient_dim)
    splits = [component_split(comp, arr) for comp in model.components]

    estimates = []
    for tk in ts.tolist():
        log_terms = []
        err = 0.0
        for comp, w, (x, y) in zip(model.components, model.weights, splits):
            log_comp = 0.0
            comp_err = 0.0
            for j in range(comp.dim):
                *axis, cut = comp.density.axis_integrand(j, tk, float(x[j]))
                full, half = _axis_log_integrals(*axis, (RULE_ORDER, HALF_RULE_ORDER))
                log_comp += full
                comp_err += abs(full - half)
                comp_err += cut
            # normal-direction kernel, evaluated directly on the displacement
            if y.size:
                yy = float(y @ y)
                log_comp += -0.5 * y.size * (_LOG_2PI + math.log(tk)) - yy / (2.0 * tk)
            log_terms.append(math.log(w) + log_comp)
            err = max(err, comp_err)

        value = float(_log_sum_exp(np.array(log_terms)))
        # a failed integral has no bound: abs(full - half) is NaN there,
        # which max() above silently drops
        bound = err + 1e-15 if math.isfinite(value) else math.inf
        estimates.append(OracleEstimate(value=value, error_bound=bound))
    return estimates[0] if scalar else estimates


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
# estimate keeps its bits unless it is itself that small.
_EXP_FLOOR = -700.0
_EXP_FLOOR_VALUE = float(np.exp(_EXP_FLOOR))


def _kernel_exp(q: np.ndarray) -> np.ndarray:
    """``np.exp(q)`` in place, in in-range passes: 0 where ``q <= -700``, bit
    for bit where it is >= 2^54 e^-700 ~ 1.8e-288, within 2 e^-700 between."""
    np.maximum(q, _EXP_FLOOR, out=q)
    np.exp(q, out=q)
    q -= _EXP_FLOOR_VALUE
    return q


def rho_monte_carlo(
    model: MixtureModel, t, z: PointLike, mc: McSettings
) -> OracleEstimate | list[OracleEstimate]:
    """Diffused density as a sample average of kernel values, at one time
    or at each time of a 1-D array.

    Draws from the data distribution (component by weight, then per-axis
    coordinates), averages the variance-``t`` Gaussian kernel at the
    displacement from ``z``, and accumulates a streaming mean and variance.
    One set of draws serves every time: the draws and their distances do
    not depend on ``t``, so entry ``k`` of an array call equals the scalar
    call at ``t[k]`` with the same settings, bit for bit.  A scalar ``t``
    returns one estimate, an array a list of one per time.  Deterministic
    for a fixed seed.
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
    splits = [component_split(comp, arr) for comp in model.components]

    count = 0
    means = [0.0] * len(times)
    m2s = [0.0] * len(times)
    remaining = mc.samples
    while remaining > 0:
        m = min(_MC_CHUNK, remaining)
        remaining -= m
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
        for k, (tk, log_norm) in enumerate(zip(times, log_norms)):
            # q = log_norm - (0.5 * r2) / t, built in the kernel buffer
            np.divide(r2, tk, out=vals)
            np.subtract(log_norm, vals, out=vals)
            _kernel_exp(vals)

            # chunk-merge form of Welford's streaming moments
            chunk_mean = float(vals.sum()) / m  # what vals.mean() computes
            vals -= chunk_mean
            chunk_m2 = float(np.square(vals, out=vals).sum())
            delta = chunk_mean - means[k]
            means[k] += delta * m / total
            m2s[k] += chunk_m2 + delta * delta * count * m / total
        count = total

    estimates = [
        OracleEstimate(value=mean, error_bound=math.sqrt(m2 / (count * (count - 1))))
        if count > 1
        else OracleEstimate(value=mean, error_bound=0.0, degenerate=True)
        for mean, m2 in zip(means, m2s)
    ]
    return estimates[0] if scalar else estimates


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
