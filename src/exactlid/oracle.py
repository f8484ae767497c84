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
    """An oracle's log density at one time, with a log-space error.

    ``log_rho`` is the natural log of the density estimate.  Quadrature's
    ``log_error`` is an absolute bound, infinite where ``log_rho`` is not
    finite: the largest over components of the summed per-axis
    disagreement |full - half| of the two Gauss-Legendre rules and the
    window tails, plus 1e-15.  On a smooth integrand |full - half| is a few
    ulps of rounding noise, whose last bits depend on the SIMD kernels
    numpy picks for ``exp``, ``log1p`` and ``log``.  Monte Carlo's is the
    standard error over the mean, the first-order error of log(mean); where
    the mean vanished the record is (-inf, inf).  ``degenerate`` flags
    single-sample runs, whose standard error is 0 by convention.
    """

    log_rho: float
    log_error: float
    degenerate: bool = False


@lru_cache(maxsize=None)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _composite_nodes(left, right, counts, order: int):
    """Gauss-Legendre nodes and weights of ``order`` points in each panel
    [left, right], for runs of ``counts`` panels laid end to end, and the
    run of each node (0 for a single run).

    Built per panel, so the nodes of a panel are the same floats whichever
    runs it is built with.  ``_axis_log_integrals`` drops a panel only when
    every one of its terms underflows to exactly 0 after the log-sum-exp
    shift.

    Panels are capped at 20000 per axis and time, which limits accuracy on
    axes far narrower than their window: the sigma=1e-6 axis of
    aniso-gaussian-3d (window 8 sqrt(sigma^2 + t) around the peak) leaves
    an error of 4.2e-11 at t=1e-3 (bound 3.7e-5) and 1.8e-7 at t=3e-3
    (bound 4.5e-3).
    """
    base_x, base_w = _leggauss(order)
    half = 0.5 * (right - left)
    mid = 0.5 * (left + right)
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    run = np.repeat(np.arange(len(counts)), counts * order) if len(counts) > 1 else 0
    return nodes, weights, run


# A term more than this far below the largest one has exp(term - max) < the
# smallest subnormal / 2, i.e. exactly 0 (exp(-745.13) rounds to 0).
_UNDERFLOW_GAP = 746.0
# Panels whose bound is this far below the top bound are not evaluated; the
# extra 54 leaves room for the top bound to sit above the top term.
_SKIP_GAP = 800.0
# The most panels of one axis window, and of one block of consecutive
# times' windows laid end to end.
_MAX_PANELS = 20000
# The most terms evaluated at once within a block, which bounds its memory
# where the runs of many times are wide; one time's run may exceed it.
_MAX_TERMS = 1 << 14


def _panel_counts(lo, hi, scale) -> list[int]:
    """Panels enough to resolve ``scale`` over each window [lo, hi], from 1
    to ``_MAX_PANELS``: the cap where the ratio overflows (a scale that
    underflowed to 0), one panel where it is not a number (the window's
    edges overflowed)."""
    return [
        1 if not r > 1.0 else _MAX_PANELS if r >= _MAX_PANELS else math.ceil(r)
        for r in ((hi - lo) / (4.0 * scale)).tolist()
    ]


def _consecutive(sizes, cap: int):
    """(start, stop) ranges of consecutive ``sizes`` summing to at most
    ``cap``; a size above ``cap`` makes a range of its own."""
    start, total = 0, 0
    for k, size in enumerate(sizes):
        if total + size > cap and k > start:
            yield start, k
            start, total = k, 0
        total += size
    yield start, len(sizes)


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The indices [lo[s], hi[s]) of every s, laid end to end."""
    counts = hi - lo
    return np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)


def _segment_log_sum_exp(terms, run, starts) -> tuple[np.ndarray, np.ndarray]:
    """``_log_sum_exp`` of each run of ``terms`` (from ``starts[s]`` to the
    next start), bit for bit: the maxima are exact in ``reduceat``, and each
    sum runs over its own slice, because numpy's pairwise sum groups terms
    by the length summed.  Also returns each run's largest term."""
    peak = np.maximum.reduceat(terms, starts)
    top = terms == peak[run]
    scaled = np.exp(terms - np.where(np.isfinite(peak), peak, 0.0)[run])
    scaled[top] = 0.0
    ties = np.maximum(np.add.reduceat(top, starts, dtype=np.intp), 1)
    bounds = [*starts.tolist(), len(terms)]
    sums = np.array([scaled[a:b].sum() for a, b in zip(bounds, bounds[1:])])
    return np.log1p(sums / ties) + np.log(ties) + peak, peak


def _panel_log_integrals(left, right, times, lo, hi, order, log_f):
    """The log-sum-exp of the ``order`` rule's terms over the panels
    [lo[s], hi[s]) of each time ``times[s]``, and the largest term of each:
    ``_MAX_TERMS`` at a time, so times are grouped by their term counts."""
    values, tops = np.empty(len(times)), np.empty(len(times))
    for g0, g1 in _consecutive(((hi - lo) * order).tolist(), _MAX_TERMS):
        sel = _ranges(lo[g0:g1], hi[g0:g1])
        counts = hi[g0:g1] - lo[g0:g1]
        nodes, weights, run = _composite_nodes(left[sel], right[sel], counts, order)
        terms = log_f(nodes, times[g0:g1][run]) + np.log(weights)
        starts = np.cumsum(counts * order) - counts * order
        values[g0:g1], tops[g0:g1] = _segment_log_sum_exp(terms, run, starts)
    return values, tops


def _block_log_integrals(lo, hi, step, vertex, log_f, orders, panels, start, stop):
    """``_axis_log_integrals`` on the block of times [start, stop): their
    panels laid end to end, one row per order, one column per time."""
    counts = np.array(panels[start:stop])
    stops = np.cumsum(counts)
    starts = stops - counts
    n = int(stops[-1])
    times = np.arange(start, stop)
    one = stop - start == 1
    if one:  # one time: its constants broadcast as scalars
        slot, local = 0, np.arange(n + 1.0)
    else:  # each panel's slot in the block, and its index in its window
        slot = np.repeat(np.arange(stop - start), counts)
        local = np.arange(n) - starts[slot]
    time = slot + start
    # the edges np.linspace(lo, hi, panels + 1) gives: i * ((hi - lo) /
    # panels) + lo, the last one hi
    edges = local * step[time]
    edges += lo[time]
    del local
    if one:
        edges[-1] = hi[start]
        left, right = edges[:-1], edges[1:]
    else:
        left, right = edges, np.empty(n)
        right[:-1] = left[1:]
        right[stops - 1] = hi[start:stop]
    half = right - left
    half *= 0.5
    nearest = log_f(np.clip(vertex[time], left, right), time)

    values = np.empty((len(orders), stop - start))
    for row, order in enumerate(orders):
        bound = np.log(half * _leggauss(order)[1].max())
        bound += nearest
        top = np.maximum.reduceat(bound, starts)
        kept = np.flatnonzero(bound >= (top - _SKIP_GAP)[slot])
        # each time's run, from its first kept panel to its last; a time
        # with none (its top bound is NaN) is evaluated in full
        first, last = np.searchsorted(kept, starts), np.searchsorted(kept, stops)
        found = first < last
        kept = np.append(kept, 0)
        run_lo = np.where(found, kept[first], starts)
        run_hi = np.where(found, kept[last - 1] + 1, stops)
        # the largest skipped bound of each time, np.fmax.reduce(skipped,
        # initial=-inf): a NaN bound is passed over and an empty skip set
        # gives -inf.  s + 1e-12 |s| is non-decreasing, so it decides as
        # every skipped bound would: a slack of 1e-12 |bound| covers the
        # rounding of bound and terms, and a -inf bound (NaN here) holds no
        # mass and forces nothing
        bound[_ranges(run_lo, run_hi)] = -np.inf  # leaves the skipped bounds
        worst = np.fmax.reduceat(bound, starts)
        worst += 1e-12 * np.abs(worst)
        row_values, row_tops = _panel_log_integrals(
            left, right, times, run_lo, run_hi, order, log_f
        )
        # if a skipped panel's terms might not underflow, every panel is summed
        unsure = np.flatnonzero(worst >= row_tops - _UNDERFLOW_GAP)
        if unsure.size:
            row_values[unsure] = _panel_log_integrals(
                left, right, times[unsure], starts[unsure], stops[unsure], order, log_f
            )[0]
        values[row] = row_values
    return values


def _axis_log_integrals(lo, hi, scale, vertex, log_f, orders) -> np.ndarray:
    """Log of one axis factor of the smoothing integral at each time, by
    quadrature of ``log_f`` over the per-time windows [lo, hi] from a
    density's ``axis_integrand``: one row per Gauss-Legendre order of
    ``orders``, all on one set of panels per time, and one column per time.

    Each window is cut into panels enough to resolve the integrand scale,
    up to ``_MAX_PANELS``, and the panels of consecutive times are laid end
    to end in blocks of at most ``_MAX_PANELS``, each evaluated in one set
    of numpy calls.  Since the log integrand is concave, no term of a panel
    exceeds its value at the panel point nearest the vertex plus the log
    of the panel's largest weight.  Per order and time, only the run of
    panels whose bound comes within ``_SKIP_GAP`` of the time's top is
    evaluated; if a skipped panel's bound is not ``_UNDERFLOW_GAP`` below
    the time's largest evaluated term (so some of its terms might not
    underflow), every panel of that time is evaluated.  Every step is
    decided per time, so a time's values do not depend on the others.
    """
    panels = _panel_counts(lo, hi, scale)
    step = (hi - lo) / np.array(panels)
    values = np.empty((len(orders), len(panels)))
    for start, stop in _consecutive(panels, _MAX_PANELS):
        values[:, start:stop] = _block_log_integrals(
            lo, hi, step, vertex, log_f, orders, panels, start, stop
        )
    return values


# At coordinates near the float range the squares overflow and the window
# collapses to zero-width panels or overflows: the value is not finite,
# which the estimator reports, and the intermediate warnings are noise.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
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
    comparison with the window truncation tail.  Each axis is integrated
    at every time in blocks of consecutive times (``_axis_log_integrals``),
    and the mixture and the normal-direction kernel are reduced over all
    times at once; every step is decided per time, so entry ``k`` of an
    array call equals the scalar call at ``t[k]``, bit for bit.  A scalar
    ``t`` returns one estimate, an array a list of one per time.
    """
    ts, scalar = as_times(t)
    arr = as_point(z, model.ambient_dim)
    # the C library's log, which numpy's own may not match to the last bit
    log_ts = np.array([math.log(tk) for tk in ts.tolist()])

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
    estimates = [
        OracleEstimate(v, b) for v, b in zip(values.tolist(), bounds.tolist())
    ]
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
    """Log diffused density as the log of a sample average of kernel
    values, at one time or at each time of a 1-D array.

    Draws from the data distribution (component by weight, then per-axis
    coordinates), averages the variance-``t`` Gaussian kernel at the
    displacement from ``z``, and accumulates a streaming mean and variance;
    each record is (log(mean), standard error / mean).
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

    se = [math.sqrt(m2 / (count * (count - 1))) if count > 1 else 0.0 for m2 in m2s]
    estimates = [
        OracleEstimate(math.log(mean), e / mean, count == 1) if mean > 0.0
        else OracleEstimate(-math.inf, math.inf, count == 1)
        for mean, e in zip(means, se)
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
