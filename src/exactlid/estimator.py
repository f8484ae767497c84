"""Local-intrinsic-dimension estimation from log-density slopes.

The estimator fits an ordinary least-squares line to points
(log sqrt(t_i), log rho_{t_i}(z)); the fitted slope added to the ambient
dimension is the dimension estimate.  Bias curves sample the analytic slope
and its deviation from the reference dimension gap along a time grid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .analytic import MixtureSlopes, log_mixture_rho, mixture_slopes
from .model import (
    LIMITS, MixtureModel, PointLike, as_point, as_points, as_times, require,
)
from .oracle import McSettings, rho_monte_carlo, rho_quadrature

__all__ = [
    "TimeGrid",
    "LidlFit",
    "BetaCurve",
    "lidl_fit",
    "estimate_lid",
    "bias_curve",
]

SOURCES = ("analytic", "quadrature", "monte_carlo")


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing positive smoothing times; abscissae are their
    square roots."""

    values: tuple[float, ...]

    def __init__(self, values: Sequence[float]):
        vals = tuple(as_times(tuple(values))[0].tolist())
        require(vals, "time grid", "non-empty", vals)
        drops = [(a, b) for a, b in zip(vals, vals[1:]) if b <= a]
        require(not drops, "time grid", "strictly increasing", drops and drops[0])
        object.__setattr__(self, "values", vals)

    @property
    def deltas(self) -> tuple[float, ...]:
        return tuple(math.sqrt(t) for t in self.values)

    @classmethod
    @np.errstate(over="ignore")  # a time past the float range is inf: rejected
    def _log_grid(
        cls, lo: float, hi: float, per_decade: float, decades: float, extra: int
    ) -> "TimeGrid":
        # max(2, round(per_decade * decades) + extra) times from 10**lo to
        # 10**hi, evenly spaced in the exponent.  Each bound precedes the
        # conversion it guards: an int to float, then round() of an inf.
        require(1 <= per_decade <= sys.float_info.max, "per_decade",
                "at least 1 and finite", per_decade)
        count = per_decade * decades
        require(count + extra <= LIMITS.grid_size, "grid size",
                f"at most {LIMITS.grid_size}", count + extra)
        n = max(2, round(count) + extra)
        return cls(tuple(10.0**e for e in np.linspace(lo, hi, n)))

    @classmethod
    def log_spaced(cls, t_min: float, t_max: float, per_decade: float) -> "TimeGrid":
        """Log-spaced grid from ``t_min`` to ``t_max``, ``per_decade`` a decade."""
        require(0.0 < t_min < t_max < math.inf, "(t_min, t_max)",
                "ordered 0 < t_min < t_max < inf", (t_min, t_max))
        # two logs, not the log of t_max / t_min, which may overflow
        lo, hi = math.log10(t_min), math.log10(t_max)
        return cls._log_grid(lo, hi, per_decade, hi - lo, 1)

    @classmethod
    def centered(
        cls, t_center: float, per_decade: float = 7, decades: float = 1.0
    ) -> "TimeGrid":
        """Log-spaced grid spanning ``decades`` around ``t_center`` with
        about ``per_decade`` points per decade (default: 7 over one decade)."""
        require(0.0 < t_center < math.inf, "t_center", "positive and finite", t_center)
        require(0.0 < decades < math.inf, "decades", "positive and finite", decades)
        require(decades >= LIMITS.decades, "decades", f"at least {LIMITS.decades:g}", decades)
        c, half = math.log10(t_center), decades / 2.0
        return cls._log_grid(c - half, c + half, per_decade, decades, 0)


@dataclass(frozen=True)
class LidlFit:
    """OLS fit of log density against log length scale.

    ``lid_estimate`` is the ambient dimension plus the slope; ``diverging``
    flags estimates above the ambient dimension (points off every
    component, where the slope grows instead of converging).
    """

    slope: float
    intercept: float
    lid_estimate: float
    residual_rms: float
    source: str | None = None
    diverging: bool = False


def lidl_fit(
    samples: Sequence[tuple[float, float]], ambient_dim: int
) -> LidlFit:
    """Ordinary least squares over (log delta, log rho) pairs.  A slope,
    intercept or residual RMS that is not finite raises ArithmeticError."""
    pts = np.asarray(samples, dtype=float)
    require(pts.ndim == 2 and pts.shape[1] == 2 and len(pts) >= 2, "samples",
            "at least 2 (log_delta, log_rho) pairs", samples)
    x = pts[:, 0]
    y = pts[:, 1]
    # distinct grid times may share a square root at rounding scale
    require(np.unique(x).size >= 2, "the abscissae log sqrt(t)",
            "2 or more distinct values", x)
    with np.errstate(over="ignore", invalid="ignore"):
        xm = x.mean()
        ym = y.mean()
        dx = x - xm
        slope = float(dx @ (y - ym) / (dx @ dx))
        intercept = float(ym - slope * xm)
        resid = y - (intercept + slope * x)
        rms = float(math.sqrt(float(resid @ resid) / x.size))
    if not all(map(math.isfinite, (slope, intercept, rms))):
        raise ArithmeticError(f"regression not finite: slope {slope!r}, "
                              f"intercept {intercept!r}, residual_rms {rms!r}")
    lid = ambient_dim + slope
    return LidlFit(
        slope=slope,
        intercept=intercept,
        lid_estimate=lid,
        residual_rms=rms,
        diverging=lid > ambient_dim + 1e-9,
    )


def estimate_lid(
    model: MixtureModel,
    z: PointLike,
    grid: TimeGrid,
    source: str = "analytic",
    *,
    mc: McSettings | None = None,
) -> LidlFit:
    """Fit the dimension estimate at ``z`` using the chosen density source.

    Sources: exact closed forms, the quadrature oracle, or the Monte Carlo
    oracle (one set of draws, from one generator seeded ``mc.seed``, serves
    every grid time, so runs stay deterministic).  Each makes one call,
    whose log densities are checked once and fitted once.
    """
    require(source in SOURCES, "source", f"one of {', '.join(SOURCES)}", source)
    arr = as_point(z, model.ambient_dim)
    times = np.array(grid.values)
    if source == "analytic":
        log_rhos = log_mixture_rho(model, times, arr)
    elif source == "quadrature":
        log_rhos = rho_quadrature(model, times, arr).log_rho
    else:
        log_rhos = rho_monte_carlo(model, times, arr, mc or McSettings()).log_rho
    log_rhos = log_rhos.tolist()
    for t, val in zip(grid.values, log_rhos):
        if not math.isfinite(val):
            raise ArithmeticError(f"log density not finite at t={t!r}")
    samples = list(zip((math.log(d) for d in grid.deltas), log_rhos))
    fit = lidl_fit(samples, model.ambient_dim)
    return replace(fit, source=source)


@dataclass(frozen=True)
class BetaCurve:
    """Slope and bias samples over an ascending time grid, at one point or
    at each point of a block.

    For one point, ``point`` holds its coordinates and ``slopes`` one entry
    (responsibilities: one row) per time in ``t``.  For a block, ``point``
    holds one coordinate tuple per point and ``slopes`` one row per point,
    as ``mixture_slopes`` returns them.
    """

    point: tuple
    t: np.ndarray
    slopes: MixtureSlopes


def bias_curve(
    model: MixtureModel, z: PointLike, grid: TimeGrid, d_ref: int | None = None
) -> BetaCurve:
    """Sample the mixture slope, its bias against ``d_ref``, and component
    responsibilities at every grid time, at one point ``z`` or at each point
    of a (P, D) block (one evaluation over points and times)."""
    arr = as_points(z, model.ambient_dim)
    t = np.array(grid.values)
    point = tuple(arr.tolist()) if arr.ndim == 1 else tuple(map(tuple, arr.tolist()))
    return BetaCurve(point, t, mixture_slopes(model, t, arr, d_ref))
