"""Local-intrinsic-dimension estimation from log-density slopes.

The estimator fits an ordinary least-squares line to points
(log sqrt(t_i), log rho_{t_i}(z)); the fitted slope added to the ambient
dimension is the dimension estimate.  Bias curves sample the analytic slope
and its deviation from the reference dimension gap along a time grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytic import log_mixture_rho, mixture_slopes
from .model import MixtureModel, PointLike, as_point
from .oracle import McSettings, QuadratureSettings, rho_monte_carlo, rho_quadrature

__all__ = [
    "TimeGrid",
    "LidlFit",
    "BetaCurveRow",
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
        vals = tuple(float(t) for t in values)
        if not vals:
            raise ValueError("time grid is empty")
        for t in vals:
            if not (t > 0.0 and math.isfinite(t)):
                raise ValueError(f"time values must be positive and finite: {t!r}")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("time values must be strictly increasing")
        object.__setattr__(self, "values", vals)

    @property
    def deltas(self) -> tuple[float, ...]:
        return tuple(math.sqrt(t) for t in self.values)

    @classmethod
    def log_spaced(cls, t_min: float, t_max: float, n: int) -> "TimeGrid":
        if not (0.0 < t_min < t_max):
            raise ValueError(f"need 0 < t_min < t_max, got {t_min!r}, {t_max!r}")
        if n < 2:
            raise ValueError("need at least 2 grid points")
        exps = np.linspace(math.log10(t_min), math.log10(t_max), n)
        return cls(tuple(10.0**e for e in exps))

    @classmethod
    def centered(
        cls, t_center: float, per_decade: int = 7, decades: float = 1.0
    ) -> "TimeGrid":
        """Log-spaced grid spanning ``decades`` around ``t_center`` with
        about ``per_decade`` points per decade (default: 7 over one decade)."""
        if not t_center > 0.0:
            raise ValueError(f"t_center must be positive, got {t_center!r}")
        n = max(2, round(per_decade * decades))
        half = decades / 2.0
        c = math.log10(t_center)
        exps = np.linspace(c - half, c + half, n)
        return cls(tuple(10.0**e for e in exps))


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
    """Ordinary least squares over (log delta, log rho) pairs."""
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("need at least 2 (log_delta, log_rho) samples")
    x = pts[:, 0]
    y = pts[:, 1]
    if np.unique(x).size < 2:
        raise ValueError("need at least 2 distinct abscissae")
    xm = x.mean()
    ym = y.mean()
    dx = x - xm
    slope = float(dx @ (y - ym) / (dx @ dx))
    intercept = float(ym - slope * xm)
    resid = y - (intercept + slope * x)
    rms = float(math.sqrt(float(resid @ resid) / x.size))
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
    quadrature: QuadratureSettings | None = None,
    mc: McSettings | None = None,
) -> LidlFit:
    """Fit the dimension estimate at ``z`` using the chosen density source.

    Sources: exact closed forms, the quadrature oracle, or the Monte Carlo
    oracle (whose per-time seeds derive from the base seed so runs stay
    deterministic).
    """
    if source not in SOURCES:
        raise ValueError(f"unknown source {source!r}, expected one of {SOURCES}")
    arr = as_point(z, model.ambient_dim)
    if source == "analytic":
        analytic = log_mixture_rho(model, np.array(grid.values), arr).tolist()
    log_rhos = []
    for i, t in enumerate(grid.values):
        if source == "analytic":
            val = analytic[i]
        elif source == "quadrature":
            val = rho_quadrature(model, t, arr, quadrature or QuadratureSettings()).value
        else:
            base = mc or McSettings()
            est = rho_monte_carlo(
                model, t, arr, McSettings(samples=base.samples, seed=base.seed + i)
            )
            if not est.value > 0.0:
                raise ArithmeticError(
                    f"Monte Carlo density estimate vanished at t={t!r}; "
                    "increase samples or use a larger time scale"
                )
            val = math.log(est.value)
        if not math.isfinite(val):
            raise ArithmeticError(f"log density not finite at t={t!r}")
        log_rhos.append(val)
    samples = list(zip((math.log(d) for d in grid.deltas), log_rhos))
    fit = lidl_fit(samples, model.ambient_dim)
    return LidlFit(
        slope=fit.slope,
        intercept=fit.intercept,
        lid_estimate=fit.lid_estimate,
        residual_rms=fit.residual_rms,
        source=source,
        diverging=fit.diverging,
    )


@dataclass(frozen=True)
class BetaCurveRow:
    t: float
    log_rho: float
    beta: float
    bias: float
    diverged: bool
    responsibilities: tuple[float, ...]


@dataclass(frozen=True)
class BetaCurve:
    """Slope and bias samples at one point over an ascending time grid."""

    point: tuple[float, ...]
    d_ref: int
    ambient_dim: int
    rows: tuple[BetaCurveRow, ...]


def bias_curve(
    model: MixtureModel, z: PointLike, grid: TimeGrid, d_ref: int | None = None
) -> BetaCurve:
    """Sample the mixture slope, its bias against ``d_ref``, and component
    responsibilities at every grid time (one evaluation over the grid)."""
    arr = as_point(z, model.ambient_dim)
    s = mixture_slopes(model, grid.values, arr, d_ref)
    columns = zip(
        grid.values,
        s.log_rho.tolist(),
        s.beta.tolist(),
        s.bias.tolist(),
        s.diverged.tolist(),
        s.responsibilities.tolist(),
    )
    rows = tuple(
        BetaCurveRow(t, log_rho, beta, bias, diverged, tuple(w))
        for t, log_rho, beta, bias, diverged, w in columns
    )
    return BetaCurve(
        point=tuple(arr.tolist()),
        d_ref=s.d_ref,
        ambient_dim=model.ambient_dim,
        rows=rows,
    )
