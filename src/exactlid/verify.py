"""Oracle-agreement suites over the built-in catalog.

Each suite compares an analytic quantity against an independent numeric
route and reports the worst error seen, so a single run certifies the
closed forms end to end.  Finite-difference checks are evaluated at points
and times where the difference signal sits well above the double-precision
rounding floor, each over one block: every point and time of a model for
the heat check, every point of a case for the Laplacian check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import (
    coefficient_bound,
    log_smoothed_density,
    mixture_slopes,
    parallel_planes_beta,
    smoothed_laplacian_ratio,
)
from .catalog import CATALOG, HEAT_SUITE_POINTS, decade_grid, point_and_box
from .model import GaussianDiag, UniformBox, ConstantOne, require
from .oracle import (
    asymptotic_slope_pair,
    beta_fd_time,
    laplacian_fd,
    power_law_slope_pair,
    suggested_spatial_step,
)

__all__ = ["CheckResult", "SUITES", "run_suites", "DEFAULT_TOLERANCES"]

HEAT_TIMES = (1e-4, 1e-2, 1.0, 10.0)

DEFAULT_TOLERANCES = {
    "heat": 1e-5,
    "laplacian": 1e-5,
    "mixture": 1e-12,
    "slopes": 1e-3,
}


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance


def heat_suite(tol: float = DEFAULT_TOLERANCES["heat"]) -> list[CheckResult]:
    """Finite-difference time slope of the log density vs the analytic
    slope, over every catalog model, point set, and time: one block of
    points by times per model."""
    results = []
    for name, build in CATALOG.items():
        model = build()
        points = HEAT_SUITE_POINTS[name]
        beta = mixture_slopes(model, HEAT_TIMES, points).beta
        fd = beta_fd_time(model, points, HEAT_TIMES)
        err = np.abs(fd - beta) / np.maximum(1.0, np.abs(beta))
        results.append(CheckResult("heat", name, float(err.max()), tol))
    return results


# (density, time, points) cases for the smoothed-Laplacian check; points are
# chosen so the density curvature is resolvable by finite differences.
_LAPLACIAN_CASES = [
    ("gaussian-1d", GaussianDiag([1.0]), 0.01, [(0.0,), (1.0,), (2.0,)]),
    (
        "gaussian-2d",
        GaussianDiag([1.0, 0.5]),
        0.05,
        [(0.0, 0.0), (1.0, -0.5), (0.3, 0.8)],
    ),
    (
        "gaussian-3d",
        GaussianDiag([1.0, 1.0, 2.0]),
        0.1,
        [(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (-0.5, 0.2, 2.5)],
    ),
    ("box-1d", UniformBox([(0.0, 1.0)]), 0.05, [(0.5,), (0.05,), (1.2,)]),
    (
        "box-2d",
        UniformBox([(0.0, 1.0), (-1.0, 1.0)]),
        0.05,
        [(0.5, 0.0), (0.1, 0.9), (1.1, 0.0)],
    ),
    (
        "box-3d",
        UniformBox([(0.0, 1.0), (0.0, 2.0), (-0.5, 0.5)]),
        0.1,
        [(0.5, 1.0, 0.0), (0.05, 0.2, 0.45), (0.9, 1.9, 0.6)],
    ),
    ("constant", ConstantOne(), 0.01, [(0.0,), (3.0,)]),
]


def laplacian_suite(tol: float = DEFAULT_TOLERANCES["laplacian"]) -> list[CheckResult]:
    """Analytic smoothed-Laplacian ratios vs central finite differences of
    the log density (``laplacian_fd``), one stencil block per case."""
    results = []
    for name, spec, t, points in _LAPLACIAN_CASES:
        h = suggested_spatial_step([spec], t)
        analytic = smoothed_laplacian_ratio(spec, t, points)
        fd = laplacian_fd(lambda block: log_smoothed_density(spec, t, block), points, h)
        err = np.abs(fd - analytic) / np.maximum(1.0, np.abs(analytic))
        results.append(CheckResult("laplacian", name, float(err.max()), tol))
    return results


def mixture_suite(tol: float = DEFAULT_TOLERANCES["mixture"]) -> list[CheckResult]:
    """Mixture decomposition identities: the generic responsibility-weighted
    path against the parallel-planes closed form, responsibility
    normalization, and the dominated-component bound."""
    ts = decade_grid(-3, 2, 10)
    generic = mixture_slopes(CATALOG["parallel-planes"](), ts, (0.0, 0.0), d_ref=1)
    closed = parallel_planes_beta(ts, 0.5, 1.0)
    cross = np.abs(generic.bias - closed) / np.maximum(np.abs(closed), 1e-300)
    norm = np.abs(generic.responsibilities.sum(axis=-1) - 1.0)

    pb_ts = (1.0, 0.3, 0.1, 0.03)
    w = mixture_slopes(point_and_box(), pb_ts, (0.0,)).responsibilities[:, 0]
    bound = coefficient_bound(0.5, 0.5, 1.0, 1.0, 0.5, pb_ts)
    excess = np.maximum(0.0, w - bound)
    return [
        CheckResult("mixture", "parallel-cross-check", float(cross.max()), tol),
        CheckResult("mixture", "responsibility-sum", float(norm.max()), tol),
        CheckResult("mixture", "dominated-bound", float(excess.max()), tol),
    ]


def slopes_suite(tol: float = DEFAULT_TOLERANCES["slopes"]) -> list[CheckResult]:
    """Agreement of the two asymptotic-slope formulations at small times."""
    model = CATALOG["gaussian-line"]()
    ts = [10.0**-k for k in range(4, 13)]
    pairs = asymptotic_slope_pair(model, (0.0, 0.0), ts)
    gap = abs(pairs[-1][0] - pairs[-1][1])
    results = [CheckResult("slopes", "gaussian-line-gap", gap, tol)]

    # the derivative route is -alpha by construction; the discrete route is
    # the one computed from the log values
    synthetic = power_law_slope_pair(0.75, ts)
    worst = max(abs(c3 + 0.75) for c3, _ in synthetic)
    results.append(CheckResult("slopes", "power-law-exact", worst, tol))
    return results


SUITES = {
    "heat": heat_suite,
    "laplacian": laplacian_suite,
    "mixture": mixture_suite,
    "slopes": slopes_suite,
}


def run_suites(
    names: list[str] | tuple[str, ...], tol: float | None = None
) -> list[CheckResult]:
    require(tol is None or 0.0 < tol < np.inf, "tol", "positive and finite", tol)
    args = () if tol is None else (tol,)
    return [result for name in names for result in SUITES[name](*args)]
