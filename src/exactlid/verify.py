"""Oracle-agreement suites over the built-in catalog.

Each suite compares an analytic quantity against an independent numeric
route and reports the worst error seen, so a single run certifies the
closed forms end to end.  Finite-difference checks are evaluated at points
and times where the difference signal sits well above the double-precision
rounding floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import (
    coefficient_bound,
    log_smoothed_density,
    mixture_beta_t,
    mixture_slopes,
    parallel_planes_beta,
    smoothed_laplacian_ratio,
)
from .catalog import CATALOG, HEAT_SUITE_POINTS, decade_grid, point_and_box
from .model import GaussianDiag, UniformBox, ConstantOne
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
    slope, over every catalog model, point set, and time."""
    results = []
    for name, build in CATALOG.items():
        model = build()
        points = HEAT_SUITE_POINTS[name]
        betas = mixture_slopes(model, HEAT_TIMES, points).beta
        worst = 0.0
        for z, row in zip(points, betas.tolist()):
            for t, beta in zip(HEAT_TIMES, row):
                fd = beta_fd_time(model, z, t)
                err = abs(fd - beta) / max(1.0, abs(beta))
                worst = max(worst, err)
        results.append(CheckResult("heat", name, worst, tol))
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
    """Analytic smoothed-Laplacian ratios vs central finite differences."""
    results = []
    for name, spec, t, points in _LAPLACIAN_CASES:
        h = suggested_spatial_step([spec], t)
        worst = 0.0
        for pt in points:
            x = np.asarray(pt, dtype=float)
            analytic = smoothed_laplacian_ratio(spec, t, x)
            # Laplacian over value via logs shifted by the center value
            center = log_smoothed_density(spec, t, x)
            fd = laplacian_fd(
                lambda p: math.exp(log_smoothed_density(spec, t, p) - center), x, h
            )
            err = abs(fd - analytic) / max(1.0, abs(analytic))
            worst = max(worst, err)
        results.append(CheckResult("laplacian", name, worst, tol))
    return results


def mixture_suite(tol: float = DEFAULT_TOLERANCES["mixture"]) -> list[CheckResult]:
    """Mixture decomposition identities: the generic responsibility-weighted
    path against the parallel-planes closed form, responsibility
    normalization, and the dominated-component bound."""
    results = []

    model = CATALOG["parallel-planes"]()
    z = (0.0, 0.0)
    worst_cross = 0.0
    worst_norm = 0.0
    for t in decade_grid(-3, 2, 10):
        generic, w = mixture_beta_t(model, t, z, d_ref=1)
        closed = parallel_planes_beta(t, 0.5, 1.0, -1.0)
        scale = max(abs(closed.bias), 1e-300)
        worst_cross = max(worst_cross, abs(generic.bias - closed.bias) / scale)
        worst_norm = max(worst_norm, abs(float(np.sum(w)) - 1.0))
    results.append(CheckResult("mixture", "parallel-cross-check", worst_cross, tol))
    results.append(CheckResult("mixture", "responsibility-sum", worst_norm, tol))

    pb = point_and_box()
    worst_bound = 0.0
    for t in (1.0, 0.3, 0.1, 0.03):
        _, w = mixture_beta_t(pb, t, (0.0,))
        bound = coefficient_bound(0.5, 0.5, 1.0, 1.0, 0.5, t)
        excess = max(0.0, float(w[0]) - bound)
        worst_bound = max(worst_bound, excess)
    results.append(CheckResult("mixture", "dominated-bound", worst_bound, tol))
    return results


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
    results = []
    for name in names:
        suite = SUITES[name]
        if tol is None:
            results.extend(suite())
        else:
            results.extend(suite(tol))
    return results
