"""Built-in models used by the figures, the verification suites, and tests."""

from __future__ import annotations

import numpy as np

from .model import (
    ConstantOne,
    GaussianDiag,
    ManifoldComponent,
    MixtureModel,
    PointMass,
    UniformBox,
    require,
    validate_model,
)

__all__ = [
    "gaussian_line",
    "aniso_gaussian_3d",
    "uniform_interval",
    "box_plane",
    "parallel_planes",
    "intersecting_line_plane",
    "point_and_box",
    "CATALOG",
    "HEAT_SUITE_POINTS",
]


def gaussian_line() -> MixtureModel:
    """Unit Gaussian on a line embedded in the plane."""
    return validate_model(
        MixtureModel(2, [ManifoldComponent(1, [0.0], GaussianDiag([1.0]))], [1.0])
    )


def aniso_gaussian_3d() -> MixtureModel:
    """Full-dimensional Gaussian with variances 1, 1e-6, 1e-12: a thin
    pancake whose apparent dimension steps down as the noise scale grows."""
    return validate_model(
        MixtureModel(
            3, [ManifoldComponent(3, [], GaussianDiag([1.0, 1e-3, 1e-6]))], [1.0]
        )
    )


def uniform_interval() -> MixtureModel:
    """Uniform density on [0, 1] along a line embedded in the plane."""
    return validate_model(
        MixtureModel(
            2, [ManifoldComponent(1, [0.0], UniformBox([(0.0, 1.0)]))], [1.0]
        )
    )


def box_plane() -> MixtureModel:
    """Uniform density on the unit square embedded in 3-space."""
    return validate_model(
        MixtureModel(
            3,
            [ManifoldComponent(2, [0.0], UniformBox([(0.0, 1.0), (0.0, 1.0)]))],
            [1.0],
        )
    )


def parallel_planes(separation: float = 1.0, lam: float = 0.5) -> MixtureModel:
    """Two parallel lines in the plane with identical (improper constant)
    densities; the second carries weight ``lam`` and sits at ``separation``."""
    return validate_model(
        MixtureModel(
            2,
            [
                ManifoldComponent(1, [0.0], ConstantOne()),
                ManifoldComponent(1, [separation], ConstantOne()),
            ],
            [1.0 - lam, lam],
        )
    )


def intersecting_line_plane() -> MixtureModel:
    """A line and a plane through the origin in 3-space, unit Gaussians on
    each, equal weights."""
    return validate_model(
        MixtureModel(
            3,
            [
                ManifoldComponent(1, [0.0, 0.0], GaussianDiag([1.0])),
                ManifoldComponent(2, [0.0], GaussianDiag([1.0, 1.0])),
            ],
            [0.5, 0.5],
        )
    )


def point_and_box() -> MixtureModel:
    """A point mass at 1 and a uniform box on [-0.4, 0.4] on the line; the
    dominated-responsibility bound applies at the origin with R=1, r=0.5,
    covered mass 1."""
    return validate_model(
        MixtureModel(
            1,
            [
                ManifoldComponent(0, [1.0], PointMass()),
                ManifoldComponent(1, [], UniformBox([(-0.4, 0.4)])),
            ],
            [0.5, 0.5],
        )
    )


CATALOG = {
    "gaussian-line": gaussian_line,
    "aniso-gaussian-3d": aniso_gaussian_3d,
    "uniform-interval": uniform_interval,
    "box-plane": box_plane,
    "parallel-planes": parallel_planes,
    "intersecting-line-plane": intersecting_line_plane,
}

# Evaluation points per catalog model for the heat-equation and mixed
# finite-difference checks: on-manifold centers, off-center, and genuinely
# off-manifold displacements.
HEAT_SUITE_POINTS = {
    "gaussian-line": [
        (0.0, 0.0),
        (1.0, 0.0),
        (2.5, 0.0),
        (0.0, 1.0),
        (-1.5, 0.5),
    ],
    "aniso-gaussian-3d": [
        (0.0, 0.0, 0.0),
        (1.0, 0.0, 0.0),
        (0.0, 1e-3, 0.0),
        (0.0, 0.0, 2e-6),
        (0.5, 5e-4, 1e-6),
    ],
    "uniform-interval": [
        (0.5, 0.0),
        (0.25, 0.0),
        (0.9, 0.0),
        (1.5, 0.0),
        (0.5, 0.75),
    ],
    "box-plane": [
        (0.5, 0.5, 0.0),
        (0.2, 0.8, 0.0),
        (0.5, 0.5, 0.5),
        (1.25, 0.5, 0.0),
        (0.9, 0.1, 0.25),
    ],
    "parallel-planes": [
        (0.0, 0.0),
        (1.0, 0.0),
        (0.0, 1.0),
        (0.0, 0.5),
        (-2.0, 0.25),
    ],
    "intersecting-line-plane": [
        (0.0, 0.0, 0.0),
        (1.0, 0.0, 0.0),
        (0.5, 0.5, 0.0),
        (0.0, 0.0, 1.0),
        (0.25, 1.0, 0.5),
    ],
}


def decade_grid(exp_min: int, exp_max: int, per_decade: int) -> tuple[float, ...]:
    """Log grid hitting every power of ten exactly: 10^(k/per_decade) for
    integer k spanning the requested decades."""
    require(exp_min < exp_max, "(exp_min, exp_max)", "ordered exp_min < exp_max",
            (exp_min, exp_max))
    require(per_decade >= 1, "per_decade", "at least 1", per_decade)
    ks = np.arange(exp_min * per_decade, exp_max * per_decade + 1)
    return tuple(float(10.0 ** (k / per_decade)) for k in ks)
