"""Shared pytest plumbing: collect acceptance lines for the end-of-run
summary, and shared model fixtures."""

import math

import numpy as np
import pytest

from exactlid import (
    ConstantOne,
    GaussianDiag,
    ManifoldComponent,
    MixtureModel,
    UniformBox,
    validate_model,
)

ACCEPTANCE_LINES = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def wide_mixture():
    # K=16 components in D=32: point masses, gaussians and boxes of dims
    # 0-5 at random offsets, one evaluation point on each component and
    # four on none; most responsibilities underflow to 0 and the boxes are
    # evaluated in their tails
    rng = np.random.default_rng(0)
    D = 32
    kinds = [("point", 0)] * 2 + [
        (kind, d) for kind in ("gaussian", "box") for d in (1, 2, 3, 3, 4, 5, 5)
    ]
    components, points = [], []
    for kind, d in kinds:
        offset = rng.normal(0.0, 1.5, D - d)
        if kind == "gaussian":
            sigmas = np.exp(rng.uniform(math.log(0.2), math.log(2.0), d))
            density, x = GaussianDiag(sigmas), rng.normal(0.0, sigmas)
        elif kind == "box":
            lo = rng.uniform(-2.0, 1.0, d)
            hi = lo + rng.uniform(0.5, 3.0, d)
            density, x = UniformBox(np.stack([lo, hi], 1)), rng.uniform(lo, hi)
        else:
            density, x = ConstantOne(), np.empty(0)
        components.append(ManifoldComponent(d, offset, density))
        points.append(tuple(np.concatenate([x, offset])))
    points += [tuple(rng.normal(0.0, 1.5, D)) for _ in range(4)]
    raw = rng.uniform(0.5, 1.5, len(components))
    model = validate_model(MixtureModel(D, components, raw / raw.sum()))
    return model, points
