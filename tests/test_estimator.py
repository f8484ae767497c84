"""Slope regression, dimension estimates, and bias curves."""

import math

import numpy as np
import pytest

from exactlid import (
    ConstantOne,
    GaussianDiag,
    ManifoldComponent,
    McSettings,
    MixtureModel,
    TimeGrid,
    UniformBox,
    bias_curve,
    estimate_lid,
    lidl_fit,
    log_mixture_rho,
    mixture_beta_t,
    smoothed_laplacian_ratio,
    validate_model,
)
from exactlid.catalog import (
    CATALOG,
    HEAT_SUITE_POINTS,
    aniso_gaussian_3d,
    box_plane,
    gaussian_line,
    intersecting_line_plane,
    parallel_planes,
    uniform_interval,
)
from exactlid.verify import HEAT_TIMES


# ---------------------------------------------------------------------------
# TimeGrid
# ---------------------------------------------------------------------------

def test_time_grid_basic():
    g = TimeGrid([1e-4, 1e-3, 1e-2])
    assert g.deltas == (1e-2, math.sqrt(1e-3), 1e-1)


@pytest.mark.parametrize("values", [[], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0], [-1.0]])
def test_time_grid_rejects_bad_values(values):
    with pytest.raises(ValueError):
        TimeGrid(values)


def test_time_grid_centered():
    g = TimeGrid.centered(1e-9)
    assert len(g.values) == 7
    assert g.values[3] == pytest.approx(1e-9, rel=1e-12)
    assert g.values[0] == pytest.approx(10**-9.5, rel=1e-12)
    assert g.values[-1] == pytest.approx(10**-8.5, rel=1e-12)


# ---------------------------------------------------------------------------
# lidl_fit
# ---------------------------------------------------------------------------

def test_fit_exact_line():
    samples = [(x, -2.0 * x + 5.0) for x in (-3.0, -1.0, 0.5, 2.0)]
    fit = lidl_fit(samples, 3)
    assert fit.slope == pytest.approx(-2.0, abs=1e-14)
    assert fit.intercept == pytest.approx(5.0, abs=1e-14)
    assert fit.residual_rms <= 1e-14
    assert fit.lid_estimate == pytest.approx(1.0, abs=1e-14)
    assert fit.lid_estimate - fit.slope == 3


def test_fit_rejects_degenerate_abscissae():
    with pytest.raises(ValueError):
        lidl_fit([(1.0, 2.0)], 2)
    with pytest.raises(ValueError):
        lidl_fit([(1.0, 2.0), (1.0, 3.0)], 2)


def test_fit_gaussian_line_grid():
    from exactlid import log_mixture_rho

    m = gaussian_line()
    grid = TimeGrid.log_spaced(1e-8, 1e-6, 5)
    samples = [
        (math.log(d), log_mixture_rho(m, t, (0.0, 0.0)))
        for t, d in zip(grid.values, grid.deltas)
    ]
    fit = lidl_fit(samples, 2)
    assert fit.slope == pytest.approx(-1.0, abs=0.01)
    assert fit.lid_estimate == pytest.approx(1.0, abs=0.01)


def test_fit_affine_shift_changes_only_intercept():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(9)
    y = 0.7 * x + rng.standard_normal(9) * 0.1
    base = lidl_fit(list(zip(x, y)), 2)
    shifted = lidl_fit(list(zip(x, y + 11.25)), 2)
    assert shifted.slope == pytest.approx(base.slope, abs=1e-12)
    assert shifted.intercept == pytest.approx(base.intercept + 11.25, abs=1e-10)


def test_fit_slope_between_pairwise_slopes():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = np.sort(rng.standard_normal(6))
        if np.unique(x).size < 6:
            continue
        y = rng.standard_normal(6)
        fit = lidl_fit(list(zip(x, y)), 1)
        pair_slopes = [
            (y[j] - y[i]) / (x[j] - x[i])
            for i in range(6)
            for j in range(i + 1, 6)
        ]
        assert min(pair_slopes) - 1e-9 <= fit.slope <= max(pair_slopes) + 1e-9


# ---------------------------------------------------------------------------
# estimate_lid
# ---------------------------------------------------------------------------

def test_estimate_lid_intersection_recovers_smaller_dim():
    m = intersecting_line_plane()
    fit = estimate_lid(m, (0.0, 0.0, 0.0), TimeGrid.centered(1e-10))
    assert fit.lid_estimate == pytest.approx(1.0, abs=1e-2)
    assert fit.source == "analytic"


def test_estimate_lid_uniform_interval():
    m = uniform_interval()
    fit = estimate_lid(m, (0.5, 0.0), TimeGrid.log_spaced(1e-8, 1e-6, 7))
    assert fit.lid_estimate == pytest.approx(1.0, abs=1e-3)


def test_estimate_lid_off_manifold_flagged():
    m = gaussian_line()
    fit = estimate_lid(m, (0.0, 0.5), TimeGrid.centered(1e-4))
    assert fit.diverging
    assert fit.lid_estimate > m.ambient_dim


def test_estimate_lid_quadrature_source():
    m = gaussian_line()
    grid = TimeGrid.log_spaced(1e-4, 1e-3, 5)
    exact = estimate_lid(m, (0.0, 0.0), grid)
    quad = estimate_lid(m, (0.0, 0.0), grid, source="quadrature")
    assert quad.lid_estimate == pytest.approx(exact.lid_estimate, abs=1e-6)
    assert quad.source == "quadrature"


def test_estimate_lid_monte_carlo_source():
    m = gaussian_line()
    grid = TimeGrid.log_spaced(0.05, 0.5, 5)
    exact = estimate_lid(m, (0.0, 0.0), grid)
    mc = estimate_lid(
        m, (0.0, 0.0), grid, source="monte_carlo",
        mc=McSettings(samples=200_000, seed=7),
    )
    assert mc.lid_estimate == pytest.approx(exact.lid_estimate, abs=0.05)
    assert mc.source == "monte_carlo"


def test_estimate_lid_rejects_unknown_source():
    with pytest.raises(ValueError):
        estimate_lid(gaussian_line(), (0.0, 0.0), TimeGrid.centered(0.1), source="fd")


# ---------------------------------------------------------------------------
# bias_curve
# ---------------------------------------------------------------------------

def test_bias_curve_gaussian_center():
    m = gaussian_line()
    curve = bias_curve(m, (0.0, 0.0), TimeGrid([1e-3, 1e-2, 1e-1]), d_ref=1)
    assert curve.d_ref == 1
    row = curve.rows[1]
    assert row.t == 1e-2
    assert row.bias == pytest.approx(-0.009900990099009901, rel=1e-13)
    assert not row.diverged
    assert row.responsibilities == (1.0,)


def test_bias_curve_stairs_bump():
    # two sigmas out along the thinnest axis the estimate overshoots near
    # t = sigma^2: exactly 3.5 at t = 1e-12, cresting slightly above just
    # below it (the overshoot summand t(x^2 - v)/v^2, v = sigma^2 + t,
    # peaks at t = 0.6 sigma^2 with value 0.5625)
    m = aniso_gaussian_3d()
    ts = [10.0 ** (k / 4) for k in range(-56, -40)]
    curve = bias_curve(m, (0.0, 0.0, 2e-6), TimeGrid(ts), d_ref=3)
    estimates = [3.0 + row.beta for row in curve.rows]
    at_ref = next(
        e for row, e in zip(curve.rows, estimates)
        if math.isclose(row.t, 1e-12, rel_tol=1e-12)
    )
    assert at_ref == pytest.approx(3.5, abs=1e-3)
    peak = int(np.argmax(estimates))
    assert 0 < peak < len(ts) - 1  # interior bump, not a monotone edge
    assert 1e-13 <= curve.rows[peak].t <= 1e-11
    assert estimates[peak] == pytest.approx(3.5625, abs=2e-3)


def test_bias_curve_parallel_value():
    m = parallel_planes()
    curve = bias_curve(m, (0.0, 0.0), TimeGrid([0.5, 1.0, 2.0]), d_ref=1)
    assert curve.rows[1].bias == pytest.approx(0.3775406687981454, rel=1e-12)


def test_bias_curve_matches_laplacian_correction_for_single_component():
    # the bias at every time equals t times the smoothed-Laplacian ratio
    m = uniform_interval()
    comp = m.components[0]
    grid = TimeGrid([1e-3, 1e-2, 1e-1, 1.0])
    curve = bias_curve(m, (0.3, 0.0), grid, d_ref=1)
    for row in curve.rows:
        expected = row.t * smoothed_laplacian_ratio(comp.density, row.t, [0.3])
        assert row.bias == pytest.approx(expected, rel=1e-12, abs=1e-300)


def _wide_mixture(seed: int = 0):
    # K=16 components in D=32: point masses, gaussians and boxes of dims
    # 0-5 at random offsets, one evaluation point on each component and
    # four on none; most responsibilities underflow to 0 and the boxes are
    # evaluated in their tails
    rng = np.random.default_rng(seed)
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


def _assert_rows_match_single_times(m, z, curve):
    # every row equals mixture_beta_t at its own time, bit for bit
    for row in curve.rows:
        value, w = mixture_beta_t(m, row.t, z)
        got = (row.log_rho, row.beta, row.bias) + row.responsibilities
        want = (value.log_rho, value.beta, value.bias) + tuple(w.tolist())
        assert np.array(got).tobytes() == np.array(want).tobytes(), (z, row.t)
        assert row.diverged is value.diverged


def test_bias_curve_log_rho_is_the_mixture_log_density():
    # bias_curve evaluates the whole grid in one pass; each row must equal
    # the single-time mixture_beta_t and log_mixture_rho bit for bit, on and
    # off the manifold
    grid = TimeGrid(HEAT_TIMES)
    for name, build in CATALOG.items():
        m = build()
        for z in HEAT_SUITE_POINTS[name]:
            curve = bias_curve(m, z, grid)
            _assert_rows_match_single_times(m, z, curve)
            for row in curve.rows:
                assert row.log_rho == log_mixture_rho(m, row.t, z), (name, z, row.t)
    off = bias_curve(uniform_interval(), (1.5, 0.0), grid)
    assert all(row.diverged for row in off.rows)
    _assert_rows_match_single_times(uniform_interval(), (1.5, 0.0), off)
    # a normal displacement whose squared norm overflows: every term of the
    # log-sum is -inf, the non-finite branch
    with np.errstate(over="ignore"):
        far = bias_curve(gaussian_line(), (0.0, 1e200), grid)
        assert all(row.log_rho == -math.inf for row in far.rows)
        assert all(row.beta == row.bias == math.inf for row in far.rows)
        assert all(row.diverged for row in far.rows)
        assert all(math.isnan(w) for row in far.rows for w in row.responsibilities)
        _assert_rows_match_single_times(gaussian_line(), (0.0, 1e200), far)
        assert log_mixture_rho(gaussian_line(), 1.0, (0.0, 1e200)) == -math.inf
    # K=16, D=32 over the time span the wide-mixture benchmark uses
    m, points = _wide_mixture()
    wide = TimeGrid.log_spaced(1e-6, 1e2, 17)
    n_zero = 0
    for z in points:
        curve = bias_curve(m, z, wide)
        _assert_rows_match_single_times(m, z, curve)
        n_zero += sum(w == 0.0 for row in curve.rows for w in row.responsibilities)
    assert n_zero > 0  # the exact-zero responsibility mask is exercised


def test_bias_curve_default_reference_dim():
    m = intersecting_line_plane()
    curve = bias_curve(m, (0.0, 0.0, 0.0), TimeGrid([1e-2, 1e-1]))
    assert curve.d_ref == 1


def test_estimate_converges_to_dim_as_grid_shrinks():
    m = box_plane()
    fit = estimate_lid(m, (0.5, 0.5, 0.0), TimeGrid.centered(1e-10))
    assert fit.lid_estimate == pytest.approx(2.0, abs=1e-2)
