"""Slope regression, dimension estimates, and bias curves."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from exactlid import (
    McSettings,
    OracleEstimate,
    TimeGrid,
    bias_curve,
    estimate_lid,
    lidl_fit,
    log_mixture_rho,
    mixture_beta_t,
    rho_monte_carlo,
    rho_quadrature,
    smoothed_laplacian_ratio,
)
from exactlid import estimator
from exactlid.model import LIMITS, ModelError
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


@pytest.mark.parametrize(
    "build",
    [
        lambda: TimeGrid.log_spaced(1e-3, 1e-3, 2),
        lambda: TimeGrid.log_spaced(0.0, 1.0, 2),
        lambda: TimeGrid.log_spaced(1e-3, math.inf, 2),
        lambda: TimeGrid.log_spaced(1e-3, 1.0, 0),
        lambda: TimeGrid.log_spaced(1e-3, 1.0, math.nan),
        lambda: TimeGrid.centered(math.inf),
        lambda: TimeGrid.centered(math.nan),
        lambda: TimeGrid.centered(0.0),
        lambda: TimeGrid.centered(1e-3, 0),
    ],
    ids=["empty-span", "t-min-zero", "t-max-inf", "per-decade-zero", "per-decade-nan",
         "center-inf", "center-nan", "center-zero", "centered-per-decade-zero"],
)
def test_time_grid_constructors_reject_bad_arguments(build):
    with pytest.raises(ValueError):
        build()


def test_time_grid_log_spaced_has_at_least_two_times():
    assert len(TimeGrid.log_spaced(1e-3, 1e-3 * (1 + 1e-9), 7).values) == 2


def test_time_grid_refuses_oversized_counts_before_building(monkeypatch):
    # the count is checked before np.linspace, which fails the test if run
    monkeypatch.setattr(np, "linspace", lambda *a, **k: pytest.fail("grid was built"))
    limit = LIMITS.grid_size
    with pytest.raises(ValueError, match=f"grid size must be at most {limit}, got {limit + 1}"):
        TimeGrid.log_spaced(1.0, 10.0, limit)
    with pytest.raises(ValueError, match="grid size must be at most"):
        TimeGrid.centered(1e-3, 100_000_000)
    with pytest.raises(ValueError, match="grid size must be at most"):
        TimeGrid.centered(1e-3, 7, 1e6)


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


def test_fit_refuses_a_grid_whose_square_roots_coincide():
    # TimeGrid.centered refuses such a span (LIMITS.decades); a grid built
    # from its times is refused by the fit
    with pytest.raises(ValueError, match="decades must be at least"):
        TimeGrid.centered(1.7, 7, 1e-16)
    grid = TimeGrid([np.nextafter(1.7, 0.0), np.nextafter(1.7, 2.0)])
    with pytest.raises(ValueError, match="2 or more distinct values"):
        estimate_lid(gaussian_line(), (0.3, 0.0), grid)


def test_fit_overflowing_sums_raise_arithmetic_error():
    # finite log densities near -1e308 whose sum leaves the float range: a
    # numeric failure, not a NaN fit
    samples = [(0.0, -1.7e308), (0.5, -1.7e308), (1.0, -1.6e308)]
    with pytest.raises(ArithmeticError, match="regression not finite"):
        lidl_fit(samples, 2)


def test_fit_gaussian_line_grid():
    from exactlid import log_mixture_rho

    m = gaussian_line()
    grid = TimeGrid.log_spaced(1e-8, 1e-6, 2)
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
    fit = estimate_lid(m, (0.5, 0.0), TimeGrid.log_spaced(1e-8, 1e-6, 3))
    assert fit.lid_estimate == pytest.approx(1.0, abs=1e-3)


def test_estimate_lid_off_manifold_flagged():
    m = gaussian_line()
    fit = estimate_lid(m, (0.0, 0.5), TimeGrid.centered(1e-4))
    assert fit.diverging
    assert fit.lid_estimate > m.ambient_dim


def test_estimate_lid_quadrature_source():
    m = gaussian_line()
    grid = TimeGrid.log_spaced(1e-4, 1e-3, 4)
    exact = estimate_lid(m, (0.0, 0.0), grid)
    quad = estimate_lid(m, (0.0, 0.0), grid, source="quadrature")
    assert quad.lid_estimate == pytest.approx(exact.lid_estimate, abs=1e-6)
    assert quad.source == "quadrature"


def test_quadrature_lid_makes_one_oracle_call_per_fit(monkeypatch):
    # the whole grid goes to one rho_quadrature call, whose entries are the
    # per-time calls bit for bit
    calls = []

    def counting(model, t, z):
        calls.append(np.array(t).tolist())
        return rho_quadrature(model, t, z)

    monkeypatch.setattr(estimator, "rho_quadrature", counting)
    m = gaussian_line()
    grid = TimeGrid.centered(1e-3)
    fit = estimate_lid(m, (0.7, 0.0), grid, source="quadrature")
    assert calls == [list(grid.values)]
    log_rhos = [rho_quadrature(m, t, (0.7, 0.0)).log_rho for t in grid.values]
    samples = list(zip((math.log(d) for d in grid.deltas), log_rhos))
    assert fit == replace(lidl_fit(samples, m.ambient_dim), source="quadrature")


def test_estimate_lid_monte_carlo_source():
    m = gaussian_line()
    grid = TimeGrid.log_spaced(0.05, 0.5, 4)
    exact = estimate_lid(m, (0.0, 0.0), grid)
    mc = estimate_lid(
        m, (0.0, 0.0), grid, source="monte_carlo",
        mc=McSettings(samples=200_000, seed=7),
    )
    assert mc.lid_estimate == pytest.approx(exact.lid_estimate, abs=0.05)
    assert mc.source == "monte_carlo"


@pytest.mark.parametrize("name,z", [
    ("gaussian-line", (0.7, 0.0)),
    ("box-plane", (0.25, 0.6, 0.0)),
    ("intersecting-line-plane", (0.6, 0.0, 0.0)),
])
def test_monte_carlo_lid_equals_sequential_per_time_loop(name, z):
    # time i of the grid is the estimate of a rho_monte_carlo call at that
    # time alone, seeded mc.seed: one set of draws serves every time
    m = CATALOG[name]()
    grid = TimeGrid.centered(1e-3)
    mc = McSettings(samples=20_000, seed=11)
    fit = estimate_lid(m, z, grid, source="monte_carlo", mc=mc)
    log_rhos = [rho_monte_carlo(m, t, z, mc).log_rho for t in grid.values]
    samples = list(zip((math.log(d) for d in grid.deltas), log_rhos))
    assert fit == replace(lidl_fit(samples, m.ambient_dim), source="monte_carlo")


def test_monte_carlo_lid_names_the_first_vanished_time():
    # 1.3 off the line the kernel underflows for every draw at the smaller
    # times of the grid, and not at the largest
    m = gaussian_line()
    grid = TimeGrid.centered(1e-3)
    mc = McSettings(samples=2000, seed=4)
    records = [rho_monte_carlo(m, t, (0.0, 1.3), mc) for t in grid.values]
    assert records[0] == records[1] == OracleEstimate(-math.inf, math.inf)
    assert math.isfinite(records[-1].log_rho)
    message = f"log density not finite at t={grid.values[0]!r}"
    with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
        estimate_lid(m, (0.0, 1.3), grid, source="monte_carlo", mc=mc)


@pytest.mark.parametrize("source,z,grid", [
    # y^2 / 2t overflows at the two times below t ~ 0.85: log rho is -inf
    # there and finite at the three above
    ("analytic", (0.0, 1.3e154), TimeGrid.log_spaced(1e-2, 1e2, 1)),
    ("quadrature", (0.0, 1.3e154), TimeGrid.log_spaced(1e-2, 1e2, 1)),
    # 1.3 off the line every kernel value of 2000 draws falls below e^-700,
    # which counts as 0, at the four smaller times: the mean vanishes
    ("monte_carlo", (0.0, 1.3), TimeGrid.centered(1e-3)),
])
def test_every_source_names_the_first_time_whose_log_density_is_not_finite(
    source, z, grid
):
    # one check and one message for every source
    message = f"log density not finite at t={grid.values[0]!r}"
    with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
        estimate_lid(gaussian_line(), z, grid, source, mc=McSettings(samples=2000, seed=4))


def test_estimate_lid_rejects_unknown_source():
    with pytest.raises(ValueError):
        estimate_lid(gaussian_line(), (0.0, 0.0), TimeGrid.centered(0.1), source="fd")


def test_estimate_lid_refuses_an_unknown_source_by_name():
    # a refused input like any other: a ModelError that names the field
    with pytest.raises(ModelError, match="^source must be one of analytic, quadrature, "
                                         "monte_carlo, got 'fd'$"):
        estimate_lid(gaussian_line(), (0.0, 0.0), TimeGrid.centered(0.1), source="fd")


# ---------------------------------------------------------------------------
# bias_curve
# ---------------------------------------------------------------------------

def test_bias_curve_gaussian_center():
    m = gaussian_line()
    curve = bias_curve(m, (0.0, 0.0), TimeGrid([1e-3, 1e-2, 1e-1]), d_ref=1)
    s = curve.slopes
    assert s.d_ref == 1
    assert curve.t[1] == 1e-2
    assert s.bias[1] == pytest.approx(-0.009900990099009901, rel=1e-13)
    assert not s.diverged[1]
    assert s.responsibilities[1].tolist() == [1.0]


def test_bias_curve_stairs_bump():
    # two sigmas out along the thinnest axis the estimate overshoots near
    # t = sigma^2: exactly 3.5 at t = 1e-12, cresting slightly above just
    # below it (the overshoot summand t(x^2 - v)/v^2, v = sigma^2 + t,
    # peaks at t = 0.6 sigma^2 with value 0.5625)
    m = aniso_gaussian_3d()
    ts = [10.0 ** (k / 4) for k in range(-56, -40)]
    curve = bias_curve(m, (0.0, 0.0, 2e-6), TimeGrid(ts), d_ref=3)
    estimates = (3.0 + curve.slopes.beta).tolist()
    at_ref = next(
        e for t, e in zip(curve.t.tolist(), estimates)
        if math.isclose(t, 1e-12, rel_tol=1e-12)
    )
    assert at_ref == pytest.approx(3.5, abs=1e-3)
    peak = int(np.argmax(estimates))
    assert 0 < peak < len(ts) - 1  # interior bump, not a monotone edge
    assert 1e-13 <= curve.t[peak] <= 1e-11
    assert estimates[peak] == pytest.approx(3.5625, abs=2e-3)


def test_bias_curve_parallel_value():
    m = parallel_planes()
    curve = bias_curve(m, (0.0, 0.0), TimeGrid([0.5, 1.0, 2.0]), d_ref=1)
    assert curve.slopes.bias[1] == pytest.approx(0.3775406687981454, rel=1e-12)


def test_bias_curve_matches_laplacian_correction_for_single_component():
    # the bias at every time equals t times the smoothed-Laplacian ratio
    m = uniform_interval()
    comp = m.components[0]
    grid = TimeGrid([1e-3, 1e-2, 1e-1, 1.0])
    curve = bias_curve(m, (0.3, 0.0), grid, d_ref=1)
    for t, bias in zip(curve.t.tolist(), curve.slopes.bias.tolist()):
        expected = t * smoothed_laplacian_ratio(comp.density, t, [0.3])
        assert bias == pytest.approx(expected, rel=1e-12, abs=1e-300)


def _assert_rows_match_single_times(m, z, curve):
    # the entries at each time equal mixture_beta_t and log_mixture_rho at
    # that time alone, bit for bit
    s = curve.slopes
    for i, t in enumerate(curve.t.tolist()):
        value, w = mixture_beta_t(m, t, z)
        got = [s.log_rho[i], s.beta[i], s.bias[i], *s.responsibilities[i]]
        want = [log_mixture_rho(m, t, z), value.beta, value.bias, *w]
        assert np.array(got).tobytes() == np.array(want).tobytes(), (z, t)
        assert bool(s.diverged[i]) is value.diverged


def test_bias_curve_log_rho_is_the_mixture_log_density(wide_mixture):
    # bias_curve evaluates the whole grid in one pass; each row must equal
    # the single-time mixture_beta_t and log_mixture_rho bit for bit, on and
    # off the manifold
    grid = TimeGrid(HEAT_TIMES)
    for name, build in CATALOG.items():
        m = build()
        for z in HEAT_SUITE_POINTS[name]:
            _assert_rows_match_single_times(m, z, bias_curve(m, z, grid))
    off = bias_curve(uniform_interval(), (1.5, 0.0), grid)
    assert off.slopes.diverged.all()
    _assert_rows_match_single_times(uniform_interval(), (1.5, 0.0), off)
    # a normal displacement whose squared norm overflows: every term of the
    # log-sum is -inf, the non-finite branch
    with np.errstate(over="ignore"):
        far = bias_curve(gaussian_line(), (0.0, 1e200), grid)
        s = far.slopes
        assert (s.log_rho == -math.inf).all()
        assert ((s.beta == math.inf) & (s.bias == math.inf)).all()
        assert s.diverged.all()
        assert np.isnan(s.responsibilities).all()
        _assert_rows_match_single_times(gaussian_line(), (0.0, 1e200), far)
        assert log_mixture_rho(gaussian_line(), 1.0, (0.0, 1e200)) == -math.inf
    # K=16, D=32 over the time span the wide-mixture benchmark uses
    m, points = wide_mixture
    wide = TimeGrid.log_spaced(1e-6, 1e2, 2)
    n_zero = 0
    for z in points:
        curve = bias_curve(m, z, wide)
        _assert_rows_match_single_times(m, z, curve)
        n_zero += int((curve.slopes.responsibilities == 0.0).sum())
    assert n_zero > 0  # the exact-zero responsibility mask is exercised


def test_bias_curve_default_reference_dim():
    m = intersecting_line_plane()
    curve = bias_curve(m, (0.0, 0.0, 0.0), TimeGrid([1e-2, 1e-1]))
    assert curve.slopes.d_ref == 1


def test_estimate_converges_to_dim_as_grid_shrinks():
    m = box_plane()
    fit = estimate_lid(m, (0.5, 0.5, 0.0), TimeGrid.centered(1e-10))
    assert fit.lid_estimate == pytest.approx(2.0, abs=1e-2)


def _assert_block_curve_equals_singles(m, points, grid, d_ref=None):
    block = bias_curve(m, np.array(points), grid, d_ref=d_ref)
    assert block.point == tuple(map(tuple, points))
    assert block.slopes.bias.shape == (len(points), len(grid.values))
    for i, z in enumerate(points):
        one = bias_curve(m, z, grid, d_ref=d_ref)
        assert one.point == tuple(z) and one.t.tobytes() == block.t.tobytes()
        assert block.slopes.d_ref[i] == one.slopes.d_ref
        for name in ("log_rho", "beta", "bias", "diverged", "responsibilities"):
            got, want = getattr(block.slopes, name)[i], getattr(one.slopes, name)
            assert got.shape == want.shape, (z, name)
            assert got.tobytes() == want.tobytes(), (z, name)


def test_bias_curve_block_equals_single_points(wide_mixture):
    # one call over a (P, D) block gives each point's single-point curve bit
    # for bit: the wide mixture, every catalog point set with its own
    # reference dimensions, and far points whose log terms are all -inf
    m, points = wide_mixture
    _assert_block_curve_equals_singles(m, points, TimeGrid.log_spaced(1e-6, 1e2, 2))
    grid = TimeGrid(HEAT_TIMES)
    for name, build in CATALOG.items():
        _assert_block_curve_equals_singles(build(), HEAT_SUITE_POINTS[name], grid)
    far = [(0.0, 0.0), (1e200, 0.0), (0.0, 1e200)]
    _assert_block_curve_equals_singles(gaussian_line(), far, grid, d_ref=1)
    _assert_block_curve_equals_singles(
        uniform_interval(), [(0.5, 0.0), (-0.5, 0.0), (3.0, 0.0), (-1e200, 0.0)],
        TimeGrid.log_spaced(1e-4, 1e2, 4), d_ref=1,
    )
