"""Quadrature, Monte Carlo, and finite-difference oracles."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from exactlid import (
    ConstantOne,
    GaussianDiag,
    ImproperDensityError,
    ManifoldComponent,
    McSettings,
    MixtureModel,
    OracleEstimate,
    TimeGrid,
    UniformBox,
    asymptotic_slope_pair,
    beta_fd_time,
    component_split,
    log_mixture_rho,
    mixture_beta_t,
    mixture_slopes,
    parallel_planes_beta,
    power_law_slope_pair,
    rho_monte_carlo,
    rho_quadrature,
    validate_model,
)
from exactlid import oracle
from exactlid.model import LIMITS, PointMass, as_times
from exactlid.oracle import laplacian_fd
from exactlid.analytic import (
    coefficient_bound,
    log_component_rho,
    log_smoothed_density,
    smoothed_laplacian_ratio,
)
from exactlid.verify import (
    _LAPLACIAN_CASES,
    HEAT_TIMES,
    heat_suite,
    laplacian_suite,
    mixture_suite,
    slopes_suite,
)
from exactlid.catalog import (
    CATALOG,
    HEAT_SUITE_POINTS,
    decade_grid,
    gaussian_line,
    parallel_planes,
    point_and_box,
    uniform_interval,
)

_LOG_2PI = math.log(2.0 * math.pi)


def _beta_fd_space(m, z, t, h=None):
    """Finite-difference slope t * Laplacian(rho)/rho at one point, from one
    ``log_mixture_rho`` call over the stencil; the step defaults to
    ``suggested_spatial_step`` at ``t``."""
    if h is None:
        (tk,), _ = as_times(float(t))
        h = oracle.suggested_spatial_step((c.density for c in m.components), tk)
    point = np.asarray(z, dtype=float)
    return t * laplacian_fd(lambda b: log_mixture_rho(m, t, b), point, h)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [1e-4, 1e-3, 1e-2, 1e-1, 1.0])
@pytest.mark.parametrize("x", [-3.0, -1.2, 0.0, 0.7, 3.0])
def test_quadrature_matches_closed_form_gaussian_line(t, x):
    m = gaussian_line()
    est = rho_quadrature(m, t, (x, 0.0))
    assert abs(est.log_rho - log_mixture_rho(m, t, (x, 0.0))) <= 1e-8


@pytest.mark.parametrize("t", [1e-3, 1e-1, 1.0])
def test_quadrature_matches_closed_form_box(t):
    m = uniform_interval()
    for x in (0.5, 0.05, 1.2):
        est = rho_quadrature(m, t, (x, 0.1))
        assert abs(est.log_rho - log_mixture_rho(m, t, (x, 0.1))) <= 1e-8


def test_quadrature_point_mass_is_exact_kernel():
    m = validate_model(
        MixtureModel(1, [ManifoldComponent(0, [0.0], ConstantOne())], [1.0])
    )
    est = rho_quadrature(m, 0.3, (0.4,))
    assert est.log_rho == log_component_rho(m.components[0], 0.3, (0.4,))[0]


def test_quadrature_constant_density_normalizes():
    m = parallel_planes()
    # on-manifold value is log(0.5 + 0.5 phi_t(1)/phi_t(0)); the quadrature
    # window reproduces the unit mass of the kernel within 1e-8
    for t in (1e-3, 1.0, 100.0):
        est = rho_quadrature(m, t, (0.0, 0.0))
        assert abs(est.log_rho - log_mixture_rho(m, t, (0.0, 0.0))) <= 1e-8


def test_quadrature_self_consistency_under_node_doubling():
    density = gaussian_line().components[0].density
    *window, log_f, _ = density.axis_integrand(0, np.array([0.01]), 0.5)
    (a,), (b,) = oracle._axis_log_integrals(*window, log_f, (32, 64))
    assert abs(a - b) < 1e-9


def test_quadrature_error_bound_is_honest():
    m = uniform_interval()
    est = rho_quadrature(m, 0.05, (0.3, 0.0))
    assert est.log_error >= 0.0
    assert abs(est.log_rho - log_mixture_rho(m, 0.05, (0.3, 0.0))) <= max(
        est.log_error, 1e-9
    )


@pytest.mark.parametrize("build,z", [
    (gaussian_line, (1e200, 0.0)),
    (uniform_interval, (1e200, 0.0)),
    (gaussian_line, (0.0, 1e200)),
])
def test_quadrature_non_finite_value_has_infinite_bound(build, z):
    # far out the integral fails (value -inf); it must not carry the tiny
    # bound of a converged one
    est = rho_quadrature(build(), 1e-3, z)
    assert est.log_rho == -math.inf
    assert est.log_error == math.inf


def _every_panel_terms(a, b, scale, log_f, k, order):
    """The ``order`` rule's terms on every panel of the window [a, b] at
    time ``k``, one row per panel, on the edges of ``np.linspace``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.float64(b - a) / (4.0 * scale)
    panels = 1 if not ratio > 1.0 else min(20000, math.ceil(min(ratio, 1e9)))
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    base_x, base_w = oracle._leggauss(order)
    return log_f(mid[:, None] + half[:, None] * base_x, k) + np.log(half[:, None] * base_w)


def _every_panel_axis(lo, hi, scale, vertex, log_f, orders):
    """``oracle._axis_log_integrals`` one time at a time, summed over every
    panel of each window: the log-sum-exp with each panel's terms summed
    pairwise and the panel sums in sequence."""
    values = np.empty((len(orders), len(lo)))
    for k, (a, b, s) in enumerate(zip(lo.tolist(), hi.tolist(), scale.tolist())):
        for row, order in enumerate(orders):
            terms = _every_panel_terms(a, b, s, log_f, k, order)
            peak = terms.max()
            top = terms == peak
            scaled = np.exp(terms - (peak if np.isfinite(peak) else 0.0))
            scaled[top] = 0.0
            total = 0.0
            for panel_sum in scaled.sum(axis=1).tolist():
                total += panel_sum
            ties = np.float64(max(int(top.sum()), 1))
            values[row, k] = np.log1p(np.float64(total) / ties) + np.log(ties) + peak
    return values


def _every_panel_quadrature(monkeypatch, m, ts, z):
    """``rho_quadrature`` with every axis summed over every panel by
    ``_every_panel_axis``, one call per time: (value, bound) as float.hex."""
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_axis_log_integrals", _every_panel_axis)
        return [_hexes(rho_quadrature(m, tk, z)) for tk in ts.tolist()]


def _hexes(estimate):
    return estimate.log_rho.hex(), estimate.log_error.hex()


def _column_hexes(estimate):
    """(value, bound) as float.hex at each time of an array call's record."""
    return [(v.hex(), b.hex())
            for v, b in zip(estimate.log_rho.tolist(), estimate.log_error.tolist())]


def _record_bytes(estimate):
    return estimate.log_rho.tobytes(), estimate.log_error.tobytes(), estimate.degenerate


@pytest.fixture
def evaluated(monkeypatch):
    """The count of nodes at which each (density kind, axis) evaluates its
    log integrand."""
    counts = {}
    for kind in (GaussianDiag, UniformBox, ConstantOne):
        def recording(self, j, ts, xj, integrand=kind.axis_integrand):
            *window, log_f, cut = integrand(self, j, ts, xj)
            key = type(self).__name__, j

            def counted(u, k):
                counts[key] = counts.get(key, 0) + np.size(u)
                return log_f(u, k)

            return *window, counted, cut

        monkeypatch.setattr(kind, "axis_integrand", recording)
    return counts


# nodes per panel of the two rules together
_BOTH_ORDERS = oracle.RULE_ORDER + oracle.HALF_RULE_ORDER


def test_quadrature_skip_is_exact_at_the_panel_cap(monkeypatch, evaluated):
    m, t, z = CATALOG["aniso-gaussian-3d"](), 1e-3, (0.5, 1e-3, 0.0)
    lo, hi, scale, *_ = m.components[0].density.axis_integrand(2, np.array([t]), 0.0)
    assert (hi - lo) / (4.0 * scale) > 20000  # the sigma=1e-6 axis hits the cap
    assert _hexes(rho_quadrature(m, t, z)) == _every_panel_quadrature(
        monkeypatch, m, np.array([t]), z)[0]
    evaluated.clear()
    rho_quadrature(m, t, z)
    # fewer than 1000 of the 20000 panels
    assert evaluated["GaussianDiag", 2] < 1000 * _BOTH_ORDERS


def test_quadrature_skip_is_exact_on_a_box_axis(monkeypatch, evaluated):
    t, a, b, xj = 1e-6, 0.0, 1.0, 0.3
    assert math.ceil((b - a) / (4.0 * math.sqrt(t))) == 250  # panels of the box
    m = validate_model(
        MixtureModel(1, [ManifoldComponent(1, [], UniformBox([(a, b)]))], [1.0])
    )
    est = rho_quadrature(m, t, (xj,))
    assert evaluated["UniformBox", 0] < 250 * _BOTH_ORDERS
    assert _hexes(est) == _every_panel_quadrature(monkeypatch, m, np.array([t]), (xj,))[0]


def test_quadrature_skip_is_exact_on_a_constant_axis(monkeypatch):
    t, xj = 1e-3, 0.4
    m = validate_model(
        MixtureModel(1, [ManifoldComponent(1, [], ConstantOne())], [1.0])
    )
    assert _hexes(rho_quadrature(m, t, (xj,))) == _every_panel_quadrature(
        monkeypatch, m, np.array([t]), (xj,))[0]


def test_quadrature_skip_falls_back_to_every_panel(monkeypatch, evaluated):
    # sigma^2 t = 2.5e-401 underflows, so the scale is 0 though the
    # integrand is 5e-101 wide, a 16th of its window: a scale below
    # oracle._MIN_SCALE gives no reach, and all 20000 panels are summed
    m, t, z = _narrow_line(7e-101), 5e-201, (0.0, 0.0)
    assert m.components[0].density.axis_integrand(0, np.array([t]), 0.0)[2] == 0.0
    est = rho_quadrature(m, t, z)
    assert evaluated["GaussianDiag", 0] > 20000 * _BOTH_ORDERS
    assert _hexes(est) == _every_panel_quadrature(monkeypatch, m, np.array([t]), z)[0]
    assert abs(est.log_rho - log_mixture_rho(m, t, z)) <= est.log_error < 1e-12


@pytest.mark.parametrize("min_scale", [oracle._MIN_SCALE, math.inf],
                         ids=["run", "every-panel"])
def test_quadrature_grid_equals_scalar_calls(monkeypatch, evaluated, min_scale):
    # the grid includes the capped sigma=1e-6 axis; with no scale large
    # enough every time sums every panel.  Entry k is the scalar call at
    # t[k].
    monkeypatch.setattr(oracle, "_MIN_SCALE", min_scale)
    m = CATALOG["aniso-gaussian-3d"]()
    z = (0.5, 1e-3, 0.0)
    ts = np.array(TimeGrid.centered(1e-3).values)
    hexes = _column_hexes(rho_quadrature(m, ts, z))
    every_panel = evaluated["GaussianDiag", 2] > 20000 * _BOTH_ORDERS * len(ts)
    assert every_panel == (min_scale == math.inf)
    assert hexes == [_hexes(rho_quadrature(m, tk, z)) for tk in ts.tolist()]


def _traced_peak(m, ts, z):
    tracemalloc.start()
    try:
        rho_quadrature(m, ts, z)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_quadrature_memory_does_not_grow_with_the_grid():
    # each chunk's panels are built, summed and dropped before the next
    # chunk's: on 200 times of the capped sigma=1e-6 axis (20001 edges
    # each, 32 MB together) the traced peak stays that of a few times
    m = CATALOG["aniso-gaussian-3d"]()
    ts = np.geomspace(1e-3, 1e-2, 200)
    assert _traced_peak(m, ts, (0.5, 1e-3, 0.0)) < 4e6


def test_quadrature_memory_with_many_times_per_block():
    # on 2000 times of a unit line a chunk holds dozens of times, and its
    # terms are evaluated at most oracle._MAX_TERMS at a time: the traced
    # peak stays under the same bound
    ts = np.geomspace(1e-3, 1.0, 2000)
    assert _traced_peak(gaussian_line(), ts, (0.3, 0.0)) < 4e6


# ---------------------------------------------------------------------------
# Quadrature against the every-panel sum, one time at a time
# ---------------------------------------------------------------------------

def _seeded_catalog_cases(n):
    rng = np.random.default_rng(26)
    names = sorted(n for n in CATALOG if n != "parallel-planes")
    for k in range(n):
        m = CATALOG[names[k % len(names)]]()
        z = tuple(rng.normal(0.0, rng.choice([0.01, 0.5, 3.0]), m.ambient_dim))
        count = int(rng.integers(1, 41))
        t_lo = 10.0 ** rng.uniform(-6.0, 0.0)
        yield m, np.geomspace(t_lo, t_lo * 10.0 ** rng.uniform(0.0, 3.0), count), z


def _narrow_line(sigma):
    return validate_model(
        MixtureModel(2, [ManifoldComponent(1, [0.0], GaussianDiag([sigma]))], [1.0]))


# the bench fits: five catalog models, two points each, seven times
_BENCH_FITS = [
    (CATALOG[name](), np.array(TimeGrid.centered(1e-3).values), z)
    for name, points in [
        ("gaussian-line", [(0.0, 0.0), (0.7, 0.0)]),
        ("box-plane", [(0.5, 0.5, 0.0), (0.25, 0.6, 0.0)]),
        ("intersecting-line-plane", [(0.0, 0.0, 0.0), (0.6, 0.0, 0.0)]),
        ("aniso-gaussian-3d", [(0.0, 0.0, 0.0), (0.5, 1e-3, 0.0)]),
        ("uniform-interval", [(0.5, 0.0), (0.2, 0.0)]),
    ]
    for z in points
]
_EDGE_CASES = [
    # the capped sigma=1e-6 axis
    (CATALOG["aniso-gaussian-3d"](), np.geomspace(1e-4, 1e-2, 3), (0.5, 1e-3, 0.0)),
    # far points: squares and log integrands overflow to inf, and a window's
    # scale to inf (sigma = 1e150 at t = 1e10: one panel)
    (gaussian_line(), np.array([1e-3, 1.0, 1e10]), (1e200, 0.0)),
    (gaussian_line(), np.array([1e-3, 1.0, 1e10]), (0.0, 1e200)),
    (uniform_interval(), np.array([1e-3, 1.0]), (1e200, 0.0)),
    # a box's tail, whose peaks over one grid's times span 1400
    (uniform_interval(), np.array(TimeGrid.centered(1e-3).values), (2.0, 0.0)),
    (parallel_planes(), np.array([1e-3, 1e300]), (1e308, 0.0)),
    (_narrow_line(1e150), np.array([1e-3, 1e10, 1e300]), (0.3, 0.0)),
    (_narrow_line(1.0), np.array([1e-3, 1e100]), (1e308, 0.0)),
    # panels whose log integrand is -inf hold no mass
    (_narrow_line(1e-150), np.array(TimeGrid.centered(1e100).values), (0.0, 0.0)),
]


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def test_quadrature_reach_leaves_out_only_terms_that_underflow():
    # every term of a panel outside a window's reach is exactly 0 after the
    # log-sum-exp shift: on the bench fits, the seeded grids and the edges
    orders = (oracle.RULE_ORDER, oracle.HALF_RULE_ORDER)
    for m, ts, z in [*_BENCH_FITS, *_seeded_catalog_cases(30), *_EDGE_CASES]:
        for comp in m.components:
            x, _ = component_split(comp, np.asarray(z, dtype=float))
            for j in range(comp.dim):
                lo, hi, scale, vertex, log_f, _ = comp.density.axis_integrand(j, ts, x[j])
                ratio = (hi - lo) / (4.0 * scale)
                panels = np.where(ratio > 1.0, np.minimum(np.ceil(ratio), 20000), 1.0)
                panels = panels.astype(np.intp)
                first, stop = oracle._reach(
                    lo, hi, scale, vertex, log_f, panels, (hi - lo) / panels, orders)
                for k in range(ts.size):
                    for order in orders:
                        terms = _every_panel_terms(lo[k], hi[k], scale[k], log_f, k, order)
                        peak = terms.max()
                        outside = np.r_[terms[: first[k]], terms[stop[k]:]]
                        if np.isfinite(peak):
                            assert np.all(np.exp(outside - peak) == 0.0), (ts[k], z, j)


def _assert_block_equals_per_time(monkeypatch, cases):
    for m, ts, z in cases:
        got = _column_hexes(rho_quadrature(m, ts, z))
        assert got == _every_panel_quadrature(monkeypatch, m, ts, z), (ts, z)


def test_quadrature_block_equals_the_per_time_oracle(monkeypatch):
    # every grid time's value and bound, as float.hex, are those of the sum
    # over every panel, one time at a time: on the bench fits, on 30 seeded
    # catalog grids of 1 to 40 times, and on windows at the edges of the
    # float range
    _assert_block_equals_per_time(
        monkeypatch, [*_BENCH_FITS, *_seeded_catalog_cases(30), *_EDGE_CASES])


def test_quadrature_block_equals_the_per_time_oracle_on_every_panel(monkeypatch):
    # with no scale large enough every time sums every panel (20000 on the
    # capped axis): the blocks, their padding and their sums alone give
    # the every-panel values
    monkeypatch.setattr(oracle, "_MIN_SCALE", math.inf)
    _assert_block_equals_per_time(monkeypatch, [*_BENCH_FITS, *_EDGE_CASES])


@pytest.mark.parametrize("sigma,z,t", [
    (1e5, (1e300, 0.0), 1e-3),  # the window's center overflows: its edges are NaN
    (1e150, (1e308, 0.0), 1.0),
    (1e-150, (0.0, 0.0), 1e-30),  # sigma^2 t underflows: the scale is 0
], ids=["center-overflows", "wide-sigma-far-point", "scale-underflows"])
def test_quadrature_window_overflow_is_not_a_crash(sigma, z, t):
    # a NaN or infinite panel count is no crash.  A
    # window that is not a number takes one panel, whose value is NaN; a
    # scale of 0 takes the cap.  Either value carries an infinite bound
    # unless it is finite, and a finite one is as honest as the rules allow
    m = _narrow_line(sigma)
    est = rho_quadrature(m, np.array([t, 2.0 * t]), z)
    log_rho, log_error = est.log_rho[0], est.log_error[0]
    if math.isfinite(log_rho):
        assert abs(log_rho - log_mixture_rho(m, t, z)) <= log_error
    else:
        assert log_error == math.inf


@pytest.mark.parametrize("t", [1e-3, 1e-1])
@pytest.mark.parametrize("component,z", [
    (ManifoldComponent(4, [0.0], GaussianDiag([1.0, 0.5, 2.0, 0.1])),
     (0.3, -0.2, 1.0, 0.05, 0.1)),
    (ManifoldComponent(5, [], UniformBox(
        [(0.0, 1.0), (-1.0, 1.0), (0.0, 2.0), (-0.5, 0.5), (0.0, 3.0)])),
     (0.1, 0.9, 1.9, -0.45, 2.9)),
], ids=["gaussian-4d", "box-5d"])
def test_quadrature_any_component_dimension(component, z, t):
    # every component runs the same per-axis product, whatever its dim
    m = validate_model(MixtureModel(5, [component], [1.0]))
    est = rho_quadrature(m, t, z)
    assert abs(est.log_rho - log_mixture_rho(m, t, z)) <= est.log_error < 1e-13


def _one(D, components, weights=(1.0,)):
    return validate_model(MixtureModel(D, components, weights))


_PIN_BOX = UniformBox([(0.1, 0.85)])


# value and error bound as float.hex, one case per kind of axis, at scales
# that are not powers of ten: a systematic change to an integrand (a
# constant regrouped, a window moved) changes the last bits
_PINNED = pytest.mark.parametrize("model,t,z,value,bound", [
    (_one(2, [ManifoldComponent(1, [0.2], GaussianDiag([0.7]))]), 0.013, (0.31, 0.25),
     "0x1.f113f9c62b1f4p-2", "0x1.c36c133fa5604p-49"),
    (_one(2, [ManifoldComponent(1, [0.0], _PIN_BOX)]), 0.037, (0.33, 0.05),
     "0x1.b66ccb235480ep-1", "0x1.301d7cf73ab0bp-49"),
    (_one(2, [ManifoldComponent(1, [0.0], _PIN_BOX)]), 0.011, (1.27, 0.05),
     "-0x1.1bd11078c9e91p+3", "0x1.24075f3dceac3p-47"),
    (_one(2, [ManifoldComponent(1, [0.0], ConstantOne()),
              ManifoldComponent(1, [0.9], ConstantOne())], (0.6, 0.4)), 0.37, (0.2, 0.3),
     "-0x1.5904f70c0bba7p-1", "0x1.836c133fa5604p-49"),
    (point_and_box(), 0.029, (0.7,),
     "-0x1.4cbc758593f40p+0", "0x1.901d7cf73ab0bp-49"),
], ids=["gaussian-axis", "box-interior", "box-tail", "constant-axis", "point-mass"])


@_PINNED
def test_quadrature_is_pinned_bit_for_bit(model, t, z, value, bound):
    est = rho_quadrature(model, t, z)
    assert (est.log_rho.hex(), est.log_error.hex()) == (value, bound)


@_PINNED
def test_quadrature_time_array_equals_scalar_calls(model, t, z, value, bound):
    # each time's panels, run, fallback and sums are decided on their own,
    # whatever block they share: entry k of an array call is the scalar call
    # at t[k], bit for bit
    ts = np.array([t, 2.5 * t])
    got = rho_quadrature(model, ts, z)
    assert got.log_rho.shape == got.log_error.shape == ts.shape
    singles = [rho_quadrature(model, tk, z) for tk in ts]
    assert all(isinstance(e, OracleEstimate) for e in singles)
    assert _column_hexes(got) == [_hexes(e) for e in singles]
    with pytest.raises(ValueError, match="time"):
        rho_quadrature(model, np.array([t, 0.0]), z)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def test_monte_carlo_within_three_stderr():
    m = gaussian_line()
    exact = math.exp(log_mixture_rho(m, 0.1, (0.0, 0.0)))
    est = rho_monte_carlo(m, 0.1, (0.0, 0.0), McSettings(samples=200_000, seed=123))
    mean = math.exp(est.log_rho)
    assert abs(mean - exact) <= 3.0 * est.log_error * mean


def test_monte_carlo_deterministic():
    m = gaussian_line()
    a = rho_monte_carlo(m, 0.1, (0.0, 0.0), McSettings(samples=50_000, seed=9))
    b = rho_monte_carlo(m, 0.1, (0.0, 0.0), McSettings(samples=50_000, seed=9))
    assert a.log_rho == b.log_rho
    assert a.log_error == b.log_error


def test_monte_carlo_golden_stream():
    # regression guard for the sampling stream; frozen from seed 0
    m = gaussian_line()
    # (mean, se) = (0.45722041040071326, 0.017680405978653974); a relative
    # 1e-15 on the mean is an absolute 1e-15 on its log
    est = rho_monte_carlo(m, 0.1, (0.0, 0.0), McSettings(samples=1000, seed=0))
    assert est.log_rho == pytest.approx(math.log(0.45722041040071326), abs=1e-15)
    assert est.log_error == pytest.approx(
        0.017680405978653974 / 0.45722041040071326, rel=1e-15
    )


def _golden_mixture():
    # K=3: a line, a box plane and a point mass, each at an offset
    return validate_model(
        MixtureModel(
            3,
            [
                ManifoldComponent(1, [0.2, -0.1], GaussianDiag([0.5])),
                ManifoldComponent(2, [0.3], UniformBox([(0.0, 1.0), (-0.5, 0.5)])),
                ManifoldComponent(0, [0.4, 0.0, 0.25], ConstantOne()),
            ],
            [0.3, 0.5, 0.2],
        )
    )


def test_monte_carlo_golden_stream_mixture_with_box_and_offsets():
    # the point lies off all three components, so each draw carries a
    # nonzero normal part; frozen from seed 0
    m = _golden_mixture()
    # (mean, se) = (0.975873156849528, 0.02042050962942238)
    est = rho_monte_carlo(m, 0.1, (0.3, 0.05, 0.2), McSettings(samples=1000, seed=0))
    assert est.log_rho == pytest.approx(math.log(0.975873156849528), abs=1e-15)
    assert est.log_error == pytest.approx(
        0.02042050962942238 / 0.975873156849528, rel=1e-15
    )


def _point_array_monte_carlo(model, t, z, samples, seed):
    """The sampler written out over a (draws, D) point array with one
    searchsorted per chunk: the same random stream, the same kernel sums
    and the same chunk-merged moments, as (mean, standard error).  Each
    squared distance is summed in the sampler's fixed order: the squared
    on-manifold columns axis by axis, then the component's |y|^2."""
    D = model.ambient_dim
    rng = np.random.default_rng(seed)
    cum = np.cumsum(model.weights)
    arr = np.asarray(z, dtype=float)
    count, mean, m2 = 0, 0.0, 0.0
    remaining = samples
    while remaining > 0:
        m = min(1 << 16, remaining)
        remaining -= m
        idx = np.searchsorted(cum, rng.random(m), side="right")
        np.clip(idx, 0, len(model.components) - 1, out=idx)
        pts = np.empty((m, D))
        for i, comp in enumerate(model.components):
            mask = idx == i
            cnt = int(mask.sum())
            if cnt == 0:
                continue
            d = comp.dim
            if d > 0:
                if isinstance(comp.density, GaussianDiag):
                    sigmas = np.asarray(comp.density.sigmas)
                    draws = rng.standard_normal((cnt, d)) * sigmas
                else:
                    bounds = np.asarray(comp.density.bounds)
                    width = bounds[:, 1] - bounds[:, 0]
                    draws = bounds[:, 0] + rng.random((cnt, d)) * width
                pts[mask, :d] = draws
            pts[mask, d:] = np.asarray(comp.offset)
        diff = arr[None, :] - pts
        r2 = np.zeros(m)
        for i, comp in enumerate(model.components):
            rows = idx == i
            for j in range(comp.dim):
                col = diff[rows, j]
                r2[rows] += col * col
            y2 = 0.0
            for v in (arr[comp.dim:] - np.asarray(comp.offset)).tolist():
                y2 += v * v
            r2[rows] += y2
        log_norm = -0.5 * D * (_LOG_2PI + math.log(t))
        vals = np.exp(log_norm - 0.5 * r2 / t)
        chunk_mean = float(vals.mean())
        chunk_m2 = float(((vals - chunk_mean) ** 2).sum())
        delta = chunk_mean - mean
        total = count + m
        mean += delta * m / total
        m2 += chunk_m2 + delta * delta * count * m / total
        count = total
    return mean, math.sqrt(m2 / (count * (count - 1)))


def _log_record(mean, se):
    """A positive (mean, standard error) as the oracle reports it:
    (log mean, se / mean)."""
    return math.log(mean), se / mean


@pytest.mark.parametrize(
    "model,t,z,samples",
    [
        (_golden_mixture(), 0.03, (0.1, -0.2, 0.35), 1000),
        (_golden_mixture(), 1e-3, (0.4, 0.0, 0.25), 70_000),  # two chunks
        (CATALOG["intersecting-line-plane"](), 1e-3, (0.6, 0.0, 0.0), 70_000),
        (CATALOG["aniso-gaussian-3d"](), 3e-3, (0.5, 1e-3, 0.0), 5000),
        (uniform_interval(), 0.05, (1.2, 0.3), 5000),
        # exponent 5.07 - u^2 / 0.002 for u ~ N(0, 1): about 1.4% of the
        # draws fall between -746 and -700, and 22% fall below -746
        (gaussian_line(), 1e-3, (0.0, 0.0), 20_000),
        # kernel values of 0 and 1e147 (squares of 1e294): the squared
        # deviations are summed in units of 2^18, which changes no bit
        (point_and_box(), 1e-295, (1.0,), 5000),
    ],
)
def test_monte_carlo_matches_point_array_reference(model, t, z, samples):
    est = rho_monte_carlo(model, t, z, McSettings(samples=samples, seed=5))
    assert (est.log_rho, est.log_error) == _log_record(
        *_point_array_monte_carlo(model, t, z, samples, 5)
    )


@pytest.mark.parametrize(
    "model,z",
    [
        (CATALOG["aniso-gaussian-3d"](), (0.5, 1e-3, 0.0)),  # D = 3, no normal part
        (CATALOG["box-plane"](), (0.25, 0.6, 0.3)),  # |y| > 0
        (_golden_mixture(), (0.1, -0.2, 0.35)),  # line, box plane, point mass
    ],
    ids=["aniso-gaussian-3d", "box-plane", "golden-mixture"],
)
def test_monte_carlo_squared_distances_equal_a_per_draw_float_loop(model, z):
    # Python floats are IEEE doubles summed in the order written, on every
    # CPU, so this pins the sampler's distances bit for bit
    n = 1000
    for comp in model.components:
        x, y = component_split(comp, np.asarray(z, dtype=float))
        rng = np.random.default_rng(23)
        got = oracle._squared_distances(rng, comp, x, y, n)

        ref_rng = np.random.default_rng(23)
        d = comp.dim
        if d == 0:
            rows = [[]] * n
        elif isinstance(comp.density, GaussianDiag):
            sigmas = comp.density.sigmas
            rows = [
                [z[j] - sigmas[j] * u for j, u in enumerate(row)]
                for row in ref_rng.standard_normal((n, d)).tolist()
            ]
        else:
            bounds = comp.density.bounds
            rows = [
                [z[j] - (bounds[j][0] + (bounds[j][1] - bounds[j][0]) * u)
                 for j, u in enumerate(row)]
                for row in ref_rng.random((n, d)).tolist()
            ]
        y2 = 0.0
        for zi, offset in zip(z[d:], comp.offset):
            y2 += (zi - offset) * (zi - offset)
        expected = []
        for row in rows:
            acc = 0.0
            for c in row:
                acc += c * c
            expected.append(acc + y2)

        assert got.tolist() == expected
        # the same variates were taken from the stream
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_monte_carlo_point_distances_are_the_offset_norm():
    # a point mass takes no draws: every distance is |y|^2 summed as Python
    # floats, and the generator's stream is untouched
    comp = ManifoldComponent(0, [0.4, -1.3, 2.2], ConstantOne())
    z = np.array([0.1, 0.25, -0.7])
    x, y = component_split(comp, z)
    rng = np.random.default_rng(17)
    got = oracle._squared_distances(rng, comp, x, y, 1000)
    y2 = 0.0
    for zi, offset in zip(z.tolist(), comp.offset):
        y2 += (zi - offset) * (zi - offset)
    assert got.tolist() == [y2] * 1000
    assert rng.random() == np.random.default_rng(17).random()


@pytest.mark.parametrize(
    "density", [ConstantOne(), GaussianDiag([1.0]), UniformBox([]), PointMass()],
    ids=["constant", "gaussian", "box", "point"],
)
def test_point_mass_spellings_give_identical_results(density):
    # a dim-0 component holds a point mass whatever density it is given,
    # so every spelling of point_and_box gives the same bits
    ref = point_and_box()
    box = ref.components[1]
    m = validate_model(
        MixtureModel(1, [ManifoldComponent(0, [1.0], density), box], [0.5, 0.5])
    )
    assert m == ref
    ts = np.array([1e-3, 0.029, 0.4])
    points = [(0.7,), (1.0,), (0.0,), (-0.9,)]
    got, want = mixture_slopes(m, ts, points), mixture_slopes(ref, ts, points)
    for field in ("log_rho", "beta", "bias", "diverged", "responsibilities"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    mc = McSettings(samples=70_000, seed=3)
    for z in points:
        assert _record_bytes(rho_quadrature(m, ts, z)) == _record_bytes(
            rho_quadrature(ref, ts, z))
        assert _record_bytes(rho_monte_carlo(m, ts, z, mc)) == _record_bytes(
            rho_monte_carlo(ref, ts, z, mc))


@pytest.mark.parametrize("samples", [1, 1000, 65_537])  # degenerate, one chunk, two
@pytest.mark.parametrize(
    "model,z",
    [
        (CATALOG["aniso-gaussian-3d"](), (0.5, 1e-3, 0.0)),
        (CATALOG["box-plane"](), (0.25, 0.6, 0.0)),
        (_golden_mixture(), (0.1, -0.2, 0.35)),  # line, box plane, point mass
    ],
    ids=["aniso-gaussian-3d", "box-plane", "golden-mixture"],
)
def test_monte_carlo_time_array_equals_scalar_calls(model, z, samples):
    # one set of draws serves every time: entry k is the scalar call at t_k
    # with the same seed, bit for bit
    ts = np.array([1e-4, 1e-3, 3e-3, 0.1, 10.0])
    mc = McSettings(samples=samples, seed=31)
    got = rho_monte_carlo(model, ts, z, mc)
    singles = [rho_monte_carlo(model, t, z, mc) for t in ts]
    assert _column_hexes(got) == [_hexes(e) for e in singles]
    assert all(e.degenerate == got.degenerate == (samples == 1) for e in singles)


def test_monte_carlo_returns_an_estimate_per_time():
    m = gaussian_line()
    mc = McSettings(samples=100, seed=2)
    one = rho_monte_carlo(m, 0.1, (0.0, 0.0), mc)
    assert isinstance(one, OracleEstimate)
    assert type(one.log_rho) is float and type(one.log_error) is float
    listed = rho_monte_carlo(m, np.array([0.1]), (0.0, 0.0), mc)
    assert listed.log_rho.shape == listed.log_error.shape == (1,)
    assert _column_hexes(listed) == [_hexes(one)]
    assert listed.degenerate == one.degenerate


_SHAPE_TIMES = np.array([1e-3, 0.029, 0.4, 3.0])
_SHAPE_MC = McSettings(samples=1000, seed=3)


def _bits(values):
    # each float as float.hex, each bool as itself, each row as its bytes
    return [v.tobytes() if isinstance(v, np.ndarray) else
            v.hex() if isinstance(v, float) else v for v in values]


@pytest.mark.parametrize("call,fields", [
    pytest.param(lambda t: mixture_slopes(point_and_box(), t, (0.7,)),
                 ("log_rho", "beta", "bias", "diverged", "responsibilities"),
                 id="mixture_slopes"),
    pytest.param(lambda t: rho_quadrature(point_and_box(), t, (0.7,)),
                 ("log_rho", "log_error"), id="rho_quadrature"),
    pytest.param(lambda t: rho_monte_carlo(point_and_box(), t, (0.7,), _SHAPE_MC),
                 ("log_rho", "log_error"), id="rho_monte_carlo"),
    pytest.param(lambda t: parallel_planes_beta(t, 0.5, 1.0), (None,),
                 id="parallel_planes_beta"),
    pytest.param(lambda t: coefficient_bound(0.5, 0.5, 1.0, 1.0, 0.5, t), (None,),
                 id="coefficient_bound"),
])
def test_a_scalar_time_drops_the_time_axis(call, fields):
    # a scalar time gives floats (bools, a row of responsibilities), a 1-D
    # array one entry per time, and entry k is the scalar call at t[k], bit
    # for bit
    whole = call(_SHAPE_TIMES)
    singles = [call(t) for t in _SHAPE_TIMES.tolist()]
    for field in fields:
        column = whole if field is None else getattr(whole, field)
        values = [s if field is None else getattr(s, field) for s in singles]
        assert isinstance(column, np.ndarray) and len(column) == len(_SHAPE_TIMES)
        if field == "responsibilities":
            assert all(v.shape == column.shape[1:] for v in values)
            assert _bits(list(column)) == _bits(values)
        else:
            assert column.shape == _SHAPE_TIMES.shape
            assert all(type(v) in (float, bool) for v in values)
            assert _bits(column.tolist()) == _bits(values)
    if hasattr(whole, "degenerate"):
        assert all(whole.degenerate is s.degenerate for s in singles)


def test_monte_carlo_kernel_exp_counts_values_below_e_minus_700_as_0():
    # three in-range passes: exactly 0 where q <= -700, np.exp bit for bit
    # where that is at least 2^54 e^-700 (subtracting e^-700 moves no bit
    # there), and within 2 e^-700 of it in between
    floor = math.exp(-700.0)
    mixed = np.concatenate([
        np.linspace(-800.0, 5.0, 20_001),
        [-746.0, -745.2, -745.13, -745.1, -700.0, -699.99, -700.01, -np.inf],
    ])
    in_range = np.linspace(-700.0, 5.0, 20_001)  # nothing below -700
    subnormal = np.linspace(-745.13, -708.4, 20_001)  # every result subnormal
    for q in (mixed, in_range, subnormal):
        got, want = oracle._kernel_exp(q.copy()), np.exp(q)
        exact = want >= 2.0**54 * floor
        assert got[exact].tobytes() == want[exact].tobytes()
        assert np.all(got[q <= -700.0] == 0.0)
        between = ~exact & (q > -700.0)
        assert np.all(np.abs(got[between] - want[between]) < 2.0 * floor)
        assert np.all(got >= 0.0)
    # the in-between band is exercised
    assert np.count_nonzero((np.exp(in_range) < 2.0**54 * floor) & (in_range > -700.0)) > 1000


def test_monte_carlo_takes_kernel_values_relative_to_a_peak_below_e_minus_700():
    # a D = 200 unit line at t ~ 1e3: the largest kernel value exp(log_norm)
    # is below e^-700, where every kernel value would count as 0.  Taken
    # relative to exp(log_norm), each estimate lies within a few of its
    # errors of the closed form
    D = 200
    m = validate_model(MixtureModel(
        D, [ManifoldComponent(1, [0.0] * (D - 1), GaussianDiag([1.0]))], [1.0]))
    z = (0.3,) + (0.0,) * (D - 1)
    ts = np.array(TimeGrid.centered(1e3).values)
    assert (-0.5 * D * (_LOG_2PI + np.log(ts)) < oracle._EXP_FLOOR).all()
    got = rho_monte_carlo(m, ts, z, McSettings(samples=20_000, seed=0))
    want = log_mixture_rho(m, ts, z)
    assert ((0.0 < got.log_error) & (got.log_error < 0.01)).all()
    assert (np.abs(got.log_rho - want) <= 4.0 * got.log_error).all()


def test_monte_carlo_takes_kernel_values_relative_to_a_peak_that_overflows():
    # a point mass at z: every kernel value is the peak exp(log_norm), so
    # the estimate is log_norm.  In D = 2 a chunk's sum of peaks overflows
    # below t ~ 1e-306, and the peak itself below t ~ 1e-309; there kernel
    # values are taken relative to the peak, which is added back to the log
    m = validate_model(
        MixtureModel(2, [ManifoldComponent(0, [0.0, 0.0], PointMass())], [1.0])
    )
    ts = np.array([1e-300, 1e-306, 1e-307, 1e-310])
    got = rho_monte_carlo(m, ts, (0.0, 0.0), McSettings(samples=70_000, seed=3))
    want = log_mixture_rho(m, ts, (0.0, 0.0))
    assert got.log_rho.tolist() == pytest.approx(want.tolist(), rel=1e-15, abs=0)
    assert (got.log_error < 1e-15).all() and not got.degenerate



@pytest.mark.parametrize("t", [1e-306, 1e-310])
@pytest.mark.parametrize("gap", [750.0, 1000.0, 1300.0])
def test_monte_carlo_keeps_kernel_values_far_below_a_shifted_peak(t, gap):
    # off the point mass by r with r^2/2t = gap nats: the shift is only the
    # excess of log_norm over _LOG_NORM_MAX (~698), so a kernel value up to
    # about 698 + 662 nats below the peak keeps its bits (_kernel_exp is
    # exact down to e^-662.6), as it did without a shift
    m = validate_model(
        MixtureModel(2, [ManifoldComponent(0, [0.0, 0.0], PointMass())], [1.0])
    )
    z = (0.0, math.sqrt(2.0 * t * gap))
    got = rho_monte_carlo(m, t, z, McSettings(samples=2000, seed=5))
    want = float(log_mixture_rho(m, t, z))
    assert math.isfinite(got.log_rho)
    assert got.log_rho == pytest.approx(want, rel=1e-15, abs=0)

def _random_monte_carlo_case(rng):
    """A proper catalog model, a point off it by up to ~3, 1-7 times
    log-uniform in [1e-6, 10] and 2 to 5000 draws."""
    name = rng.choice(sorted(n for n in CATALOG if n != "parallel-planes"))
    model = CATALOG[name]()
    z = rng.uniform(-1.5, 1.5, model.ambient_dim)
    z *= 10.0 ** rng.uniform(-3.0, 0.3, model.ambient_dim)
    ts = np.sort(10.0 ** rng.uniform(-6.0, 1.0, rng.integers(1, 8)))
    samples = int(10.0 ** rng.uniform(np.log10(2.0), np.log10(5000.0)))
    return model, ts, z, samples


def test_monte_carlo_equals_the_plain_exp_reference_above_1e_minus_280():
    # the floor drops only kernel values below e^-700 ~ 1e-304, which a sum
    # keeps only when the whole estimate is that small: every estimate the
    # plain-np.exp reference puts at 1e-280 or more keeps its bits
    rng = np.random.default_rng(2025)
    compared = tiny = 0
    for case in range(240):
        model, ts, z, samples = _random_monte_carlo_case(rng)
        if case % 40 == 0:
            samples = 70_000  # two chunks
        got = rho_monte_carlo(model, ts, z, McSettings(samples=samples, seed=case))
        for t, log_rho, log_error in zip(
            ts.tolist(), got.log_rho.tolist(), got.log_error.tolist()
        ):
            value, bound = _point_array_monte_carlo(model, t, z, samples, case)
            if value >= 1e-280:
                assert (log_rho, log_error) == _log_record(value, bound), (case, t)
                compared += 1
            else:
                tiny += 1
    assert compared > 500 and tiny > 50
def test_monte_carlo_moments_stay_finite_where_squared_kernel_values_overflow():
    # kernel values up to 1.6e299 on a sigma = 1e-150 line at t ~ 1e-300:
    # their squares overflow, so the squared deviations are summed in units
    # of 2^(2 u), and every time's error stays finite and honest
    m = _narrow_line(1e-150)
    ts = np.array(TimeGrid.centered(1e-300).values)
    estimates = rho_monte_carlo(m, ts, (0.0, 0.0), McSettings(samples=20_000))
    exact = log_mixture_rho(m, ts, (0.0, 0.0))
    assert ((0.0 < estimates.log_error) & (estimates.log_error < 0.01)).all()
    assert (abs(estimates.log_rho - exact) <= 4.0 * estimates.log_error).all()


def test_monte_carlo_single_sample_degenerate():
    m = gaussian_line()
    est = rho_monte_carlo(m, 0.1, (0.0, 0.0), McSettings(samples=1, seed=3))
    assert est.degenerate
    assert est.log_error == 0.0


def test_monte_carlo_rejects_improper_density():
    with pytest.raises(ImproperDensityError):
        rho_monte_carlo(parallel_planes(), 0.1, (0.0, 0.0), McSettings(samples=10))


def test_monte_carlo_samples_mixture_and_box():
    m = CATALOG["intersecting-line-plane"]()
    exact = math.exp(log_mixture_rho(m, 0.2, (0.0, 0.0, 0.0)))
    est = rho_monte_carlo(m, 0.2, (0.0, 0.0, 0.0), McSettings(samples=200_000, seed=4))
    mean = math.exp(est.log_rho)
    assert abs(mean - exact) <= 4.0 * est.log_error * mean

    b = uniform_interval()
    exact = math.exp(log_mixture_rho(b, 0.05, (0.5, 0.0)))
    est = rho_monte_carlo(b, 0.05, (0.5, 0.0), McSettings(samples=200_000, seed=4))
    mean = math.exp(est.log_rho)
    assert abs(mean - exact) <= 4.0 * est.log_error * mean


@pytest.mark.parametrize("t", [math.inf, math.nan, 0.0, -1.0])
def test_oracles_require_a_positive_finite_time(t):
    m = gaussian_line()
    with pytest.raises(ValueError, match="time must be positive and finite"):
        rho_quadrature(m, t, (0.0, 0.0))
    with pytest.raises(ValueError, match="time must be positive and finite"):
        rho_monte_carlo(m, t, (0.0, 0.0), McSettings(samples=10))
    with pytest.raises(ValueError, match="time must be positive and finite"):
        _beta_fd_space(m, (0.0, 0.0), t)


@pytest.mark.parametrize(
    "ts", [[0.1, 0.0], [-1.0, 0.1], [0.1, math.inf], [math.nan], [[0.1, 0.2]]]
)
def test_monte_carlo_rejects_bad_time_arrays(ts):
    with pytest.raises(ValueError, match="time"):
        rho_monte_carlo(gaussian_line(), np.array(ts), (0.0, 0.0), McSettings(samples=10))


def test_mc_settings_invariants():
    with pytest.raises(ValueError):
        McSettings(samples=0)
    # the upper bound holds when the settings are built, before any draw
    assert McSettings(samples=LIMITS.samples).samples == LIMITS.samples
    for samples in (LIMITS.samples + 1, 1e30):
        with pytest.raises(ValueError, match="samples must be from 1 to"):
            McSettings(samples=samples)


@pytest.mark.parametrize("samples", [1.5, math.nan, math.inf, "10"])
def test_mc_settings_rejects_non_whole_samples(samples):
    with pytest.raises(ValueError):
        McSettings(samples=samples)


@pytest.mark.parametrize("seed", [-1, 1.5, math.nan, "3", True])
def test_mc_settings_rejects_seeds_the_generator_refuses(seed):
    # numpy's default_rng takes whole numbers of at least 0 only
    with pytest.raises(ValueError, match="seed"):
        McSettings(seed=seed)


def test_mc_settings_stores_whole_floats_as_int():
    mc = McSettings(samples=1e5, seed=7.0)
    assert mc.samples == 100_000 and type(mc.samples) is int
    assert mc.seed == 7 and type(mc.seed) is int
    # an int is taken exactly, at sizes a float cannot hold
    assert McSettings(seed=10**400).seed == 10**400


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def test_laplacian_fd_quadratic():
    # rho = exp(|z|^2 / 2): grad rho = z rho, so Laplacian(rho)/rho = |z|^2 + n
    log_field = lambda zs: 0.5 * (zs * zs).sum(axis=1)
    fd = laplacian_fd(log_field, np.array([1.0, -2.0, 0.5]), 1e-4)
    assert fd == pytest.approx(5.25 + 3.0, rel=1e-6)


def test_laplacian_fd_gaussian_peak():
    # the heat kernel at t = 1 in one dimension: Laplacian(rho)/rho = x^2 - 1
    point_mass = ManifoldComponent(0, [0.0], ConstantOne())
    log_field = lambda zs: log_component_rho(point_mass, 1.0, zs)[0]
    fd = laplacian_fd(log_field, np.array([[0.0], [0.5], [2.0]]), 1e-4)
    np.testing.assert_allclose(fd, [-1.0, -0.75, 3.0], rtol=1e-6)


def test_laplacian_fd_affine_vanishes():
    # an affine density has no curvature, whatever its log looks like
    log_field = lambda zs: np.log(3.0 * zs[:, 0] - zs[:, 1] + 2.0)
    fd = laplacian_fd(log_field, np.array([1.0, 2.0]), 1e-4)
    assert abs(fd) < 1e-6


def test_laplacian_fd_affine_log_field():
    # rho = exp(a.z + c) has Laplacian(rho)/rho = |a|^2
    log_field = lambda zs: 3.0 * zs[:, 0] - zs[:, 1] + 2.0
    fd = laplacian_fd(log_field, np.array([1.0, 2.0]), 1e-4)
    assert fd == pytest.approx(10.0, rel=1e-6)


def test_laplacian_fd_calls_the_field_once_on_the_stencil():
    blocks = []

    def field(zs):
        blocks.append(zs.copy())
        return (zs * zs).sum(axis=1)

    laplacian_fd(field, np.array([1.0, -2.0, 0.5]), 0.25)
    assert len(blocks) == 1
    np.testing.assert_array_equal(
        blocks[0],
        [
            [1.0, -2.0, 0.5],
            [1.25, -2.0, 0.5],
            [1.0, -1.75, 0.5],
            [1.0, -2.0, 0.75],
            [0.75, -2.0, 0.5],
            [1.0, -2.25, 0.5],
            [1.0, -2.0, 0.25],
        ],
    )


def test_laplacian_fd_block_equals_single_point_calls():
    # one field call on the point-major stencil of the whole block, and each
    # ratio the single-point call's, bit for bit
    spec = GaussianDiag([1.0, 0.5])
    log_field = lambda zs: log_smoothed_density(spec, 0.05, zs)
    points = np.array([[0.0, 0.0], [1.0, -0.5], [0.3, 0.8], [4.0, 1.0]])
    blocks = []

    def field(zs):
        blocks.append(zs.copy())
        return log_field(zs)

    got = laplacian_fd(field, points, 1e-3)
    assert got.shape == (4,)
    assert len(blocks) == 1
    stencil = np.array([[0.0, 0.0], [1e-3, 0.0], [0.0, 1e-3], [-1e-3, 0.0], [0.0, -1e-3]])
    np.testing.assert_array_equal(
        blocks[0], np.concatenate([z + stencil for z in points])
    )
    singles = [laplacian_fd(log_field, z, 1e-3) for z in points]
    assert all(type(v) is float for v in singles)
    assert got.tobytes() == np.array(singles).tobytes()


def test_laplacian_fd_is_inf_where_every_stencil_log_vanishes():
    log_field = lambda zs: np.where(zs[:, 0] > 5.0, -np.inf, -0.5 * zs[:, 0] ** 2)
    fd = laplacian_fd(log_field, np.array([[10.0], [0.0]]), 1e-3)
    assert fd[0] == math.inf
    assert fd[1] == pytest.approx(-1.0, rel=1e-6)
    assert laplacian_fd(log_field, np.array([10.0]), 1e-3) == math.inf


def test_laplacian_fd_rejects_a_field_of_the_wrong_length():
    with pytest.raises(ValueError, match="3 values for 5 points"):
        laplacian_fd(lambda zs: zs[:3, 0], np.zeros(2), 1e-3)


@pytest.mark.parametrize("h", [math.inf, math.nan, 0.0, -1e-3])
def test_fd_steps_must_be_positive_and_finite(h):
    with pytest.raises(ValueError, match="step must be positive and finite"):
        laplacian_fd(lambda zs: (zs * zs).sum(axis=1), np.zeros(2), h)
    with pytest.raises(ValueError, match="step must be positive and finite"):
        _beta_fd_space(gaussian_line(), (0.0, 0.0), 0.1, h=h)


def _per_point_laplacian_fd(field, z, h):
    # the scalar-field stencil loop of the finite-difference oracles before
    # the stencil became one block: one field call per stencil point
    arr = np.asarray(z, dtype=float)
    center = field(arr)
    acc = 0.0
    for j in range(arr.size):
        step = np.zeros_like(arr)
        step[j] = h
        acc += field(arr + step) - 2.0 * center + field(arr - step)
    return acc / (h * h)


def _per_point_beta_fd_space(m, z, t):
    h = oracle.suggested_spatial_step(
        (comp.density for comp in m.components if comp.dim > 0), t
    )
    arr = np.asarray(z, dtype=float)
    center = log_mixture_rho(m, t, arr)
    field = lambda p: math.exp(log_mixture_rho(m, t, p) - center)
    return t * _per_point_laplacian_fd(field, arr, h)


@pytest.mark.parametrize("name", list(CATALOG))
def test_beta_fd_space_stencil_block_equals_per_point_loop(name):
    m = CATALOG[name]()
    for z in HEAT_SUITE_POINTS[name]:
        for t in HEAT_TIMES:
            got = _beta_fd_space(m, z, t)
            assert type(got) is float
            assert got.hex() == _per_point_beta_fd_space(m, z, t).hex(), (z, t)


@pytest.mark.parametrize("name", list(CATALOG))
def test_beta_fd_time_block_equals_scalar_calls(name):
    m = CATALOG[name]()
    points = HEAT_SUITE_POINTS[name]
    block = beta_fd_time(m, points, HEAT_TIMES)
    want = np.array([[beta_fd_time(m, z, t) for t in HEAT_TIMES] for z in points])
    assert block.shape == (len(points), len(HEAT_TIMES))
    assert block.tobytes() == want.tobytes()
    # the dropped axes follow log_mixture_rho's shapes
    assert beta_fd_time(m, points, 0.01).tobytes() == block[:, 1].tobytes()
    assert beta_fd_time(m, points[0], HEAT_TIMES).tobytes() == block[0].tobytes()
    assert type(beta_fd_time(m, points[0], 0.01)) is float


@pytest.mark.parametrize("t", [math.inf, math.nan, 0.0, -1.0])
def test_beta_fd_time_requires_positive_finite_times(t):
    m = gaussian_line()
    with pytest.raises(ValueError, match="time must be positive and finite"):
        beta_fd_time(m, (0.0, 0.0), t)
    with pytest.raises(ValueError, match="time must be positive and finite"):
        beta_fd_time(m, (0.0, 0.0), [0.1, t])


def test_beta_fd_time_matches_analytic_gaussian():
    m = gaussian_line()
    beta, _ = mixture_beta_t(m, 0.01, (0.0, 0.0))
    assert beta_fd_time(m, (0.0, 0.0), 0.01) == pytest.approx(beta.beta, abs=1e-6)


def test_beta_fd_slopes_are_inf_where_every_stencil_density_vanishes():
    # 1e200 off the line the log density is -inf at every stencil point;
    # mixture_slopes reports beta = inf there
    m = gaussian_line()
    far = (0.0, 1e200)
    assert mixture_beta_t(m, 1.0, far)[0].beta == math.inf
    assert beta_fd_time(m, far, 1.0) == math.inf
    assert _beta_fd_space(m, far, 1.0) == math.inf
    block = beta_fd_time(m, [far, (0.0, 0.0)], np.array([1.0, 2.0]))
    assert block[0].tolist() == [math.inf, math.inf]
    assert np.isfinite(block[1]).all()


def test_beta_fd_time_constant_full_dim():
    m = validate_model(
        MixtureModel(2, [ManifoldComponent(2, [], ConstantOne())], [1.0])
    )
    for t in (1e-4, 0.1, 10.0):
        assert beta_fd_time(m, (0.3, -0.8), t) == 0.0


def test_beta_fd_time_matches_parallel_closed_form():
    m = parallel_planes()
    # the single-plane slope is -1: the slope is -1 plus the correction
    closed = -1.0 + parallel_planes_beta(1.0, 0.5, 1.0)
    assert beta_fd_time(m, (0.0, 0.0), 1.0) == pytest.approx(closed, abs=1e-6)


@pytest.mark.parametrize(
    "name,z,t",
    [
        ("gaussian-line", (0.0, 0.0), 0.01),
        ("uniform-interval", (0.5, 0.0), 0.05),
        ("parallel-planes", (0.0, 0.0), 1.0),
    ],
)
def test_beta_fd_space_agrees(name, z, t):
    m = CATALOG[name]()
    beta, _ = mixture_beta_t(m, t, z)
    fd = _beta_fd_space(m, z, t)
    assert fd == pytest.approx(beta.beta, rel=1e-4, abs=1e-4)


def test_heat_residual_between_fd_routes():
    for name, build in CATALOG.items():
        m = build()
        for z in HEAT_SUITE_POINTS[name][:2]:
            for t in (0.01, 1.0):
                ft = beta_fd_time(m, z, t)
                fs = _beta_fd_space(m, z, t)
                assert abs(ft - fs) <= 1e-3 * max(1.0, abs(ft))


def test_fd_second_order_convergence():
    m = gaussian_line()
    z, t = (0.7, 0.0), 0.1
    beta, _ = mixture_beta_t(m, t, z)
    errs = [abs(beta_fd_time(m, z, t, h_rel=h) - beta.beta) for h in (4e-3, 2e-3, 1e-3)]
    # halving the step shrinks the error ~4x until the rounding floor
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)


# ---------------------------------------------------------------------------
# Asymptotic slope sequences
# ---------------------------------------------------------------------------

def test_slope_pair_gaussian_line():
    m = gaussian_line()
    ts = [10.0**-k for k in range(4, 13)]
    pairs = asymptotic_slope_pair(m, (0.0, 0.0), ts)
    assert len(pairs) == len(ts)
    c3, c4 = pairs[-1]
    assert abs(c3 - c4) < 1e-3
    assert c3 == pytest.approx(-0.5, abs=1e-3)
    assert c4 == pytest.approx(-0.5, abs=1e-3)


def test_slope_pair_power_law_exact():
    ts = [1e-2, 1e-4, 1e-6]
    for alpha in (0.25, 0.5, 1.75):
        pairs = power_law_slope_pair(alpha, ts)
        for c3, c4 in pairs:
            assert c4 == -alpha
            assert c3 == pytest.approx(-alpha, rel=1e-12)


def test_verify_power_law_check_measures_the_discrete_route():
    ts = [10.0**-k for k in range(4, 13)]
    expected = max(abs(c3 + 0.75) for c3, _ in power_law_slope_pair(0.75, ts))
    (check,) = [r for r in slopes_suite() if r.name == "power-law-exact"]
    assert check.max_error == expected


def test_slope_pair_off_manifold_diverges():
    m = gaussian_line()
    ts = [1e-2, 1e-3, 1e-4, 1e-5]
    pairs = asymptotic_slope_pair(m, (0.0, 1.0), ts)
    c4 = [p[1] for p in pairs]
    assert c4[-1] > c4[0]
    assert c4[-1] > 1e3  # |y|^2 / 2t growth


def test_slope_pair_requires_decreasing_sequence():
    m = gaussian_line()
    with pytest.raises(ValueError):
        asymptotic_slope_pair(m, (0.0, 0.0), [1e-4, 1e-3, 1e-2])
    with pytest.raises(ValueError):
        asymptotic_slope_pair(m, (0.0, 0.0), [1e-2, 1e-3])


@pytest.mark.parametrize("first", [math.inf, math.nan])
def test_slope_pairs_require_finite_times(first):
    # [inf, 1, 0.1] is strictly decreasing, but log(inf) gives NaN slopes
    with pytest.raises(ValueError, match="time must be positive and finite"):
        power_law_slope_pair(0.75, [first, 1.0, 0.1])
    with pytest.raises(ValueError, match="time must be positive and finite"):
        asymptotic_slope_pair(gaussian_line(), (0.0, 0.0), [first, 1.0, 0.1])


# ---------------------------------------------------------------------------
# verify suites against per-point, per-time loops of the same checks
# ---------------------------------------------------------------------------

def _errors(results):
    return {r.name: r.max_error.hex() for r in results}


def test_heat_suite_equals_the_per_point_loop():
    want = {}
    for name, build in CATALOG.items():
        model = build()
        worst = 0.0
        for z in HEAT_SUITE_POINTS[name]:
            for t in HEAT_TIMES:
                beta = mixture_beta_t(model, t, z)[0].beta
                err = abs(beta_fd_time(model, z, t) - beta) / max(1.0, abs(beta))
                worst = max(worst, err)
        want[name] = worst.hex()
    assert _errors(heat_suite()) == want


def test_laplacian_suite_equals_the_per_point_loop():
    want = {}
    for name, spec, t, points in _LAPLACIAN_CASES:
        h = oracle.suggested_spatial_step([spec], t)
        worst = 0.0
        for pt in points:
            x = np.asarray(pt, dtype=float)
            analytic = smoothed_laplacian_ratio(spec, t, x)
            center = log_smoothed_density(spec, t, x)
            fd = _per_point_laplacian_fd(
                lambda p: math.exp(log_smoothed_density(spec, t, p) - center), x, h
            )
            worst = max(worst, abs(fd - analytic) / max(1.0, abs(analytic)))
        want[name] = worst.hex()
    assert _errors(laplacian_suite()) == want


def test_mixture_suite_equals_the_per_time_loop():
    model = CATALOG["parallel-planes"]()
    cross = norm = 0.0
    for t in decade_grid(-3, 2, 10):
        generic, w = mixture_beta_t(model, t, (0.0, 0.0), d_ref=1)
        closed = parallel_planes_beta(t, 0.5, 1.0)
        scale = max(abs(closed), 1e-300)
        cross = max(cross, abs(generic.bias - closed) / scale)
        norm = max(norm, abs(float(np.sum(w)) - 1.0))
    bound = 0.0
    for t in (1.0, 0.3, 0.1, 0.03):
        _, w = mixture_beta_t(point_and_box(), t, (0.0,))
        excess = float(w[0]) - coefficient_bound(0.5, 0.5, 1.0, 1.0, 0.5, t)
        bound = max(bound, excess)
    assert _errors(mixture_suite()) == {
        "parallel-cross-check": cross.hex(),
        "responsibility-sum": norm.hex(),
        "dominated-bound": bound.hex(),
    }


# ---------------------------------------------------------------------------
# Independence from the closed forms
# ---------------------------------------------------------------------------

def test_oracles_call_no_error_function(monkeypatch):
    # the density classes hold both the closed forms and the oracles'
    # integrands and draws; with erf and erfcx made to raise wherever the
    # package binds them, the oracles must still give the same values
    box_plane = CATALOG["box-plane"]
    cases = [
        (gaussian_line(), (0.3, 0.1), True),
        (box_plane(), (0.25, 0.6, 0.1), True),
        (box_plane(), (1.3, 0.5, 0.0), True),  # a box tail
        (parallel_planes(), (0.2, 0.4), False),  # constant: no Monte Carlo
    ]
    times = np.array([1e-3, 1e-2, 1e-1])
    mc = McSettings(samples=3000, seed=5)

    def run():
        return [
            (
                _record_bytes(rho_quadrature(m, times, z)),
                _record_bytes(rho_monte_carlo(m, times, z, mc)) if samplable else None,
            )
            for m, z, samplable in cases
        ]

    expected = run()

    def refuse(*args, **kwargs):
        raise AssertionError("an error function was called")

    patched = []
    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "exactlid":
            for fn in ("erf", "erfcx"):
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, refuse)
                    patched.append(f"{name}.{fn}")
    assert {"exactlid.model.erf", "exactlid.model.erfcx"} <= set(patched)
    # the stubs reach the closed forms: a box's log density needs them
    with pytest.raises(AssertionError, match="error function"):
        log_mixture_rho(box_plane(), 1e-2, (0.25, 0.6, 0.1))
    assert run() == expected
