"""Quadrature, Monte Carlo, and finite-difference oracles."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

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
from exactlid.model import LIMITS, PointMass, as_time
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
        h = oracle.suggested_spatial_step((c.density for c in m.components), as_time(t))
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


def _all_panel_log_integral(lo, hi, scale, log_f, order=32):
    """One axis factor summed over every panel of the window, as the
    quadrature oracle would without skipping: (log integral, panel count)."""
    panels = max(1, min(20000, math.ceil((hi - lo) / (4.0 * scale))))
    edges = np.linspace(lo, hi, panels + 1)
    base_x, base_w = oracle._leggauss(order)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * base_x[None, :]).ravel()
    weights = (half[:, None] * base_w[None, :]).ravel()
    return float(logsumexp(log_f(nodes) + np.log(weights))), panels


def _all_panel_gauss(sigma, t, xj, radius=8.0):
    v = sigma * sigma + t
    center = xj * sigma * sigma / v
    return _all_panel_log_integral(
        center - radius * math.sqrt(v),
        center + radius * math.sqrt(v),
        math.sqrt(sigma * sigma * t / v),
        lambda u: (
            -0.5 * (_LOG_2PI + 2.0 * math.log(sigma))
            - u * u / (2.0 * sigma * sigma)
            - 0.5 * (_LOG_2PI + math.log(t))
            - (xj - u) ** 2 / (2.0 * t)
        ),
    )


def _aniso_reference(t, z):
    # aniso-gaussian-3d fills its ambient space: no normal factor, one
    # component, so the value is the sum of the three axis factors
    log_comp, panels = 0.0, []
    for sigma, xj in zip((1.0, 1e-3, 1e-6), z):
        value, n = _all_panel_gauss(sigma, t, xj)
        log_comp += value
        panels.append(n)
    return log_comp, panels


@pytest.fixture
def built_panels(monkeypatch):
    """Panel counts, per time, of every node set the quadrature oracle
    builds."""
    built = []
    composite_nodes = oracle._composite_nodes

    def recording(left, right, counts, order):
        built.extend(np.asarray(counts).tolist())
        return composite_nodes(left, right, counts, order)

    monkeypatch.setattr(oracle, "_composite_nodes", recording)
    return built


def test_quadrature_skip_is_exact_at_the_panel_cap(built_panels):
    z = (0.5, 1e-3, 0.0)
    expected, panels = _aniso_reference(1e-3, z)
    assert panels[2] == 20000  # the sigma=1e-6 axis hits the cap
    assert rho_quadrature(CATALOG["aniso-gaussian-3d"](), 1e-3, z).log_rho == expected
    assert max(built_panels) < 1000  # skipped most of the capped axis


def test_quadrature_skip_is_exact_on_a_box_axis(built_panels):
    t, a, b, xj = 1e-6, 0.0, 1.0, 0.3
    expected, panels = _all_panel_log_integral(
        a, b, math.sqrt(t),
        lambda u: (
            -math.log(b - a)
            - 0.5 * (_LOG_2PI + math.log(t))
            - (xj - u) ** 2 / (2.0 * t)
        ),
    )
    assert panels == 250
    m = validate_model(
        MixtureModel(1, [ManifoldComponent(1, [], UniformBox([(a, b)]))], [1.0])
    )
    assert rho_quadrature(m, t, (xj,)).log_rho == expected
    assert max(built_panels) < 250


def test_quadrature_skip_is_exact_on_a_constant_axis():
    t, xj = 1e-3, 0.4
    s = math.sqrt(t)
    expected, _ = _all_panel_log_integral(
        xj - 8.0 * s, xj + 8.0 * s, s,
        lambda u: -0.5 * (_LOG_2PI + math.log(t)) - (xj - u) ** 2 / (2.0 * t),
    )
    m = validate_model(
        MixtureModel(1, [ManifoldComponent(1, [], ConstantOne())], [1.0])
    )
    assert rho_quadrature(m, t, (xj,)).log_rho == expected


def test_quadrature_skip_falls_back_to_every_panel(monkeypatch, built_panels):
    # with no skip margin the run holds only the top panel, whose neighbours
    # cannot be shown to underflow, so every panel must be summed
    monkeypatch.setattr(oracle, "_SKIP_GAP", 0.0)
    z = (0.5, 1e-3, 0.0)
    expected, _ = _aniso_reference(1e-3, z)
    assert rho_quadrature(CATALOG["aniso-gaussian-3d"](), 1e-3, z).log_rho == expected
    assert 20000 in built_panels  # the capped axis was summed in full
    assert min(built_panels) < 20000


@pytest.mark.parametrize("skip_gap", [oracle._SKIP_GAP, 0.0], ids=["run", "every-panel"])
def test_quadrature_grid_equals_scalar_calls(monkeypatch, built_panels, skip_gap):
    # the grid includes the capped sigma=1e-6 axis; with no skip margin
    # every time falls back to every panel.  Entry k is the scalar call at
    # t[k].
    monkeypatch.setattr(oracle, "_SKIP_GAP", skip_gap)
    m = CATALOG["aniso-gaussian-3d"]()
    z = (0.5, 1e-3, 0.0)
    ts = np.array(TimeGrid.centered(1e-3).values)
    hexes = [(e.log_rho.hex(), e.log_error.hex()) for e in rho_quadrature(m, ts, z)]
    assert (20000 in built_panels) == (skip_gap == 0.0)
    singles = [rho_quadrature(m, tk, z) for tk in ts.tolist()]
    assert hexes == [(e.log_rho.hex(), e.log_error.hex()) for e in singles]


def _traced_peak(m, ts, z):
    tracemalloc.start()
    try:
        rho_quadrature(m, ts, z)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_quadrature_memory_does_not_grow_with_the_grid():
    # each block's panels are built, summed and dropped before the next
    # block's: on 200 times of the capped sigma=1e-6 axis (20001 edges
    # each, 32 MB together, one time per block) the traced peak stays that
    # of a few times
    m = CATALOG["aniso-gaussian-3d"]()
    ts = np.geomspace(1e-3, 1e-2, 200)
    assert _traced_peak(m, ts, (0.5, 1e-3, 0.0)) < 4e6


def test_quadrature_memory_with_many_times_per_block():
    # on 2000 times of a unit line (14 to 127 panels each) a block holds
    # hundreds of times, and its terms are evaluated at most
    # oracle._MAX_TERMS at a time: the traced peak stays under the same
    # bound
    ts = np.geomspace(1e-3, 1.0, 2000)
    assert _traced_peak(gaussian_line(), ts, (0.3, 0.0)) < 4e6


# ---------------------------------------------------------------------------
# Quadrature, one time at a time: the reference for the grid block
# ---------------------------------------------------------------------------

_TAIL_8 = math.erfc(8.0 / math.sqrt(2.0))


def _per_time_window(density, j, t, xj):
    """One axis's window and log integrand at one time, as each density
    kind gave them before the grid block: (lo, hi, scale, vertex, log_f)."""
    if isinstance(density, GaussianDiag):
        sigma = density.sigmas[j]
        v = sigma * sigma + t
        center = xj * sigma * sigma / v
        radius = 8.0 * math.sqrt(v)

        def log_f(u):
            return (
                -0.5 * (_LOG_2PI + 2.0 * math.log(sigma))
                - u * u / (2.0 * sigma * sigma)
                - 0.5 * (_LOG_2PI + math.log(t))
                - (xj - u) ** 2 / (2.0 * t)
            )

        scale = math.sqrt(sigma * sigma * t / v)
        return center - radius, center + radius, scale, center, log_f
    if isinstance(density, UniformBox):
        a, b = density.bounds[j]

        def log_f(u):
            return (
                -math.log(b - a)
                - 0.5 * (_LOG_2PI + math.log(t))
                - (xj - u) ** 2 / (2.0 * t)
            )

        return a, b, math.sqrt(t), xj, log_f

    def log_f(u):
        return -0.5 * (_LOG_2PI + math.log(t)) - (xj - u) ** 2 / (2.0 * t)

    radius = 8.0 * math.sqrt(t)
    return xj - radius, xj + radius, math.sqrt(t), xj, log_f


def _per_time_nodes(edges, order):
    base_x, base_w = oracle._leggauss(order)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    return (mid[:, None] + half[:, None] * base_x[None, :]).ravel(), (
        half[:, None] * base_w[None, :]).ravel()


def _per_time_log_integrals(lo, hi, scale, vertex, log_f, orders):
    """One axis factor at one time, as the oracle computed it before the
    grid block: the run of panels within _SKIP_GAP of the top bound, or
    every panel if a skipped one might hold a term that does not
    underflow."""
    panels = max(1, min(20000, int(math.ceil((hi - lo) / (4.0 * scale)))))
    edges = np.linspace(lo, hi, panels + 1)
    nearest_log_f = log_f(np.clip(vertex, edges[:-1], edges[1:]))
    half = 0.5 * np.diff(edges)
    values = []
    for order in orders:
        bound = nearest_log_f + np.log(half * oracle._leggauss(order)[1].max())
        keep = np.flatnonzero(bound >= bound.max() - oracle._SKIP_GAP)
        first, last = int(keep[0]), int(keep[-1]) + 1
        nodes, weights = _per_time_nodes(edges[first : last + 1], order)
        terms = log_f(nodes) + np.log(weights)
        skipped = np.concatenate([bound[:first], bound[last:]])
        with np.errstate(invalid="ignore"):
            unsure = skipped + 1e-12 * np.abs(skipped) >= terms.max() - oracle._UNDERFLOW_GAP
        if np.any(unsure):
            nodes, weights = _per_time_nodes(edges, order)
            terms = log_f(nodes) + np.log(weights)
        values.append(float(oracle._log_sum_exp(terms)))
    return values


@np.errstate(over="ignore", divide="ignore")
def _per_time_quadrature(model, t, z):
    """rho_quadrature at one time, as computed before the grid block:
    (value, error bound) as float.hex."""
    log_terms, err = [], 0.0
    for comp, w in zip(model.components, model.weights):
        x, y = component_split(comp, np.asarray(z, dtype=float))
        log_comp = comp_err = 0.0
        for j in range(comp.dim):
            full, half = _per_time_log_integrals(
                *_per_time_window(comp.density, j, t, float(x[j])), (32, 16))
            log_comp += full
            comp_err += abs(full - half)
            # the mass cut off by a window of 8 standard deviations
            comp_err += 0.0 if isinstance(comp.density, UniformBox) else _TAIL_8
        if y.size:
            log_comp += -0.5 * y.size * (_LOG_2PI + math.log(t)) - float(y @ y) / (2.0 * t)
        log_terms.append(math.log(w) + log_comp)
        err = max(err, comp_err)
    value = float(oracle._log_sum_exp(np.array(log_terms)))
    return value.hex(), (err + 1e-15 if math.isfinite(value) else math.inf).hex()


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
    # the capped sigma=1e-6 axis, one time per block
    (CATALOG["aniso-gaussian-3d"](), np.geomspace(1e-4, 1e-2, 3), (0.5, 1e-3, 0.0)),
    # far points: squares and log integrands overflow to inf, and a window's
    # scale to inf (sigma = 1e150 at t = 1e10: one panel)
    (gaussian_line(), np.array([1e-3, 1.0, 1e10]), (1e200, 0.0)),
    (gaussian_line(), np.array([1e-3, 1.0, 1e10]), (0.0, 1e200)),
    (uniform_interval(), np.array([1e-3, 1.0]), (1e200, 0.0)),
    # a box's tail, whose top bounds over one block's times span 1400
    (uniform_interval(), np.array(TimeGrid.centered(1e-3).values), (2.0, 0.0)),
    (parallel_planes(), np.array([1e-3, 1e300]), (1e308, 0.0)),
    (_narrow_line(1e150), np.array([1e-3, 1e10, 1e300]), (0.3, 0.0)),
    (_narrow_line(1.0), np.array([1e-3, 1e100]), (1e308, 0.0)),
    # panels whose log integrand is -inf hold no mass and force nothing
    (_narrow_line(1e-150), np.array(TimeGrid.centered(1e100).values), (0.0, 0.0)),
]


def _assert_block_equals_per_time(cases):
    for m, ts, z in cases:
        got = [(e.log_rho.hex(), e.log_error.hex()) for e in rho_quadrature(m, ts, z)]
        assert got == [_per_time_quadrature(m, tk, z) for tk in ts.tolist()], (ts, z)


def test_quadrature_block_equals_the_per_time_oracle():
    # every grid time's value and bound, as float.hex, are those of the
    # per-time computation the block replaced: on the bench fits, on 30
    # seeded catalog grids of 1 to 40 times, and on windows at the edges of
    # the float range
    _assert_block_equals_per_time(
        [*_BENCH_FITS, *_seeded_catalog_cases(30), *_EDGE_CASES])


def test_quadrature_block_equals_the_per_time_oracle_on_every_panel(monkeypatch):
    # with no skip margin every time falls back to every panel (20000 on
    # the capped axis)
    monkeypatch.setattr(oracle, "_SKIP_GAP", 0.0)
    _assert_block_equals_per_time([*_BENCH_FITS, *_EDGE_CASES])


@pytest.mark.parametrize("sigma,z,t", [
    (1e5, (1e300, 0.0), 1e-3),  # the window's center overflows: its edges are NaN
    (1e150, (1e308, 0.0), 1.0),
    (1e-150, (0.0, 0.0), 1e-30),  # sigma^2 t underflows: the scale is 0
], ids=["center-overflows", "wide-sigma-far-point", "scale-underflows"])
def test_quadrature_window_overflow_is_not_a_crash(sigma, z, t):
    # the per-time oracle raised here (a NaN or infinite panel count).  A
    # window that is not a number takes one panel, whose value is NaN; a
    # scale of 0 takes the cap.  Either value carries an infinite bound
    # unless it is finite, and a finite one is as honest as the rules allow
    m = _narrow_line(sigma)
    with pytest.raises((ValueError, ZeroDivisionError, OverflowError)):
        _per_time_quadrature(m, t, z)
    est = rho_quadrature(m, np.array([t, 2.0 * t]), z)[0]
    if math.isfinite(est.log_rho):
        assert abs(est.log_rho - log_mixture_rho(m, t, z)) <= est.log_error
    else:
        assert est.log_error == math.inf


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
     "-0x1.5904f70c0bba3p-1", "0x1.c36c133fa5604p-49"),
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
    hexes = [(e.log_rho.hex(), e.log_error.hex()) for e in rho_quadrature(model, ts, z)]
    singles = [rho_quadrature(model, tk, z) for tk in ts]
    assert all(isinstance(e, OracleEstimate) for e in singles)
    assert hexes == [(e.log_rho.hex(), e.log_error.hex()) for e in singles]
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
        assert repr(rho_quadrature(m, ts, z)) == repr(rho_quadrature(ref, ts, z))
        assert repr(rho_monte_carlo(m, ts, z, mc)) == repr(rho_monte_carlo(ref, ts, z, mc))


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
    # OracleEstimate equality compares log_rho, log_error and degenerate
    # with exact ==
    assert got == [rho_monte_carlo(model, t, z, mc) for t in ts]
    assert all(e.degenerate == (samples == 1) for e in got)


def test_monte_carlo_returns_an_estimate_per_time():
    m = gaussian_line()
    mc = McSettings(samples=100, seed=2)
    one = rho_monte_carlo(m, 0.1, (0.0, 0.0), mc)
    assert isinstance(one, OracleEstimate)
    listed = rho_monte_carlo(m, np.array([0.1]), (0.0, 0.0), mc)
    assert len(listed) == 1 and listed[0] == one


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
        for t, est in zip(ts.tolist(), got):
            value, bound = _point_array_monte_carlo(model, t, z, samples, case)
            if value >= 1e-280:
                assert (est.log_rho, est.log_error) == _log_record(value, bound), (case, t)
                compared += 1
            else:
                tiny += 1
    assert compared > 500 and tiny > 50
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
    closed = parallel_planes_beta(1.0, 0.5, 1.0, -1.0)
    assert beta_fd_time(m, (0.0, 0.0), 1.0) == pytest.approx(closed.beta, abs=1e-6)


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
        closed = parallel_planes_beta(t, 0.5, 1.0, -1.0)
        scale = max(abs(closed.bias), 1e-300)
        cross = max(cross, abs(generic.bias - closed.bias) / scale)
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
                rho_quadrature(m, times, z),
                rho_monte_carlo(m, times, z, mc) if samplable else None,
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
