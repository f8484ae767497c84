"""Closed forms against frozen values, independent quadrature, and finite
differences.  Frozen constants were computed with scipy.integrate.quad /
mpmath at high precision."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.special import logsumexp

from exactlid import (
    ConstantOne,
    GaussianDiag,
    ManifoldComponent,
    MixtureModel,
    ModelError,
    UniformBox,
    coefficient_bound,
    component_split,
    log_mixture_rho,
    log_smoothed_density,
    mixture_beta_t,
    mixture_slopes,
    parallel_planes_beta,
    reference_dim,
    smoothed_laplacian_ratio,
    validate_model,
)
from exactlid._erf import erf, erfcx
from exactlid.analytic import _log_sum_exp, log_component_rho
from exactlid.catalog import (
    box_plane,
    gaussian_line,
    intersecting_line_plane,
    parallel_planes,
    point_and_box,
    uniform_interval,
)


def _point_mass_beta_over_t(t, k, u):
    # the Laplacian of the variance-t kernel on R^k over its value at u,
    # |u|^2 / t^2 - k / t: beta / t of a point mass at the origin
    comp = ManifoldComponent(0, [0.0] * k, ConstantOne())
    model = validate_model(MixtureModel(k, [comp], [1.0]))
    return mixture_slopes(model, t, u, d_ref=0).beta / t


def _log_kernel(t, k, u):
    # the log kernel of variance t on R^k at u: the log density of a point
    # mass at the origin of R^k
    return log_component_rho(ManifoldComponent(0, [0.0] * k, ConstantOne()), t, u)[0]


def _component_beta(comp, t, z):
    # the slope sample of one component at one time: the core on a
    # one-component model with the component's own dimension as reference
    model = validate_model(MixtureModel(len(z), [comp], [1.0]))
    return mixture_slopes(model, t, z, d_ref=comp.dim)


# ---------------------------------------------------------------------------
# Gaussian kernel
# ---------------------------------------------------------------------------

def test_kernel_standard_values():
    assert _log_kernel(1.0, 1, [0.0]) == pytest.approx(
        math.log(0.3989422804014327), rel=1e-15
    )
    assert _log_kernel(1.0, 2, [0.0, 0.0]) == pytest.approx(
        -1.8378770664093453, rel=1e-15
    )
    # frozen: -(1/2)log(2 pi 0.01) - 0.5^2/0.02, cross-checked by grid
    # integration (normalizes to 1 within 1e-10)
    assert _log_kernel(0.01, 1, [0.5]) == pytest.approx(
        -11.116353440210627, rel=1e-14
    )


def test_kernel_grid_normalization():
    t = 0.01
    g = np.linspace(-12 * math.sqrt(t), 12 * math.sqrt(t), 100001)
    vals = np.exp([_log_kernel(t, 1, [u]) for u in g])
    assert np.trapezoid(vals, g) == pytest.approx(1.0, abs=1e-10)


def test_kernel_zero_dim_convention():
    assert _log_kernel(0.5, 0, []) == 0.0


def test_kernel_requires_positive_time():
    with pytest.raises(ValueError):
        _log_kernel(0.0, 1, [0.0])
    with pytest.raises(ValueError):
        _point_mass_beta_over_t(-1.0, 1, [0.0])


def test_kernel_laplacian_ratio_values():
    assert _point_mass_beta_over_t(1.0, 1, [0.0]) == -1.0
    assert _point_mass_beta_over_t(1.0, 2, [1.0, 1.0]) == 0.0
    assert _point_mass_beta_over_t(0.5, 3, [1.0, 0.0, 0.0]) == pytest.approx(
        -2.0, rel=1e-14
    )


@pytest.mark.parametrize("t,k", [(1.0, 1), (0.5, 3), (0.03, 2)])
def test_kernel_laplacian_matches_finite_differences(t, k):
    rng = np.random.default_rng(5)
    u = rng.standard_normal(k) * math.sqrt(t)
    h = 1e-4 * math.sqrt(t)
    center = _log_kernel(t, k, u)
    acc = 0.0
    for j in range(k):
        step = np.zeros(k)
        step[j] = h
        up = _log_kernel(t, k, u + step)
        dn = _log_kernel(t, k, u - step)
        acc += math.exp(up - center) - 2.0 + math.exp(dn - center)
    fd = acc / (h * h)
    assert fd == pytest.approx(_point_mass_beta_over_t(t, k, u), rel=1e-5)


# ---------------------------------------------------------------------------
# Smoothed densities
# ---------------------------------------------------------------------------

def test_smoothed_gaussian_matches_quadrature():
    # frozen independent value: scipy quad of the defining convolution
    val = log_smoothed_density(GaussianDiag([1.0]), 1.0, [0.0])
    assert val == pytest.approx(-1.2655121234846454, rel=1e-13)
    quad, _ = integrate.quad(
        lambda s: math.exp(-0.5 * s * s) / math.sqrt(2 * math.pi)
        * math.exp(-s * s / 2.0) / math.sqrt(2 * math.pi),
        -12, 12,
    )
    assert val == pytest.approx(math.log(quad), rel=1e-10)


def test_smoothed_box_interior():
    # frozen via mpmath (50 digits): log(erf(0.5/sqrt(0.02)))
    val = log_smoothed_density(UniformBox([(0.0, 1.0)]), 0.01, [0.5])
    assert val == pytest.approx(-5.733033080966981e-07, rel=1e-9)


def test_smoothed_box_far_tail_matches_quadrature_route():
    # outside the support the scaled-erfc form must track the defining
    # integral; compare in log space against scipy quad at a point where the
    # integral is still representable
    t, x = 0.04, 2.0
    val = log_smoothed_density(UniformBox([(0.0, 1.0)]), t, [x])
    quad, _ = integrate.quad(
        lambda s: math.exp(-((x - s) ** 2) / (2 * t)) / math.sqrt(2 * math.pi * t),
        0.0, 1.0, limit=400,
    )
    assert val == pytest.approx(math.log(quad), rel=1e-10)


def test_smoothed_box_extreme_tail_finite():
    # far beyond double-precision underflow of the linear-space density
    val = log_smoothed_density(UniformBox([(0.0, 1.0)]), 1e-4, [3.0])
    assert math.isfinite(val)
    # dominated by the near-edge distance: -(x-b)^2/2t + O(log)
    assert val == pytest.approx(-(2.0**2) / (2e-4), rel=1e-3)


def test_smoothed_constant_and_point():
    assert log_smoothed_density(ConstantOne(), 0.37, [1.0, 2.0]) == 0.0
    assert log_smoothed_density(GaussianDiag([]), 0.37, []) == 0.0


def test_smoothed_requires_positive_time():
    with pytest.raises(ValueError):
        log_smoothed_density(GaussianDiag([1.0]), 0.0, [0.0])


def test_laplacian_ratio_gaussian_value():
    assert smoothed_laplacian_ratio(GaussianDiag([1.0]), 0.01, [1.0]) == pytest.approx(
        (1.0 - 1.01) / 1.01**2, rel=1e-15
    )


def test_laplacian_ratio_box_value():
    # frozen: [(x-b)phi(x-b)-(x-a)phi(x-a)] / (t (Phi(x-a)-Phi(x-b))),
    # cross-checked by finite differences of the quadrature density
    val = smoothed_laplacian_ratio(UniformBox([(0.0, 1.0)]), 0.01, [0.5])
    assert val == pytest.approx(-0.0014867203670757582, rel=1e-12)


def test_laplacian_ratio_constant_zero():
    assert smoothed_laplacian_ratio(ConstantOne(), 0.2, [4.0]) == 0.0


FD_CASES = [
    (GaussianDiag([1.0]), 0.01, (0.0,)),
    (GaussianDiag([1.0]), 0.01, (1.7,)),
    (GaussianDiag([1.0, 0.5]), 0.05, (0.4, -0.3)),
    (GaussianDiag([1.0, 1.0, 2.0]), 0.1, (1.0, -1.0, 0.5)),
    (UniformBox([(0.0, 1.0)]), 0.05, (0.5,)),
    (UniformBox([(0.0, 1.0)]), 0.05, (0.03,)),
    (UniformBox([(0.0, 1.0)]), 0.05, (1.3,)),
    (UniformBox([(0.0, 1.0), (-1.0, 1.0)]), 0.04, (0.2, 0.9)),
    (UniformBox([(0.0, 1.0), (0.0, 2.0), (-0.5, 0.5)]), 0.1, (0.9, 0.2, 0.0)),
    (ConstantOne(), 0.01, (2.0, 3.0)),
]


@pytest.mark.parametrize("spec,t,x", FD_CASES)
def test_laplacian_ratio_matches_finite_differences(spec, t, x):
    x = np.asarray(x, dtype=float)
    sigma_sq = min((s * s for s in getattr(spec, "sigmas", [])), default=0.0)
    h = 1e-4 * math.sqrt(sigma_sq + t)
    center = log_smoothed_density(spec, t, x)
    acc = 0.0
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        up = log_smoothed_density(spec, t, x + step)
        dn = log_smoothed_density(spec, t, x - step)
        acc += math.exp(up - center) - 2.0 + math.exp(dn - center)
    fd = acc / (h * h)
    analytic = smoothed_laplacian_ratio(spec, t, x)
    assert fd == pytest.approx(analytic, rel=1e-5, abs=1e-12)


# One (name, density, on-manifold point) case per closed-form branch.  The
# right-tail box point sits 0.5 past the edge of a unit box, so the tail
# damping exponent (hi^2 - lo^2) / 2t = 1 / t crosses 745 inside
# ARRAY_TIMES and both sides of that guard are evaluated.
ARRAY_CASES = [
    ("gaussian", GaussianDiag([1.0, 0.5]), (0.3, -0.7)),
    ("box-interior", UniformBox([(0.0, 1.0), (-1.0, 2.0)]), (0.3, 0.5)),
    ("box-left-tail", UniformBox([(0.0, 1.0)]), (-0.4,)),
    ("box-right-tail-damped", UniformBox([(0.0, 1.0)]), (1.5,)),
    ("constant", ConstantOne(), (0.3, -2.0)),
    ("point-mass", ConstantOne(), ()),
]
ARRAY_TIMES = np.array([1e-6, 1e-4, 1e-3, 2e-3, 1e-2, 0.3, 1.0, 10.0])


@pytest.mark.parametrize("name,spec,x", ARRAY_CASES, ids=[c[0] for c in ARRAY_CASES])
def test_array_times_equal_scalar_times_bitwise(name, spec, x):
    # one call over an array of times equals one call per float time, bit
    # for bit, for the per-axis closed forms and the component density
    if name == "box-right-tail-damped":
        delta = (1.5**2 - 0.5**2) / (2.0 * ARRAY_TIMES)
        assert (delta >= 745.0).any() and (delta < 745.0).any()
    comp = ManifoldComponent(len(x), [0.25], spec)
    for fn, head, point in (
        (log_smoothed_density, spec, x),
        (smoothed_laplacian_ratio, spec, x),
        (lambda c, t, z: log_component_rho(c, t, z)[0], comp, tuple(x) + (0.0,)),
        (lambda c, t, z: log_component_rho(c, t, z)[1], comp, tuple(x) + (0.0,)),
    ):
        got = fn(head, ARRAY_TIMES, point)
        assert isinstance(got, np.ndarray) and got.shape == ARRAY_TIMES.shape
        per_time = [fn(head, float(t), point) for t in ARRAY_TIMES]
        assert all(type(v) is float for v in per_time)
        assert np.all(np.isfinite(got)), (fn.__name__, got)
        assert got.tobytes() == np.array(per_time).tobytes(), (fn.__name__, got, per_time)


def test_array_times_rejects_bad_times():
    spec = GaussianDiag([1.0])
    for bad in ([0.1, 0.0], [0.1, math.inf], [math.nan], [[0.1]]):
        with pytest.raises(ValueError):
            log_smoothed_density(spec, np.array(bad), [0.0])


# ---------------------------------------------------------------------------
# Component and mixture densities
# ---------------------------------------------------------------------------

def test_component_rho_line():
    comp = ManifoldComponent(1, [0.0], GaussianDiag([1.0]))
    # frozen: 2-D quadrature of the defining smoothing integral
    assert log_component_rho(comp, 1.0, (0.0, 0.0))[0] == pytest.approx(
        -2.184450656689318, rel=1e-13
    )


def test_component_rho_point_mass_is_kernel():
    comp = ManifoldComponent(0, [0.0], ConstantOne())
    assert log_component_rho(comp, 1.0, (0.0,))[0] == -0.5 * math.log(2.0 * math.pi)


def test_component_rho_off_manifold_shift():
    comp = ManifoldComponent(1, [0.0], GaussianDiag([1.0]))
    on, _ = log_component_rho(comp, 1.0, (0.0, 0.0))
    off, _ = log_component_rho(comp, 1.0, (0.0, 3.0))
    assert off - on == pytest.approx(-4.5, rel=1e-14)


def test_mixture_rho_single_component_exact():
    m = gaussian_line()
    comp = m.components[0]
    for t in (1e-6, 0.1, 3.0):
        assert log_mixture_rho(m, t, (0.3, 0.2)) == pytest.approx(
            log_component_rho(comp, t, (0.3, 0.2))[0], rel=1e-15
        )


def test_mixture_rho_identical_components():
    comp = ManifoldComponent(1, [0.0], GaussianDiag([1.0]))
    m = validate_model(MixtureModel(2, [comp, comp], [0.5, 0.5]))
    single, _ = log_component_rho(comp, 0.5, (1.0, 0.0))
    assert log_mixture_rho(m, 0.5, (1.0, 0.0)) == pytest.approx(single, rel=1e-14)


def _log_sum_exp_cases():
    rng = np.random.default_rng(17)
    inf = math.inf
    rows = np.array([
        [0.5, 0.5, -1.0, 0.5],  # three tied maxima
        [-2.0, 3.0, 3.0, 2.999],  # two tied maxima
        [-inf, -inf, -inf, -inf],
        [1.5, -inf, -inf, -inf],
        [-700.0, -0.25, -745.5, -0.25],
        [1.0, math.nan, 2.0, -inf],  # NaN, without a warning
    ])
    tied = rng.normal(0.0, 3.0, (6, 5, 4))
    tied[..., 2] = tied[..., 0]
    return {
        "rows": rows,
        "tied-blocks": tied,
        "single-terms": rng.normal(0.0, 10.0, (3, 4, 1)),
        "640k-terms": rng.normal(0.0, 30.0, 640_000),
    }


@pytest.mark.parametrize("name", list(_log_sum_exp_cases()))
def test_log_sum_exp_equals_scipy_bit_for_bit(name):
    a = _log_sum_exp_cases()[name]
    got = _log_sum_exp(a)
    assert np.asarray(got).tobytes() == np.asarray(logsumexp(a, axis=-1)).tobytes()


def test_mixture_rho_parallel_planes_value():
    m = parallel_planes()
    # frozen: log(0.5 phi_1(0) + 0.5 phi_1(1))
    assert log_mixture_rho(m, 1.0, (0.0, 0.0)) == pytest.approx(
        -1.1380087295845114, rel=1e-14
    )


# ---------------------------------------------------------------------------
# Slopes
# ---------------------------------------------------------------------------

def test_component_beta_gaussian_line():
    comp = gaussian_line().components[0]
    val = _component_beta(comp, 0.01, (0.0, 0.0))
    assert val.beta == pytest.approx(-1.00990099009901, rel=1e-14)
    assert val.bias == pytest.approx(-0.009900990099009901, rel=1e-14)
    assert not val.diverged
    # cross-check against the finite-difference time slope of the density
    t, hr = 0.01, 1e-5
    up, _ = log_component_rho(comp, t * (1 + hr), (0.0, 0.0))
    dn, _ = log_component_rho(comp, t * (1 - hr), (0.0, 0.0))
    assert (up - dn) / hr == pytest.approx(val.beta, abs=1e-6)


def test_component_beta_zero_bias_locus():
    comp = gaussian_line().components[0]
    t = 0.25
    x = math.sqrt(1.0 + t)
    val = _component_beta(comp, t, (x, 0.0))
    assert abs(val.bias) <= 1e-14
    assert val.beta == pytest.approx(-1.0, abs=1e-14)


def test_component_beta_point_mass():
    comp = ManifoldComponent(0, [0.0], ConstantOne())
    for t in (1e-9, 0.1, 7.0):
        val = _component_beta(comp, t, (0.0,))
        assert val.beta == -1.0
        assert val.bias == 0.0


def test_beta_value_consistency():
    comp = gaussian_line().components[0]
    val = _component_beta(comp, 0.3, (1.2, 0.4))
    d_minus_D = comp.dim - 2
    assert val.beta == pytest.approx(d_minus_D + val.bias, abs=1e-12)
    assert val.diverged  # off the line


def test_mixture_beta_single_equals_component():
    m = gaussian_line()
    beta, w = mixture_beta_t(m, 0.07, (0.5, 0.0))
    single = _component_beta(m.components[0], 0.07, (0.5, 0.0))
    assert beta.beta == pytest.approx(single.beta, rel=1e-14)
    assert w.tolist() == [1.0]


def test_mixture_beta_parallel_planes_value():
    m = parallel_planes()
    beta, w = mixture_beta_t(m, 1.0, (0.0, 0.0), d_ref=1)
    assert beta.beta == pytest.approx(-0.6224593312018546, rel=1e-13)
    assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("t", [10.0**k for k in range(-3, 3)])
def test_mixture_beta_matches_closed_form_everywhere(t):
    m = parallel_planes()
    generic, _ = mixture_beta_t(m, t, (0.0, 0.0), d_ref=1)
    closed = parallel_planes_beta(t, 0.5, 1.0)
    scale = max(abs(closed), 1e-300)
    assert abs(generic.bias - closed) / scale <= 1e-12


@pytest.mark.parametrize("d_ref", [-1, 3, 1.5, math.nan])
def test_mixture_slopes_rejects_d_ref_outside_dimensions(d_ref):
    # the bias is measured against a dimension a point in R^2 can have
    with pytest.raises(ValueError):
        mixture_slopes(gaussian_line(), [0.1, 1.0], (0.0, 0.0), d_ref=d_ref)


def test_mixture_beta_intersecting_limit():
    m = intersecting_line_plane()
    beta, _ = mixture_beta_t(m, 1e-8, (0.0, 0.0, 0.0))
    assert beta.beta == pytest.approx(-2.0, abs=1e-3)


def test_mixture_beta_convexity():
    rng = np.random.default_rng(42)
    m = intersecting_line_plane()
    for _ in range(25):
        t = float(10.0 ** rng.uniform(-6, 1))
        z = rng.standard_normal(3) * 0.5
        beta, w = mixture_beta_t(m, t, z)
        comps = [_component_beta(c, t, z).beta for c in m.components]
        assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-12)
        lo, hi = min(comps), max(comps)
        span = max(1.0, abs(lo), abs(hi))
        assert lo - 1e-9 * span <= beta.beta <= hi + 1e-9 * span


def test_mixture_beta_symmetry_centered_gaussian():
    m = gaussian_line()
    for x in (0.3, 1.0, 2.7):
        plus, _ = mixture_beta_t(m, 0.05, (x, 0.0))
        minus, _ = mixture_beta_t(m, 0.05, (-x, 0.0))
        assert plus.beta == minus.beta


def test_box_beta_axis_permutation_invariant():
    bounds = [(0.0, 1.0), (-1.0, 2.0), (0.5, 3.0)]
    x = (0.25, 0.5, 1.0)
    base = smoothed_laplacian_ratio(UniformBox(bounds), 0.05, x)
    perm = [2, 0, 1]
    permuted = smoothed_laplacian_ratio(
        UniformBox([bounds[i] for i in perm]), 0.05, [x[i] for i in perm]
    )
    assert base == permuted


def test_constant_density_beta_exact():
    m = parallel_planes()  # constant density on both planes
    for t in (1e-12, 1e-3, 1.0, 50.0):
        single = _component_beta(m.components[0], t, (0.7, 0.0))
        assert single.beta == -1.0
        assert single.bias == 0.0


def test_isotropic_zero_bias_locus():
    comp = ManifoldComponent(2, [0.0], GaussianDiag([0.8, 0.8]))
    t = 0.1
    r = math.sqrt(2 * (0.8**2 + t))
    val = _component_beta(comp, t, (r, 0.0, 0.0))
    assert abs(val.bias) < 1e-14


# ---------------------------------------------------------------------------
# Parallel-plane closed form and the responsibility bound
# ---------------------------------------------------------------------------

def test_parallel_planes_values():
    # the single-plane slope is -1: the slope is -1 plus the correction
    assert -1.0 + parallel_planes_beta(1.0, 0.5, 1.0) == pytest.approx(
        -0.6224593312018546, rel=1e-14
    )
    assert parallel_planes_beta(5.0, 0.5, 1.0) == pytest.approx(
        0.09500416250421202, rel=1e-13
    )


def test_parallel_planes_small_t_suppression():
    corr = parallel_planes_beta(1e-4, 0.5, 1.0)
    assert corr < 1e-100
    assert -1.0 + corr == -1.0


def test_parallel_planes_no_overflow_at_tiny_t():
    corr = parallel_planes_beta(1e-12, 0.5, 1.0)
    assert corr == 0.0
    assert math.isfinite(-1.0 + corr)


def test_parallel_planes_rejects_bad_arguments():
    with pytest.raises(ValueError):
        parallel_planes_beta(0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        parallel_planes_beta(1.0, 1.5, 1.0)
    with pytest.raises(ValueError):
        parallel_planes_beta(1.0, 0.5, 0.0)


def test_coefficient_bound_value():
    assert coefficient_bound(0.5, 0.5, 1.0, 1.0, 0.5, 0.1) == pytest.approx(
        0.022977369910025615, rel=1e-13
    )


def test_coefficient_bound_vanishes_at_small_t():
    values = [coefficient_bound(0.5, 0.5, 1.0, 1.0, 0.5, t) for t in (0.1, 0.01, 0.001)]
    assert values[0] > values[1] > values[2]
    assert values[2] < 1e-80


def test_coefficient_bound_requires_strict_radii():
    with pytest.raises(ValueError):
        coefficient_bound(0.5, 0.5, 1.0, 1.0, 1.0, 0.1)


def test_responsibility_below_bound_on_concrete_model():
    m = point_and_box()
    for t in (1.0, 0.3, 0.1, 0.03, 0.01):
        _, w = mixture_beta_t(m, t, (0.0,))
        assert w[0] <= coefficient_bound(0.5, 0.5, 1.0, 1.0, 0.5, t)


# ---------------------------------------------------------------------------
# Small-t limits
# ---------------------------------------------------------------------------

def _limit(model, z, t=1e-4):
    # the small-t limit of the slope that mixture_slopes reports at z: the
    # gap d_ref - ambient_dim, and whether the point diverges instead
    s = mixture_slopes(model, t, z)
    return s.d_ref - model.ambient_dim, s.diverged


def test_beta_limit_single_component():
    assert _limit(gaussian_line(), (0.0, 0.0)) == (-1.0, False)
    assert _limit(gaussian_line(), (2.5, 0.0)) == (-1.0, False)


def test_beta_limit_intersecting_matches_small_t():
    m = intersecting_line_plane()
    s = mixture_slopes(m, 1e-10, (0.0, 0.0, 0.0))
    assert s.d_ref - m.ambient_dim == -2.0
    assert s.beta == pytest.approx(s.d_ref - m.ambient_dim, abs=1e-4)


def test_beta_limit_off_manifold_diverges():
    # off every component the slope grows like |y|^2 / t without bound
    ts = np.array([1e-2, 1e-4, 1e-6])
    s = mixture_slopes(gaussian_line(), ts, (0.0, 0.5))
    assert s.diverged.all()
    assert s.bias * ts == pytest.approx(0.25, rel=1e-3)


def test_beta_limit_outside_box_support():
    m = validate_model(
        MixtureModel(2, [ManifoldComponent(1, [0.0], UniformBox([(0.0, 1.0)]))], [1.0])
    )
    assert _limit(m, (0.5, 0.0))[0] == -1.0
    assert _limit(m, (2.0, 0.0))[1]


def test_reference_dim():
    m = intersecting_line_plane()
    assert reference_dim(m, (0.0, 0.0, 0.0)) == 1  # on both, line wins
    assert reference_dim(m, (0.3, 0.4, 0.0)) == 2  # on the plane only
    assert reference_dim(m, (0.0, 0.0, 1.0)) == 1  # off everything: min dim


def test_containment_survives_underflowed_gaussian_density():
    # psi of a unit Gaussian underflows to 0 beyond ~38.6 sigma, yet the
    # point still lies on the line, where log rho and beta are finite
    m = gaussian_line()
    s = mixture_slopes(m, np.array([1e-4, 1e-2, 1.0]), (39.0, 0.0))
    assert np.all(np.isfinite(s.log_rho)) and np.all(np.isfinite(s.beta))
    assert not s.diverged.any()
    assert s.d_ref - m.ambient_dim == -1


def test_reference_dim_counts_a_gaussian_line_past_its_underflow():
    # a unit Gaussian line and a wide box plane in R^3 both contain
    # (40, 0, 0): the smallest containing dimension, 1, is the reference
    m = validate_model(
        MixtureModel(
            3,
            [
                ManifoldComponent(1, [0.0, 0.0], GaussianDiag([1.0])),
                ManifoldComponent(2, [0.0], UniformBox([(-100.0, 100.0)] * 2)),
            ],
            [0.5, 0.5],
        )
    )
    assert reference_dim(m, (40.0, 0.0, 0.0)) == 1
    assert mixture_slopes(m, [1e-2], (40.0, 0.0, 0.0)).d_ref == 1


# ---------------------------------------------------------------------------
# Blocks of points: a (P, D) block equals P single-point calls bit for bit
# ---------------------------------------------------------------------------

# t from 1e-4 to 1e2: for x = 3 past the box [0, 1] the tail damping
# exponent (3^2 - 2^2) / 2t crosses 745 at t ~ 3.4e-3, inside the grid
BLOCK_TIMES = np.logspace(-4.0, 2.0, 25)

_SLOPE_COLUMNS = ("log_rho", "beta", "bias", "diverged", "responsibilities")


def _constant_line():
    return validate_model(
        MixtureModel(2, [ManifoldComponent(1, [0.0], ConstantOne())], [1.0])
    )


BLOCK_CASES = {
    # gaussian: centre, off-centre, off the line, and far out on and off it
    # (the last row's log terms are all -inf)
    "gaussian": (
        gaussian_line,
        [(0.0, 0.0), (1.0, 0.0), (-1.5, 0.5), (1e200, 0.0), (0.0, 1e200)],
    ),
    # box: interior, left tail, right tail across the 745 cut, an edge, far
    "box": (
        uniform_interval,
        [(0.5, 0.0), (-0.5, 0.0), (3.0, 0.0), (1.0, 0.0), (-1e200, 0.0), (1e200, 0.3)],
    ),
    "box-plane": (box_plane, [(0.5, 0.5, 0.0), (1.25, -0.5, 0.0), (0.9, 0.1, 0.25)]),
    "constant": (_constant_line, [(0.0, 0.0), (3.0, 0.0), (1.0, 0.5), (0.0, 1e200)]),
    "point-mass": (point_and_box, [(1.0,), (0.0,), (0.3,), (-0.9,), (1e200,)]),
    "parallel-planes": (parallel_planes, [(0.0, 0.0), (0.0, 1.0), (-2.0, 0.25)]),
}


def _assert_block_equals_singles(model, points, d_ref=None):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or invalid warning
        block = mixture_slopes(model, BLOCK_TIMES, np.array(points), d_ref)
        singles = [mixture_slopes(model, BLOCK_TIMES, z, d_ref) for z in points]
        log_rho = log_mixture_rho(model, BLOCK_TIMES, points)
    P, T, K = len(points), BLOCK_TIMES.size, len(model.components)
    assert block.log_rho.shape == (P, T)
    assert block.responsibilities.shape == (P, T, K)
    assert block.d_ref.shape == (P,)
    for i, one in enumerate(singles):
        assert block.d_ref[i] == one.d_ref and type(one.d_ref) is int
        for name in _SLOPE_COLUMNS:
            got, want = getattr(block, name)[i], getattr(one, name)
            assert got.shape == want.shape, (points[i], name)
            assert got.tobytes() == want.tobytes(), (points[i], name)
    assert log_rho.tobytes() == block.log_rho.tobytes()
    return block


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_mixture_slopes_block_equals_single_points(case):
    build, points = BLOCK_CASES[case]
    _assert_block_equals_singles(build(), points)


def test_mixture_slopes_block_covers_the_box_tail_cut():
    # the right-tail row of the box case sees the damping exponent on both
    # sides of 745 and the all -inf row of the gaussian case gives inf bias
    delta = (3.0**2 - 2.0**2) / (2.0 * BLOCK_TIMES)
    assert (delta < 745.0).any() and (delta >= 745.0).any()
    s = _assert_block_equals_singles(gaussian_line(), BLOCK_CASES["gaussian"][1])
    assert (s.log_rho[-1] == -math.inf).all() and (s.bias[-1] == math.inf).all()
    assert np.isnan(s.responsibilities[-1]).all()


def test_mixture_slopes_block_per_point_reference_dims():
    # on both components, on the plane only, on neither
    m = intersecting_line_plane()
    points = [(0.0, 0.0, 0.0), (0.3, 0.4, 0.0), (0.0, 0.0, 1.0)]
    s = _assert_block_equals_singles(m, points)
    assert s.d_ref.tolist() == [1, 2, 1]
    assert s.diverged.any(axis=1).tolist() == [False, False, True]
    fixed = _assert_block_equals_singles(m, points, d_ref=2)
    assert fixed.d_ref.tolist() == [2, 2, 2]


def test_mixture_slopes_block_wide_mixture(wide_mixture):
    model, points = wide_mixture
    s = _assert_block_equals_singles(model, points)
    assert (s.responsibilities == 0.0).any()  # the exact-zero mask is exercised


def test_closed_form_layers_take_a_block(wide_mixture):
    # each layer's block rows equal its single-point values bit for bit,
    # with the time axis dropped for a scalar t
    model, points = wide_mixture
    block = np.array(points)
    for comp in model.components:
        x, y = component_split(comp, block)
        layers = [
            (lambda t, r: log_component_rho(comp, t, r)[0], block),
            (lambda t, r: log_component_rho(comp, t, r)[1], block),
            (lambda t, r: _log_kernel(t, y.shape[1], r), y),
        ]
        if comp.dim:
            layers += [
                (lambda t, r: log_smoothed_density(comp.density, t, r), x),
                (lambda t, r: smoothed_laplacian_ratio(comp.density, t, r), x),
            ]
        for layer, rows in layers:
            for t in (BLOCK_TIMES, 0.01):
                got = layer(t, rows)
                want = np.array([layer(t, r) for r in rows])
                assert got.shape == (len(rows), *np.shape(t))
                assert got.tobytes() == want.tobytes(), comp


@pytest.mark.parametrize(
    "bad",
    [
        pytest.param([0.0, math.nan], id="nan"),
        pytest.param([math.inf, 0.0], id="inf"),
        pytest.param([0.0, 0.0, 0.0], id="too-wide"),
        pytest.param([0.0], id="too-narrow"),
        pytest.param([0.0, [0.0, 0.0]], id="ragged-point"),
        pytest.param([[0.0, 0.0], [0.0, 0.0, 0.0]], id="ragged-block"),
    ],
)
def test_block_rejects_a_bad_row_like_a_single_point(bad):
    m = gaussian_line()
    with pytest.raises(ModelError) as one:
        mixture_slopes(m, 0.1, bad)
    block = [[0.5, 0.0], bad] if len(bad) == 2 else [bad, bad]
    with pytest.raises(ModelError) as many:
        mixture_slopes(m, 0.1, block)
    assert str(many.value) == str(one.value)


# The per-axis box evaluation as it stood before each box became one block:
# one ``_by_side`` call per axis and per quantity, the mirrored tail as its
# own call, stacked into a (P, T, d) array and summed over the axes.  The
# block evaluation must reproduce it bit for bit.

def _ref_damping(zl, zh):
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        delta = zh * zh - zl * zl
        return np.where(delta < 745.0, np.exp(-delta), 0.0)


def _ref_by_side(ts, lo, hi, tail, inside):
    out = np.empty((lo.size, ts.size))
    right = lo >= 0.0
    left = ~right & (hi <= 0.0)
    groups = (
        (right, tail, lo, hi),
        (left, tail, -hi, -lo),
        (~(right | left), inside, lo, hi),
    )
    for rows, form, near, far in groups:
        if rows.any():
            out[rows] = form(ts, near[rows, None], far[rows, None])
    return out


def _ref_log_tail(ts, lo, hi):
    s = np.sqrt(2.0 * ts)
    zl, zh = lo / s, hi / s
    rest = erfcx(zh) * _ref_damping(zl, zh)
    return math.log(0.5) - zl * zl + np.log(erfcx(zl) - rest)


def _ref_log_inside(ts, lo, hi):
    s = np.sqrt(2.0 * ts)
    return math.log(0.5) + np.log(erf(hi / s) - erf(lo / s))


def _ref_ratio_tail(ts, lo, hi):
    s = np.sqrt(2.0 * ts)
    zl, zh = lo / s, hi / s
    damp = _ref_damping(zl, zh)
    num = (lo - hi * damp) / np.sqrt(2.0 * math.pi * ts)
    return num / (0.5 * ts * (erfcx(zl) - erfcx(zh) * damp))


def _ref_ratio_inside(ts, lo, hi):
    s = np.sqrt(2.0 * ts)
    num = (
        lo * np.exp(-lo * lo / (2.0 * ts)) - hi * np.exp(-hi * hi / (2.0 * ts))
    ) / np.sqrt(2.0 * math.pi * ts)
    return num / (0.5 * ts * (erf(hi / s) - erf(lo / s)))


@np.errstate(over="ignore")
def _ref_box(spec, ts, rows, tail, inside, log_width):
    terms = np.stack(
        [
            _ref_by_side(ts, xi - b, xi - a, tail, inside)
            - (math.log(b - a) if log_width else 0.0)
            for (a, b), xi in zip(spec.bounds, rows.T)
        ],
        axis=-1,
    )
    return terms.sum(axis=-1)


@pytest.mark.parametrize("d", [1, 3, 9])  # 9 axes pass numpy's 8-wide pairwise block
def test_box_block_equals_per_axis_loop(d):
    rng = np.random.default_rng(d)
    lo_edge = rng.uniform(-2.0, 1.0, d)
    hi_edge = lo_edge + rng.uniform(1e-3, 3.0, d)
    spec = UniformBox(list(zip(lo_edge.tolist(), hi_edge.tolist())))
    # per axis: inside, on either edge, just left or right, and far out
    offsets = [
        lambda a, b: rng.uniform(a, b),
        lambda a, b: a,
        lambda a, b: b,
        lambda a, b: a - rng.uniform(0.0, 1.0),
        lambda a, b: b + rng.uniform(0.0, 1.0),
        lambda a, b: b + 10.0 ** rng.uniform(1.0, 6.0),
        lambda a, b: a - 10.0 ** rng.uniform(1.0, 6.0),
    ]
    rows = np.array(
        [
            [offsets[rng.integers(len(offsets))](a, b) for a, b in spec.bounds]
            for _ in range(60)
        ]
    )
    ts = np.logspace(-15.0, 6.0, 43)
    want_log = _ref_box(spec, ts, rows, _ref_log_tail, _ref_log_inside, True)
    want_ratio = _ref_box(spec, ts, rows, _ref_ratio_tail, _ref_ratio_inside, False)
    got_log = log_smoothed_density(spec, ts, rows)
    got_ratio = smoothed_laplacian_ratio(spec, ts, rows)
    assert got_log.tobytes() == want_log.tobytes()
    assert got_ratio.tobytes() == want_ratio.tobytes()
    # and through the component, where both come from one evaluation
    comp = ManifoldComponent(d, [0.25], spec)
    block = np.hstack([rows, np.zeros((len(rows), 1))])
    log_rho, bias = log_component_rho(comp, ts, block)
    assert log_rho.tobytes() == (got_log + _log_kernel(ts, 1, [0.25])).tobytes()
    want_bias = 0.25 * 0.25 / ts + ts * want_ratio
    assert bias.tobytes() == want_bias.tobytes()


def test_laplacian_ratio_gaussian_past_variance_square_overflow():
    # v = sigma^2 + t past about 1.34e154 squares to inf: those rows divide
    # by v twice, and every other row keeps (x^2 - v) / v^2 bit for bit
    ts = np.array([1e-2, 1e154, 1e155, 1e300])
    x = np.array([[0.3], [2.0]])
    _, ratio = GaussianDiag([1.0]).smoothed(ts, x)
    v = 1.0 + ts
    x2 = x * x
    assert np.array_equal(ratio[:, :2], (x2 - v[:2]) / (v[:2] * v[:2]))
    assert np.array_equal(ratio[:, 2:], (x2 / v[2:] - 1.0) / v[2:])
    assert np.all(ratio[:, 2:] < 0.0)


# (sigma, x, t) -> (log density, Laplacian ratio) of one Gaussian axis,
# log N(x; 0, v) and (x^2 - v) / v^2 with v = sigma^2 + t, frozen via mpmath
# (50 digits) from these doubles; x^2 overflows on each row
FAR_GAUSSIAN_ROWS = {
    (1e150, 1e300, 1e-3): (-5.0000000000000007167e299, 1.0000000000000001817),
    (1e150, 2e154, 1.0): (-200000346.30670250476, 3.9999999900000006022e-292),
    (1.0, 1e200, 1e300): (-4.9999999999999994348e99, 9.9999999999999983446e-201),
}


def test_laplacian_ratio_gaussian_at_a_far_point_and_wide_sigma():
    # a coordinate whose square is inf, where x^2 / v is a finite double:
    # the row takes x^2 / v as (x / sqrt(v))^2, with no inf / inf warning
    # (the suite makes a RuntimeWarning an error)
    for (sigma, x, t), (want_log_p, want_ratio) in FAR_GAUSSIAN_ROWS.items():
        log_p, ratio = GaussianDiag([sigma]).smoothed(np.array([t]), np.array([[0.3], [x]]))
        assert log_p[1, 0] == pytest.approx(want_log_p, rel=1e-15)
        assert ratio[1, 0] == pytest.approx(want_ratio, rel=1e-15)
        # the row whose square is finite keeps its bits
        near = GaussianDiag([sigma]).smoothed(np.array([t]), np.array([[0.3]]))
        assert (log_p[0], ratio[0]) == (near[0][0], near[1][0])


# (x, t) -> (x^2 - v) / v^2 with v = sigma^2 + t on a sigma = 1e-150 axis,
# frozen via mpmath (60 digits) from these doubles; v * v is 0 or subnormal
# on the rows t <= 1e-156
NARROW_GAUSSIAN_RATIOS = {
    (0.0, 1e-310): -9.9999999989999998742e299,
    (0.0, 1e-300): -4.9999999999999999059e299,
    (0.0, 1e-200): -1.0000000000000000179e200,
    (0.0, 1e-158): -9.9999999999999993555e157,
    (0.0, 1e-156): -9.9999999999999995981e155,
    (3e-150, 1e-310): 7.9999999983000007135e300,
    (3e-150, 1e-300): 1.7500000000000001565e300,
    (3e-150, 1e-200): -1.0000000000000000179e200,
    (3e-150, 1e-158): -9.9999999999999993555e157,
    (3e-150, 1e-156): -9.9999999999999995981e155,
}


def test_laplacian_ratio_gaussian_where_the_variance_square_underflows():
    # below v ~ 1.5e-154, v * v is subnormal or 0: those rows divide by v
    # twice, with no divide-by-zero warning, and rows where v * v is a
    # normal double keep (x^2 - v) / v^2 bit for bit
    xs = sorted({x for x, _ in NARROW_GAUSSIAN_RATIOS})
    ts = np.array(sorted({t for _, t in NARROW_GAUSSIAN_RATIOS}))
    _, ratio = GaussianDiag([1e-150]).smoothed(ts, np.array([[x] for x in xs]))
    for (x, t), want in NARROW_GAUSSIAN_RATIOS.items():
        assert ratio[xs.index(x), ts.tolist().index(t)] == pytest.approx(want, rel=1e-15)
    normal = np.array([1e-150, 1e-100, 1.0])
    _, ratio = GaussianDiag([1e-150]).smoothed(normal, np.array([[3e-150]]))
    x2, v = 3e-150 * 3e-150, 1e-150 * 1e-150 + normal
    assert np.array_equal(ratio[0], (x2 - v) / (v * v))
