"""Closed forms against frozen values, independent quadrature, and finite
differences.  Frozen constants were computed with scipy.integrate.quad /
mpmath at high precision."""

import math

import numpy as np
import pytest
from scipy import integrate

from exactlid import (
    ConstantOne,
    GaussianDiag,
    ManifoldComponent,
    MixtureModel,
    UniformBox,
    beta_limit,
    coefficient_bound,
    component_beta_t,
    gaussian_kernel_laplacian_ratio,
    log_component_rho,
    log_gaussian_kernel,
    log_mixture_rho,
    log_smoothed_density,
    mixture_beta_t,
    parallel_planes_beta,
    reference_dim,
    smoothed_laplacian_ratio,
    validate_model,
)
from exactlid.catalog import (
    gaussian_line,
    intersecting_line_plane,
    parallel_planes,
    point_and_box,
)


# ---------------------------------------------------------------------------
# Gaussian kernel
# ---------------------------------------------------------------------------

def test_kernel_standard_values():
    assert log_gaussian_kernel(1.0, 1, [0.0]) == pytest.approx(
        math.log(0.3989422804014327), rel=1e-15
    )
    assert log_gaussian_kernel(1.0, 2, [0.0, 0.0]) == pytest.approx(
        -1.8378770664093453, rel=1e-15
    )
    # frozen: -(1/2)log(2 pi 0.01) - 0.5^2/0.02, cross-checked by grid
    # integration (normalizes to 1 within 1e-10)
    assert log_gaussian_kernel(0.01, 1, [0.5]) == pytest.approx(
        -11.116353440210627, rel=1e-14
    )


def test_kernel_grid_normalization():
    t = 0.01
    g = np.linspace(-12 * math.sqrt(t), 12 * math.sqrt(t), 100001)
    vals = np.exp([log_gaussian_kernel(t, 1, [u]) for u in g])
    assert np.trapezoid(vals, g) == pytest.approx(1.0, abs=1e-10)


def test_kernel_zero_dim_convention():
    assert log_gaussian_kernel(0.5, 0, []) == 0.0


def test_kernel_requires_positive_time():
    with pytest.raises(ValueError):
        log_gaussian_kernel(0.0, 1, [0.0])
    with pytest.raises(ValueError):
        gaussian_kernel_laplacian_ratio(-1.0, 1, [0.0])


def test_kernel_laplacian_ratio_values():
    assert gaussian_kernel_laplacian_ratio(1.0, 1, [0.0]) == -1.0
    assert gaussian_kernel_laplacian_ratio(1.0, 2, [1.0, 1.0]) == 0.0
    assert gaussian_kernel_laplacian_ratio(0.5, 3, [1.0, 0.0, 0.0]) == pytest.approx(
        -2.0, rel=1e-14
    )


@pytest.mark.parametrize("t,k", [(1.0, 1), (0.5, 3), (0.03, 2)])
def test_kernel_laplacian_matches_finite_differences(t, k):
    rng = np.random.default_rng(5)
    u = rng.standard_normal(k) * math.sqrt(t)
    h = 1e-4 * math.sqrt(t)
    center = log_gaussian_kernel(t, k, u)
    acc = 0.0
    for j in range(k):
        step = np.zeros(k)
        step[j] = h
        up = log_gaussian_kernel(t, k, u + step)
        dn = log_gaussian_kernel(t, k, u - step)
        acc += math.exp(up - center) - 2.0 + math.exp(dn - center)
    fd = acc / (h * h)
    assert fd == pytest.approx(gaussian_kernel_laplacian_ratio(t, k, u), rel=1e-5)


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
        (log_component_rho, comp, tuple(x) + (0.0,)),
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
    assert log_component_rho(comp, 1.0, (0.0, 0.0)) == pytest.approx(
        -2.184450656689318, rel=1e-13
    )


def test_component_rho_point_mass_is_kernel():
    comp = ManifoldComponent(0, [0.0], ConstantOne())
    assert log_component_rho(comp, 1.0, (0.0,)) == log_gaussian_kernel(1.0, 1, [0.0])


def test_component_rho_off_manifold_shift():
    comp = ManifoldComponent(1, [0.0], GaussianDiag([1.0]))
    on = log_component_rho(comp, 1.0, (0.0, 0.0))
    off = log_component_rho(comp, 1.0, (0.0, 3.0))
    assert off - on == pytest.approx(-4.5, rel=1e-14)


def test_mixture_rho_single_component_exact():
    m = gaussian_line()
    comp = m.components[0]
    for t in (1e-6, 0.1, 3.0):
        assert log_mixture_rho(m, t, (0.3, 0.2)) == pytest.approx(
            log_component_rho(comp, t, (0.3, 0.2)), rel=1e-15
        )


def test_mixture_rho_identical_components():
    comp = ManifoldComponent(1, [0.0], GaussianDiag([1.0]))
    m = validate_model(MixtureModel(2, [comp, comp], [0.5, 0.5]))
    single = log_component_rho(comp, 0.5, (1.0, 0.0))
    assert log_mixture_rho(m, 0.5, (1.0, 0.0)) == pytest.approx(single, rel=1e-14)


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
    val = component_beta_t(comp, 0.01, (0.0, 0.0))
    assert val.beta == pytest.approx(-1.00990099009901, rel=1e-14)
    assert val.bias == pytest.approx(-0.009900990099009901, rel=1e-14)
    assert not val.diverged
    # cross-check against the finite-difference time slope of the density
    t, hr = 0.01, 1e-5
    up = log_component_rho(comp, t * (1 + hr), (0.0, 0.0))
    dn = log_component_rho(comp, t * (1 - hr), (0.0, 0.0))
    assert (up - dn) / hr == pytest.approx(val.beta, abs=1e-6)


def test_component_beta_zero_bias_locus():
    comp = gaussian_line().components[0]
    t = 0.25
    x = math.sqrt(1.0 + t)
    val = component_beta_t(comp, t, (x, 0.0))
    assert abs(val.bias) <= 1e-14
    assert val.beta == pytest.approx(-1.0, abs=1e-14)


def test_component_beta_point_mass():
    comp = ManifoldComponent(0, [0.0], ConstantOne())
    for t in (1e-9, 0.1, 7.0):
        val = component_beta_t(comp, t, (0.0,))
        assert val.beta == -1.0
        assert val.bias == 0.0


def test_beta_value_consistency():
    comp = gaussian_line().components[0]
    val = component_beta_t(comp, 0.3, (1.2, 0.4))
    d_minus_D = comp.dim - 2
    assert val.beta == pytest.approx(d_minus_D + val.bias, abs=1e-12)
    assert val.diverged  # off the line


def test_mixture_beta_single_equals_component():
    m = gaussian_line()
    beta, w = mixture_beta_t(m, 0.07, (0.5, 0.0))
    single = component_beta_t(m.components[0], 0.07, (0.5, 0.0))
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
    closed = parallel_planes_beta(t, 0.5, 1.0, -1.0)
    scale = max(abs(closed.bias), 1e-300)
    assert abs(generic.bias - closed.bias) / scale <= 1e-12


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
        comps = [component_beta_t(c, t, z).beta for c in m.components]
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
        single = component_beta_t(m.components[0], t, (0.7, 0.0))
        assert single.beta == -1.0
        assert single.bias == 0.0


def test_isotropic_zero_bias_locus():
    comp = ManifoldComponent(2, [0.0], GaussianDiag([0.8, 0.8]))
    t = 0.1
    r = math.sqrt(2 * (0.8**2 + t))
    val = component_beta_t(comp, t, (r, 0.0, 0.0))
    assert abs(val.bias) < 1e-14


# ---------------------------------------------------------------------------
# Parallel-plane closed form and the responsibility bound
# ---------------------------------------------------------------------------

def test_parallel_planes_values():
    assert parallel_planes_beta(1.0, 0.5, 1.0, -1.0).beta == pytest.approx(
        -0.6224593312018546, rel=1e-14
    )
    assert parallel_planes_beta(5.0, 0.5, 1.0, -1.0).bias == pytest.approx(
        0.09500416250421202, rel=1e-13
    )


def test_parallel_planes_small_t_suppression():
    val = parallel_planes_beta(1e-4, 0.5, 1.0, -1.0)
    assert val.bias < 1e-100
    assert val.beta == -1.0


def test_parallel_planes_no_overflow_at_tiny_t():
    val = parallel_planes_beta(1e-12, 0.5, 1.0, -1.0)
    assert val.bias == 0.0
    assert math.isfinite(val.beta)


def test_parallel_planes_rejects_bad_arguments():
    with pytest.raises(ValueError):
        parallel_planes_beta(0.0, 0.5, 1.0, -1.0)
    with pytest.raises(ValueError):
        parallel_planes_beta(1.0, 1.5, 1.0, -1.0)
    with pytest.raises(ValueError):
        parallel_planes_beta(1.0, 0.5, 0.0, -1.0)


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

def test_beta_limit_single_component():
    assert beta_limit(gaussian_line(), (0.0, 0.0)).beta == -1.0
    assert beta_limit(gaussian_line(), (2.5, 0.0)).beta == -1.0


def test_beta_limit_intersecting_matches_small_t():
    m = intersecting_line_plane()
    lim = beta_limit(m, (0.0, 0.0, 0.0))
    assert lim.beta == -2.0
    at_tiny, _ = mixture_beta_t(m, 1e-10, (0.0, 0.0, 0.0))
    assert at_tiny.beta == pytest.approx(lim.beta, abs=1e-4)


def test_beta_limit_off_manifold_diverges():
    lim = beta_limit(gaussian_line(), (0.0, 0.5))
    assert lim.diverged
    assert lim.beta == math.inf


def test_beta_limit_outside_box_support():
    m = validate_model(
        MixtureModel(2, [ManifoldComponent(1, [0.0], UniformBox([(0.0, 1.0)]))], [1.0])
    )
    assert beta_limit(m, (0.5, 0.0)).beta == -1.0
    assert beta_limit(m, (2.0, 0.0)).diverged


def test_reference_dim():
    m = intersecting_line_plane()
    assert reference_dim(m, (0.0, 0.0, 0.0)) == 1  # on both, line wins
    assert reference_dim(m, (0.3, 0.4, 0.0)) == 2  # on the plane only
    assert reference_dim(m, (0.0, 0.0, 1.0)) == 1  # off everything: min dim
