"""Model construction, validation, coordinate splitting, and the JSON schema."""

import json
import math

import numpy as np
import pytest

from exactlid import (
    ConstantOne,
    GaussianDiag,
    ManifoldComponent,
    MixtureModel,
    ModelError,
    UniformBox,
    component_split,
    model_from_json,
    model_to_dict,
    model_to_json,
    validate_model,
)
from exactlid.catalog import parallel_planes
from exactlid.estimator import TimeGrid
from exactlid.model import (
    LIMITS, PointMass, as_point, as_points, as_times, require, whole_number,
)
from exactlid.oracle import McSettings, rho_monte_carlo


def simple_model(weights=(1.0,)):
    comps = [ManifoldComponent(1, [0.0], GaussianDiag([1.0])) for _ in weights]
    return MixtureModel(2, comps, weights)


def test_minimal_model_valid():
    m = validate_model(simple_model())
    assert m.weights == (1.0,)
    assert m.components[0].dim == 1


def test_weights_renormalized():
    m = validate_model(simple_model(weights=(0.3, 0.3)))
    assert m.weights == (0.5, 0.5)


def test_validation_idempotent():
    m = validate_model(simple_model(weights=(0.3, 0.3, 0.2)))
    again = validate_model(m)
    assert again.weights == m.weights
    assert again is m


@pytest.mark.parametrize(
    "bad",
    [
        MixtureModel(2, [ManifoldComponent(1, [0.0], GaussianDiag([0.0]))], [1.0]),
        MixtureModel(2, [ManifoldComponent(1, [0.0], GaussianDiag([-1.0]))], [1.0]),
        MixtureModel(2, [ManifoldComponent(1, [0.0], UniformBox([(1.0, 1.0)]))], [1.0]),
        MixtureModel(2, [ManifoldComponent(1, [0.0], UniformBox([(2.0, 1.0)]))], [1.0]),
        MixtureModel(2, [], []),
        MixtureModel(2, [ManifoldComponent(1, [0.0], GaussianDiag([1.0]))], [0.0]),
        MixtureModel(2, [ManifoldComponent(1, [0.0], GaussianDiag([1.0]))], [-0.5]),
        MixtureModel(2, [ManifoldComponent(3, [], GaussianDiag([1.0] * 3))], [1.0]),
        MixtureModel(2, [ManifoldComponent(1, [0.0, 0.0], GaussianDiag([1.0]))], [1.0]),
        MixtureModel(2, [ManifoldComponent(2, [], GaussianDiag([1.0]))], [1.0]),
    ],
)
def test_invalid_models_rejected(bad):
    with pytest.raises(ModelError):
        validate_model(bad)


def test_box_width_must_be_finite():
    # both bounds are finite, but b - a overflows to inf
    bad = MixtureModel(
        2, [ManifoldComponent(1, [0.0], UniformBox([(-1e308, 1e308)]))], [1.0]
    )
    with pytest.raises(ModelError, match="finite positive width"):
        validate_model(bad)


def test_require_names_the_input_and_its_rule():
    require(True, "x", "positive", -1.0)
    with pytest.raises(ModelError, match=r"^x must be positive, got -1.0$") as info:
        require(False, "x", "positive", -1.0)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("sigma", [LIMITS.sigma[0], 1.0, LIMITS.sigma[1]])
def test_sigma_inside_limits_accepted(sigma):
    validate_model(MixtureModel(2, [ManifoldComponent(1, [0.0], GaussianDiag([sigma]))], [1.0]))


@pytest.mark.parametrize(
    "sigma", [np.nextafter(LIMITS.sigma[0], 0.0), np.nextafter(LIMITS.sigma[1], math.inf),
              1e300, math.nan, math.inf],
)
def test_sigma_outside_limits_rejected(sigma):
    bad = MixtureModel(2, [ManifoldComponent(1, [0.0], GaussianDiag([sigma]))], [1.0])
    with pytest.raises(ModelError, match="sigma must be in"):
        validate_model(bad)


def test_nonpositive_sigma_message():
    bad = MixtureModel(2, [ManifoldComponent(1, [0.0], GaussianDiag([0.0]))], [1.0])
    with pytest.raises(ModelError, match=r"sigma must be in \[1e-150, 1e\+150\], got 0.0"):
        validate_model(bad)


@pytest.mark.parametrize(
    "density", [{"type": "gaussian", "sigmas": [1.0]}, None, "box"],
    ids=["dict", "none", "string"],
)
def test_density_of_no_known_kind_rejected(density):
    bad = MixtureModel(2, [ManifoldComponent(1, [0.0], density)], [1.0])
    with pytest.raises(ModelError, match="unknown density spec"):
        validate_model(bad)


def test_improper_density_cannot_mix_with_proper():
    bad = MixtureModel(
        2,
        [
            ManifoldComponent(1, [0.0], ConstantOne()),
            ManifoldComponent(1, [1.0], GaussianDiag([1.0])),
        ],
        [0.5, 0.5],
    )
    with pytest.raises(ModelError, match="improper"):
        validate_model(bad)


def test_all_improper_mixture_allowed():
    m = validate_model(
        MixtureModel(
            2,
            [
                ManifoldComponent(1, [0.0], ConstantOne()),
                ManifoldComponent(1, [1.0], ConstantOne()),
            ],
            [0.5, 0.5],
        )
    )
    assert len(m.components) == 2


def test_point_mass_components_allowed():
    m = validate_model(
        MixtureModel(
            1,
            [
                ManifoldComponent(0, [1.0], ConstantOne()),
                ManifoldComponent(1, [], UniformBox([(-0.4, 0.4)])),
            ],
            [0.5, 0.5],
        )
    )
    assert m.components[0].dim == 0


# ---------------------------------------------------------------------------
# component_split
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("density", [
    GaussianDiag([1e-6, 0.7, 1e3]), UniformBox([(0.1, 0.85)] * 3), ConstantOne(),
], ids=["gaussian", "box", "constant"])
def test_axis_integrand_is_half_a_nat_down_one_scale_from_its_vertex(density):
    # the quadrature oracle's reach relies on log_f(u) = log_f(vertex) -
    # (u - vertex)^2 / (2 scale^2): one scale either side of the vertex it
    # is half a nat down, within the rounding of the terms and of the
    # nodes' positions
    ts = np.array([1e-12, 1e-6, 1e-3, 0.37, 1e3, 1e12])
    k = np.arange(ts.size)
    for j in range(3):
        for xj in (0.0, 0.31, -3.0, 1.27, 1e3):
            _, _, scale, vertex, log_f, _ = density.axis_integrand(j, ts, xj)
            top = log_f(vertex, k)
            rounding = 1e-14 * (1.0 + np.abs(top) + np.abs(vertex) / scale)
            for u in (vertex - scale, vertex + scale):
                assert np.all(np.abs(log_f(u, k) - top + 0.5) <= rounding), (j, xj)


def test_split_on_manifold_point():
    comp = ManifoldComponent(1, [0.0, 1.0], GaussianDiag([1.0]))
    x, y = component_split(comp, (2.0, 0.0, 1.0))
    assert x.tolist() == [2.0]
    assert y.tolist() == [0.0, 0.0]


def test_split_point_mass():
    comp = ManifoldComponent(0, [0.0], ConstantOne())
    x, y = component_split(comp, (0.5,))
    assert x.size == 0
    assert y.tolist() == [0.5]


def test_split_full_dimensional():
    comp = ManifoldComponent(2, [], GaussianDiag([1.0, 1.0]))
    x, y = component_split(comp, (1.0, 2.0))
    assert x.tolist() == [1.0, 2.0]
    assert y.size == 0


def test_split_reassembles():
    rng = np.random.default_rng(11)
    for _ in range(50):
        D = int(rng.integers(1, 6))
        d = int(rng.integers(0, D + 1))
        offset = rng.standard_normal(D - d)
        comp = ManifoldComponent(d, offset, GaussianDiag([1.0] * d) if d else ConstantOne())
        z = rng.standard_normal(D)
        x, y = component_split(comp, z)
        rebuilt = np.concatenate([x, y + offset])
        # x passes through untouched; the offset round-trip costs at most
        # one rounding step at the scale of max(|z|, |offset|)
        assert np.array_equal(rebuilt[:d], z[:d])
        scale = np.maximum(np.abs(z[d:]), np.abs(offset)) if d < D else 1.0
        assert np.all(np.abs(rebuilt[d:] - z[d:]) <= 4e-16 * scale)


def test_split_reassembles_exactly_for_zero_offset():
    comp = ManifoldComponent(1, [0.0, 0.0], GaussianDiag([1.0]))
    z = np.array([0.371, -2.25, 0.125])
    x, y = component_split(comp, z)
    assert np.array_equal(np.concatenate([x, y]), z)


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------

GOOD_CONFIG = {
    "ambient_dim": 2,
    "weights": [0.5, 0.5],
    "components": [
        {"dim": 1, "offset": [0.0], "density": {"type": "gaussian", "sigmas": [1.0]}},
        {"dim": 1, "offset": [1.0], "density": {"type": "box", "bounds": [[0, 1]]}},
    ],
}


def test_json_round_trip():
    m = model_from_json(json.dumps(GOOD_CONFIG))
    again = model_from_json(model_to_json(m))
    assert model_to_dict(again) == model_to_dict(m)


def test_json_weights_band_rejects_real_errors():
    cfg = dict(GOOD_CONFIG, weights=[0.5, 0.4])
    with pytest.raises(ModelError, match="weight sum must be within 1e-06 of 1"):
        model_from_json(json.dumps(cfg))


def test_json_weights_band_tolerates_roundoff():
    cfg = dict(GOOD_CONFIG, weights=[0.5, 0.5 + 5e-7])
    m = model_from_json(json.dumps(cfg))
    assert math.fsum(m.weights) == pytest.approx(1.0, abs=1e-12)


def test_json_point_component():
    cfg = {
        "ambient_dim": 1,
        "weights": [1.0],
        "components": [{"dim": 0, "offset": [0.5], "density": {"type": "point"}}],
    }
    m = model_from_json(json.dumps(cfg))
    assert m.components[0].dim == 0
    assert model_to_dict(m)["components"][0]["density"] == {"type": "point"}


def test_json_point_density_requires_dim_zero():
    cfg = {
        "ambient_dim": 2,
        "weights": [1.0],
        "components": [{"dim": 1, "offset": [0.0], "density": {"type": "point"}}],
    }
    with pytest.raises(ModelError, match="density of a dim-1 component must be given"):
        model_from_json(json.dumps(cfg))


@pytest.mark.parametrize(
    "density", [ConstantOne(), GaussianDiag([1.0]), UniformBox([]), PointMass()],
    ids=["constant", "gaussian", "box", "point"],
)
def test_dim_zero_component_holds_a_point_mass(density):
    comp = ManifoldComponent(0, [1.0], density)
    assert comp.density == PointMass()
    assert not comp.density.improper and comp.density.dim == 0
    assert comp.density.to_dict() == {"type": "point"}
    # a component with axes keeps the density it is given
    assert ManifoldComponent(1, [], density).density is density


def test_point_mass_on_a_component_with_axes_rejected():
    bad = MixtureModel(2, [ManifoldComponent(1, [0.0], PointMass())], [1.0])
    with pytest.raises(ModelError, match="density of a dim-1 component must be given"):
        validate_model(bad)


def test_json_malformed():
    with pytest.raises(ModelError, match="invalid JSON"):
        model_from_json("{not json")


def _first_component_with(**fields):
    first, second = GOOD_CONFIG["components"]
    return dict(GOOD_CONFIG, components=[dict(first, **fields), second])


@pytest.mark.parametrize(
    "cfg",
    [
        pytest.param(_first_component_with(offset=5), id="offset-number"),
        pytest.param(_first_component_with(offset=None), id="offset-null"),
        pytest.param(_first_component_with(offset=["x"]), id="offset-string-entry"),
        pytest.param(_first_component_with(offset="1"), id="offset-string"),
        pytest.param(_first_component_with(dim=1.5), id="dim-fractional"),
        pytest.param(_first_component_with(dim=True), id="dim-bool"),
        pytest.param(dict(GOOD_CONFIG, ambient_dim=2.7), id="ambient-dim-fractional"),
        pytest.param(dict(GOOD_CONFIG, weights=[0.5, "0.5"]), id="weight-string"),
        pytest.param(
            _first_component_with(density={"type": "gaussian", "sigmas": "1"}),
            id="sigmas-string",
        ),
    ],
)
def test_json_malformed_fields_rejected(cfg):
    # each used to crash with a TypeError, or to be coerced or truncated
    with pytest.raises(ModelError):
        model_from_json(json.dumps(cfg))


def test_json_whole_float_dimensions_accepted():
    cfg = dict(_first_component_with(dim=1.0), ambient_dim=2.0)
    m = model_from_json(json.dumps(cfg))
    assert m.ambient_dim == 2 and m.components[0].dim == 1



@pytest.mark.parametrize(
    "ambient_dim, dim",
    [
        pytest.param(2.7, 1, id="ambient-dim-fractional"),
        pytest.param(2, 1.5, id="dim-fractional"),
        pytest.param(True, 1, id="ambient-dim-bool"),
        pytest.param(2, True, id="dim-bool"),
        pytest.param("2", 1, id="ambient-dim-string"),
        pytest.param(2, "1", id="dim-string"),
    ],
)
def test_constructors_reject_non_whole_dimensions(ambient_dim, dim):
    # int() used to truncate or coerce these: 2.7 -> 2, 1.5 -> 1, "2" -> 2
    with pytest.raises(ValueError, match="whole number|must be a number"):
        MixtureModel(
            ambient_dim, [ManifoldComponent(dim, [0.0], GaussianDiag([1.0]))], [1.0]
        )


def test_constructors_store_whole_float_dimensions_as_int():
    comp = ManifoldComponent(1.0, [0.0], GaussianDiag([1.0]))
    m = validate_model(MixtureModel(2.0, [comp], [1.0]))
    assert type(m.ambient_dim) is int and m.ambient_dim == 2
    assert type(m.components[0].dim) is int and m.components[0].dim == 1


@pytest.mark.parametrize(
    "z",
    [
        pytest.param([0.0, [0.0, 0.0]], id="ragged-point"),
        pytest.param([[0.0, 0.0], [0.0, 0.0, 0.0]], id="ragged-block"),
        pytest.param(["a", 0.0], id="not-a-number"),
    ],
)
def test_point_coercion_rejects_ragged_input_as_a_model_error(z):
    for coerce in (as_point, as_points):
        with pytest.raises(ModelError, match="rectangular block of numbers"):
            coerce(z, 2)


@pytest.mark.parametrize(
    "refuse,name",
    [
        pytest.param(lambda: McSettings(samples=1.5), "samples", id="samples-fractional"),
        pytest.param(lambda: whole_number("x", "dim"), "dim", id="whole-number-string"),
        pytest.param(lambda: as_times([[1.0]]), "times", id="times-2d"),
        pytest.param(lambda: TimeGrid.centered(1e-3, 7, 1e308), "grid size",
                     id="grid-count-inf"),
        pytest.param(lambda: TimeGrid.centered(1e-3, 10**400), "per_decade",
                     id="per-decade-past-double"),
        pytest.param(lambda: rho_monte_carlo(parallel_planes(), 1.0, (0.0, 0.0),
                                             McSettings(samples=10)),
                     "improper constant density", id="monte-carlo-constant"),
    ],
)
def test_every_refused_input_is_a_model_error(refuse, name):
    # one type means "refused", so a caller needs one handler: the CLI maps
    # it to exit 2
    with pytest.raises(ModelError, match=name):
        refuse()
