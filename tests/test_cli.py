"""Command-line interface: exit codes, CSV schema, manifests, determinism."""

import csv
import gzip
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from exactlid import TimeGrid, bias_curve, estimator
from exactlid.catalog import point_and_box
from exactlid.cli import build_parser, main
from exactlid.model import LIMITS
from exactlid.output import curve_csv_text, format_number
from exactlid.svgplot import line_plot

TWO_PLANE_CONFIG = {
    "ambient_dim": 2,
    "weights": [0.5, 0.5],
    "components": [
        {"dim": 1, "offset": [0.0], "density": {"type": "constant"}},
        {"dim": 1, "offset": [1.0], "density": {"type": "constant"}},
    ],
}

GAUSS_LINE_CONFIG = {
    "ambient_dim": 2,
    "weights": [1.0],
    "components": [
        {"dim": 1, "offset": [0.0], "density": {"type": "gaussian", "sigmas": [1.0]}}
    ],
}


@pytest.fixture
def two_plane_config(tmp_path):
    path = tmp_path / "planes.json"
    path.write_text(json.dumps(TWO_PLANE_CONFIG))
    return str(path)


@pytest.fixture
def gauss_line_config(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(json.dumps(GAUSS_LINE_CONFIG))
    return str(path)


@pytest.fixture
def wide_box_config(tmp_path):
    # finite bounds whose width b - a overflows to inf
    path = tmp_path / "wide_box.json"
    component = dict(
        GAUSS_LINE_CONFIG["components"][0],
        density={"type": "box", "bounds": [[-1e308, 1e308]]},
    )
    path.write_text(json.dumps(dict(GAUSS_LINE_CONFIG, components=[component])))
    return str(path)


@pytest.fixture
def not_utf8_config(tmp_path):
    # a UTF-16 byte-order mark: the file cannot be decoded as UTF-8
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(GAUSS_LINE_CONFIG).encode("utf-16-le"))
    return str(path)


def line_config(tmp_path, sigma):
    """A Gaussian line config of the given sigma, written to a file."""
    path = tmp_path / f"line_{sigma!r}.json"
    component = dict(
        GAUSS_LINE_CONFIG["components"][0],
        density={"type": "gaussian", "sigmas": [sigma]},
    )
    path.write_text(json.dumps(dict(GAUSS_LINE_CONFIG, components=[component])))
    return str(path)


@pytest.fixture
def malformed_config(tmp_path):
    path = tmp_path / "malformed.json"
    component = dict(GAUSS_LINE_CONFIG["components"][0], offset=5)
    path.write_text(json.dumps(dict(GAUSS_LINE_CONFIG, components=[component])))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# describe
# ---------------------------------------------------------------------------

def test_describe_lists_components(two_plane_config, capsys):
    assert main(["describe", two_plane_config]) == 0
    out = capsys.readouterr().out
    assert "ambient_dim: 2" in out
    assert out.count("dim=1") == 2
    assert "constant" in out


@pytest.mark.parametrize(
    "component,line",
    [
        (
            {"dim": 0, "offset": [0.0, 2.0], "density": {"type": "point"}},
            "  [0] dim=0 |offset|=2.0 weight=1.0 density=point",
        ),
        (
            {"dim": 1, "offset": [0.0], "density": {"type": "constant"}},
            "  [0] dim=1 |offset|=0.0 weight=1.0 density=constant",
        ),
        (
            {"dim": 1, "offset": [0.5],
             "density": {"type": "gaussian", "sigmas": [1.5]}},
            "  [0] dim=1 |offset|=0.5 weight=1.0 density=gaussian(sigmas=[1.5])",
        ),
        (
            {"dim": 2, "offset": [],
             "density": {"type": "box", "bounds": [[0.0, 1.0], [-2.5, 3.0]]}},
            "  [0] dim=2 |offset|=0.0 weight=1.0 "
            "density=box(bounds=[[0.0, 1.0], [-2.5, 3.0]])",
        ),
    ],
)
def test_describe_density_line(tmp_path, capsys, component, line):
    path = tmp_path / "one.json"
    path.write_text(
        json.dumps({"ambient_dim": 2, "weights": [1.0], "components": [component]})
    )
    assert main(["describe", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[2] == line


def test_describe_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["describe", str(bad)]) == 2


def test_describe_unnormalizable_weights(tmp_path, capsys):
    cfg = dict(TWO_PLANE_CONFIG, weights=[0.5, 0.4])
    path = tmp_path / "w.json"
    path.write_text(json.dumps(cfg))
    assert main(["describe", str(path)]) == 2
    assert "weight sum must be within 1e-06 of 1, got 0.9" in capsys.readouterr().err


def test_describe_missing_file():
    assert main(["describe", "/nonexistent/config.json"]) == 2


# ---------------------------------------------------------------------------
# beta-curve
# ---------------------------------------------------------------------------

def test_beta_curve_parallel_setup(two_plane_config, tmp_path):
    out = tmp_path / "curve.csv"
    code = main(
        [
            "beta-curve", two_plane_config,
            "--point", "0,0",
            "--t-min", "1e-3", "--t-max", "1e2",
            "--per-decade", "10",
            "--d-ref", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out)
    assert rows[0].keys() == {
        "t", "sqrt_t", "x_coords", "log_rho", "beta", "bias", "diverged",
        "w_0", "w_1",
    }
    at_one = [r for r in rows if float(r["t"]) == 1.0]
    assert len(at_one) == 1
    assert float(at_one[0]["bias"]) == pytest.approx(0.3775406687981454, rel=1e-12)
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["command"] == "beta-curve"
    assert manifest["outputs"] == [str(out)]


def test_beta_curve_constant_density_zero_bias(tmp_path):
    cfg = {
        "ambient_dim": 2,
        "weights": [1.0],
        "components": [{"dim": 1, "offset": [0.0], "density": {"type": "constant"}}],
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "c.csv"
    assert main(
        ["beta-curve", str(path), "--point", "0.3,0",
         "--t-min", "1e-4", "--t-max", "1.0", "--out", str(out)]
    ) == 0
    assert all(float(r["bias"]) == 0.0 for r in read_csv(out))


def test_beta_curve_off_manifold_diverged_flag(gauss_line_config, tmp_path):
    out = tmp_path / "off.csv"
    assert main(
        ["beta-curve", gauss_line_config, "--point", "0,0.7",
         "--t-min", "1e-4", "--t-max", "1e-1", "--out", str(out)]
    ) == 0
    rows = read_csv(out)
    assert all(r["diverged"] == "true" for r in rows)
    # bias tracks |y|^2 / t as t decreases
    first, last = rows[-1], rows[0]
    assert float(first["bias"]) < float(last["bias"])
    assert float(last["bias"]) == pytest.approx(0.49 / float(last["t"]), rel=1e-2)


@pytest.mark.parametrize("point", ["1e200,0", "0,1e200", "1e200,1e200"])
def test_beta_curve_far_point_without_overflow_warnings(
    gauss_line_config, tmp_path, point
):
    # squared coordinates leave the double range; RuntimeWarnings are errors
    # under this suite's settings, so any overflow warning fails the command
    out = tmp_path / "far.csv"
    assert main(
        ["beta-curve", gauss_line_config, f"--point={point}",
         "--t-min", "1e-3", "--t-max", "1", "--per-decade", "2", "--out", str(out)]
    ) == 0
    rows = read_csv(out)
    assert len(rows) == 7
    for r in rows:
        assert (r["log_rho"], r["beta"], r["bias"], r["diverged"], r["w_0"]) == (
            "-inf", "inf", "inf", "true", "nan"
        )


def test_beta_curve_far_point_beside_a_near_one(gauss_line_config, tmp_path):
    # one block holds both points: the far row's masked branches must leak
    # no warning into the near row, whose values stay finite
    out = tmp_path / "pair.csv"
    assert main(
        ["beta-curve", gauss_line_config, "--point=0.5,0", "--point=1e200,0",
         "--t-min", "1e-3", "--t-max", "1", "--per-decade", "2", "--out", str(out)]
    ) == 0
    rows = read_csv(out)
    assert [r["x_coords"] for r in rows] == ["0.5;0.0"] * 7 + ["1e+200;0.0"] * 7
    assert all(r["diverged"] == "false" and r["w_0"] == "1.0" for r in rows[:7])
    assert all(r["log_rho"] == "-inf" and r["diverged"] == "true" for r in rows[7:])


def test_beta_curve_svg_has_one_polyline_per_point(gauss_line_config, tmp_path):
    outputs = []
    for run in ("a", "b"):
        out_csv, out_svg = tmp_path / f"{run}.csv", tmp_path / f"{run}.svg"
        assert main(
            ["beta-curve", gauss_line_config, "--point", "0,0", "--point", "0.5,0",
             "--t-min", "1e-3", "--t-max", "1", "--out", str(out_csv),
             "--out-svg", str(out_svg)]
        ) == 0
        root = ET.fromstring(out_svg.read_text())
        assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) == 2
        manifest = json.loads(Path(str(out_csv) + ".manifest.json").read_text())
        assert manifest["outputs"] == [str(out_csv), str(out_svg)]
        outputs.append((out_csv.read_bytes(), out_svg.read_bytes()))
    assert outputs[0] == outputs[1]


def test_line_plot_bytes_are_pinned(tmp_path):
    # plain float input, no model: the log axis drops the last two points
    # and y_lim the second series' first two, so every element kind shows
    xs = [1e-3, 2e-3, 1e-2, 0.05, 0.1, 1.0, 10.0, 0.0, math.nan]
    series = [
        ("x=0.5;0.0", xs, [0.25 * k - 1.0 for k in range(len(xs))]),
        ("x=1e-06;2.5", xs, [3.0 - 0.5 * k for k in range(len(xs))]),
    ]
    out = tmp_path / "pinned.svg"
    line_plot(out, series, x_log=True, y_lim=(-1.0, 2.0), title="pinned plot",
              x_label="t", y_label="bias")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "29b9c0dfd229331129f9c39c0d452a5f0ad3b4e9930c237747692d22b70b8c93"
    )


def test_beta_curve_bad_flags(gauss_line_config, tmp_path):
    out = tmp_path / "x.csv"
    assert main(
        ["beta-curve", gauss_line_config, "--point", "0,0",
         "--t-min", "1.0", "--t-max", "0.5", "--out", str(out)]
    ) == 2
    assert main(
        ["beta-curve", gauss_line_config,
         "--t-min", "1e-3", "--t-max", "1.0", "--out", str(out)]
    ) == 2


def test_beta_curve_spans_most_of_the_double_range(gauss_line_config, tmp_path):
    # t_max / t_min = 1e400 overflows; the grid size comes from two logs
    out = tmp_path / "wide.csv"
    assert main(
        ["beta-curve", gauss_line_config, "--point", "0.3,0",
         "--t-min", "1e-200", "--t-max", "1e200", "--per-decade", "1",
         "--out", str(out)]
    ) == 0
    assert len(read_csv(out)) == 401  # 400 decades x 1 per decade + 1


def test_beta_curve_up_to_the_largest_decade(gauss_line_config, tmp_path):
    # at t = 1e308 the kernel's 2 t would overflow; it is taken as
    # (|y|^2 / 2) / t, so no overflow warning fails the command
    out = tmp_path / "huge.csv"
    assert main(
        ["beta-curve", gauss_line_config, "--point=0.3,0",
         "--t-min", "1", "--t-max", "1e308", "--out", str(out)]
    ) == 0
    rows = read_csv(out)
    assert rows[-1]["t"] == "1e+308"
    assert all(math.isfinite(float(r["log_rho"])) for r in rows)


# ---------------------------------------------------------------------------
# figure
# ---------------------------------------------------------------------------

def test_figure_unknown_name(tmp_path):
    assert main(["figure", "spiral", "--out-csv", str(tmp_path / "x.csv")]) == 2


def test_figure_parallel_outputs(tmp_path):
    out_csv = tmp_path / "parallel.csv"
    out_svg = tmp_path / "parallel.svg"
    assert main(
        ["figure", "parallel", "--out-csv", str(out_csv), "--out-svg", str(out_svg)]
    ) == 0
    rows = read_csv(out_csv)
    assert len(rows) == 51  # 5 decades x 10 per decade + 1
    svg = out_svg.read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg
    manifest = json.loads(Path(str(out_csv) + ".manifest.json").read_text())
    assert str(out_svg) in manifest["outputs"]


def test_figure_deterministic_bytes(tmp_path):
    a_csv, a_svg = tmp_path / "a.csv", tmp_path / "a.svg"
    b_csv, b_svg = tmp_path / "b.csv", tmp_path / "b.svg"
    for csv_path, svg_path in ((a_csv, a_svg), (b_csv, b_svg)):
        assert main(
            ["figure", "stairs", "--out-csv", str(csv_path), "--out-svg", str(svg_path)]
        ) == 0
    assert a_csv.read_bytes() == b_csv.read_bytes()
    assert a_svg.read_bytes() == b_svg.read_bytes()


def test_figure_parabola_row_order(tmp_path):
    out_csv = tmp_path / "parabola.csv"
    out_svg = tmp_path / "parabola.svg"
    assert main(
        ["figure", "parabola", "--out-csv", str(out_csv), "--out-svg", str(out_svg)]
    ) == 0
    rows = read_csv(out_csv)
    assert len(rows) == 401 * 5
    # outer loop over points, inner over ascending t
    first_point = rows[0]["x_coords"]
    assert all(r["x_coords"] == first_point for r in rows[:5])
    ts = [float(r["t"]) for r in rows[:5]]
    assert ts == sorted(ts)


@pytest.mark.parametrize(
    "value, text",
    [
        (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (-0.0, "-0.0"),
        (0.0, "0.0"), (5e-324, "5e-324"), (0.1, "0.1"), (1e200, "1e+200"),
        (np.float64(-2.5), "-2.5"), (3, "3.0"),
    ],
)
def test_format_number_is_the_shortest_round_trip(value, text):
    assert format_number(value) == text
    assert float(format_number(value)) == value or math.isnan(value)


def test_curve_csv_of_a_block_is_the_single_point_rows():
    # a block curve writes each point's single-point rows, points in order
    m = point_and_box()
    points = [(0.0,), (1.0,), (2.5,), (-0.3,)]
    grid = TimeGrid([1e-3, 1e-2, 1.0])
    block = curve_csv_text(bias_curve(m, np.array(points), grid))
    singles = [curve_csv_text(bias_curve(m, z, grid)) for z in points]
    header = singles[0].split("\n", 1)[0]
    rows = [line for text in singles for line in text.splitlines()[1:]]
    assert block == "\n".join([header, *rows]) + "\n"


REFDATA = Path(__file__).resolve().parents[1] / "perfbench" / "refdata"
# Budgets against the stored figure CSVs, from the worst drift measured
# when the closed forms moved from per-time scalar math to numpy over the
# time grid: 6.4e-16 relative (a uniform-figure bias, 4 ulp) and 3.6e-15
# absolute on log_rho (stairs).  log_rho gets an absolute budget because it
# crosses 0.
FIGURE_RTOL = 1e-15
FIGURE_LOG_RHO_ATOL = 4e-15


@pytest.mark.parametrize("name", ["parabola", "stairs", "uniform", "parallel"])
def test_figure_matches_reference_csv(tmp_path, name):
    out_csv = tmp_path / f"{name}.csv"
    assert main(
        ["figure", name, "--out-csv", str(out_csv), "--out-svg", str(tmp_path / "f.svg")]
    ) == 0
    ref = gzip.decompress((REFDATA / f"figure_{name}.csv.gz").read_bytes()).decode()
    got_lines = out_csv.read_text().splitlines()
    ref_lines = ref.splitlines()
    assert got_lines[0] == ref_lines[0]
    assert len(got_lines) == len(ref_lines)
    header = ref_lines[0].split(",")
    for got_line, ref_line in zip(got_lines[1:], ref_lines[1:]):
        for col, g, r in zip(header, got_line.split(","), ref_line.split(",")):
            if col in ("x_coords", "diverged"):
                assert g == r, (col, ref_line)
            elif col == "log_rho":
                assert abs(float(g) - float(r)) <= FIGURE_LOG_RHO_ATOL, (col, g, r)
            else:
                g, r = float(g), float(r)
                assert g == r or abs(g - r) <= FIGURE_RTOL * abs(r), (col, g, r)


# ---------------------------------------------------------------------------
# lid
# ---------------------------------------------------------------------------

def test_lid_gaussian_line(gauss_line_config, capsys):
    assert main(
        ["lid", gauss_line_config, "--point", "0,0", "--t-center", "1e-8"]
    ) == 0
    out = capsys.readouterr().out
    lid = float(next(l for l in out.splitlines() if l.startswith("lid_estimate:")).split()[1])
    assert lid == pytest.approx(1.0, abs=0.01)


def test_lid_monte_carlo_band(gauss_line_config, tmp_path, capsys):
    out = tmp_path / "fit.json"
    assert main(
        ["lid", gauss_line_config, "--point", "0,0", "--t-center", "0.1",
         "--source", "monte_carlo", "--samples", "1e5", "--seed", "7",
         "--out", str(out)]
    ) == 0
    capsys.readouterr()
    assert main(
        ["lid", gauss_line_config, "--point", "0,0", "--t-center", "0.1"]
    ) == 0
    analytic = float(
        next(
            l for l in capsys.readouterr().out.splitlines()
            if l.startswith("lid_estimate:")
        ).split()[1]
    )
    payload = json.loads(out.read_text())
    assert payload["source"] == "monte_carlo"
    assert payload["lid_estimate"] == pytest.approx(analytic, abs=0.05)


def test_lid_off_manifold_warns_diverging(gauss_line_config, tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(
        ["lid", gauss_line_config, "--point=0,0.5", "--t-center", "1e-3",
         "--out", str(out)]
    ) == 0
    assert (
        "warning: estimate exceeds the ambient dimension "
        "(point appears to lie off every component)"
    ) in capsys.readouterr().out.splitlines()
    assert json.loads(out.read_text())["diverging"] is True


@pytest.mark.parametrize("point", ["0,1e200", "1e200,0"])
def test_lid_quadrature_far_point_fails_without_warnings(
    gauss_line_config, capsys, point
):
    # the squared normal displacement, or the integrand along the component,
    # leaves the double range; RuntimeWarnings are errors under this suite's
    # settings, so only a contained failure reaches the exit code
    assert main(
        ["lid", gauss_line_config, f"--point={point}", "--t-center", "1e-3",
         "--source", "quadrature"]
    ) == 3
    assert capsys.readouterr().err == (
        "numeric failure: log density not finite at t=0.00031622776601683794\n"
    )


@pytest.mark.parametrize("t_center", ["1e100", "1e200"])
def test_lid_quadrature_on_a_narrow_line_at_huge_t_fails_without_warnings(
    tmp_path, capsys, t_center
):
    # on a sigma = 1e-150 line the integrand's log is -inf on most panels of
    # these windows: such a panel holds no mass and must not force the
    # every-panel fallback, nor warn when its bound's slack adds inf to -inf
    argv = ["lid", line_config(tmp_path, 1e-150), "--point=0,0",
            "--t-center", t_center, "--source", "quadrature"]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(
        "numeric failure: log density not finite at t="
    )


def test_main_is_reentrant(gauss_line_config, tmp_path, monkeypatch, capsys):
    # one parser serves every call in a process: each command, run after
    # the others in this process, gives what it gives in a fresh one
    assert build_parser() is build_parser()
    commands = [
        ["lid", gauss_line_config, "--point=0.3,0", "--t-center", "1e-3",
         "--source", "quadrature", "--out", "a.json"],
        ["beta-curve", gauss_line_config, "--point=0.3,0", "--point=1,0",
         "--t-min", "1e-3", "--t-max", "1", "--out", "b.csv"],
        ["lid", gauss_line_config, "--point=0.3,0", "--t-center", "1e-3"],
    ]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(here)
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for argv in commands:
        code = main(argv)
        proc = subprocess.run(
            [sys.executable, "-m", "exactlid.cli", *argv],
            cwd=fresh, env=env, capture_output=True, text=True, timeout=300,
        )
        assert (code, capsys.readouterr().out) == (proc.returncode, proc.stdout)
    for name in ("a.json", "b.csv"):
        assert (here / name).read_bytes() == (fresh / name).read_bytes()


@pytest.mark.parametrize(
    "args",
    [
        # every density underflows, for either abscissa
        ["--point=0,1e200", "--t-center", "1", "--abscissa", "t"],
        ["--point=0,1e200", "--t-center", "1", "--abscissa", "delta"],
        # |y|^2 / 2t overflows: the kernel is -inf, without a warning
        ["--point=0,1e154", "--t-center", "1e-3"],
    ],
)
def test_lid_vanishing_density_is_a_numeric_failure(gauss_line_config, capsys, args):
    assert main(["lid", gauss_line_config, *args]) == 3
    assert capsys.readouterr().err.startswith(
        "numeric failure: log density not finite at t="
    )


@pytest.mark.parametrize("action", ["error", "ignore"])
def test_lid_overflowing_fit_is_a_numeric_failure(
    gauss_line_config, tmp_path, capsys, action
):
    # every log density is finite, near -1e308, but the regression's sums
    # overflow: exit 3 and no file, whether or not warnings are errors
    out = tmp_path / "fit.json"
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        assert main(
            ["lid", gauss_line_config, "--point=0,1.3e154", "--t-center", "0.9",
             "--decades", "0.01", "--out", str(out)]
        ) == 3
    assert capsys.readouterr().err.startswith("numeric failure: regression not finite")
    assert not out.exists()


def test_lid_abscissa_t_is_the_delta_fit_with_half_the_slope(
    gauss_line_config, tmp_path
):
    fits = {}
    for abscissa in ("delta", "t"):
        out = tmp_path / f"{abscissa}.json"
        assert main(
            ["lid", gauss_line_config, "--point=0.3,0.5", "--t-center", "1e-3",
             "--abscissa", abscissa, "--out", str(out)]
        ) == 0
        fits[abscissa] = json.loads(out.read_text())
    delta, t = fits["delta"], fits["t"]
    assert t["source"] == "analytic"
    assert t["slope"] == delta["slope"] / 2.0
    assert t["lid_estimate"] == 2 + delta["slope"] / 2.0
    for key in ("intercept", "residual_rms", "diverging"):
        assert t[key] == delta[key]
    assert delta["diverging"] is True


def test_lid_point_mass(tmp_path, capsys):
    cfg = {
        "ambient_dim": 1,
        "weights": [1.0],
        "components": [{"dim": 0, "offset": [0.0], "density": {"type": "point"}}],
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(cfg))
    assert main(["lid", str(path), "--point", "0", "--t-center", "1e-6"]) == 0
    out = capsys.readouterr().out
    lid = float(next(l for l in out.splitlines() if l.startswith("lid_estimate:")).split()[1])
    assert lid == pytest.approx(0.0, abs=1e-9)


def _describe_dim_one_component(tmp_path, capsys, **density) -> str:
    cfg = {
        "ambient_dim": 2,
        "weights": [1.0],
        "components": [{"dim": 1, "offset": [0.0], **density}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["describe", str(path)]) == 2
    return capsys.readouterr().err


DIM_ONE_POINT_REFUSAL = (
    "the density of a dim-1 component must be given, of type gaussian, box or constant"
)


def test_describe_rejects_a_point_density_on_a_component_with_axes(tmp_path, capsys):
    err = _describe_dim_one_component(tmp_path, capsys, density={"type": "point"})
    assert DIM_ONE_POINT_REFUSAL in err


def test_describe_names_a_left_out_density_on_a_component_with_axes(tmp_path, capsys):
    # a left-out density is a point mass, so the refusal names the kinds a
    # component with axes may have, not a point the config never wrote
    err = _describe_dim_one_component(tmp_path, capsys)
    assert DIM_ONE_POINT_REFUSAL in err


@pytest.mark.parametrize(
    "extra,work",
    [(["--per-decade", "100000000"], (np, "linspace")),
     (["--decades", "1e6"], (np, "linspace")),
     (["--source", "monte_carlo", "--samples", "1e30"], (estimator, "rho_monte_carlo"))],
    ids=["per-decade", "decades", "samples"],
)
def test_lid_refuses_oversized_work_before_starting_it(
    gauss_line_config, monkeypatch, capsys, extra, work
):
    # building the grid or running the sampler fails the test: the bound
    # must refuse the command first
    monkeypatch.setattr(*work, lambda *a, **k: pytest.fail("oversized work was started"))
    argv = ["lid", gauss_line_config, "--point=0,0", "--t-center", "1e-3", *extra]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_lid_abscissa_toggle_halves_slope(gauss_line_config, capsys):
    assert main(
        ["lid", gauss_line_config, "--point", "0,0", "--t-center", "1e-8"]
    ) == 0
    slope_delta = float(
        next(
            l for l in capsys.readouterr().out.splitlines() if l.startswith("slope:")
        ).split()[1]
    )
    assert main(
        ["lid", gauss_line_config, "--point", "0,0", "--t-center", "1e-8",
         "--abscissa", "t"]
    ) == 0
    slope_t = float(
        next(
            l for l in capsys.readouterr().out.splitlines() if l.startswith("slope:")
        ).split()[1]
    )
    assert slope_t == pytest.approx(slope_delta / 2.0, rel=1e-9)


def test_lid_csv_output_and_manifest(gauss_line_config, tmp_path):
    out = tmp_path / "fit.csv"
    assert main(
        ["lid", gauss_line_config, "--point", "0,0", "--t-center", "1e-8",
         "--out", str(out)]
    ) == 0
    rows = read_csv(out)
    assert len(rows) == 1
    assert rows[0]["source"] == "analytic"
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["seed"] == 0
    assert manifest["version"]


@pytest.mark.parametrize("point", ["0.3,0", "0.3,0.5"])
def test_lid_csv_json_and_stdout_hold_one_fit(
    gauss_line_config, tmp_path, capsys, point
):
    for ext in ("csv", "json"):
        assert main(
            ["lid", gauss_line_config, f"--point={point}", "--t-center", "1e-3",
             "--out", str(tmp_path / f"fit.{ext}")]
        ) == 0
    header, row = (tmp_path / "fit.csv").read_text().splitlines()
    assert header == "source,slope,intercept,lid_estimate,residual_rms,diverging"
    cells = dict(zip(header.split(","), row.split(",")))
    # stdout prints every column but diverging, in the CSV's order
    printed = capsys.readouterr().out.splitlines()
    assert printed[:5] == [f"{k}: {v}" for k, v in list(cells.items())[:5]]
    record = json.loads((tmp_path / "fit.json").read_text())
    assert cells.keys() == record.keys()
    assert cells.pop("source") == record.pop("source") == "analytic"
    assert cells.pop("diverging") == json.dumps(record.pop("diverging"))
    assert cells == {k: repr(v) for k, v in record.items()}


def test_lid_fixed_seed_reproduces_bytes(gauss_line_config, tmp_path):
    outs = []
    for name in ("m1.csv", "m2.csv"):
        out = tmp_path / name
        assert main(
            ["lid", gauss_line_config, "--point", "0,0", "--t-center", "0.1",
             "--source", "monte_carlo", "--samples", "2e4", "--seed", "7",
             "--out", str(out)]
        ) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_lid_quadrature_on_a_four_dimensional_component(tmp_path):
    # the quadrature oracle has no dimension cap: a dim-4 Gaussian in R^5
    config = tmp_path / "gauss4.json"
    config.write_text(json.dumps({
        "ambient_dim": 5,
        "weights": [1.0],
        "components": [{"dim": 4, "offset": [0.0], "density": {
            "type": "gaussian", "sigmas": [1.0, 0.5, 2.0, 0.1]}}],
    }))
    estimates = {}
    for source in ("analytic", "quadrature"):
        out = tmp_path / f"{source}.json"
        assert main(
            ["lid", str(config), "--point", "0.3,-0.2,1,0.05,0", "--t-center",
             "1e-3", "--source", source, "--out", str(out)]
        ) == 0
        estimates[source] = json.loads(out.read_text())["lid_estimate"]
    assert estimates["quadrature"] == pytest.approx(estimates["analytic"], abs=1e-9)


# ---------------------------------------------------------------------------
# exit codes for bad arguments
# ---------------------------------------------------------------------------

LID = ["lid", "{config}", "--point", "0,0", "--t-center", "0.1"]
CURVE = ["beta-curve", "{config}", "--point", "0,0", "--t-min", "1e-3",
         "--t-max", "1", "--out", "{tmp}/c.csv"]


@pytest.mark.parametrize(
    "argv,code",
    [
        pytest.param(LID[:5] + ["inf"], 2, id="lid-t-center-inf"),
        pytest.param(LID + ["--decades", "-1"], 2, id="lid-decades-negative"),
        pytest.param(LID + ["--samples", "0"], 2, id="lid-samples-zero"),
        pytest.param(LID + ["--source", "monte_carlo", "--samples", "1.5"], 2,
                     id="lid-samples-fractional"),
        pytest.param(LID[:3] + ["0,0,0"] + LID[4:], 2, id="lid-point-wrong-dim"),
        pytest.param(LID[:3] + ["nan,0"] + LID[4:], 2, id="lid-point-nan"),
        pytest.param(LID + ["--per-decade", "0"], 2, id="lid-per-decade-zero"),
        pytest.param(LID + ["--source", "monte_carlo", "--samples", "1000", "--seed", "-1"],
                     2, id="lid-seed-negative"),
        # 1000 times from 1e-503 to 1e497: powers past the float range
        pytest.param(LID + ["--per-decade", "1", "--decades", "1000"], 2,
                     id="lid-grid-overflows"),
        pytest.param(LID + ["--out", "{tmp}/missing/fit.csv"], 2, id="lid-out-no-dir"),
        pytest.param(["lid", "{planes}"] + LID[2:] + ["--source", "monte_carlo"], 2,
                     id="lid-monte-carlo-improper-density"),
        pytest.param(["describe", "{malformed}"], 2, id="describe-offset-not-a-list"),
        pytest.param(["describe", "{not_utf8}"], 2, id="describe-not-utf8"),
        pytest.param(["lid", "{wide_box}"] + LID[2:] + ["--source", "quadrature"], 2,
                     id="lid-quadrature-box-width-overflows"),
        pytest.param(["beta-curve", "{wide_box}"] + CURVE[2:], 2,
                     id="curve-box-width-overflows"),
        pytest.param(CURVE[:3] + ["0"] + CURVE[4:], 2, id="curve-point-wrong-dim"),
        pytest.param(CURVE[:7] + ["inf"] + CURVE[8:], 2, id="curve-t-max-inf"),
        pytest.param(CURVE[:5] + ["1", "--t-max", "1.7976931348623157e308",
                                  "--per-decade", "1"] + CURVE[8:], 2,
                     id="curve-grid-overflows"),
        pytest.param(CURVE + ["--d-ref", "99"], 2, id="curve-d-ref-above-ambient"),
        pytest.param(CURVE + ["--d-ref", "-5"], 2, id="curve-d-ref-negative"),
        pytest.param(["verify", "--tol", "nan"], 2, id="verify-tol-nan"),
        pytest.param(["verify", "--tol", "-1"], 2, id="verify-tol-negative"),
        pytest.param(["verify", "--tol", "inf"], 2, id="verify-tol-inf"),
        pytest.param(
            ["figure", "parallel", "--out-csv", "{tmp}/missing/p.csv"], 2,
            id="figure-out-csv-no-dir",
        ),
        pytest.param(LID, 0, id="lid-ok"),
    ],
)
def test_exit_codes(
    gauss_line_config, two_plane_config, malformed_config, wide_box_config,
    not_utf8_config, tmp_path, capsys, argv, code
):
    argv = [
        a.format(config=gauss_line_config, planes=two_plane_config,
                 malformed=malformed_config, wide_box=wide_box_config,
                 not_utf8=not_utf8_config, tmp=tmp_path)
        for a in argv
    ]
    assert main(argv) == code
    if code:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("decades", ["0", "-1", "nan", "inf"])
def test_lid_refuses_decades_by_name(gauss_line_config, capsys, decades):
    argv = [a.format(config=gauss_line_config) for a in LID]
    assert main(argv + [f"--decades={decades}"]) == 2
    assert "decades must be positive and finite" in capsys.readouterr().err


def test_lid_decades_floor(gauss_line_config, tmp_path, capsys):
    # below LIMITS.decades a unit line's lid drifts with the span (0.5225
    # to 7 digits at 1e-9, 0.5 at 1e-14, 2.0 at 1e-16): refused by name.
    # The floor itself is accepted, with the bits it had before the floor
    argv = ["lid", gauss_line_config, "--point=0.3,0", "--t-center", "1", "--decades"]
    out = tmp_path / "fit.json"
    assert main(argv + ["1e-9", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["lid_estimate"] == 0.5224998338945881
    below = repr(float(np.nextafter(LIMITS.decades, 0.0)))
    assert main(argv + [below]) == 2
    assert "decades must be at least 1e-09" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,named",
    [
        pytest.param(LID + ["--decades", "1e308"], "grid size must be at most",
                     id="lid-grid-count-inf"),
        pytest.param(LID + ["--per-decade", "1" + "0" * 400], "per_decade must be",
                     id="lid-per-decade-past-double"),
        pytest.param(LID + ["--abscissa", "t", "--source", "quadrature"],
                     "the source of --abscissa t must be analytic", id="lid-abscissa-t"),
        # two distinct times, 1.7 -+ 1 ulp, whose square roots are equal:
        # a span below LIMITS.decades
        pytest.param(LID[:5] + ["1.7", "--decades", "1e-16"], "decades must be at least 1e-09",
                     id="lid-grid-at-rounding-scale"),
        pytest.param(CURVE[:2] + CURVE[4:], "--point must be given", id="curve-no-point"),
        pytest.param(["figure", "spiral"], "figure name must be one of",
                     id="figure-unknown"),
        pytest.param(["verify", "--tol", "0"], "tol must be positive and finite",
                     id="verify-tol-zero"),
    ],
)
def test_refusals_exit_2_and_name_the_input(gauss_line_config, tmp_path, capsys,
                                            argv, named):
    # each is a ModelError from the library or a require in a command, which
    # main alone turns into exit 2
    argv = [a.format(config=gauss_line_config, tmp=tmp_path) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def test_beta_curve_past_variance_square_overflow(gauss_line_config, tmp_path):
    # past v = sigma^2 + t ~ 1.34e154, v * v overflows; the slope of a unit
    # line at an on-manifold point stays -2 (the ratio term -t/v survives)
    out = tmp_path / "c.csv"
    assert main(["beta-curve", gauss_line_config, "--point=0.3,0", "--t-min", "1e150",
                 "--t-max", "1e160", "--per-decade", "1", "--out", str(out)]) == 0
    assert [row["beta"] for row in read_csv(out)] == ["-2.0"] * 11


def test_far_point_on_a_wide_sigma(tmp_path, capsys):
    # x^2 and v^2 both overflow, but x^2 / v = 1e300: no inf / inf warning
    # (an error in this suite), and beta-curve reports the finite log
    # density (about -5e299) on rows that do not diverge.  Its change over
    # the grid is below that value's rounding, so lid's regression
    # overflows: a numeric failure
    config = line_config(tmp_path, 1e150)
    out = tmp_path / "c.csv"
    assert main(["beta-curve", config, "--point=1e300,0", "--t-min", "1e-3",
                 "--t-max", "1", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert {row["diverged"] for row in rows} == {"false"}
    assert all(float(row["log_rho"]) == pytest.approx(-5e299, rel=1e-15) for row in rows)
    assert main(["lid", config, "--point=1e300,0", "--t-center", "1e-3"]) == 3


SIGMA_COMMANDS = {
    "lid-analytic": ["lid", "{config}", "--point=0,0", "--t-center", "{t}"],
    "lid-monte-carlo": ["lid", "{config}", "--point=0,0", "--t-center", "{t}",
                        "--source", "monte_carlo", "--samples", "1e4"],
    "lid-quadrature": ["lid", "{config}", "--point=0,0", "--t-center", "{t}",
                       "--source", "quadrature"],
    "beta-curve": ["beta-curve", "{config}", "--point={x},0", "--t-min", "1e-3",
                   "--t-max", "1", "--out", "{tmp}/c.csv"],
}


def _sigma_argv(name, config, tmp_path, t="1e-3", x="0"):
    return [a.format(config=config, tmp=tmp_path, t=t, x=x) for a in SIGMA_COMMANDS[name]]


@pytest.mark.parametrize("command", ["lid-analytic", "lid-monte-carlo", "beta-curve"])
@pytest.mark.parametrize("sigma", [1e300, 1e-300])
def test_sigma_outside_limits_is_refused_by_name(tmp_path, capsys, sigma, command):
    # past about 1.3e154 sigma^2 overflows, and below about 1e-155 the
    # quadrature window fails: a sigma past either end of LIMITS.sigma
    # exits 2
    argv = _sigma_argv(command, line_config(tmp_path, sigma), tmp_path, x="1e300")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sigma must be in" in err


# at each end of LIMITS.sigma, a time at which 1e4 Monte Carlo draws
# resolve the density: sigma^2 at the top, where a draw lies ~1e150 from
# the point, and the usual 1e-3 at the bottom
SIGMA_EDGE_TIMES = {LIMITS.sigma[0]: "1e-3", LIMITS.sigma[1]: "1e300"}


@pytest.mark.parametrize(
    "command,codes",
    [("lid-analytic", {0}), ("lid-monte-carlo", {0}), ("lid-quadrature", {0, 3}),
     ("beta-curve", {0})],
)
@pytest.mark.parametrize("sigma", LIMITS.sigma, ids=["sigma-min", "sigma-max"])
def test_sigma_at_the_limits_is_accepted(tmp_path, sigma, command, codes):
    # runs under the suite's RuntimeWarning-as-error filter
    argv = _sigma_argv(command, line_config(tmp_path, sigma), tmp_path,
                       t=SIGMA_EDGE_TIMES[sigma])
    assert main(argv) in codes


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

NO_SCIPY_SCRIPT = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now fails
from exactlid.cli import main
assert main(["figure", "uniform", "--out-csv", "u.csv", "--out-svg", "u.svg"]) == 0
assert main(["verify", "--suite", "all"]) == 0
loaded = [m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod]
assert not loaded, loaded
"""


def test_commands_run_without_scipy(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", NO_SCIPY_SCRIPT],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "u.csv").stat().st_size > 0


def test_verify_all_passes(capsys):
    assert main(["verify", "--suite", "all"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite", "slopes"]) == 0
    out = capsys.readouterr().out
    assert "slopes/" in out
    assert "heat/" not in out


def test_verify_impossible_tolerance_fails(capsys):
    assert main(["verify", "--suite", "heat", "--tol", "1e-18"]) == 1
    assert "FAIL" in capsys.readouterr().out
