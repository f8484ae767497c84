"""Command-line interface: exit codes, CSV schema, manifests, determinism."""

import csv
import gzip
import json
from pathlib import Path

import pytest

from exactlid.cli import main

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
    assert "not normalizable" in capsys.readouterr().err


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
        pytest.param(LID[:3] + ["0,0,0"] + LID[4:], 2, id="lid-point-wrong-dim"),
        pytest.param(LID[:3] + ["nan,0"] + LID[4:], 2, id="lid-point-nan"),
        pytest.param(LID + ["--per-decade", "0"], 2, id="lid-per-decade-zero"),
        pytest.param(LID + ["--out", "{tmp}/missing/fit.csv"], 2, id="lid-out-no-dir"),
        pytest.param(CURVE[:3] + ["0"] + CURVE[4:], 2, id="curve-point-wrong-dim"),
        pytest.param(CURVE[:7] + ["inf"] + CURVE[8:], 2, id="curve-t-max-inf"),
        pytest.param(
            ["figure", "parallel", "--out-csv", "{tmp}/missing/p.csv"], 2,
            id="figure-out-csv-no-dir",
        ),
        pytest.param(LID, 0, id="lid-ok"),
    ],
)
def test_exit_codes(gauss_line_config, tmp_path, capsys, argv, code):
    argv = [a.format(config=gauss_line_config, tmp=tmp_path) for a in argv]
    assert main(argv) == code
    if code:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

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
