"""Acceptance criteria.

Each test checks one numbered criterion at its stated tolerance and prints
one PASS/FAIL line (inline with -s, and in the end-of-run summary always).
"""

import csv
import math

import numpy as np
import pytest
from conftest import record_acceptance

from exactlid import (
    McSettings,
    TimeGrid,
    asymptotic_slope_pair,
    beta_fd_time,
    coefficient_bound,
    estimate_lid,
    lidl_fit,
    log_mixture_rho,
    mixture_beta_t,
    parallel_planes_beta,
    power_law_slope_pair,
    rho_monte_carlo,
    rho_quadrature,
)
from exactlid.catalog import (
    CATALOG,
    HEAT_SUITE_POINTS,
    box_plane,
    decade_grid,
    gaussian_line,
    intersecting_line_plane,
    parallel_planes,
    point_and_box,
    uniform_interval,
)
from exactlid.cli import PARABOLA_TIMES, main
from exactlid.verify import laplacian_suite


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    line = f"ACCEPTANCE {num:2d} {label}: {status}{suffix}"
    print(line)
    record_acceptance(line)


@pytest.fixture(scope="module")
def figure_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("figures")
    for name in ("parabola", "stairs", "uniform", "parallel"):
        code = main(
            [
                "figure", name,
                "--out-csv", str(base / f"{name}.csv"),
                "--out-svg", str(base / f"{name}.svg"),
            ]
        )
        assert code == 0
    return base


def load_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row["t"] = float(row["t"])
        row["beta"] = float(row["beta"])
        row["bias"] = float(row["bias"])
        row["x"] = float(row["x_coords"].split(";")[0])
        row["x3"] = float(row["x_coords"].split(";")[-1])
    return rows


def test_criterion_1_heat_equation_residual():
    times = (1e-4, 1e-2, 1.0, 10.0)
    worst = 0.0
    for name, build in CATALOG.items():
        model = build()
        for z in HEAT_SUITE_POINTS[name]:
            for t in times:
                fd = beta_fd_time(model, z, t)
                beta, _ = mixture_beta_t(model, t, z)
                err = abs(fd - beta.beta) / max(1.0, abs(beta.beta))
                worst = max(worst, err)
    ok = worst <= 1e-4
    report(1, "heat-equation residual", ok, f"max={worst:.3e} tol=1e-4")
    assert ok


def test_criterion_2_laplacian_oracle():
    results = laplacian_suite(tol=1e-4)
    names = {r.name for r in results}
    assert {"gaussian-1d", "gaussian-2d", "gaussian-3d",
            "box-1d", "box-2d", "box-3d", "constant"} <= names
    worst = max(r.max_error for r in results)
    ok = all(r.passed for r in results)
    report(2, "Laplacian vs finite differences", ok, f"max={worst:.3e} tol=1e-4")
    assert ok


def test_criterion_3_quadrature_equivalence():
    cases = []
    line = gaussian_line()
    for x in np.linspace(-3.0, 3.0, 401):
        for t in PARABOLA_TIMES:
            cases.append((line, t, (float(x), 0.0)))
    interval = uniform_interval()
    for x in np.linspace(-0.25, 1.25, 301):
        for t in PARABOLA_TIMES:
            cases.append((interval, t, (float(x), 0.0)))
    planes = parallel_planes()
    for t in decade_grid(-3, 2, 10):
        cases.append((planes, t, (0.0, 0.0)))
    worst = 0.0
    for model, t, z in cases:
        quad = rho_quadrature(model, t, z).log_rho
        exact = log_mixture_rho(model, t, z)
        worst = max(worst, abs(quad - exact))
    ok = worst <= 1e-7
    report(3, "quadrature equivalence", ok, f"max={worst:.3e} tol=1e-7 n={len(cases)}")
    assert ok


def _bracketed_roots(xs, ys):
    """Sign-change roots refined by a quadratic through the bracketing triple
    (the bias is polynomial in x there, so this is essentially exact)."""
    roots = []
    for i in range(1, len(xs)):
        if ys[i - 1] == 0.0:
            roots.append(xs[i - 1])
            continue
        if ys[i - 1] * ys[i] < 0.0:
            j = max(1, min(i, len(xs) - 2))
            coeffs = np.polyfit(xs[j - 1 : j + 2], ys[j - 1 : j + 2], 2)
            for r in np.roots(coeffs):
                if abs(r.imag) < 1e-12 and xs[i - 1] - 1e-9 <= r.real <= xs[i] + 1e-9:
                    roots.append(float(r.real))
    return roots


def test_criterion_4_figure_parabola(figure_dir):
    rows = load_rows(figure_dir / "parabola.csv")
    at = next(r for r in rows if r["x"] == 0.0 and r["t"] == 1e-2)
    bias_ok = abs(at["bias"] - (-9.90099e-3)) <= 1e-8

    roots_ok = True
    detail = []
    for t in PARABOLA_TIMES:
        series = sorted(
            ((r["x"], r["bias"]) for r in rows if r["t"] == t), key=lambda p: p[0]
        )
        xs = [p[0] for p in series]
        ys = [p[1] for p in series]
        roots = _bracketed_roots(xs, ys)
        target = math.sqrt(1.0 + t)
        pos = min((abs(r - target) for r in roots if r > 0), default=math.inf)
        neg = min((abs(r + target) for r in roots if r < 0), default=math.inf)
        detail.append(max(pos, neg))
        if max(pos, neg) > 1e-6:
            roots_ok = False
    ok = bias_ok and roots_ok
    report(
        4, "figure parabola", ok,
        f"bias(0,0.01)={at['bias']:.9e} worst-root-err={max(detail):.2e}",
    )
    assert ok


def test_criterion_5_figure_stairs(figure_dir):
    rows = load_rows(figure_dir / "stairs.csv")

    def estimate(x3, t):
        row = next(
            r for r in rows
            if r["x3"] == x3 and math.isclose(r["t"], t, rel_tol=1e-9)
        )
        return 3.0 + row["beta"]

    e1 = estimate(0.0, 1e-9)
    e2 = estimate(2e-6, 1e-12)
    e3 = estimate(0.0, 1e-15)
    ok = 1.99 <= e1 <= 2.01 and abs(e2 - 3.5) <= 1e-3 and abs(e3 - 3.0) <= 2e-3
    report(5, "figure stairs", ok, f"e(0,1e-9)={e1:.4f} e(2e-6,1e-12)={e2:.6f} e(0,1e-15)={e3:.6f}")
    assert ok


def test_criterion_6_figure_parallel(figure_dir):
    rows = load_rows(figure_dir / "parallel.csv")
    at_one = next(r for r in rows if r["t"] == 1.0)
    value_ok = abs(at_one["bias"] - 0.3775406688) <= 1e-9
    at_small = next(r for r in rows if math.isclose(r["t"], 1e-3, rel_tol=1e-12))
    suppression_ok = at_small["bias"] <= 1e-100

    worst_rel = 0.0
    for r in rows:
        closed = parallel_planes_beta(r["t"], 0.5, 1.0, -1.0)
        scale = max(abs(closed.bias), 1e-300)
        worst_rel = max(worst_rel, abs(r["bias"] - closed.bias) / scale)
    cross_ok = worst_rel <= 1e-12
    ok = value_ok and suppression_ok and cross_ok
    report(
        6, "figure parallel", ok,
        f"bias(1)={at_one['bias']:.10f} bias(1e-3)={at_small['bias']:.3e} "
        f"cross={worst_rel:.2e}",
    )
    assert ok


def test_criterion_7_figure_uniform(figure_dir):
    rows = load_rows(figure_dir / "uniform.csv")
    mid = [r for r in rows if r["x"] == 0.5]
    at = next(r for r in mid if r["t"] == 1e-2)
    value_ok = abs(at["bias"] - (-1.4868e-5)) <= 1e-9
    biases = {r["t"]: abs(r["bias"]) for r in mid}
    monotone_ok = biases[1e-2] > biases[1e-3] > biases[1e-4] or (
        biases[1e-2] > biases[1e-3] and biases[1e-4] == 0.0
    )
    ok = value_ok and monotone_ok
    report(
        7, "figure uniform", ok,
        f"bias(0.5,0.01)={at['bias']:.6e} tail={biases[1e-3]:.2e},{biases[1e-4]:.2e}",
    )
    assert ok


def test_criterion_8_lidl_regression():
    grid = TimeGrid.centered(1e-9)
    fits = {
        "line": estimate_lid(gaussian_line(), (0.0, 0.0), grid),
        "box-plane": estimate_lid(box_plane(), (0.5, 0.5, 0.0), grid),
        "intersecting": estimate_lid(
            intersecting_line_plane(), (0.0, 0.0, 0.0), grid
        ),
    }
    targets = {"line": 1.0, "box-plane": 2.0, "intersecting": 1.0}
    errs = {k: abs(fits[k].lid_estimate - targets[k]) for k in fits}
    recover_ok = all(e <= 0.01 for e in errs.values())

    # affine invariance of the slope under a constant log-density shift
    m = gaussian_line()
    samples = [
        (math.log(d), log_mixture_rho(m, t, (0.0, 0.0)))
        for t, d in zip(grid.values, grid.deltas)
    ]
    base = lidl_fit(samples, 2)
    shifted = lidl_fit([(x, y + 123.456) for x, y in samples], 2)
    shift_ok = abs(base.slope - shifted.slope) <= 1e-12
    ok = recover_ok and shift_ok
    report(
        8, "dimension recovery by regression", ok,
        "errs=" + ",".join(f"{k}:{v:.2e}" for k, v in errs.items())
        + f" shift={abs(base.slope - shifted.slope):.2e}",
    )
    assert ok


def test_criterion_9_slope_formulations_agree():
    ts = [10.0**-k for k in range(4, 13)]
    pairs = asymptotic_slope_pair(gaussian_line(), (0.0, 0.0), ts)
    c3, c4 = pairs[-1]
    gap_ok = abs(c3 - c4) <= 1e-3
    value_ok = abs(c3 + 0.5) <= 1e-3 and abs(c4 + 0.5) <= 1e-3
    synth = power_law_slope_pair(0.8, ts)
    synth_ok = all(c4s == -0.8 for _, c4s in synth)
    ok = gap_ok and value_ok and synth_ok
    report(
        9, "asymptotic slope equivalence", ok,
        f"cond3={c3:.6f} cond4={c4:.6f} gap={abs(c3 - c4):.2e}",
    )
    assert ok


def test_criterion_10_dominated_component_bound():
    model = point_and_box()
    bound_ok = True
    for t in (1.0, 0.3, 0.1, 0.03):
        _, w = mixture_beta_t(model, t, (0.0,))
        if w[0] > coefficient_bound(0.5, 0.5, 1.0, 1.0, 0.5, t):
            bound_ok = False
    ref = coefficient_bound(0.5, 0.5, 1.0, 1.0, 0.5, 0.1)
    value_ok = abs(ref - 0.022977) <= 1e-6
    _, w_small = mixture_beta_t(model, 0.01, (0.0,))
    tail_ok = w_small[0] <= 1e-15
    ok = bound_ok and value_ok and tail_ok
    report(
        10, "dominated-responsibility bound", ok,
        f"bound(0.1)={ref:.8f} w(0.01)={w_small[0]:.2e}",
    )
    assert ok


def test_criterion_11_monte_carlo_calibration(tmp_path):
    model = gaussian_line()
    exact = math.exp(log_mixture_rho(model, 0.1, (0.0, 0.0)))
    hits = 0
    for seed in range(50):
        est = rho_monte_carlo(
            model, 0.1, (0.0, 0.0), McSettings(samples=100_000, seed=seed)
        )
        # the linear test of the mean, from (log mean, se / mean)
        mean = math.exp(est.log_rho)
        if abs(mean - exact) <= 3.0 * est.log_error * mean:
            hits += 1
    coverage_ok = hits >= 47

    import json

    cfg = tmp_path / "line.json"
    cfg.write_text(json.dumps({
        "ambient_dim": 2,
        "weights": [1.0],
        "components": [
            {"dim": 1, "offset": [0.0],
             "density": {"type": "gaussian", "sigmas": [1.0]}}
        ],
    }))
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        code = main(
            ["lid", str(cfg), "--point", "0,0", "--t-center", "0.1",
             "--source", "monte_carlo", "--samples", "2e4", "--seed", "11",
             "--out", str(out)]
        )
        assert code == 0
        outs.append(out.read_bytes())
    bytes_ok = outs[0] == outs[1]
    ok = coverage_ok and bytes_ok
    report(
        11, "Monte Carlo calibration", ok,
        f"coverage={hits}/50 byte-identical={bytes_ok}",
    )
    assert ok
