"""Output bytes: curve CSV and SVG line plots against per-value loops.

``curve_csv_text`` formats each distinct double once and ``line_plot``
scales and formats each series in one numpy pass.  The references below
format every cell and every point in a Python loop, as the package once
did; the package must write the same bytes.
"""

import math

import numpy as np
import pytest

from exactlid import TimeGrid, bias_curve, cli
from exactlid.analytic import MixtureSlopes
from exactlid.estimator import BetaCurve
from exactlid.output import coords_text, curve_csv_text, format_number
from exactlid.svgplot import (HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T,
                              WIDTH, _PALETTE, _fmt_tick,
                              _text, _ticks, line_plot)


# ---------------------------------------------------------------------------
# curve CSV
# ---------------------------------------------------------------------------

def loop_curve_csv_text(curve):
    """Every value cell through ``repr`` of its float, row by row."""
    s = curve.slopes
    header = ["t", "sqrt_t", "x_coords", "log_rho", "beta", "bias", "diverged"]
    header += [f"w_{i}" for i in range(s.responsibilities.shape[-1])]
    t = curve.t.tolist()
    n_points = s.log_rho.size // len(t)
    times = [format_number(v) + "," + format_number(math.sqrt(v)) for v in t]
    coords = [
        coords_text(p) for p in np.reshape(curve.point, (n_points, -1)).tolist()
    ]
    rows = zip(
        times * n_points,
        (c for c in coords for _ in t),
        map(repr, s.log_rho.ravel().tolist()),
        map(repr, s.beta.ravel().tolist()),
        map(repr, s.bias.ravel().tolist()),
        ("true" if d else "false" for d in s.diverged.ravel().tolist()),
        (
            repr(w)[1:-1].replace(", ", ",")
            for w in s.responsibilities.reshape(s.log_rho.size, -1).tolist()
        ),
    )
    return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"


# NaNs of either sign and with a payload: each bit pattern prints "nan"
_NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001],
                 dtype=np.uint64).view(np.float64)
SPECIALS = np.concatenate([
    [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e16, 1e-05, 0.1, 1.0,
     -2.5, 1e308, 2.0**-1074 * 3, 123456789.12345678],
    _NANS,
])


def synthetic_curve(n_points, n_times, k, values):
    """A curve whose value cells hold ``values`` in a seeded order, repeated
    as often as the cells need: one point (1-D columns) or a block of
    ``n_points``."""
    rng = np.random.default_rng(n_points * 1000 + n_times * 10 + k)
    shape = (n_points, n_times) if n_points > 1 else (n_times,)
    n_rows = n_points * n_times
    cells = rng.permutation(np.resize(values, n_rows * (3 + k))).reshape(3 + k, n_rows)
    slopes = MixtureSlopes(
        d_ref=1, log_rho=cells[0].reshape(shape), beta=cells[1].reshape(shape),
        bias=cells[2].reshape(shape), diverged=rng.random(shape) < 0.3,
        responsibilities=cells[3:].T.reshape(shape + (k,)),
    )
    t = np.sort(rng.uniform(1e-6, 10.0, n_times))
    points = rng.normal(size=(n_points, 2))
    point = (tuple(points[0].tolist()) if n_points == 1
             else tuple(map(tuple, points.tolist())))
    return BetaCurve(point, t, slopes)


@pytest.mark.parametrize("k", [1, 16])
@pytest.mark.parametrize("n_points", [1, 7])
@pytest.mark.parametrize("kind", ["repeated", "distinct"])
def test_curve_csv_equals_the_per_cell_loop(k, n_points, kind):
    if kind == "repeated":  # the specials over and over
        values = SPECIALS
    else:  # every cell its own bit pattern, the specials among them
        values = np.concatenate(
            [SPECIALS, np.random.default_rng(1).normal(size=20_000) * 1e3]
        )
    curve = synthetic_curve(n_points, 9, k, values)
    text = curve_csv_text(curve)
    assert text == loop_curve_csv_text(curve)
    cells = [row.split(",")[3:] for row in text.splitlines()[1:]]
    values = [c for row in cells for c in row[:3] + row[4:]]
    for special in ("0.0", "-0.0", "nan", "inf", "-inf", "5e-324", "1e+16", "1e-05"):
        assert special in values
    if kind == "repeated":
        assert len(values) > len(set(values))
    else:  # the three NaN patterns print alike
        assert len(set(values)) == len(values) - 2


def test_curve_csv_of_one_row_equals_the_per_cell_loop():
    curve = synthetic_curve(1, 1, 1, np.array([-0.0]))
    assert curve_csv_text(curve) == loop_curve_csv_text(curve)


@pytest.mark.parametrize("name", sorted(cli.FIGURES))
def test_figure_curve_csv_equals_the_per_cell_loop(name):
    build_model, points, times, d_ref, _ = cli.FIGURES[name]
    curve = bias_curve(build_model(), points, TimeGrid(times), d_ref=d_ref)
    assert curve_csv_text(curve) == loop_curve_csv_text(curve)


def test_wide_mixture_curve_csv_equals_the_per_cell_loop(wide_mixture):
    model, points = wide_mixture
    curve = bias_curve(model, points, TimeGrid.log_spaced(1e-4, 10.0, 4))
    assert curve_csv_text(curve) == loop_curve_csv_text(curve)


# ---------------------------------------------------------------------------
# SVG line plots
# ---------------------------------------------------------------------------

def loop_line_plot_text(series, *, title, x_label, y_label, x_log=False,
                        y_lim=None):
    """``line_plot``'s text with the points filtered, bounded, scaled and
    formatted one at a time in Python floats."""

    def finite_pairs(xs, ys):
        pts = []
        for x, y in zip(xs, ys):
            if not (math.isfinite(x) and math.isfinite(y)):
                continue
            if x_log and x <= 0:
                continue
            pts.append((math.log10(x) if x_log else x, y))
        return pts

    all_pts = [finite_pairs(xs, ys) for _, xs, ys in series]
    if y_lim is not None:
        all_pts = [
            [p for p in pts if y_lim[0] <= p[1] <= y_lim[1]] for pts in all_pts
        ]
    flat = [p for pts in all_pts for p in pts]
    if flat:
        x_lo = min(p[0] for p in flat)
        x_hi = max(p[0] for p in flat)
        y_lo = min(p[1] for p in flat)
        y_hi = max(p[1] for p in flat)
    else:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
    if y_lim is not None:
        y_lo, y_hi = y_lim
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    if y_lim is None:
        pad = 0.05 * (y_hi - y_lo)
        y_lo -= pad
        y_hi += pad
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
        _text(f"{WIDTH / 2:.1f}", 24, 16, title, "middle"),
    ]
    for tick in _ticks(x_lo, x_hi, x_log):
        if not x_lo <= tick <= x_hi:
            continue
        px = sx(tick)
        parts.append(
            f'<line x1="{px:.1f}" y1="{MARGIN_T + plot_h}" x2="{px:.1f}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="#333"/>'
        )
        parts.append(_text(f"{px:.1f}", MARGIN_T + plot_h + 20, 11,
                           _fmt_tick(tick, x_log), "middle"))
    for tick in _ticks(y_lo, y_hi, False):
        if not y_lo <= tick <= y_hi:
            continue
        py = sy(tick)
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{py:.1f}" x2="{MARGIN_L}" '
            f'y2="{py:.1f}" stroke="#333"/>'
        )
        parts.append(_text(MARGIN_L - 8, f"{py + 4:.1f}", 11,
                           _fmt_tick(tick, False), "end"))
    cy = f"{MARGIN_T + plot_h / 2:.1f}"
    parts += [
        _text(f"{MARGIN_L + plot_w / 2:.1f}", HEIGHT - 12, 13, x_label, "middle"),
        _text(18, cy, 13, y_label, "middle", f' transform="rotate(-90 18 {cy})"'),
    ]
    for i, ((label, _, _), pts) in enumerate(zip(series, all_pts)):
        color = _PALETTE[i % len(_PALETTE)]
        if pts:
            coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        ly = MARGIN_T + 16 + 16 * i
        parts.append(
            f'<line x1="{MARGIN_L + plot_w - 150}" y1="{ly - 4}" '
            f'x2="{MARGIN_L + plot_w - 125}" y2="{ly - 4}" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        parts.append(_text(MARGIN_L + plot_w - 120, ly, 11, label))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def assert_line_plot_equals_the_loop(tmp_path, series, **kwargs):
    out = tmp_path / "plot.svg"
    line_plot(out, series, title="plot", x_label="x", y_label="y", **kwargs)
    want = loop_line_plot_text(series, title="plot", x_label="x", y_label="y",
                               **kwargs)
    assert out.read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize("name", sorted(cli.FIGURES))
def test_figure_line_plot_equals_the_point_loop(tmp_path, monkeypatch, name):
    # the series and options each built-in figure hands to line_plot
    calls = []
    monkeypatch.setattr(cli, "line_plot", lambda *a, **kw: calls.append((a, kw)))
    build_model, points, times, d_ref, plot = cli.FIGURES[name]
    model = build_model()
    plot("unused.svg", name, model,
         bias_curve(model, points, TimeGrid(times), d_ref=d_ref))
    (_, series), kwargs = calls[0]
    kwargs = {k: v for k, v in kwargs.items() if k in ("x_log", "y_lim")}
    assert_line_plot_equals_the_loop(tmp_path, series, **kwargs)


def test_beta_curve_line_plot_equals_the_point_loop(tmp_path, monkeypatch,
                                                    wide_mixture):
    # a log t axis with diverged (inf) rows and many series
    calls = []
    monkeypatch.setattr(cli, "line_plot", lambda *a, **kw: calls.append((a, kw)))
    model, points = wide_mixture
    cli._plot_against_t("unused.svg", "wide", model,
                        bias_curve(model, points, TimeGrid.log_spaced(1e-4, 10.0, 4)))
    (_, series), kwargs = calls[0]
    assert_line_plot_equals_the_loop(tmp_path, series, x_log=True)


XS = [1e-3, 2e-3, 1e-2, 0.05, 0.1, 1.0, 10.0, 0.0, -1.0, math.nan, math.inf]


@pytest.mark.parametrize(
    "series, kwargs",
    [
        # a log axis drops x <= 0 and the non-finite pairs
        ([("a", XS, [0.25 * k - 1.0 for k in range(len(XS))])], {"x_log": True}),
        # y_lim drops points outside the window, and a series it empties
        # draws no polyline
        ([("a", XS, [0.5 * k - 2.0 for k in range(len(XS))]),
          ("b", XS, [10.0 + k for k in range(len(XS))])],
         {"x_log": True, "y_lim": (-1.0, 2.0)}),
        # -0.0 bounds: Python's min and max keep the first of equal zeros
        ([("a", [-0.0, 0.0, 1.0, 2.0], [0.0, -0.0, -0.0, 0.0]),
          ("b", [0.0, -0.0, -1.0], [-0.0, 0.0, -3.0])], {}),
        ([("a", [0.0, -0.0, -2.0], [-0.0, -3.0, 0.0])], {"y_lim": (-0.0, 1.0)}),
        # one point per axis value, widened to a unit span
        ([("a", [2.0, 2.0], [3.0, 3.0])], {}),
        # no finite point at all, and no series
        ([("a", [math.nan], [1.0])], {}),
        ([], {}),
        # integer input, and a span near the float range
        ([("a", [1, 2, 3], [4, 5, 7])], {}),
        ([("a", [-8e307, 8e307], [8e307, -8e307])], {}),
        # axes too narrow for a tick step take one tick at their low end:
        # a quarter of the y span rounds to 0, the power of ten below a
        # quarter of the x span does, and a step of 0.5 is below half an
        # ulp of 1e16
        ([("a", [0.0, 1.0], [0.0, 5e-324])], {}),
        ([("a", [0.0, 2e-323], [0.0, 1.0])], {}),
        ([("a", [1e16, 1e16 + 2.0], [0.0, 1.0])], {}),
    ],
    ids=["log-axis", "y-lim", "signed-zero-bounds", "signed-zero-y-lim",
         "one-value", "no-finite-point", "no-series", "ints", "huge-span",
         "subnormal-y-span", "subnormal-x-span", "step-below-half-ulp"],
)
def test_line_plot_equals_the_point_loop(tmp_path, series, kwargs):
    assert_line_plot_equals_the_loop(tmp_path, series, **kwargs)
