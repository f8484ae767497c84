"""Command-line front end.

Subcommands: ``describe`` (model summary), ``beta-curve`` (slope/bias CSV
over a time grid), ``figure`` (built-in figure reproduction as CSV + SVG),
``lid`` (dimension estimate at a point), and ``verify`` (oracle agreement
suites).  Exit codes: 0 success, 1 verification failure, 2 a refused input
(a ``ModelError``) or an unreadable or unwritable file, 3 runtime numeric
failure.  All configuration comes from flags and files; outputs are
byte-deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .catalog import (
    aniso_gaussian_3d,
    decade_grid,
    gaussian_line,
    parallel_planes,
    uniform_interval,
)
from .estimator import SOURCES, TimeGrid, bias_curve, estimate_lid
from .oracle import McSettings
from .model import ModelError, as_point, model_from_json, model_to_dict, require
from .output import (RunManifest, coords_text, curve_csv_text, format_number,
                     json_text, write_text)
from .svgplot import line_plot
from .verify import DEFAULT_TOLERANCES, SUITES, run_suites

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

PARABOLA_TIMES = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)

# the fields ``lid`` prints, and its CSV columns before ``diverging``
FIT_COLUMNS = ("source", "slope", "intercept", "lid_estimate", "residual_rms")


class CliError(Exception):
    """An unreadable or unwritable file, or --point text that is not numbers."""


@contextlib.contextmanager
def _usage_errors(what: str, *errors: type[Exception]):
    """Report ``errors`` raised while reading or writing a file as a usage
    error (exit code 2)."""
    try:
        yield
    except errors as exc:
        raise CliError(f"{what}: {exc}") from exc


def _load_model(path: str):
    with _usage_errors(f"cannot read config {path!r}", OSError, UnicodeDecodeError):
        text = Path(path).read_text(encoding="utf-8")
    return model_from_json(text)


def _parse_point(text: str, ambient_dim: int) -> tuple[float, ...]:
    try:
        coords = [float(part) for part in text.split(",")]
    except ValueError as exc:  # the text only: as_point refuses the numbers
        raise CliError(f"invalid point {text!r}: {exc}") from exc
    return tuple(as_point(coords, ambient_dim).tolist())


def _density_label(density: dict) -> str:
    # The config-schema entry as ``type(key=value, ...)``, or bare ``type``.
    params = ", ".join(f"{k}={v}" for k, v in density.items() if k != "type")
    return f"{density['type']}({params})" if params else density["type"]


def cmd_describe(args) -> int:
    model = _load_model(args.config)
    entries = model_to_dict(model)["components"]
    print(f"ambient_dim: {model.ambient_dim}")
    print(f"components: {len(model.components)}")
    for i, (comp, w) in enumerate(zip(model.components, model.weights)):
        print(
            f"  [{i}] dim={comp.dim} |offset|={format_number(comp.offset_norm)} "
            f"weight={format_number(w)} "
            f"density={_density_label(entries[i]['density'])}"
        )
    return EXIT_OK


def _plot_against_t(path, title, model, curve, dimension=False):
    """One series per point against t: the bias, or with ``dimension`` the
    dimension estimate ambient_dim + beta."""
    s = curve.slopes
    ys = model.ambient_dim + s.beta if dimension else s.bias
    t = curve.t.tolist()
    series = [
        ("x=" + coords_text(point), t, y) for point, y in zip(curve.point, ys.tolist())
    ]
    line_plot(path, series, x_log=True, title=title, x_label="t",
              y_label="dimension estimate" if dimension else "bias")


def _plot_against_x(path, title, model, curve, y_lim=None):
    """One series per time, the bias against the first coordinate;
    ``y_lim`` clips divergent outside-support tails."""
    xs = [point[0] for point in curve.point]
    series = [
        (f"t={format_number(t)}", xs, bias)
        for t, bias in zip(curve.t.tolist(), curve.slopes.bias.T.tolist())
    ]
    line_plot(path, series, y_lim=y_lim, title=title, x_label="x", y_label="bias")


def _write_manifest(command, model, grid_info, seed, outputs, started) -> None:
    """Write the run manifest beside the first of ``outputs``."""
    RunManifest(
        command=command,
        config=model_to_dict(model),
        grid=grid_info,
        seed=seed,
        outputs=outputs,
        duration_seconds=time.perf_counter() - started,
    ).write(outputs[0] + ".manifest.json")


def _write_curves(
    command, model, curve, grid_info, out_csv, out_svg, plot, title, started
) -> None:
    """Write the CSV of a block curve, the SVG when ``out_svg`` is set, and
    the manifest."""
    csv_text = curve_csv_text(curve)
    with _usage_errors("cannot write output", OSError):
        write_text(out_csv, csv_text)
        outputs = [out_csv]
        if out_svg:
            plot(out_svg, title, model, curve)
            outputs.append(out_svg)
        _write_manifest(command, model, grid_info, None, outputs, started)


def cmd_beta_curve(args) -> int:
    started = time.perf_counter()
    model = _load_model(args.config)
    require(args.point, "--point", "given at least once", args.point)
    points = [_parse_point(p, model.ambient_dim) for p in args.point]
    grid = TimeGrid.log_spaced(args.t_min, args.t_max, args.per_decade)
    curve = bias_curve(model, points, grid, d_ref=args.d_ref)
    grid_info = {
        "t_min": args.t_min,
        "t_max": args.t_max,
        "per_decade": args.per_decade,
        "points": [list(p) for p in points],
        "d_ref": args.d_ref,
    }
    _write_curves(
        "beta-curve", model, curve, grid_info, args.out, args.out_svg,
        _plot_against_t, "slope bias vs smoothing time", started,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Built-in figures: name -> (model builder, points, times, d_ref, plot)
# ---------------------------------------------------------------------------

def _on_first_axis(lo: float, hi: float, n: int) -> list[tuple[float, float]]:
    return [(float(x), 0.0) for x in np.linspace(lo, hi, n)]


FIGURES = {
    "parabola": (gaussian_line, _on_first_axis(-3.0, 3.0, 401), PARABOLA_TIMES, 1,
                 _plot_against_x),
    "stairs": (aniso_gaussian_3d, [(0.0, 0.0, 0.0), (0.0, 0.0, 1e-6), (0.0, 0.0, 2e-6)],
               decade_grid(-16, 2, 4), 3,
               functools.partial(_plot_against_t, dimension=True)),
    "uniform": (uniform_interval, _on_first_axis(-0.25, 1.25, 301), PARABOLA_TIMES, 1,
                functools.partial(_plot_against_x, y_lim=(-1.5, 3.0))),
    "parallel": (parallel_planes, [(0.0, 0.0)], decade_grid(-3, 2, 10), 1,
                 _plot_against_t),
}


def cmd_figure(args) -> int:
    started = time.perf_counter()
    require(args.name in FIGURES, "figure name", f"one of {sorted(FIGURES)}", args.name)
    build_model, points, times, d_ref, plot = FIGURES[args.name]
    model = build_model()
    grid = TimeGrid(times)
    curve = bias_curve(model, points, grid, d_ref=d_ref)
    _write_curves(
        f"figure {args.name}", model, curve,
        {"times": [format_number(t) for t in times], "d_ref": d_ref},
        args.out_csv or f"figure_{args.name}.csv",
        args.out_svg or f"figure_{args.name}.svg",
        plot, f"figure {args.name}", started,
    )
    return EXIT_OK


def cmd_lid(args) -> int:
    started = time.perf_counter()
    model = _load_model(args.config)
    point = _parse_point(args.point, model.ambient_dim)
    grid = TimeGrid.centered(args.t_center, args.per_decade, args.decades)
    mc = McSettings(samples=args.samples, seed=args.seed)
    require(args.abscissa == "delta" or args.source == "analytic",
            "the source of --abscissa t", "analytic", args.source)
    fit = estimate_lid(model, point, grid, source=args.source, mc=mc)
    if args.abscissa == "t":
        # Reproduces the documented length-scale mix-up: log t = 2 log sqrt(t),
        # so regressing against log t halves the slope.  The intercept, the
        # residuals and the divergence flag are those of the delta fit.
        slope = fit.slope / 2.0
        fit = replace(fit, slope=slope, lid_estimate=model.ambient_dim + slope)

    cells = [fit.source, *(format_number(getattr(fit, k)) for k in FIT_COLUMNS[1:])]
    for name, cell in zip(FIT_COLUMNS, cells):
        print(f"{name}: {cell}")
    if fit.diverging:
        print("warning: estimate exceeds the ambient dimension "
              "(point appears to lie off every component)")

    if args.out:
        if args.out.endswith(".json"):
            text = json_text(asdict(fit))
        else:
            row = [*cells, "true" if fit.diverging else "false"]
            text = ",".join([*FIT_COLUMNS, "diverging"]) + "\n" + ",".join(row) + "\n"
        grid_info = {
            "t_center": args.t_center,
            "per_decade": args.per_decade,
            "decades": args.decades,
            "point": list(point),
            "source": args.source,
            "abscissa": args.abscissa,
            "samples": mc.samples,
        }
        with _usage_errors("cannot write output", OSError):
            write_text(args.out, text)
            _write_manifest("lid", model, grid_info, args.seed, [args.out], started)
    return EXIT_OK


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, tol=args.tol)
    width = max(len(f"{r.suite}/{r.name}") for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{r.suite + '/' + r.name:<{width}}  max_error={r.max_error:.3e}  "
            f"tol={r.tolerance:.1e}  {status}"
        )
    failures = [r for r in results if not r.passed]
    if failures:
        print(f"{len(failures)} check(s) failed:")
        for r in failures:
            print(f"  {r.suite}/{r.name} max_error={r.max_error:.3e}")
        return EXIT_VERIFY_FAILED
    print(f"all {len(results)} checks passed")
    return EXIT_OK


@functools.cache  # parse_args leaves the parser as it was: one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactlid",
        description=(
            "Exact diffused densities and local-intrinsic-dimension bias "
            "curves for flat manifold mixtures."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="summarize a model config")
    p.add_argument("config")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("beta-curve", help="slope/bias CSV over a time grid")
    p.add_argument("config")
    p.add_argument("--point", action="append", help="comma-separated coordinates")
    p.add_argument("--t-min", type=float, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--per-decade", type=int, default=7)
    p.add_argument("--d-ref", type=int, default=None,
                   help="reference dimension for the bias column")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--out-svg", default=None)
    p.set_defaults(func=cmd_beta_curve)

    p = sub.add_parser("figure", help="reproduce a built-in figure")
    p.add_argument("name", help=" | ".join(FIGURES))
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-svg", default=None)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("lid", help="estimate local intrinsic dimension")
    p.add_argument("config")
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("--t-center", type=float, required=True)
    p.add_argument("--per-decade", type=int, default=7)
    p.add_argument("--decades", type=float, default=1.0)
    p.add_argument("--source", choices=SOURCES, default="analytic")
    p.add_argument("--samples", type=float, default=1e5,
                   help="Monte Carlo sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--abscissa", choices=["delta", "t"], default="delta",
                   help="regression abscissa: log sqrt(t) (delta, the "
                        "correct convention) or log t (reproduces the "
                        "squared-length-scale mix-up)")
    p.add_argument("--out", default=None, help="write the fit as .csv or .json")
    p.set_defaults(func=cmd_lid)

    p = sub.add_parser("verify", help="run oracle agreement suites")
    p.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    p.add_argument("--tol", type=float, default=None,
                   help="override every suite tolerance "
                        f"(defaults: {DEFAULT_TOLERANCES})")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
