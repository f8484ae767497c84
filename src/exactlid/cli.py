"""Command-line front end.

Subcommands: ``describe`` (model summary), ``beta-curve`` (slope/bias CSV
over a time grid), ``figure`` (built-in figure reproduction as CSV + SVG),
``lid`` (dimension estimate at a point), and ``verify`` (oracle agreement
suites).  Exit codes: 0 success, 1 verification failure, 2 usage or config
error, 3 runtime numeric failure.  All configuration comes from flags and
files; outputs are byte-deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import log_mixture_rho
from .catalog import (
    aniso_gaussian_3d,
    decade_grid,
    gaussian_line,
    parallel_planes,
    uniform_interval,
)
from .estimator import TimeGrid, bias_curve, estimate_lid, lidl_fit
from .oracle import McSettings
from .model import ModelError, as_point, model_from_json, model_to_dict
from .output import RunManifest, curve_csv_text, format_number, write_text
from .svgplot import line_plot
from .verify import DEFAULT_TOLERANCES, SUITES, run_suites

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

PARABOLA_TIMES = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)


class CliError(Exception):
    """Usage or configuration error (exit code 2)."""


def _load_model(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config {path!r}: {exc}") from exc
    try:
        return model_from_json(text)
    except ModelError as exc:
        raise CliError(f"invalid model config {path!r}: {exc}") from exc


@contextlib.contextmanager
def _usage_errors(what: str, *errors: type[Exception]):
    """Report ``errors`` raised while building an object from arguments, or
    while writing an output path, as a usage error (exit code 2)."""
    try:
        yield
    except errors as exc:
        raise CliError(f"{what}: {exc}") from exc


def _parse_point(text: str, ambient_dim: int) -> tuple[float, ...]:
    with _usage_errors(f"invalid point {text!r}", ValueError):
        coords = as_point([float(part) for part in text.split(",")], ambient_dim)
    return tuple(coords.tolist())


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


def _emit_curves(
    *,
    command: str,
    model,
    config: dict,
    curves,
    grid_info: dict,
    out_csv: str,
    out_svg: str | None,
    svg_builder,
    seed: int | None,
    started: float,
) -> None:
    csv_text = curve_csv_text(curves, len(model.components))
    with _usage_errors("cannot write output", OSError):
        write_text(out_csv, csv_text)
        outputs = [out_csv]
        if out_svg:
            svg_builder(out_svg)
            outputs.append(out_svg)
        manifest = RunManifest(
            command=command,
            config=config,
            grid=grid_info,
            seed=seed,
            outputs=outputs,
            duration_seconds=time.perf_counter() - started,
        )
        manifest.write(out_csv + ".manifest.json")


def cmd_beta_curve(args) -> int:
    started = time.perf_counter()
    model = _load_model(args.config)
    if not args.point:
        raise CliError("at least one --point is required")
    points = [_parse_point(p, model.ambient_dim) for p in args.point]
    if not (0.0 < args.t_min < args.t_max < math.inf):
        raise CliError("need 0 < --t-min < --t-max < inf")
    if args.per_decade < 1:
        raise CliError("--per-decade must be at least 1")
    with _usage_errors("invalid time grid", ValueError, OverflowError):
        decades = math.log10(args.t_max / args.t_min)
        n = max(2, int(round(args.per_decade * decades)) + 1)
        grid = TimeGrid.log_spaced(args.t_min, args.t_max, n)
    curves = [bias_curve(model, z, grid, d_ref=args.d_ref) for z in points]

    def build_svg(path):
        line_plot(
            path,
            [
                (
                    "x=" + ";".join(format_number(c) for c in curve.point),
                    [row.t for row in curve.rows],
                    [row.bias for row in curve.rows],
                )
                for curve in curves
            ],
            x_log=True,
            title="slope bias vs smoothing time",
            x_label="t",
            y_label="bias",
        )

    _emit_curves(
        command="beta-curve",
        model=model,
        config=model_to_dict(model),
        curves=curves,
        grid_info={
            "t_min": args.t_min,
            "t_max": args.t_max,
            "per_decade": args.per_decade,
            "points": [list(p) for p in points],
            "d_ref": args.d_ref,
        },
        out_csv=args.out,
        out_svg=args.out_svg,
        svg_builder=build_svg,
        seed=None,
        started=started,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Built-in figures
# ---------------------------------------------------------------------------

def _figure_parabola():
    model = gaussian_line()
    xs = np.linspace(-3.0, 3.0, 401)
    points = [(float(x), 0.0) for x in xs]
    times = PARABOLA_TIMES
    return model, points, times, 1, "x", False


def _figure_stairs():
    model = aniso_gaussian_3d()
    points = [(0.0, 0.0, 0.0), (0.0, 0.0, 1e-6), (0.0, 0.0, 2e-6)]
    times = decade_grid(-16, 2, 4)
    return model, points, times, 3, "t", True


def _figure_uniform():
    model = uniform_interval()
    xs = np.linspace(-0.25, 1.25, 301)
    points = [(float(x), 0.0) for x in xs]
    times = PARABOLA_TIMES
    return model, points, times, 1, "x", False


def _figure_parallel():
    model = parallel_planes()
    points = [(0.0, 0.0)]
    times = decade_grid(-3, 2, 10)
    return model, points, times, 1, "t", True


FIGURES = {
    "parabola": _figure_parabola,
    "stairs": _figure_stairs,
    "uniform": _figure_uniform,
    "parallel": _figure_parallel,
}


def cmd_figure(args) -> int:
    started = time.perf_counter()
    if args.name not in FIGURES:
        raise CliError(
            f"unknown figure {args.name!r}; choose from {sorted(FIGURES)}"
        )
    model, points, times, d_ref, x_axis, x_log = FIGURES[args.name]()
    grid = TimeGrid(times)
    curves = [bias_curve(model, z, grid, d_ref=d_ref) for z in points]
    out_csv = args.out_csv or f"figure_{args.name}.csv"
    out_svg = args.out_svg or f"figure_{args.name}.svg"

    def build_svg(path):
        if x_axis == "t":
            # one series per point, slope estimate or bias against time
            series = []
            for curve in curves:
                ys = [
                    (model.ambient_dim + row.beta)
                    if args.name == "stairs"
                    else row.bias
                    for row in curve.rows
                ]
                label = "x=" + ";".join(format_number(c) for c in curve.point)
                series.append((label, [row.t for row in curve.rows], ys))
            line_plot(
                path,
                series,
                x_log=True,
                title=f"figure {args.name}",
                x_label="t",
                y_label="dimension estimate" if args.name == "stairs" else "bias",
            )
        else:
            # one series per time, bias against the first coordinate; the
            # uniform figure clips the divergent outside-support tails
            series = []
            for i, t in enumerate(times):
                xs = [curve.point[0] for curve in curves]
                ys = [curve.rows[i].bias for curve in curves]
                series.append((f"t={format_number(t)}", xs, ys))
            line_plot(
                path,
                series,
                y_lim=(-1.5, 3.0) if args.name == "uniform" else None,
                title=f"figure {args.name}",
                x_label="x",
                y_label="bias",
            )

    _emit_curves(
        command=f"figure {args.name}",
        model=model,
        config=model_to_dict(model),
        curves=curves,
        grid_info={"times": [format_number(t) for t in times], "d_ref": d_ref},
        out_csv=out_csv,
        out_svg=out_svg,
        svg_builder=build_svg,
        seed=None,
        started=started,
    )
    return EXIT_OK


def cmd_lid(args) -> int:
    started = time.perf_counter()
    model = _load_model(args.config)
    if args.point is None:
        raise CliError("--point is required")
    point = _parse_point(args.point, model.ambient_dim)
    if not 0.0 < args.t_center < math.inf:
        raise CliError("--t-center must be positive and finite")
    if args.per_decade < 1:
        raise CliError("--per-decade must be at least 1")
    with _usage_errors("invalid time grid", ValueError, OverflowError):
        grid = TimeGrid.centered(args.t_center, args.per_decade, args.decades)
    with _usage_errors("invalid --samples", ValueError, OverflowError):
        mc = McSettings(samples=int(args.samples), seed=args.seed)
    if args.abscissa == "t":
        # Reproduces the documented length-scale mix-up: regressing against
        # log t instead of log sqrt(t) halves the slope.
        if args.source != "analytic":
            raise CliError("--abscissa t supports only --source analytic")
        log_rhos = log_mixture_rho(model, np.array(grid.values), point)
        samples = [(math.log(t), v) for t, v in zip(grid.values, log_rhos.tolist())]
        fit = lidl_fit(samples, model.ambient_dim)
    else:
        try:
            fit = estimate_lid(model, point, grid, source=args.source, mc=mc)
        except ArithmeticError as exc:
            print(f"numeric failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC

    print(f"source: {fit.source or args.source}")
    print(f"slope: {format_number(fit.slope)}")
    print(f"intercept: {format_number(fit.intercept)}")
    print(f"lid_estimate: {format_number(fit.lid_estimate)}")
    print(f"residual_rms: {format_number(fit.residual_rms)}")
    if fit.diverging:
        print("warning: estimate exceeds the ambient dimension "
              "(point appears to lie off every component)")

    if args.out:
        payload = {
            "source": fit.source or args.source,
            "slope": fit.slope,
            "intercept": fit.intercept,
            "lid_estimate": fit.lid_estimate,
            "residual_rms": fit.residual_rms,
            "diverging": fit.diverging,
        }
        if args.out.endswith(".json"):
            text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        else:
            header = "source,slope,intercept,lid_estimate,residual_rms,diverging"
            row = ",".join(
                [
                    payload["source"],
                    format_number(payload["slope"]),
                    format_number(payload["intercept"]),
                    format_number(payload["lid_estimate"]),
                    format_number(payload["residual_rms"]),
                    "true" if payload["diverging"] else "false",
                ]
            )
            text = header + "\n" + row + "\n"
        manifest = RunManifest(
            command="lid",
            config=model_to_dict(model),
            grid={
                "t_center": args.t_center,
                "per_decade": args.per_decade,
                "decades": args.decades,
                "point": list(point),
                "source": args.source,
                "abscissa": args.abscissa,
                "samples": int(args.samples),
            },
            seed=args.seed,
            outputs=[args.out],
            duration_seconds=time.perf_counter() - started,
        )
        with _usage_errors("cannot write output", OSError):
            write_text(args.out, text)
            manifest.write(args.out + ".manifest.json")
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
    p.add_argument("name", help="parabola | stairs | uniform | parallel")
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-svg", default=None)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("lid", help="estimate local intrinsic dimension")
    p.add_argument("config")
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("--t-center", type=float, required=True)
    p.add_argument("--per-decade", type=int, default=7)
    p.add_argument("--decades", type=float, default=1.0)
    p.add_argument("--source", choices=["analytic", "quadrature", "monte_carlo"],
                   default="analytic")
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
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
