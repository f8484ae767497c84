"""The benchmark's workloads: seeded inputs, CLI command lists, output checks.

Each workload writes its inputs into a work directory, lists the
``exactlid`` command lines a user would type, and checks what those
commands printed and wrote.  The program sees only the generated files and
arguments.

- ``figures``: the four built-in figures (706 curves, 3780 rows, K <= 2).
  Many points and few components, so the per-call cost of the mixture
  reduction dominates.  No oracle runs.
- ``wide-mixture``: ``beta-curve`` on a seeded K=16, D=32 model mixing
  gaussian, box and point components of dims 0-5; 20 points x 81 times.
  Per-component and per-axis closed forms and the box tail branches carry
  the load, and most responsibilities underflow to 0.
- ``oracles``: ``lid`` through the analytic, quadrature and Monte Carlo
  density sources at two points on each of five catalog models, plus
  ``verify --suite all``.  The oracles take almost all of the time, so work
  on the closed forms alone should not move it.
"""

from __future__ import annotations

import gzip
import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

from reference import RTOL, cell_ok, expected_curve_rows

REFDATA = Path(__file__).resolve().parent / "refdata"

FIGURES = ("parabola", "stairs", "uniform", "parallel")

# wide-mixture: (density type, dim) of the 16 components; the seed draws
# their parameters, offsets, weights and the evaluation points.
WIDE_AMBIENT_DIM = 32
WIDE_COMPONENTS = (
    ("point", 0), ("point", 0),
    ("gaussian", 1), ("gaussian", 2), ("gaussian", 3), ("gaussian", 3),
    ("gaussian", 4), ("gaussian", 5), ("gaussian", 5),
    ("box", 1), ("box", 2), ("box", 3), ("box", 3), ("box", 4), ("box", 5),
    ("box", 5),
)
WIDE_OFF_POINTS = 4  # points on no component (diverged rows)
WIDE_T_MIN, WIDE_T_MAX, WIDE_PER_DECADE = 1e-6, 1e2, 10
WIDE_OFFSET_SD = 1.5

# oracles: catalog models as configs, two on-manifold points each.  Points
# sit where 1e5 Monte Carlo samples resolve the density at t ~ 1e-3.
ORACLE_MODELS = {
    "gaussian-line": {
        "ambient_dim": 2, "weights": [1.0],
        "components": [{"dim": 1, "offset": [0.0],
                        "density": {"type": "gaussian", "sigmas": [1.0]}}],
    },
    "box-plane": {
        "ambient_dim": 3, "weights": [1.0],
        "components": [{"dim": 2, "offset": [0.0],
                        "density": {"type": "box", "bounds": [[0.0, 1.0], [0.0, 1.0]]}}],
    },
    "intersecting-line-plane": {
        "ambient_dim": 3, "weights": [0.5, 0.5],
        "components": [
            {"dim": 1, "offset": [0.0, 0.0],
             "density": {"type": "gaussian", "sigmas": [1.0]}},
            {"dim": 2, "offset": [0.0],
             "density": {"type": "gaussian", "sigmas": [1.0, 1.0]}},
        ],
    },
    "aniso-gaussian-3d": {
        "ambient_dim": 3, "weights": [1.0],
        "components": [{"dim": 3, "offset": [],
                        "density": {"type": "gaussian", "sigmas": [1.0, 1e-3, 1e-6]}}],
    },
    "uniform-interval": {
        "ambient_dim": 2, "weights": [1.0],
        "components": [{"dim": 1, "offset": [0.0],
                        "density": {"type": "box", "bounds": [[0.0, 1.0]]}}],
    },
}
ORACLE_POINTS = {
    "gaussian-line": ((0.0, 0.0), (0.7, 0.0)),
    "box-plane": ((0.5, 0.5, 0.0), (0.25, 0.6, 0.0)),
    "intersecting-line-plane": ((0.0, 0.0, 0.0), (0.6, 0.0, 0.0)),
    "aniso-gaussian-3d": ((0.0, 0.0, 0.0), (0.5, 1e-3, 0.0)),
    "uniform-interval": ((0.5, 0.0), (0.2, 0.0)),
}
ORACLE_SOURCES = ("analytic", "quadrature", "monte_carlo")
ORACLE_T_CENTER = "1e-3"
ORACLE_GRID_SIZE = 7  # TimeGrid.centered default: 7 per decade over 1 decade
MC_SAMPLES = 100_000
# A Monte Carlo estimate must land within this many dimensions of the
# analytic one; over 300 seeds the widest miss was 0.12 (box-plane).
MC_LID_TOL = 0.3


def coords_text(point) -> str:
    return ",".join(repr(float(c)) for c in point)


def point_arg(point) -> str:
    # "=" form: argparse reads a separate leading "-" as a flag
    return "--point=" + coords_text(point)


_CURVE_LAYERS = (
    "analytic.log_smoothed_density", "analytic.smoothed_laplacian_ratio",
    "analytic.log_component_rho", "analytic.log_mixture_rho",
    "analytic.mixture_beta_t", "estimator.bias_curve",
    "output.curve_csv_text", "output.RunManifest.write", "svgplot.line_plot",
)


class Workload:
    """Inputs in ``work``, the command lines (argv lists) to time, the number
    of (point, time) evaluations one pass makes, and the output check."""

    traced: tuple = ()  # functions (see tracer.TRACED) the commands call

    def __init__(self, name: str, seed: int, work: Path):
        self.name = name
        self.seed = seed
        self.work = work
        self.evals = 0
        self.commands = []
        work.mkdir(parents=True, exist_ok=True)

    @property
    def out(self) -> Path:
        return self.work / "out"

    def check(self, results) -> list[str]:
        """One message per failed command; ``results`` holds each
        command's (exit code, stdout) in order."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# curve CSV checks
# ---------------------------------------------------------------------------

def _compare_curve_csv(text: str, expected_header: str, expected_rows) -> str | None:
    """Compare CSV text with expected rows of (x_coords, diverged, numeric
    cells [(value, scale)]).  Returns the first mismatch, or None."""
    lines = text.split("\n")
    if lines[-1] != "":
        return "missing final newline"
    lines = lines[:-1]
    if lines[0] != expected_header:
        return f"header {lines[0]!r}"
    if len(lines) - 1 != len(expected_rows):
        return f"{len(lines) - 1} rows, expected {len(expected_rows)}"
    for i, (line, (coords, diverged, cells)) in enumerate(zip(lines[1:], expected_rows), 1):
        got = line.split(",")
        if len(got) != len(cells) + 2:
            return f"row {i}: {len(got)} cells"
        if got[2] != coords:
            return f"row {i}: x_coords {got[2]!r}, expected {coords!r}"
        if got[6] != ("true" if diverged else "false"):
            return f"row {i}: diverged {got[6]!r}"
        numeric = got[:2] + got[3:6] + got[7:]
        for j, (g, (want, scale)) in enumerate(zip(numeric, cells)):
            if not cell_ok(float(g), want, scale):
                return f"row {i} cell {j}: {g} vs {want!r} (rtol {RTOL:g})"
    return None


def _rows_from_reference_csv(text: str):
    rows = []
    for line in text.rstrip("\n").split("\n")[1:]:
        c = line.split(",")
        nums = [float(v) for v in c[:2] + c[3:6] + c[7:]]
        scales = [abs(v) for v in nums]
        scales[2] = 1.0  # log_rho: an absolute budget near 0
        rows.append((c[2], c[6] == "true", list(zip(nums, scales))))
    return rows


def _check_svg(path: Path) -> str | None:
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        return f"{path.name}: {exc}"
    if not root.tag.endswith("svg") or not len(root):
        return f"{path.name}: not an svg document"
    return None


def _check_manifest(csv_path: Path, command: str) -> str | None:
    try:
        manifest = json.loads(Path(str(csv_path) + ".manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return f"manifest of {csv_path.name}: {exc}"
    if manifest.get("command") != command:
        return f"manifest command {manifest.get('command')!r}"
    return None


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return None


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

class Figures(Workload):
    traced = _CURVE_LAYERS

    def __init__(self, seed: int, work: Path):
        super().__init__("figures", seed, work)
        self.references = {
            name: gzip.decompress((REFDATA / f"figure_{name}.csv.gz").read_bytes())
            for name in FIGURES
        }
        self.expected = {
            name: _rows_from_reference_csv(ref.decode("utf-8"))
            for name, ref in self.references.items()
        }
        self.evals = sum(len(rows) for rows in self.expected.values())
        self.commands = [
            ["figure", name,
             "--out-csv", str(self.out / f"{name}.csv"),
             "--out-svg", str(self.out / f"{name}.svg")]
            for name in FIGURES
        ]
        self.csv_identical = 0

    def check(self, results):
        failures = []
        self.csv_identical = 0
        for name, (code, _) in zip(FIGURES, results):
            csv_path = self.out / f"{name}.csv"
            text = _read(csv_path)
            problem = None
            if code != 0:
                problem = f"exit code {code}"
            elif text is None:
                problem = "no CSV written"
            else:
                header = self.references[name].split(b"\n", 1)[0].decode()
                problem = (
                    _compare_curve_csv(text, header, self.expected[name])
                    or _check_svg(self.out / f"{name}.svg")
                    or _check_manifest(csv_path, f"figure {name}")
                )
                self.csv_identical += text.encode("utf-8") == self.references[name]
            if problem:
                failures.append(f"figure {name}: {problem}")
        return failures


# ---------------------------------------------------------------------------
# wide-mixture
# ---------------------------------------------------------------------------

def wide_mixture_inputs(seed: int):
    """Seeded K=16, D=32 model config and evaluation points: one point on
    each component, then points on none."""
    rng = np.random.default_rng(seed)
    D = WIDE_AMBIENT_DIM
    components, on_points = [], []
    for kind, d in WIDE_COMPONENTS:
        offset = rng.normal(0.0, WIDE_OFFSET_SD, D - d).tolist()
        if kind == "gaussian":
            sigmas = np.exp(rng.uniform(math.log(0.2), math.log(2.0), d))
            density = {"type": "gaussian", "sigmas": sigmas.tolist()}
            x = rng.normal(0.0, sigmas)
        elif kind == "box":
            lo = rng.uniform(-2.0, 1.0, d)
            hi = lo + rng.uniform(0.5, 3.0, d)
            density = {"type": "box", "bounds": np.stack([lo, hi], 1).tolist()}
            x = rng.uniform(lo, hi)
        else:
            density = {"type": "point"}
            x = np.empty(0)
        components.append({"dim": d, "offset": offset, "density": density})
        on_points.append(tuple(x.tolist()) + tuple(offset))
    raw = rng.uniform(0.5, 1.5, len(components))
    weights = (raw / raw.sum()).tolist()
    off_points = [tuple(rng.normal(0.0, WIDE_OFFSET_SD, D).tolist())
                  for _ in range(WIDE_OFF_POINTS)]
    config = {"ambient_dim": D, "weights": weights, "components": components}
    return config, on_points + off_points


def _log_spaced(t_min: float, t_max: float, per_decade: int) -> list[float]:
    # the grid ``beta-curve`` builds from --t-min/--t-max/--per-decade
    n = max(2, int(round(per_decade * math.log10(t_max / t_min))) + 1)
    return [10.0**e for e in np.linspace(math.log10(t_min), math.log10(t_max), n)]


class WideMixture(Workload):
    traced = ("model.model_from_json", "analytic.reference_dim") + _CURVE_LAYERS

    def __init__(self, seed: int, work: Path):
        super().__init__("wide-mixture", seed, work)
        self.config, self.points = wide_mixture_inputs(seed)
        config_path = work / "wide_mixture.json"
        config_path.write_text(json.dumps(self.config), encoding="utf-8")
        self.times = _log_spaced(WIDE_T_MIN, WIDE_T_MAX, WIDE_PER_DECADE)
        self.evals = len(self.points) * len(self.times)
        self.csv_path = self.out / "wide.csv"
        self.commands = [
            ["beta-curve", str(config_path), *[point_arg(p) for p in self.points],
             "--t-min", repr(WIDE_T_MIN), "--t-max", repr(WIDE_T_MAX),
             "--per-decade", str(WIDE_PER_DECADE),
             "--out", str(self.csv_path), "--out-svg", str(self.out / "wide.svg")]
        ]
        k = len(self.config["components"])
        self.header = ",".join(
            ["t", "sqrt_t", "x_coords", "log_rho", "beta", "bias", "diverged"]
            + [f"w_{i}" for i in range(k)]
        )
        self.expected = []
        for curve in expected_curve_rows(self.config, self.points, self.times):
            coords = ";".join(repr(c) for c in curve["point"])
            for i, t in enumerate(self.times):
                cells = [(t, t), (math.sqrt(t), math.sqrt(t)),
                         (curve["log_rho"][i], 1.0),
                         (curve["beta"][i], curve["beta_scale"][i]),
                         (curve["bias"][i], curve["bias_scale"][i])]
                cells += list(zip(curve["w"][i], curve["w_scale"][i]))
                self.expected.append((coords, curve["diverged"], cells))

    def check(self, results):
        (code, _), = results
        text = _read(self.csv_path)
        if code != 0:
            problem = f"exit code {code}"
        elif text is None:
            problem = "no CSV written"
        else:
            problem = (
                _compare_curve_csv(text, self.header, self.expected)
                or _check_svg(self.out / "wide.svg")
                or _check_manifest(self.csv_path, "beta-curve")
            )
        return [f"beta-curve: {problem}"] if problem else []


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

class Oracles(Workload):
    traced = (
        "model.model_from_json",
        "analytic.log_smoothed_density", "analytic.smoothed_laplacian_ratio",
        "analytic.log_component_rho", "analytic.log_mixture_rho",
        "analytic.mixture_beta_t", "analytic.reference_dim",
        "estimator.estimate_lid", "estimator.lidl_fit",
        "oracle.rho_quadrature", "oracle.rho_monte_carlo",
        "oracle.beta_fd_time", "oracle.asymptotic_slope_pair",
        "verify.heat_suite", "verify.laplacian_suite",
        "verify.mixture_suite", "verify.slopes_suite",
        "output.RunManifest.write",
    )

    def __init__(self, seed: int, work: Path):
        super().__init__("oracles", seed, work)
        self.reference = json.loads((REFDATA / "lid.json").read_text())
        n_points = sum(len(points) for points in ORACLE_POINTS.values())
        mc_seeds = iter(np.random.default_rng(seed).integers(0, 2**31, n_points).tolist())
        self.expect = []  # (model, coords, source, output path) per lid command
        for model, config in ORACLE_MODELS.items():
            config_path = work / f"{model}.json"
            config_path.write_text(json.dumps(config), encoding="utf-8")
            for point in ORACLE_POINTS[model]:
                for source in ORACLE_SOURCES:
                    out = self.out / f"lid_{len(self.commands)}.json"
                    argv = ["lid", str(config_path), point_arg(point),
                            "--t-center", ORACLE_T_CENTER, "--source", source,
                            "--out", str(out)]
                    if source == "monte_carlo":
                        argv += ["--samples", str(MC_SAMPLES), "--seed", str(next(mc_seeds))]
                    self.commands.append(argv)
                    self.expect.append((model, coords_text(point), source, out))
        self.commands.append(["verify", "--suite", "all"])
        self.evals = ORACLE_GRID_SIZE * len(self.expect)

    def check(self, results):
        failures = []
        for (model, point, source, out), (code, _) in zip(self.expect, results):
            problem = None
            if code != 0:
                problem = f"exit code {code}"
            else:
                try:
                    got = json.loads(out.read_text())["lid_estimate"]
                except (OSError, ValueError, KeyError) as exc:
                    problem = f"no fit written: {exc}"
                else:
                    ref = self.reference[model][point]
                    if source == "monte_carlo":
                        if not abs(got - ref["analytic"]) <= MC_LID_TOL:
                            problem = f"lid {got!r} vs analytic {ref['analytic']!r}"
                    elif not cell_ok(got, ref[source], 0.0):
                        problem = f"lid {got!r} vs reference {ref[source]!r}"
            if problem:
                failures.append(f"lid {model} {point} {source}: {problem}")
        code, stdout = results[-1]
        if code != 0 or " FAIL" in stdout or "checks passed" not in stdout:
            failures.append(f"verify: exit code {code}, output {stdout[-200:]!r}")
        return failures


WORKLOADS = {"figures": Figures, "wide-mixture": WideMixture, "oracles": Oracles}
