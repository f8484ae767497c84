"""Every output file's format: deterministic CSV, JSON and run manifests.

CSV schema (fixed): header ``t,sqrt_t,x_coords,log_rho,beta,bias,diverged,
w_0..w_{k-1}``; numbers are written as shortest round-trip decimals,
``x_coords`` packs the point coordinates separated by ``;``, rows iterate
points in the outer loop and ascending times in the inner loop.  Identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .estimator import BetaCurve

__all__ = ["format_number", "coords_text", "curve_csv_text", "json_text",
           "write_text", "RunManifest"]


def format_number(x: float) -> str:
    """Shortest decimal that round-trips to the same double (``nan``,
    ``inf`` and ``-inf`` for the non-finite values).

    This must stay ``repr`` of a float: ``curve_csv_text`` writes its value
    columns with ``repr`` of the floats from ``.tolist()``, and a
    responsibility row with one ``repr`` of its list.
    """
    return repr(float(x))


def coords_text(point) -> str:
    """A point's coordinates joined by ``;``: the ``x_coords`` cell."""
    return ";".join(map(format_number, point))


def curve_csv_text(curve: BetaCurve) -> str:
    """Render a bias curve (one point, or a block of points) into the
    canonical CSV layout, one ``w_i`` column per mixture component."""
    s = curve.slopes
    header = ["t", "sqrt_t", "x_coords", "log_rho", "beta", "bias", "diverged"]
    header += [f"w_{i}" for i in range(s.responsibilities.shape[-1])]
    t = curve.t.tolist()
    n_points = s.log_rho.size // len(t)
    times = [format_number(v) + "," + format_number(math.sqrt(v)) for v in t]
    coords = [
        coords_text(p) for p in np.reshape(curve.point, (n_points, -1)).tolist()
    ]
    # repr of a float is format_number; a list's repr is its items' reprs
    # joined by ", ", one call per row of responsibilities
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


def json_text(obj) -> str:
    """The JSON of every output file: indented, keys sorted, final newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="")


@dataclass
class RunManifest:
    """Provenance record written beside every output file."""

    command: str
    config: dict
    grid: dict
    seed: int | None
    outputs: list[str] = field(default_factory=list)
    version: str = __version__
    duration_seconds: float = 0.0

    def write(self, path: str | Path) -> None:
        write_text(path, json_text(asdict(self)))
