"""Deterministic CSV emission and run manifests.

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
from typing import Sequence

from . import __version__
from .estimator import BetaCurve

__all__ = ["format_number", "curve_csv_text", "write_text", "RunManifest"]


def format_number(x: float) -> str:
    """Shortest decimal that round-trips to the same double."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return repr(x)


def curve_csv_text(curves: Sequence[BetaCurve], n_components: int) -> str:
    """Render bias curves (one per point) into the canonical CSV layout."""
    header = ["t", "sqrt_t", "x_coords", "log_rho", "beta", "bias", "diverged"]
    header += [f"w_{i}" for i in range(n_components)]
    lines = [",".join(header)]
    for curve in curves:
        coords = ";".join(format_number(c) for c in curve.point)
        s = curve.slopes
        columns = zip(
            curve.t.tolist(),
            s.log_rho.tolist(),
            s.beta.tolist(),
            s.bias.tolist(),
            s.diverged.tolist(),
            s.responsibilities.tolist(),
        )
        for t, log_rho, beta, bias, diverged, w in columns:
            cells = [
                format_number(t),
                format_number(math.sqrt(t)),
                coords,
                format_number(log_rho),
                format_number(beta),
                format_number(bias),
                "true" if diverged else "false",
            ]
            cells += [format_number(x) for x in w]
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


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
        Path(path).write_text(
            json.dumps(asdict(self), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
            newline="",
        )
