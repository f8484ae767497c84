"""Capture the reference outputs the benchmark checks against.

Writes ``refdata/figure_<name>.csv.gz`` (the CSV of each built-in figure)
and ``refdata/lid.json`` (the analytic and quadrature ``lid`` estimates at
every oracles-workload point), produced by the program in ``src/`` through
its CLI.  Run from the repository root:

    python3 perfbench/capture_refs.py

Re-capture only when a change is meant to alter these numbers, and say so
in the change; the benchmark's output check is only as good as this data.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from exactlid import cli  # noqa: E402
from workloads import (  # noqa: E402
    FIGURES, ORACLE_MODELS, ORACLE_POINTS, ORACLE_T_CENTER, REFDATA, coords_text,
    point_arg,
)


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"exactlid {' '.join(argv)} exited {code}")


def main() -> int:
    REFDATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name in FIGURES:
            csv = tmp / f"{name}.csv"
            _run(["figure", name, "--out-csv", str(csv), "--out-svg", str(tmp / "f.svg")])
            # mtime=0 keeps the archive bytes reproducible
            data = gzip.compress(csv.read_bytes(), compresslevel=9, mtime=0)
            (REFDATA / f"figure_{name}.csv.gz").write_bytes(data)

        lid = {}
        for model, config in ORACLE_MODELS.items():
            config_path = tmp / "model.json"
            config_path.write_text(json.dumps(config), encoding="utf-8")
            for point in ORACLE_POINTS[model]:
                estimates = {}
                for source in ("analytic", "quadrature"):
                    out = tmp / "fit.json"
                    _run(["lid", str(config_path), point_arg(point),
                          "--t-center", ORACLE_T_CENTER, "--source", source,
                          "--out", str(out)])
                    estimates[source] = json.loads(out.read_text())["lid_estimate"]
                lid.setdefault(model, {})[coords_text(point)] = estimates
    (REFDATA / "lid.json").write_text(json.dumps(lid, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
