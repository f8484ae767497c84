"""Recover the erfcx coefficient table from the installed scipy and check it.

scipy's ``erfcx`` is S. G. Johnson's Faddeeva-package ``erfcx``.  For
0 <= x <= 50 it evaluates, with y100 = 400 / (4 + x) and k = floor(y100),
the degree-6 polynomial of row k of a 100-row table at
t = 2 * y100 - (2k + 1).  The compiled library keeps each row as seven
consecutive doubles c6, c5, ..., c0; between two rows there is at most one
more double, the constant 2k + 1 of the next row's ``t``.

Recovery: at an x where 400 / (4 + x) is exactly k + 0.5, t is 0 and
``scipy.special.erfcx(x)`` returns c0 of row k exactly.  Those 8 bytes
occur once in the library, and the six doubles before them are c6...c1.
Rows with no such x (x > 50 for rows 0-6, and eleven rows where no double
rounds onto k + 0.5) are read by position next to a recovered neighbour.

Checks, all of which must hold before the table is written:

- every pair of neighbouring rows is separated by nothing or by the one
  constant 2k + 1 of the next row;
- neighbouring rows agree at their common end point (t = 1 against t = -1)
  to 1e-13 relative, as pieces of one function do;
- c0 of every row equals erfcx(400 / (k + 0.5) - 4) from mpmath at 50
  digits to 1e-14 relative;
- ``exactlid._erf.erfcx`` with the new table equals scipy bit for bit on
  2000 arguments per reachable row (7-99).

Run from the repository root; it rewrites src/exactlid/_erfcx_table.py:

    python tools/erfcx_table.py
"""

from __future__ import annotations

import importlib
import math
import struct
import sys
from pathlib import Path

import mpmath
import numpy as np
import scipy.special

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "src" / "exactlid" / "_erfcx_table.py"
N_ROWS = 100
ROW_BYTES = 7 * 8

HEADER = '''"""Coefficient table of the Faddeeva package's erfcx (``erfcx_y100``).

Row k holds (c6, c5, ..., c0) of the polynomial
c0 + c1*t + ... + c6*t**6 at t = 2*y100 - (2k + 1), used where
k <= y100 = 400 / (4 + x) < k + 1.  Row 100 is (0, ..., 0, 1): at
y100 == 100, i.e. x <= 2**-51 (4.4e-16), the package returns 1.0.

Generated by tools/erfcx_table.py from the compiled scipy library, which
carries the same values; do not edit.

The Faddeeva package, from which these coefficients come, is distributed
under the following notice:

    Copyright (c) 2012 Massachusetts Institute of Technology

    Permission is hereby granted, free of charge, to any person obtaining
    a copy of this software and associated documentation files (the
    "Software"), to deal in the Software without restriction, including
    without limitation the rights to use, copy, modify, merge, publish,
    distribute, sublicense, and/or sell copies of the Software, and to
    permit persons to whom the Software is furnished to do so, subject to
    the following conditions:

    The above copyright notice and this permission notice shall be
    included in all copies or substantial portions of the Software.

    THE SOFTWARE IS PROVIDED "AS IS", WITHOUT WARRANTY OF ANY KIND,
    EXPRESS OR IMPLIED, INCLUDING BUT NOT LIMITED TO THE WARRANTIES OF
    MERCHANTABILITY, FITNESS FOR A PARTICULAR PURPOSE AND
    NONINFRINGEMENT. IN NO EVENT SHALL THE AUTHORS OR COPYRIGHT HOLDERS BE
    LIABLE FOR ANY CLAIM, DAMAGES OR OTHER LIABILITY, WHETHER IN AN ACTION
    OF CONTRACT, TORT OR OTHERWISE, ARISING FROM, OUT OF OR IN CONNECTION
    WITH THE SOFTWARE OR THE USE OR OTHER DEALINGS IN THE SOFTWARE.
"""

'''


def library_bytes() -> bytes:
    lib_dir = Path(scipy.special.__file__).parent
    (path,) = lib_dir.glob("_ufuncs.*.so")
    return path.read_bytes()


def exact_midpoint_x(k: int) -> float | None:
    """An x in [0, 50] with 400 / (4 + x) == k + 0.5 exactly, if any lies
    within 20 ulps of the real solution."""
    x = 400.0 / (k + 0.5) - 4.0
    for _ in range(20):
        x = math.nextafter(x, -math.inf)
    for _ in range(41):
        if 0.0 <= x <= 50.0 and 400.0 / (4.0 + x) == k + 0.5:
            return x
        x = math.nextafter(x, math.inf)
    return None


def double_at(data: bytes, offset: int) -> float:
    return struct.unpack_from("<d", data, offset)[0]


def recover(data: bytes) -> dict[int, int]:
    """Byte offset of each row's c6."""
    starts = {}
    for k in range(N_ROWS):
        x = exact_midpoint_x(k)
        if x is None:
            continue
        c0 = struct.pack("<d", float(scipy.special.erfcx(x)))
        if data.count(c0) != 1:
            raise SystemExit(f"row {k}: c0 {c0.hex()} occurs {data.count(c0)} times")
        starts[k] = data.find(c0) + 8 - ROW_BYTES
    found = sorted(starts)
    print(f"recovered from c0: {len(found)} rows; by position: "
          f"{sorted(set(range(N_ROWS)) - set(found))}")
    # rows after a recovered one: skip the next row's 2k + 1 if present
    for k in range(found[0] + 1, N_ROWS):
        if k not in starts:
            start = starts[k - 1] + ROW_BYTES
            if double_at(data, start) == 2 * k + 1:
                start += 8
            starts[k] = start
    # rows before the first recovered one, walking backwards
    for k in range(found[0] - 1, -1, -1):
        end = starts[k + 1]
        if double_at(data, end - 8) == 2 * k + 3:
            end -= 8
        starts[k] = end - ROW_BYTES
    return starts


def check_layout(data: bytes, starts: dict[int, int]) -> None:
    for k in range(N_ROWS - 1):
        gap = starts[k + 1] - (starts[k] + ROW_BYTES)
        if gap == 8 and double_at(data, starts[k] + ROW_BYTES) == 2 * k + 3:
            continue
        if gap != 0:
            raise SystemExit(f"rows {k} and {k + 1}: unexpected gap of {gap} bytes")


def horner(row, t: float) -> float:
    r = row[0]
    for c in row[1:]:
        r = r * t + c
    return r


def check_values(rows) -> None:
    mpmath.mp.dps = 50
    for k in range(N_ROWS - 1):
        a, b = horner(rows[k], 1.0), horner(rows[k + 1], -1.0)
        if abs(a - b) > 1e-13 * abs(b):
            raise SystemExit(
                f"rows {k} and {k + 1} disagree at y100 = {k + 1}: {a!r} {b!r}"
            )
    for k, row in enumerate(rows):
        x = mpmath.mpf(400) / (k + mpmath.mpf(0.5)) - 4
        ref = mpmath.exp(x * x) * mpmath.erfc(x)
        if abs(row[-1] - ref) > 1e-14 * ref:
            raise SystemExit(
                f"row {k}: c0 {row[-1]!r} against mpmath {mpmath.nstr(ref, 17)}"
            )


def check_port() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import exactlid._erfcx_table
    import exactlid._erf

    importlib.reload(exactlid._erfcx_table)
    importlib.reload(exactlid._erf)
    rng = np.random.default_rng(0)
    for k in range(7, N_ROWS):
        y100 = rng.uniform(k, k + 1, 2000)
        x = 400.0 / y100 - 4.0
        x = x[(x >= 0.0) & (x <= 50.0)]
        got, want = exactlid._erf.erfcx(x), scipy.special.erfcx(x)
        if not np.array_equal(got.view(np.int64), want.view(np.int64)):
            bad = x[got != want][0]
            raise SystemExit(f"row {k}: port differs from scipy at x = {bad!r}")


def main() -> int:
    data = library_bytes()
    starts = recover(data)
    check_layout(data, starts)
    rows = [struct.unpack_from("<7d", data, starts[k]) for k in range(N_ROWS)]
    check_values(rows)
    rows.append((0.0,) * 6 + (1.0,))
    body = "".join("    (" + ", ".join(map(repr, row)) + "),\n" for row in rows)
    OUT.write_text(HEADER + "ROWS = (\n" + body + ")\n")
    check_port()
    print(f"wrote {OUT.relative_to(ROOT)}: {len(rows)} rows; all checks hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
