"""``erf`` and ``erfcx`` on numpy arrays, equal bit for bit to scipy's.

``erf`` is S. L. Moshier's Cephes ``erf`` and ``erfcx`` S. G. Johnson's
Faddeeva-package ``erfcx``, the two algorithms that ``scipy.special``
compiles.  Every step is the same IEEE double operation, in the same
order, as in the compiled library, which fuses no multiply-adds on
x86-64; so on that build the results are identical, which the figure
references need (a 1-ulp change of ``erfcx`` moves some of their slopes by
1e-13 relative).

The Cephes coefficients are those of ``ndtr.c`` in the Cephes Math Library
(Copyright 1984, 1987, 1988, 1992, 2000 by Stephen L. Moshier), as
distributed with scipy under its BSD license:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions
    are met:

    1. Redistributions of source code must retain the above copyright
       notice, this list of conditions and the following disclaimer.

    2. Redistributions in binary form must reproduce the above
       copyright notice, this list of conditions and the following
       disclaimer in the documentation and/or other materials provided
       with the distribution.

    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived
       from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

The ``erfcx`` table and the Faddeeva package's notice are in
``_erfcx_table.py``.
"""

from __future__ import annotations

import numpy as np

from ._erfcx_table import ROWS

__all__ = ["erf", "erfcx"]

# erf(x) = x T(x^2) / U(x^2) on |x| <= 1 (U monic, leading 1 implied)
_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
# erfc(x) = exp(-x^2) P(x) / Q(x) on 1 < x < 8 (Q monic)
_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
# erfc(x) < 2.2e-17 from here on, so 1 - erfc(x) rounds to 1
_ERF_ONE = 6.0

_ERFCX_ROWS = np.array(ROWS)
_ISPI = 0.56418958354775628694807945156  # 1 / sqrt(pi)


def _polevl(x: np.ndarray, coef, monic: bool) -> np.ndarray:
    # Cephes polevl (monic=False) and p1evl (monic=True): Horner's rule,
    # highest degree first, one rounding per multiply and per add.
    r = x + coef[0] if monic else coef[0] * x + coef[1]
    for c in coef[1 if monic else 2:]:
        r *= x
        r += c
    return r


def _libm_exp(v: np.ndarray) -> np.ndarray:
    # The C library's exp, which Cephes calls.  numpy's float64 exp is its
    # own SIMD routine and differs from it in the last bit on a few percent
    # of arguments; its complex exp calls the C library's cexp, whose real
    # part at a zero imaginary part is exp(v) (glibc and BSD libm alike).
    return np.exp(v.astype(complex)).real


def erf(x):
    """The error function of each element of ``x``, as scipy computes it."""
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    # +-1 for |x| >= 6 and infinities; NaN stays NaN
    out = np.sign(x, out=np.empty(x.shape))
    small = a <= 1.0
    z = x[small]
    z2 = z * z
    out[small] = z * _polevl(z2, _T, monic=False) / _polevl(z2, _U, monic=True)
    band = ~small & (a < _ERF_ONE)
    b = a[band]
    erfc = _libm_exp(-b * b) * _polevl(b, _P, monic=False) / _polevl(b, _Q, monic=True)
    out[band] = np.copysign(1.0 - erfc, x[band])
    return out[()]


def erfcx(x):
    """exp(x^2) erfc(x) of each element of ``x``, as scipy computes it, for
    x >= 0 (NaN gives NaN).  Negative arguments raise ValueError."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("erfcx is implemented for x >= 0 only")
    out = np.empty(x.shape)
    near = x <= 50.0
    y100 = 400.0 / (4.0 + x[near])
    k = y100.astype(np.intp)
    t = 2.0 * y100 - (2 * k + 1)
    coef = _ERFCX_ROWS.take(k, axis=0)  # (n, 7), several times faster than [k]
    r = coef[:, 0] * t
    for j in range(1, 6):
        r += coef[:, j]
        r *= t
    r += coef[:, 6]
    out[near] = r
    far = ~near  # x > 50 or NaN
    f = x[far]
    m = np.minimum(f, 5e7)  # keeps the continued fraction's squares finite
    m2 = m * m
    out[far] = np.where(
        f <= 5e7,
        _ISPI * (m2 * (m2 + 4.5) + 2.0) / (m * (m2 * (m2 + 5.0) + 3.75)),
        _ISPI / f,
    )
    return out[()]
