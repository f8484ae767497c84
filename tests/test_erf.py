"""The numpy ``erf`` and ``erfcx`` against scipy's, bit for bit."""

import math
import platform

import numpy as np
import pytest
import scipy.special

from exactlid._erf import _libm_exp, erf, erfcx

# The ports repeat scipy's operations one for one; they equal its results
# only where scipy's compiled library rounds each multiply and add on its
# own, as its x86-64 build does.  A build that fuses multiply-adds (arm64,
# for one) differs from the ports in the last bit of some values.
x86_64_only = pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="bit identity assumes scipy's x86-64 build, which fuses no multiply-adds",
)

SPECIAL = [
    0.0, -0.0, 1.0, -1.0, 6.0, -6.0, 50.0, 5e7, 4.4e-16, 5e-16,
    math.nextafter(1.0, 2.0), math.nextafter(6.0, 0.0), math.nextafter(50.0, 51.0),
    math.nextafter(5e7, 1e8), 5e-324, -5e-324, 2.2e-308, -2.2e-308,
    math.inf, -math.inf, math.nan,
]


def _sweep(rng, n, uniform_range, signed):
    uniform = rng.uniform(*uniform_range, n)
    magnitudes = 10.0 ** rng.uniform(-320.0, 300.0, n)
    if signed:
        magnitudes *= rng.choice([-1.0, 1.0], n)
    return np.concatenate([uniform, magnitudes, SPECIAL])


def _assert_bit_identical(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    same = got.view(np.int64) == want.view(np.int64)  # equal values and signs
    bad = ~(same | nan)
    assert not bad.any(), f"{np.count_nonzero(bad)} values differ"


@x86_64_only
@pytest.mark.parametrize(
    "ours,theirs,uniform_range,signed",
    [
        pytest.param(erf, scipy.special.erf, (-8.0, 8.0), True, id="erf"),
        pytest.param(erfcx, scipy.special.erfcx, (0.0, 60.0), False, id="erfcx"),
    ],
)
def test_port_equals_scipy_bit_for_bit(ours, theirs, uniform_range, signed):
    rng = np.random.default_rng(20261018)
    x = _sweep(rng, 1_000_000, uniform_range, signed)
    if not signed:
        x = x[~(x < 0.0)]
    _assert_bit_identical(ours(x), theirs(x))
    # shapes: a scalar, a column and a (P, T) block
    block = x[: 6 * 81].reshape(6, 81)
    for arg in (x[1], x[:50, None], block):
        got, want = ours(arg), theirs(arg)
        assert type(got) is type(want)
        _assert_bit_identical(got, want)


def test_libm_exp_is_the_c_library_exp():
    # Cephes' erf calls the C library's exp on -x^2 for 1 < |x| < 6
    rng = np.random.default_rng(1)
    v = -(rng.uniform(1.0, 6.0, 20_000) ** 2)
    assert np.array_equal(_libm_exp(v), [math.exp(u) for u in v.tolist()])


def test_erfcx_rejects_negative_arguments():
    with pytest.raises(ValueError, match="x >= 0"):
        erfcx(np.array([1.0, -1e-300]))
