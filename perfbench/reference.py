"""Expected curve CSV values and the cell-by-cell comparison against them.

``expected_curve_rows`` re-derives every cell of a ``beta-curve`` CSV from
the model config with its own vectorised evaluation of the closed forms
(numpy over the time grid, one loop over points and components).  It shares
no code with the package, so it can check outputs for seeded inputs that
have no stored reference file.  It returns, next to each value, the scale
its error is judged against: ``bias`` is a responsibility-weighted sum whose
terms can cancel, so its budget is relative to the sum of absolute terms.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf, erfcx

LOG_2PI = math.log(2.0 * math.pi)
LOG_HALF = math.log(0.5)

# Relative budget per numeric cell.  Over 30 seeds this evaluation and the
# package differed by at most 6e-14 of a cell's scale; a wrong branch or
# formula moves cells far more.
RTOL = 1e-9
# Responsibilities below this are subnormal and carry no relative precision.
ATOL = 1e-300


def _log_cdf_diff_tail(zl, zh):
    delta = zh * zh - zl * zl
    with np.errstate(over="ignore"):
        rest = np.where(delta < 745.0, erfcx(zh) * np.exp(-np.minimum(delta, 745.0)), 0.0)
    return LOG_HALF - zl * zl + np.log(erfcx(zl) - rest)


def _box_axis(t, a, b, x):
    """Log smoothed density and Laplacian ratio of one box axis over ``t``."""
    lo, hi = x - b, x - a
    s = np.sqrt(2.0 * t)
    if lo >= 0.0 or hi <= 0.0:
        # outside the box: mirror onto the far side, use scaled erfc
        lo, hi = (lo, hi) if lo >= 0.0 else (-hi, -lo)
        zl, zh = lo / s, hi / s
        log_p = _log_cdf_diff_tail(zl, zh)
        delta = zh * zh - zl * zl
        damp = np.where(delta < 745.0, np.exp(-np.minimum(delta, 745.0)), 0.0)
        num = (lo - hi * damp) / np.sqrt(2.0 * math.pi * t)
        ratio = num / (0.5 * t * (erfcx(zl) - erfcx(zh) * damp))
    else:
        log_p = LOG_HALF + np.log(erf(hi / s) - erf(lo / s))
        num = (lo * np.exp(-lo * lo / (2.0 * t)) - hi * np.exp(-hi * hi / (2.0 * t)))
        ratio = num / np.sqrt(2.0 * math.pi * t) / (0.5 * t * (erf(hi / s) - erf(lo / s)))
    return log_p - math.log(b - a), ratio


def _on_manifold(density: dict, x, t):
    """Log smoothed on-manifold density, Laplacian ratio, and whether the
    unsmoothed density is positive at ``x``."""
    kind = density["type"]
    log_p = np.zeros_like(t)
    ratio = np.zeros_like(t)
    if kind == "gaussian":
        for sigma, xi in zip(density["sigmas"], x):
            v = sigma * sigma + t
            log_p += -0.5 * (LOG_2PI + np.log(v)) - xi * xi / (2.0 * v)
            ratio += (xi * xi - v) / (v * v)
        return log_p, ratio, True
    if kind == "box":
        inside = True
        for (a, b), xi in zip(density["bounds"], x):
            lp, r = _box_axis(t, a, b, xi)
            log_p += lp
            ratio += r
            inside = inside and a <= xi <= b
        return log_p, ratio, inside
    return log_p, ratio, True  # constant or point


def expected_curve_rows(config: dict, points, times):
    """Per point, a dict of arrays over ``times``: ``log_rho``, ``beta``,
    ``bias`` and ``w`` (times x components), the scales their budgets are
    relative to (``*_scale``), and the scalar ``diverged``."""
    t = np.asarray(times, dtype=float)
    D = config["ambient_dim"]
    comps = config["components"]
    weights = np.asarray(config["weights"], dtype=float)
    weights = weights / math.fsum(weights) if abs(math.fsum(weights) - 1.0) > 1e-12 else weights
    out = []
    for z in points:
        z = np.asarray(z, dtype=float)
        log_terms, comp_bias, contains = [], [], []
        for comp, w in zip(comps, weights):
            d = comp["dim"]
            x = z[:d]
            y = z[d:] - np.asarray(comp["offset"], dtype=float)
            yy = float(y @ y)
            if d == 0:
                log_p, ratio, positive = np.zeros_like(t), np.zeros_like(t), True
            else:
                log_p, ratio, positive = _on_manifold(comp["density"], x, t)
            k = D - d
            log_k = -0.5 * k * (LOG_2PI + np.log(t)) - yy / (2.0 * t) if k else 0.0
            log_terms.append(math.log(w) + log_p + log_k)
            comp_bias.append(yy / t + t * ratio)
            contains.append(yy == 0.0 and positive)
        log_terms = np.array(log_terms).T  # times x components
        top = log_terms.max(axis=1, keepdims=True)
        log_total = top[:, 0] + np.log(np.exp(log_terms - top).sum(axis=1))
        w = np.exp(log_terms - log_total[:, None])
        dims = np.array([c["dim"] for c in comps])
        d_ref = dims[contains].min() if any(contains) else dims.min()
        terms = w * ((dims - d_ref)[None, :] + np.array(comp_bias).T)
        terms[w == 0.0] = 0.0
        bias = terms.sum(axis=1)
        # w = exp(log_term - log_total) inherits the rounding of both logs,
        # which grows with their magnitude; dw = w (1 - w) d(log ratio), so a
        # dominant component (w ~ 1) is insensitive.  Scale budgets by that.
        cond = 1.0 + (1.0 - w) * (np.abs(log_terms) + np.abs(log_total)[:, None])
        bias_scale = (np.abs(terms) * cond).sum(axis=1)
        out.append(
            {
                "point": tuple(float(c) for c in z),
                "log_rho": log_total,
                "beta": (d_ref - D) + bias,
                "beta_scale": abs(d_ref - D) + bias_scale,
                "bias": bias,
                "bias_scale": bias_scale,
                "w": w,
                "w_scale": w * cond,
                "diverged": not any(contains),
            }
        )
    return out


def cell_ok(got: float, want: float, scale: float) -> bool:
    """``got`` matches ``want`` within the relative budget of ``scale``."""
    if not (math.isfinite(got) and math.isfinite(want)):
        return got == want or (math.isnan(got) and math.isnan(want))
    return abs(got - want) <= RTOL * max(abs(want), scale) + ATOL
