"""Outside-in tracer: wraps the package's public functions from outside.

Each wrapped function counts its calls and accumulates self time, its own
duration minus that of traced calls made inside it (a span stack).  The
package imports functions by name (``from .analytic import log_mixture_rho``)
and keeps some in dicts (``verify.SUITES``), so every binding of a wrapped
function object in the package's modules is replaced, not only the one in
its defining module.  ``Tracer.installed`` restores every binding on exit
and checks that no wrapper is left behind.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# module -> wrapped names; "Class.method" wraps a method on its class
TRACED = {
    "model": ("model_from_json",),
    "analytic": (
        "log_smoothed_density",
        "smoothed_laplacian_ratio",
        "log_component_rho",
        "log_mixture_rho",
        "mixture_beta_t",
        "reference_dim",
    ),
    "estimator": ("bias_curve", "estimate_lid", "lidl_fit"),
    "oracle": (
        "rho_quadrature",
        "rho_monte_carlo",
        "beta_fd_time",
        "asymptotic_slope_pair",
    ),
    "verify": ("heat_suite", "laplacian_suite", "mixture_suite", "slopes_suite"),
    "output": ("curve_csv_text", "RunManifest.write"),
    "svgplot": ("line_plot",),
}

PACKAGE = "exactlid"


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0


@dataclass
class Tracer:
    stats: dict = field(default_factory=dict)
    # counters observed at the wrapped boundaries
    nonzero_responsibilities: int = 0
    csv_bytes: int = 0
    svg_bytes: int = 0
    mc_samples: int = 0
    _stack: list = field(default_factory=list)

    def _wrap(self, key: str, fn, observe=None):
        stats = self.stats.setdefault(key, SpanStats())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats.self_s += elapsed - stack.pop()
                stats.calls += 1
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(args, kwargs, return_value)
            return return_value

        return traced

    def span(self, key: str, fn):
        """``fn`` traced as a span named ``key``, for a caller outside the
        package (the root span of a command)."""
        return self._wrap(key, fn)

    # -- observers -------------------------------------------------------
    def _on_mixture_beta(self, args, kwargs, result):
        self.nonzero_responsibilities += int(np.count_nonzero(result[1]))

    def _on_csv(self, args, kwargs, result):
        self.csv_bytes += len(result.encode("utf-8"))

    def _on_svg(self, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        self.svg_bytes += os.path.getsize(path)

    def _on_monte_carlo(self, args, kwargs, result):
        mc = args[3] if len(args) > 3 else kwargs["mc"]
        self.mc_samples += mc.samples

    # -- installation ----------------------------------------------------
    def _bindings(self):
        """Every binding to patch: module globals and module-level dict
        values across the package, and methods on their class."""
        observers = {
            "analytic.mixture_beta_t": self._on_mixture_beta,
            "output.curve_csv_text": self._on_csv,
            "svgplot.line_plot": self._on_svg,
            "oracle.rho_monte_carlo": self._on_monte_carlo,
        }
        namespaces = {}
        for name, module in list(sys.modules.items()):
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + ".")):
                ns = vars(module)
                for d in [ns] + [v for v in ns.values() if isinstance(v, dict)]:
                    namespaces[id(d)] = d
        for mod_name, names in TRACED.items():
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            for name in names:
                key = f"{mod_name}.{name}"
                cls_name, _, attr = name.rpartition(".")
                if cls_name:
                    cls = getattr(module, cls_name)
                    original = getattr(cls, attr)
                    wrapper = self._wrap(key, original, observers.get(key))
                    yield _Binding(cls, attr, original, wrapper, is_attr=True)
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(key, original, observers.get(key))
                for ns in namespaces.values():
                    for k, v in list(ns.items()):
                        if v is original:
                            yield _Binding(ns, k, original, wrapper, is_attr=False)

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding for the duration of the block."""
        bindings = list(self._bindings())
        for b in bindings:
            b.set(b.wrapper)
        try:
            yield self
        finally:
            for b in bindings:
                b.set(b.original)
            stale = [b.attr for b in bindings if b.get() is not b.original]
            if stale:
                raise RuntimeError(f"tracer failed to restore: {stale}")


@dataclass
class _Binding:
    owner: object
    attr: str
    original: object
    wrapper: object
    is_attr: bool

    def get(self):
        return getattr(self.owner, self.attr) if self.is_attr else self.owner[self.attr]

    def set(self, value):
        if self.is_attr:
            setattr(self.owner, self.attr, value)
        else:
            self.owner[self.attr] = value
