"""exactlid benchmark: end-to-end CLI workloads with an outside-in trace.

Run from the repository root:

    python3 perfbench/run.py --workload figures --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the chosen workload end to end: the median time of
its full command list run through ``exactlid.cli.main`` in this process,
repeated for ``--seconds``, plus the median set-up time of a fresh
interpreter importing ``exactlid.cli``.  ``--trace 1`` runs every workload
once more with the package's public functions wrapped from outside and
reports per-layer call counts and self times, named
``<workload>.<module>.<function>.<calls|self_s>``, so that each layer is
reported on the workload that exercises it.  Every command's output is
checked; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

# Single-threaded numerics, so that one process is the whole load; set
# before numpy is imported here or in the set-up subprocesses.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SETUP_RUNS = 7  # fresh-interpreter imports per run, at least; the median is reported
IMPORTTIME_RUNS = 3
MIN_REPS = 3  # command-list repetitions per timed run, at least
TRACE_BASELINE_REPS = 2  # untraced repetitions per workload in a traced run


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_setup() -> float:
    """Seconds from starting a fresh interpreter until ``import
    exactlid.cli`` returns and the process exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import exactlid.cli"],
                   env=_child_env(), check=True)
    return time.perf_counter() - start


SETUP_PACKAGES = ("numpy", "scipy", "exactlid")


def _import_self_time_by_package(lines) -> dict:
    """Seconds of ``-X importtime`` self time per package in
    ``SETUP_PACKAGES``.  A module's time goes to the innermost package
    module that imported it (or to its own package), so a stdlib module
    numpy pulls in counts as numpy and a numpy submodule scipy pulls in
    counts as numpy.  The log prints children before their parent, so it
    is read backwards with a stack of (depth, package)."""
    totals = dict.fromkeys(SETUP_PACKAGES, 0)
    stack = []
    for line in reversed(lines):
        _, _, rest = line.partition("import time:")
        fields = rest.split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name_field = fields[2].rstrip()
        name = name_field.strip()
        depth = len(name_field) - len(name_field.lstrip())
        while stack and stack[-1][0] >= depth:
            stack.pop()
        package = name.partition(".")[0]
        if package not in totals:
            package = stack[-1][1] if stack else None
        if package is not None:
            totals[package] += int(fields[0])
        stack.append((depth, package))
    return {k: v / 1e6 for k, v in totals.items()}


def setup_breakdown() -> dict:
    """Median import cost of numpy, scipy and the package itself, from
    ``python -X importtime -c "import exactlid.cli"``."""
    samples = {k: [] for k in SETUP_PACKAGES}
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import exactlid.cli"],
            env=_child_env(), check=True, capture_output=True, text=True,
        )
        for k, v in _import_self_time_by_package(proc.stderr.splitlines()).items():
            samples[k].append(v)
    return {f"setup.{k}_s": statistics.median(v) for k, v in samples.items()}


def run_commands(main, commands) -> list:
    """Run each argv through the CLI entry point; (exit code, stdout) each."""
    results = []
    for argv in commands:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception:  # noqa: BLE001 - a crash is a failed command
            traceback.print_exc()
            code = -1
        results.append((code, buf.getvalue()))
    return results


class Runner:
    """Runs one workload's command list and checks each repetition."""

    def __init__(self, workload, main):
        self.workload = workload
        self.main = main
        self.attempted = 0
        self.failed = 0

    def rep(self, main=None) -> float:
        out = self.workload.out
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        commands = self.workload.commands
        start = time.perf_counter()
        results = run_commands(main or self.main, commands)
        wall = time.perf_counter() - start
        failures = self.workload.check(results)
        for message in failures:
            print(f"FAILED {self.workload.name}: {message}", file=sys.stderr)
        self.attempted += len(commands)
        self.failed += len(failures)
        return wall


def timed_pass(name: str, seed: int, seconds: float, work: Path) -> tuple:
    from exactlid import cli

    runner = Runner(WORKLOADS[name](seed, work), cli.main)
    walls, setup = [], []
    # Set-up samples alternate with repetitions so that both medians span
    # the whole run, not one stretch of a machine whose speed drifts.
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_REPS or time.perf_counter() < deadline:
        walls.append(runner.rep())
        setup.append(time_setup())
    while len(setup) < SETUP_RUNS:
        setup.append(time_setup())
    wall = statistics.median(walls)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "evals_per_s": (runner.workload.evals / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"{name}: {len(walls)} repetitions, {runner.workload.evals} evaluations each, "
          f"fail_frac {runner.failed / runner.attempted:.4g}")
    return metrics, runner.attempted, runner.failed


def traced_pass(seed: int, work: Path) -> tuple:
    from tracer import Tracer
    from exactlid import cli

    metrics = {}
    attempted = failed = 0
    for name, make in WORKLOADS.items():
        workload = make(seed, work / name)
        runner = Runner(workload, cli.main)
        runner.rep()  # warm-up: lazy imports and caches, not timed
        base = statistics.median(runner.rep() for _ in range(TRACE_BASELINE_REPS))
        tracer = Tracer()
        with tracer.installed():
            traced_wall = runner.rep(tracer.span("cli", cli.main))
        attempted += runner.attempted
        failed += runner.failed

        prefix = f"{name}."
        for key in workload.traced:
            stats = tracer.stats[key]
            metrics[prefix + key + ".calls"] = (stats.calls, "count")
            metrics[prefix + key + ".self_s"] = (stats.self_s, "s")
        metrics[prefix + "cli.self_s"] = (tracer.stats["cli"].self_s, "s")
        metrics[prefix + "trace_overhead_frac"] = (traced_wall / base - 1.0, "ratio")
        component_calls = tracer.stats["analytic.log_component_rho"].calls
        metrics[prefix + "analytic.useful_component_frac"] = (
            tracer.nonzero_responsibilities / component_calls, "ratio")
        if "output.curve_csv_text" in workload.traced:
            metrics[prefix + "output.csv_bytes"] = (tracer.csv_bytes, "bytes")
            metrics[prefix + "svgplot.svg_bytes"] = (tracer.svg_bytes, "bytes")
        if "oracle.rho_monte_carlo" in workload.traced:
            metrics[prefix + "oracle.mc_samples"] = (tracer.mc_samples, "count")
        if name == "figures":
            metrics[prefix + "output.csv_identical"] = (workload.csv_identical, "count")
    for key, value in setup_breakdown().items():
        metrics[key] = (value, "s")
    return metrics, attempted, failed


def environment(seed: int, workload: str, trace: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "exactlid" / "cli.py").is_file():
        print(f"error: no exactlid sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.trace:
            metrics, attempted, failed = traced_pass(args.seed, work)
        else:
            metrics, attempted, failed = timed_pass(
                args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for key, (value, unit) in metrics.items():
        print(f"{key} {value!r} {unit}")
    print("env " + json.dumps(environment(args.seed, args.workload, args.trace), sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
