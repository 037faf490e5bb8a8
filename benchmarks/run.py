"""Layered benchmark for vofabrik: one closed-loop workload per run.

    python3 benchmarks/run.py --workload cavity --seed 0 --seconds 60 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/`` directory. With ``--trace 0`` it times calls into the package's
exported functions and prints the end-to-end metrics; with ``--trace 1`` it
replays every recorded planner step through each layer's public functions
and prints the per-layer metrics. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

One process, one thread: a single caller waits for each call before making
the next, and numpy/BLAS thread pools are pinned to one thread before numpy
is imported.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "vofabrik"
OUT_DIR = ROOT / ".bench_out"

# set-up is short, so it is repeated and its median reported
SETUP_REPEATS = 7


def import_package():
    """Import vofabrik afresh from the checkout's src/ directory."""
    for name in [m for m in sys.modules if m == "vofabrik" or m.startswith("vofabrik.")]:
        del sys.modules[name]
    vf = importlib.import_module("vofabrik")
    if Path(vf.__file__).resolve().parent != PACKAGE_DIR.resolve():
        raise ImportError(f"vofabrik imported from {vf.__file__}, not from {PACKAGE_DIR}")
    return vf


def timed_setup(build):
    """Import the package and build the workload's inputs SETUP_REPEATS
    times; return the last (package, inputs) and the median set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        vf = import_package()
        inputs = build(vf)
        times.append(time.perf_counter() - t0)
    return vf, inputs, statistics.median(times)


def environment():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads_pinned": 1,
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
    }


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE_DIR.parent))

    spec = workloads.WORKLOADS[args.workload]
    print("env " + json.dumps(environment(), sort_keys=True))
    vf, inputs, setup_s = timed_setup(lambda vf: spec.build(vf, args.seed))
    spec.prepare(vf, inputs, args.seed)
    OUT_DIR.mkdir(exist_ok=True)

    if args.trace:
        result = tracing.run_traced(vf, args.workload, inputs, args.seconds, OUT_DIR, args.seed)
    else:
        result = spec.run(vf, inputs, args.seconds, OUT_DIR)
        result.metrics["setup_s"] = (setup_s, "s")
        result.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")

    for line in result.lines:
        print(line)
    for name, (value, unit) in sorted(result.metrics.items()):
        print(f"metric {name} = {value} {unit}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
