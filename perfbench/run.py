"""Run one workload of the nearbeam benchmark and print its metrics.

    python3 perfbench/run.py --workload select-desk --seed 1 --seconds 10 --trace 0

Run it from a source checkout: the package is imported from the ``src``
directory next to this one, never from an installed copy, and the script
exits with an error if it is not there. The metric names and units are the
ones ``BENCHMARK.json`` declares. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
from a traced run with ``--trace 1``. A traced run first runs the workload
untraced, then traced, and reports how much slower the workload's own stage
ran with tracing as ``trace.overhead_pct``. Scratch files and span files go
to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
# BLAS threads are fixed before numpy loads; OpenBLAS would pick the same
# number by itself, but fixing it keeps runs on one machine comparable
os.environ.setdefault("OPENBLAS_NUM_THREADS", str(NPROC))
os.environ.setdefault("OMP_NUM_THREADS", str(NPROC))


def blas_threads() -> str:
    """The thread count the loaded OpenBLAS reports, or the setting if it cannot be asked."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ["OPENBLAS_NUM_THREADS"] + " (set, not queried)"


def load_program():
    """Import nearbeam from the checkout's src directory, refusing any other copy."""
    if not (SRC / "nearbeam" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'nearbeam'}; "
                         "run the benchmark from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import nearbeam

    if not Path(nearbeam.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: nearbeam was imported from {nearbeam.__file__}, not {SRC}")


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit(f"error: {spec_path} not found")
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()

    import numpy as np

    import tracing
    import workloads

    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]
    start = time.perf_counter()
    runs = [workload(args.seed, args.seconds, workloads.Sizes(), workdir)]
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            runs.append(workload(args.seed, args.seconds, workloads.Sizes(), workdir))
        finally:
            tracer.uninstall()
    elapsed = time.perf_counter() - start

    if args.trace:
        declared = spec["per_layer"]
        untraced, traced = runs
        tracer.write(workdir / f"trace-{args.workload}-seed{args.seed}.jsonl")
        values = tracing.layer_metrics(tracing.SpanStats(tracer.spans, traced.window), traced)
        rate = workloads.OWN_RATE[args.workload]
        values["trace.overhead_pct"] = (untraced.metrics[rate] / traced.metrics[rate] - 1) * 100
        print("# untraced end-to-end: " + json.dumps(untraced.metrics))
        print("# traced end-to-end: " + json.dumps(traced.metrics))
    else:
        declared = spec["end_to_end"]
        values = runs[0].metrics
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"error: workload produced no value for {missing}")

    def total(attr):
        return sum(getattr(r, attr) for r in runs)

    problems = [problem for r in runs for problem in r.problems]
    print(f"# env nproc={NPROC} blas_threads={blas_threads()} "
          f"numpy={np.__version__} python={platform.python_version()}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={total('attempted')} failed={total('failed')} "
          f"(samples={total('samples')} head-epochs={total('epochs')} "
          f"selections={total('selections')}) wall_s={elapsed:.2f}")
    print("# unbounded: " + json.dumps(runs[0].notes))
    for problem in problems[:20]:
        print(f"# check failed: {problem}", file=sys.stderr)
    if problems:
        print(f"# {len(problems)} check(s) failed", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": total("attempted"),
        "failed": total("failed"),
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
