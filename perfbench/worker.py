"""One workload process: set-up, then a timed or traced pass over the op list.

Started by ``run.py`` in a fresh interpreter with the BLAS pools pinned to
one thread.  Prints one JSON object on its last stdout line.

Modes:
  setup  import scert and numpy, make the op list, run the warm-up ops, and
         report the set-up time;
  run    set-up, then every op back to back with tracing off, pausing
         every CALIBRATE_EVERY_NS of op time to time the reference kernel;
  trace  set-up, then the first ``trace_ops`` ops, each once untraced and
         once traced, for the per-layer metrics and the tracing overhead.
"""

import argparse
import json
import math
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALIBRATE_EVERY_NS = 10_000_000
# Typical reference-kernel time on the 2-core Xeon the benchmark was sized on,
# without and with the array part: op times are rescaled to this host speed.
NOMINAL_REFERENCE_NS = {False: 300_000, True: 700_000}


def _parse():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--t0-ns", type=int, required=True,
                        help="time.monotonic_ns() taken by the parent just before the start")
    return parser.parse_args()


def _run_op(workload, op, failures: list) -> int:
    """Run one op; return its wall time in ns and note a failure."""
    start = time.perf_counter_ns()
    try:
        workload.run_op(op)
    except Exception as exc:  # any exception is a failed op, counted and reported
        failures.append(f"{op[0]}: {type(exc).__name__}: {exc}")
    return time.perf_counter_ns() - start


def reference_kernel(table=None) -> float:
    """Fixed work of the sort scert does: small numpy calls from Python and,
    given ``table``, rank-one updates of it as in a simplex pivot.

    Its time tracks the host's current speed.  It never calls scert, so no
    change to the program can move it.
    """
    import numpy as np

    a = np.linspace(-1.0, 1.0, 24).reshape(8, 3)
    total = 0.0
    for i in range(20):
        v = a[i % 8]
        total += float(np.max(a @ v)) + math.sqrt(abs(float(v @ v)))
        total += len(sorted(map(tuple, a[:6])))
    if table is not None:
        t = table.copy()
        for r in range(3):
            t -= np.outer(t[:, r] * 1e-3, t[r])
        total += float(t[0, 0])
    return total


def reference_ns(table=None) -> int:
    """Fastest of three back-to-back runs of the reference kernel."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter_ns()
        reference_kernel(table)
        best = min(best, time.perf_counter_ns() - start)
    return best


def _environment() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0))}


def main() -> int:
    args = _parse()
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    import numpy as np

    import scert
    from perfbench import workloads
    if not os.path.abspath(scert.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"scert imported from {scert.__file__}, not from this checkout", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]()
    ops = workload.make_ops(args.seed, workloads.op_count(workload, args.seconds))
    for op in workloads.warmup_ops(workload):
        workload.run_op(op)
    setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9
    table = None
    if workload.array_bound:  # a 257 x 264 table: 0.5 MB, like the arrays its ops sweep
        table = np.linspace(-1.0, 1.0, 257 * 264).reshape(257, 264)
    nominal = NOMINAL_REFERENCE_NS[table is not None]
    result = {"setup_s": setup_s, "setup_speed": nominal / reference_ns(table)}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    digest = workloads.op_digest(ops)
    failures: list[str] = []
    if args.mode == "run":
        latencies, calibrations, slot = [], [], []
        since = CALIBRATE_EVERY_NS
        for op in ops:
            if since >= CALIBRATE_EVERY_NS:
                calibrations.append(reference_ns(table))
                since = 0
            latencies.append(_run_op(workload, op, failures))
            slot.append(len(calibrations) - 1)
            since += latencies[-1]
        calibrations.append(reference_ns(table))
        # each op gets the mean of the calibrations just before and after it
        speeds = [2 * nominal / (calibrations[j] + calibrations[j + 1]) for j in slot]
        attempted = len(ops)
        result.update(latencies_ns=latencies, host_speed=speeds,
                      maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    else:
        from perfbench import tracer as tracing
        ops = ops[:workload.trace_ops]
        tracer = tracing.Tracer().install()
        tracer.unbind()
        untraced = traced = 0
        for index, op in enumerate(ops):
            untraced += _run_op(workload, op, failures)
            tracer.op = index
            tracer.rebind()
            try:
                traced += _run_op(workload, op, failures)
            finally:
                tracer.unbind()
        tracer.uninstall()
        metrics = tracing.layer_metrics(tracer.spans, len(ops))
        metrics["trace.overhead_ratio"] = traced / untraced
        attempted = 2 * len(ops)  # each op runs once untraced, once traced
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        span_file = os.path.join(workloads.OUT_DIR,
                                 f"spans-{args.workload}-seed{args.seed}.json")
        tracer.write(span_file)
        result.update(layer_metrics=metrics, span_file=os.path.relpath(span_file, ROOT),
                      n_spans=len(tracer.spans))
    result.update(attempted=attempted, failed=len(failures), failures=failures[:5],
                  digest=digest, environment=_environment())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
