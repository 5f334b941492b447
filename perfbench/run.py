"""Fixed-work benchmark of scert: one workload per call, closed loop, one caller.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the traced pass and reports the per-layer metrics.  The op list is made
from ``--seed``; its length is ``--seconds`` times the workload's nominal op
rate, so a run does the same work however fast the host happens to be.
Every workload process is a fresh interpreter started from here.  The last
stdout line is the result object; the line before it holds the op-list
digest, the environment and the details behind each metric, raw wall times
included.

The shared host changes speed by up to 1.7x every few seconds.  Each time
metric is therefore a wall time rescaled to a nominal host speed: time x
nominal / measured time of a fixed reference kernel (``worker.py``), which
runs every 25 ms of op time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("lattice", "regimes", "montecarlo", "cli")  # workloads.WORKLOADS; no scert import here
SETUP_PROCESSES = 5    # set-up is timed in this many fresh processes; median reported
DEADLINE_S = 170.0     # the whole call must end well inside 180 s
TAIL_BEYOND = 10       # op_tail_ms: the highest percentile with >= 10 ops beyond it


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _worker(args, mode: str, deadline: float) -> dict:
    """Start one workload process, wait for it and return its result object."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--t0-ns", str(time.monotonic_ns())]
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload process failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies_ms: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with TAIL_BEYOND ops beyond it."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    index = max(0, n - TAIL_BEYOND - 1)
    return 100.0 * (index + 1) / n, ordered[index]


def end_to_end(args, deadline: float) -> tuple[dict, dict, dict]:
    setups = [_worker(args, "setup", deadline) for _ in range(SETUP_PROCESSES - 1)]
    run = _worker(args, "run", deadline)
    setups.append(run)
    setup_s = [s["setup_s"] * s["setup_speed"] for s in setups]
    wall_ms = [ns / 1e6 for ns in run["latencies_ns"]]
    latencies = [ms * speed for ms, speed in zip(wall_ms, run["host_speed"])]
    percentile, tail_ms = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (1e3 * len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (run["maxrss_kb"] / 1024.0, "MB"),
    }
    details = {
        "ops": len(latencies), "op_tail_percentile": percentile,
        "setup_s_samples": setup_s,
        "wall": {"setup_s": statistics.median(s["setup_s"] for s in setups),
                 "ops_per_s": 1e3 * len(wall_ms) / sum(wall_ms),
                 "op_p50_ms": statistics.median(wall_ms), "op_tail_ms": tail(wall_ms)[1]},
        "host_speed_median": statistics.median(run["host_speed"]),
    }
    return run, metrics, details


def per_layer(args, deadline: float) -> tuple[dict, dict, dict]:
    run = _worker(args, "trace", deadline)
    units = {"calls": "count", "self_ms": "ms", "rows_mean": "count",
             "halfspaces_mean": "count", "lp_per_call": "count"}
    metrics = {name: (value, units.get(name.rsplit(".", 1)[1], "ratio"))
               for name, value in run["layer_metrics"].items()}
    details = {"traced_ops": run["attempted"] // 2, "spans": run["n_spans"],
               "span_file": run["span_file"]}
    return run, metrics, details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "scert", "__init__.py")):
        print(f"error: no scert sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    run, metrics, details = (per_layer if args.trace else end_to_end)(args, deadline)
    if run["failures"]:
        print("failed ops (first few): " + "; ".join(run["failures"]), file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "op_list_digest": run["digest"], "environment": run["environment"],
                      **details}))
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
