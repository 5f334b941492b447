"""Paired benchmark runs of two checkouts, and the verdict on a claimed gain.

Usage, from anywhere:

    python3 tools/bench_pairs.py PARENT CHANGE --workload regimes \\
        --seeds 1-10 --seconds 16 --out BENCH_19.json

PARENT and CHANGE are the roots of two checkouts.  For each seed listed, one
pair of runs of ``perfbench/run.py --trace 0`` is made, one per checkout,
each from its own root; the side that runs first alternates from pair to
pair.  A seed listed n times (``--seeds 11,11,11,11``) makes n pairs.

The comparison appended to ``--out`` (a JSON file holding a list under
``comparisons``; created if missing) has every run's end-to-end metrics and,
per metric, each side's median and quartiles, the pairs the change won,
its verdict on the bound in the change's ``BENCHMARK.json``, and whether the
change gains on it.  A metric is ``within_bound`` unless the change's median
is worse than the parent's by more than the bound.  Such a metric is
``beyond_bound`` when every change run is worse than every parent run, or
when the pairs resolve it: at least ten pairs ran and the parent's quartile
distance, relative to its median, is within the bound.  Otherwise it is
``unresolved``.  A metric gains when at least ten pairs ran, the change won
at least nine tenths of them (ties count for neither side), its median is
better by more than the distance between the parent's quartiles, and it
failed no more ops than the parent.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WIN_SHARE = 0.9  # a gain needs the change to win at least this share of the pairs
MIN_PAIRS = 10  # and at least this many pairs


def parse_seeds(text: str) -> list[int]:
    """'1-3,7' -> [1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(root: str, workload: str, seed: int, seconds: int) -> dict:
    """One end-to-end benchmark run in the checkout at `root`."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed in {root}:\n{proc.stderr}")
    details, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "op_list_digest": details["op_list_digest"],
            "environment": details["environment"]}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: str, bound: float | None, failed_ops: dict) -> dict:
    """Medians, quartiles, pair wins and the gain verdict of one metric;
    `pairs` and `failed_ops` hold {"parent": ..., "change": ...}."""
    sign = 1.0 if better == "higher" else -1.0
    parent = quartiles([p["parent"] for p in pairs])
    change = quartiles([p["change"] for p in pairs])
    wins = sum(sign * (p["change"] - p["parent"]) > 0.0 for p in pairs)
    difference = change["median"] - parent["median"]
    worse_by = -sign * difference / abs(parent["median"]) if parent["median"] else 0.0
    spread = parent["q3"] - parent["q1"]
    gain = (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * difference > spread and failed_ops["change"] <= failed_ops["parent"])
    if bound is None or worse_by <= bound:
        verdict = "within_bound"
    elif max(sign * p["change"] for p in pairs) < min(sign * p["parent"] for p in pairs):
        verdict = "beyond_bound"  # every change run is worse than every parent run
    elif len(pairs) < MIN_PAIRS or spread / abs(parent["median"]) > bound:
        verdict = "unresolved"
    else:
        verdict = "beyond_bound"
    return {"better": better, "parent": parent, "change": change,
            "change_won": wins, "pairs": len(pairs),
            "median_difference": difference,
            "parent_quartile_distance": spread,
            "change_worse_by": worse_by, "bound": bound,
            "bound_verdict": verdict, "gain": gain}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="one pair per seed listed, e.g. 1-10 or 1,4,7 or 11,11")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", required=True, help="JSON file the comparison is appended to")
    args = parser.parse_args()
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8") as f:
        declared = {m["name"]: m for m in json.load(f)["end_to_end"]}

    runs, pairs = [], []
    for index, seed in enumerate(args.seeds):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        pair = {}
        for position, side in enumerate(order):
            start = time.monotonic()
            run = run_once(roots[side], args.workload, seed, args.seconds)
            run.update(pair=index, seed=seed, side=side, ran=position + 1,
                       wall_s=round(time.monotonic() - start, 1))
            runs.append(run)
            pair[side] = run
            print(f"pair {index} seed {seed} {side}: ops_per_s "
                  f"{run['metrics']['ops_per_s']:.4g}", file=sys.stderr)
        if pair["parent"]["op_list_digest"] != pair["change"]["op_list_digest"]:
            raise SystemExit(f"seed {seed}: the two checkouts made different op lists")
        pairs.append(pair)

    failed_ops = {side: sum(r["failed"] for r in runs if r["side"] == side) for side in roots}
    metrics = {}
    for name in runs[0]["metrics"]:
        values = [{side: p[side]["metrics"][name] for side in roots} for p in pairs]
        spec = declared.get(name, {"better": "higher" if name == "ops_per_s" else "lower"})
        metrics[name] = summarize(values, spec["better"], spec.get("bound"), failed_ops)
    comparison = {
        "workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed S "
                   f"--seconds {args.seconds} --trace 0",
        "correct_all_runs": all(r["correct"] for r in runs),
        "failed_ops": failed_ops,
        "gains": [name for name, m in metrics.items() if m["gain"]],
        **{verdict: [name for name, m in metrics.items() if m["bound_verdict"] == verdict]
           for verdict in ("beyond_bound", "unresolved")},
        "metrics": metrics,
        "runs": runs,
    }
    document = {"comparisons": []}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as f:
            document = json.load(f)
    document["comparisons"].append(comparison)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(document, f, indent=1)
        f.write("\n")
    print(json.dumps({key: comparison[key] for key in ("workload", "gains", "beyond_bound",
                                                          "unresolved")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
