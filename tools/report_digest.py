"""SHA-256 digests of what the program reports, to show that a change alters no output.

Usage, from anywhere:

    python3 tools/report_digest.py --seeds 1-3

prints four lines, each a label and a digest, and two more, ``work`` and
``scale``, with counts.  ``regimes`` covers the
`classify_regimes` reports of the perfbench ``regimes`` ops of each seed,
880 of them (those of one 16 s run), each run by the workload's own op runner,
which also checks the report against its evidence: both verdicts, the gaps
as ``float.hex``, ``same_top``, ``same_runner_up`` and every evidence key and
value in order.  ``records`` covers the `run_experiment` records of each seed
under both weight policies, 100 draws per member count 2, 3 and 4.
``lattice`` covers the perfbench ``lattice`` ops of each seed, 1,120 of them
(those of one 16 s run), each run by the workload's own op runner: the rows
of its q_u, q_cw and q_cd regions as ``float.hex`` and its five containment
results, in order.  ``nmember`` covers `classify_regimes` on seeded 3- and
4-member point-cloud ensembles of each seed, 2D and 3D in modes u, cw and cd,
12 of them, each run by the regimes op runner: the verdict, the method, the
four containment flags and any error, but no float, so that a change that
moves only rounding keeps it.  ``work`` counts what the regimes ops of the
seeds cost the LP solver: its calls (``_simplex.maximize``), its phase-2 runs
(``_simplex._phase2``) and its pivots (``_simplex._pivot``), and the union
carves the ensemble runs (``ensemble.region_minus_subset``), so that a change
that saves LP work shows it, and one that should not move it shows none.
``scale`` counts, per dimension, the regimes ops of the seeds whose verdict or
evidence changes, or that raise, when every gradient is scaled by 2^-600 and
by 2^600 (``2d=a+b``, a at 2^-600 and b at 2^600); ``1d`` counts the same of
seeded 1D two-member ensembles run by the regimes op runner, 100 per mode
and seed, of 3 classes and 4 gradient sites.  A certificate scales exactly
with its gradients, so each count is a verdict that depends on an absolute
size.  Run it in two checkouts and compare the lines.  Standard
library and numpy only.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT, os.path.join(ROOT, "tools")]

from bench_pairs import parse_seeds  # noqa: E402
from perfbench import workloads  # noqa: E402
from scert import _simplex, certificates, ensemble, simulate  # noqa: E402

REGIMES_OPS = workloads.op_count(workloads.Regimes, 16)
LATTICE_OPS = workloads.op_count(workloads.Lattice, 16)
DRAWS = 100
NMEMBER_KINDS = tuple((n, dim, mode, 5 if dim == 2 else 3) for n in (3, 4)
                      for dim in (2, 3) for mode in ("u", "cw", "cd"))
FLAGS = ("contains_intersection", "within_union", "contains_union", "within_intersection")
SCALES = (-600, 600)  # the powers of two of the scale line
ONE_D_DRAWS = 100  # the 1D ensembles of the scale line, per mode and seed


def _encode(value) -> str:
    """A canonical text of a reported value: floats as float.hex, so that
    two runs agree only if every bit does."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_encode(item) for item in value) + ")"
    if isinstance(value, dict):
        return "{" + ",".join(f"{key!r}:{_encode(item)}" for key, item in value.items()) + "}"
    if isinstance(value, (int, str)) or value is None:  # bool is an int
        return repr(value)
    raise TypeError(f"no canonical text for {type(value).__name__}")


def _report(runner, op):
    """The `classify_regimes` report that the regimes op runner made for op."""
    reports, classify = [], ensemble.classify_regimes
    ensemble.classify_regimes = lambda spec: reports.append(classify(spec)) or reports[-1]
    try:
        runner.run_op(op)
    finally:
        ensemble.classify_regimes = classify
    return reports[0]


def _reports(ops):
    """Each op, run by the regimes op runner, with the `classify_regimes`
    report it made."""
    runner = workloads.Regimes()
    for op in ops:
        yield op, _report(runner, op)


def regimes_digest(seeds: list[int], n_ops: int = REGIMES_OPS) -> str:
    h = hashlib.sha256()
    for seed in seeds:
        ops = workloads.Regimes().make_ops(seed, n_ops)
        for index, (_, report) in enumerate(_reports(ops)):
            h.update(f"{seed}:{index}:{_encode(dataclasses.asdict(report))}\n".encode())
    return h.hexdigest()


def nmember_ops(seed: int) -> list:
    """Regimes ops of 3 and 4 members, one per kind of `NMEMBER_KINDS`: 5-point
    clouds in 2D and 3-point clouds in 3D, which keep every composed body
    under the 3D point cap."""
    rng = np.random.default_rng([seed, 33])
    ops = []
    for n, dim, mode, points in NMEMBER_KINDS:
        shape = (points, dim) if mode == "u" else (points, 3, dim)
        members = tuple((rng.dirichlet(np.ones(3)), rng.standard_normal(shape))
                        for _ in range(n))
        ops.append((f"{n}-{dim}d-{mode}", (mode, members, rng.dirichlet(np.ones(n)))))
    return ops


def nmember_digest(seeds: list[int]) -> str:
    h = hashlib.sha256()
    for seed in seeds:
        for (name, _), report in _reports(nmember_ops(seed)):
            evidence = report.evidence
            fields = (report.cert_regime, evidence.get("method"),
                      *(evidence.get(flag) for flag in FLAGS), evidence.get("error"))
            h.update(f"{seed}:{name}:{_encode(fields)}\n".encode())
    return h.hexdigest()


def records_digest(seeds: list[int], draws: int = DRAWS) -> str:
    h = hashlib.sha256()
    for seed in seeds:
        for policy in ("uniform", "optimized"):
            config = simulate.ExperimentConfig(draws=draws, seed=seed, weight_policy=policy)
            for record in simulate.run_experiment(config):
                h.update(f"{seed}:{policy}:{_encode(dataclasses.asdict(record))}\n".encode())
    return h.hexdigest()


def lattice_digest(seeds: list[int], n_ops: int = LATTICE_OPS) -> str:
    h = hashlib.sha256()
    runner, rows, results = workloads.Lattice(), [], []
    s_certificate, check = certificates.s_certificate, workloads._check

    def capture(*args):
        cert = s_certificate(*args)
        rows.append((cert.region.normals.tolist(), cert.region.offsets.tolist()))
        return cert

    certificates.s_certificate = capture
    workloads._check = lambda condition, message: results.append(bool(condition))
    try:
        for seed in seeds:
            for index, op in enumerate(runner.make_ops(seed, n_ops)):
                runner.run_op(op)
                h.update(f"{seed}:{index}:{_encode(rows)}:{_encode(results)}\n".encode())
                rows.clear()
                results.clear()
    finally:
        certificates.s_certificate, workloads._check = s_certificate, check
    return h.hexdigest()


WORK = (("lp", _simplex, "maximize"), ("phase2", _simplex, "_phase2"),
        ("pivots", _simplex, "_pivot"), ("carves", ensemble, "region_minus_subset"))


def work_counts(seeds: list[int], n_ops: int = REGIMES_OPS) -> str:
    """The LP calls, phase-2 runs and pivots and the ensemble's carves of the
    regimes ops of the seeds, counted by wrapping each function for the run."""
    counts = {name: 0 for name, _, _ in WORK}
    originals = {(module, function): getattr(module, function) for _, module, function in WORK}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    for name, module, function in WORK:
        setattr(module, function, counted(name, originals[module, function]))
    try:
        runner = workloads.Regimes()
        for seed in seeds:
            for op in runner.make_ops(seed, n_ops):
                runner.run_op(op)
    finally:
        for (module, function), original in originals.items():
            setattr(module, function, original)
    return " ".join(f"{name}={count}" for name, count in counts.items())


def one_d_ops(seed: int, draws: int = ONE_D_DRAWS) -> list:
    """Regimes ops of two 1D members, `draws` per mode u, cw and cd: 3 classes
    and 4 gradient sites, from a generator per seed and mode."""
    ops = []
    for index, mode in enumerate(("u", "cw", "cd")):
        rng = np.random.default_rng([seed, 1, index])
        shape = (4, 1) if mode == "u" else (4, 3, 1)
        for _ in range(draws):
            members = tuple((rng.dirichlet(np.ones(3)), rng.standard_normal(shape))
                            for _ in range(2))
            ops.append((f"1d-{mode}", (mode, members, rng.dirichlet(np.ones(2)))))
    return ops


def scale_counts(seeds: list[int], n_ops: int = REGIMES_OPS,
                 one_d: int = ONE_D_DRAWS) -> str:
    """Per dimension, the regimes ops of the seeds, and `one_d` 1D ensembles
    per mode and seed, whose verdict or evidence changes, or that raise, when
    every gradient is scaled by 2^k, for each k of SCALES: `2d=a+b` counts a
    at 2^-600 and b at 2^600."""
    runner, moved = workloads.Regimes(), {}
    for seed in seeds:
        for op in runner.make_ops(seed, n_ops) + one_d_ops(seed, one_d):
            name, (mode, members, weights) = op
            report = _report(runner, op)
            counts = moved.setdefault(f"{members[0][1].shape[-1]}d", [0] * len(SCALES))
            for i, k in enumerate(SCALES):
                scaled = tuple((logits, np.ldexp(grads, k)) for logits, grads in members)
                try:
                    other = _report(runner, (name, (mode, scaled, weights)))
                except Exception:  # a raise counts as a move
                    counts[i] += 1
                    continue
                counts[i] += (other.cert_regime, other.evidence) != (report.cert_regime,
                                                                     report.evidence)
    return " ".join(f"{dim}=" + "+".join(map(str, moves)) for dim, moves in sorted(moved.items()))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-3", help="e.g. 1-3,7 (default 1-3)")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    print("regimes", regimes_digest(seeds))
    print("records", records_digest(seeds))
    print("lattice", lattice_digest(seeds))
    print("nmember", nmember_digest(seeds))
    print("work", work_counts(seeds))
    print("scale", scale_counts(seeds))


if __name__ == "__main__":
    main()
