"""Seeded op lists, op runners and correctness rules of the four workloads.

An op is a ``(kind, inputs)`` pair made only of plain numbers, strings and
numpy arrays, so the op list of a seed can be hashed and the program sees
nothing but the generated inputs.  ``run_op`` turns the inputs into scert
objects, makes the calls the workload stands for and raises ``OpFailed`` when
a result breaks the workload's correctness rule.

Every call into scert goes through a module attribute (``certificates.
s_certificate``, never a name bound at import time here), so the tracer,
which rebinds module attributes, sees each of them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import re

import numpy as np

from scert import certificates, cli, ensemble, geometry, simulate

TOL = 1e-9
GAP_TOL = 1e-12


def _digest_update(h, value) -> None:
    if isinstance(value, np.ndarray):
        h.update(f"a{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (tuple, list)):
        h.update(f"t{len(value)}".encode())
        for item in value:
            _digest_update(h, item)
    elif isinstance(value, (str, int, float)) or value is None:
        h.update(f"{type(value).__name__}:{value!r};".encode())
    else:
        raise TypeError(f"op inputs must be plain data, got {type(value).__name__}")


def op_digest(ops) -> str:
    """SHA-256 over a canonical byte encoding of an op list."""
    h = hashlib.sha256()
    _digest_update(h, list(ops))
    return h.hexdigest()


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise OpFailed(message)


class OpFailed(Exception):
    """An op returned a result its workload's correctness rule rejects."""


def _clouds_to_pairs(grads: np.ndarray) -> dict:
    """Class-difference gradient sets f_i - f_j from per-site class gradients."""
    k = grads.shape[1]
    return {(i, j): geometry.FinitePoints(grads[:, i, :] - grads[:, j, :])
            for i in range(k) for j in range(k) if i != j}


# --- lattice -----------------------------------------------------------------

class Lattice:
    """Criterion 8: one consistent 2D instance (k=3, 30 sites) per op.

    Certifies in u, cw and cd, checks q_u <= q_cw <= q_cd and that the l1,
    l2 and linf Lipschitz balls lie inside q_u.  Every check is a containment
    the theory guarantees, so any False is a wrong result.
    """

    name = "lattice"
    cycle = 1        # ops in one cycle of kinds
    rate = 70.0      # nominal ops per second: sets the op count of a run
    array_bound = False  # ops sweep ~1 MB arrays: the reference kernel then sweeps one too
    trace_ops = 60

    def make_ops(self, seed: int, n_ops: int) -> list:
        rng = np.random.default_rng([seed, 8])
        return [("k3-s30-2d", (rng.standard_normal((30, 3, 2)),
                                 rng.uniform(0.0, 1.0, size=3)))
                for _ in range(n_ops)]

    def run_op(self, op) -> None:
        _, (grads, logits) = op
        k = grads.shape[1]
        clf = certificates.ClassifierAtPoint
        cloud = geometry.FinitePoints(grads.reshape(-1, 2))
        q_u = certificates.s_certificate(
            clf(logits, certificates.Uniform(cloud)), "u").region
        q_cw = certificates.s_certificate(clf(logits, certificates.ClassWise(
            tuple(geometry.FinitePoints(grads[:, i, :]) for i in range(k)))), "cw").region
        q_cd = certificates.s_certificate(
            clf(logits, certificates.ClassDiff(_clouds_to_pairs(grads))), "cd").region
        _check(geometry.region_subset(q_u, q_cw), "q_u not inside q_cw")
        _check(geometry.region_subset(q_cw, q_cd), "q_cw not inside q_cd")
        _, c_b, r = certificates.gaps(logits)
        for p in (1.0, 2.0, math.inf):
            constant = certificates.lipschitz_constant_from_gradients(
                cloud, geometry.dual_exponent(p))
            radius = float(r[c_b]) / (2.0 * constant)
            if p == 2.0:
                inside = bool(np.all(radius * np.linalg.norm(q_u.normals, axis=1)
                                     <= q_u.offsets + TOL))
            else:
                corners = (np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
                           if p == 1.0 else np.vstack([np.eye(2), -np.eye(2)]))
                ball = geometry.HalfspaceRegion(corners, np.full(4, radius), 2)
                inside = geometry.region_subset(ball, q_u)
            _check(inside, f"l{p:g} Lipschitz ball not inside q_u")


# --- regimes -----------------------------------------------------------------

# One cycle of op kinds: (name, dimension, mode, points per cloud).  Point
# clouds keep every op on the LP path; the 3D kinds stay far below the
# 10,000-point expansion cap (at most 256 points after composition).
REGIME_KINDS = (
    ("2d-u", 2, "u", 8),
    ("2d-cw", 2, "cw", 8),
    ("2d-cd", 2, "cd", 8),
    ("3d-u", 3, "u", 4),
    ("2d-u", 2, "u", 8),
    ("2d-cw", 2, "cw", 8),
    ("2d-cd", 2, "cd", 8),
    ("3d-cd", 3, "cd", 6),
)


def regime_consistent(report) -> str | None:
    """Why a regime report contradicts its own evidence, or None if it does not."""
    ev = report.evidence
    if "error" in ev:
        return f"evidence error: {ev['error']}"
    gap, verdict = report.gap_regime, report.cert_regime
    if gap == "gain" and not report.gap_ensemble > report.gap_best:
        return "gain without a gap above the best member"
    if gap == "loss" and not report.gap_ensemble < report.gap_worst:
        return "loss without a gap below the worst member"
    if ev.get("method") != "lp":  # point clouds always take the LP path
        return f"unexpected regime method {ev.get('method')!r}"
    c_union, w_union = ev["contains_union"], ev["within_union"]
    c_inter, w_inter = ev["contains_intersection"], ev["within_intersection"]
    if c_union and not c_inter:
        return "contains the union but not the intersection"
    if w_inter and not w_union:
        return "within the intersection but not the union"
    expected = {"improvement": c_union, "reduction": w_inter,
                "inconclusive": c_inter and w_union}
    if verdict in expected and not expected[verdict]:
        return f"{verdict} contradicts the containment flags"
    if verdict == "indeterminate" and c_inter and w_union:
        return "indeterminate although sandwiched"
    return None


class Regimes:
    """`classify_regimes` on one two-member point-cloud ensemble (k=3) per op."""

    name = "regimes"
    cycle = len(REGIME_KINDS)
    rate = 55.0      # above its real rate: the 3D ops' costs vary widely by input
    array_bound = False
    trace_ops = 2 * cycle

    def make_ops(self, seed: int, n_ops: int) -> list:
        rng = np.random.default_rng([seed, 4])
        ops = []
        for index in range(n_ops):
            name, dim, mode, points = REGIME_KINDS[index % len(REGIME_KINDS)]
            members = []
            for _ in range(2):
                shape = (points, dim) if mode == "u" else (points, 3, dim)
                members.append((rng.dirichlet(np.ones(3)), rng.standard_normal(shape)))
            ops.append((name, (mode, tuple(members), rng.dirichlet(np.ones(2)))))
        return ops

    def run_op(self, op) -> None:
        _, (mode, members, weights) = op
        clfs = []
        for logits, grads in members:
            if mode == "u":
                smooth = certificates.Uniform(geometry.FinitePoints(grads))
            elif mode == "cw":
                smooth = certificates.ClassWise(tuple(
                    geometry.FinitePoints(grads[:, i, :]) for i in range(grads.shape[1])))
            else:
                smooth = certificates.ClassDiff(_clouds_to_pairs(grads))
            clfs.append(certificates.ClassifierAtPoint(logits, smooth))
        report = ensemble.classify_regimes(ensemble.EnsembleSpec(tuple(clfs), weights))
        problem = regime_consistent(report)
        _check(problem is None, problem or "")


# --- montecarlo --------------------------------------------------------------

class MonteCarlo:
    """One draw of the random-simplex experiment per op (k=4, n = 2, 3, 4)."""

    name = "montecarlo"
    cycle = 3
    rate = 420.0
    array_bound = True  # each op scans a weight grid of up to 39,711 rows
    trace_ops = 300

    def make_ops(self, seed: int, n_ops: int) -> list:
        rng = np.random.default_rng([seed, 3])
        draw_seeds = rng.integers(0, 2**62, size=n_ops)
        return [(f"n{2 + i % 3}", (2 + i % 3, int(draw_seeds[i]))) for i in range(n_ops)]

    def run_op(self, op) -> None:
        _, (n, draw_seed) = op
        config = simulate.ExperimentConfig(k=4, member_counts=(n,), draws=1,
                                           seed=draw_seed, weight_policy="uniform")
        (record,) = simulate.run_experiment(config)
        _check(record.slack >= -GAP_TOL, f"negative slack {record.slack}")
        _check(record.gap_optimized >= record.gap_best - GAP_TOL,
               "optimized gap below the best member gap")


# --- cli ---------------------------------------------------------------------

_ENSEMBLE_FIXTURES = ("appendix-c4.json", "fig5a.json", "fig5b.json",
                      "fig5c.json", "fig6.json")
# `bound radius-improvement` needs members sharing the top class and one
# ball shape; the other ensemble fixtures exit 3 by design.
_BOUND_FIXTURES = ("appendix-c4.json", "fig5b.json")
_RENDER_FIXTURES = ("appendix-c3-cw.json", "appendix-c3-u.json", "fig1.json",
                    *_ENSEMBLE_FIXTURES)
OUT_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       ".perfbench")

_NUMBER = r"(-?[0-9][0-9.e+-]*|-?inf)"


def cli_commands() -> list[tuple[str, ...]]:
    """Every documented command on the bundled fixtures that exits 0."""
    commands = []
    for check in cli.load_expected():
        if check["kind"] == "certify":
            norm = ("--norm", check["norm"]) if "norm" in check else ()
            commands.append(("certify", check["fixture"], "--mode", check["mode"], *norm))
    for fixture in _ENSEMBLE_FIXTURES:
        commands.append(("ensemble", fixture))
        commands.append(("regime", fixture))
    for fixture in _BOUND_FIXTURES:
        commands.append(("bound", "radius-improvement", fixture))
    for fixture in _RENDER_FIXTURES:
        commands.append(("render", fixture, "--out", "render.svg"))
    return commands


def _close(printed: str, expected: float) -> bool:
    # printed with nine significant digits (format "%.9g")
    return abs(float(printed) - expected) <= TOL + 5e-9 * abs(expected)


def _check_endpoint(printed: str, expected: float | None) -> bool:
    if expected is None:
        return printed in ("-inf", "inf")
    return printed not in ("-inf", "inf") and _close(printed, expected)


def _expectations(command: tuple[str, ...], expected: list) -> list:
    """The expected.json checks that describe what `command` prints."""
    verb, fixture = command[0], command[1]
    opts = dict(zip(command[2::2], command[3::2]))
    return [c for c in expected if c["kind"] == verb and c["fixture"] == fixture
            and (verb != "certify"
                 or (c["mode"], c.get("norm")) == (opts["--mode"], opts.get("--norm")))]


def check_cli_output(command: tuple[str, ...], code, out: str, expected: list) -> None:
    """Raise OpFailed when exit code or printed values disagree with expected.json."""
    _check(code == 0, f"exit code {code!r}, expected 0")
    for check in _expectations(command, expected):
        if "radius" in check:
            m = re.search(r"ball, radius " + _NUMBER, out)
            _check(m is not None and _close(m.group(1), check["radius"]),
                   f"radius differs from {check['radius']}")
        if "interval" in check:
            m = re.search(r"interval [\[(]" + _NUMBER + ", " + _NUMBER + r"[\])]", out)
            lo, hi = check["interval"]
            _check(m is not None and _check_endpoint(m.group(1), lo)
                   and _check_endpoint(m.group(2), hi), f"interval differs from {lo, hi}")
        for key, label in (("gap_regime", "gap regime"), ("cert_regime", "certificate regime")):
            if key in check:
                m = re.search(label + r": (\w+)", out)
                _check(m is not None and m.group(1) == check[key],
                       f"{label} differs from {check[key]}")
        if "gap" in check:
            m = re.search(r"ensemble gap: " + _NUMBER, out)
            _check(m is not None and _close(m.group(1), check["gap"]),
                   f"ensemble gap differs from {check['gap']}")
        if "trivial" in check:
            _check(("certificate is trivial" in out) == check["trivial"],
                   "trivial flag differs")
    if command[0] == "render":
        _check(out.startswith("wrote "), "render wrote no file")


class Cli:
    """In-process `scert.cli.main(argv)` over every documented fixture command.

    Each cycle runs every command once, in an order drawn from the seed.
    """

    name = "cli"
    rate = 36.0
    array_bound = False

    def __init__(self):
        self.commands = cli_commands()
        self.cycle = self.trace_ops = len(self.commands)
        self.expected = cli.load_expected()
        os.makedirs(OUT_DIR, exist_ok=True)

    def make_ops(self, seed: int, n_ops: int) -> list:
        rng = np.random.default_rng([seed, 5])
        ops = []
        while len(ops) < n_ops:
            for index in rng.permutation(len(self.commands)):
                ops.append((self.commands[index][0], self.commands[index]))
        return ops[:n_ops]

    def run_op(self, op) -> None:
        _, command = op
        argv = [str(cli.fixture_path(a)) if a.endswith(".json")
                else os.path.join(OUT_DIR, a) if a.endswith(".svg") else a for a in command]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        check_cli_output(command, code, out.getvalue(), self.expected)


WORKLOADS = {"lattice": Lattice, "regimes": Regimes, "montecarlo": MonteCarlo, "cli": Cli}


WARMUP_SEED = 2**32  # warm-up inputs are the same whatever --seed a run gets
# After a warm-up of one op per kind, the first dozen timed lattice ops still
# ran up to 2.6x slower than the rest; a warm-up of about 0.4 s of ops at the
# nominal rate removes that start-up transient from the timed window.
WARMUP_SECONDS = 0.4


def op_count(workload, seconds: float) -> int:
    """Ops in one run: fixed by the run length, never by how fast ops go.

    Rounded up to whole cycles of op kinds.
    """
    return max(1, math.ceil(seconds * workload.rate / workload.cycle)) * workload.cycle


def warmup_ops(workload) -> list:
    """Whole cycles of op kinds, so every kind, from the same inputs for every seed."""
    return workload.make_ops(WARMUP_SEED, op_count(workload, WARMUP_SECONDS))
