"""Command-line interface.

Subcommands: certify, ensemble, regime, bound, simulate, render, examples.
Exit codes: 0 success, 2 problem-file parse error (with location), 3
certification mode incompatible with the file's smoothness data, 1 fixture
mismatch in `examples`.  The environment variable SCERT_SEED overrides the
--seed flag whenever both are given.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from importlib import resources

import numpy as np

from . import geometry, problemfile, render
from .certificates import (
    ZERO_GAP_TOL,
    Certificate,
    ClassifierAtPoint,
    ClassWise,
    SmoothnessMismatch,
    Uniform,
    gaps,
    lipschitz_certificate,
    lipschitz_constant_from_gradients,
    runner_up_gap,
    s_certificate,
)
from .ensemble import (
    EnsembleSpec,
    classify_regimes,
    ensemble_classifier,
    ensemble_logits,
    gap_gain_bound,
    radius_improvement_bound,
)
from .geometry import STRICT_MARGIN, Ellipsoid, FinitePoints, LpBall
from .problemfile import ProblemFile, ProblemFileError
from .simulate import DrawRecord, ExperimentConfig, run_experiment

_NORMS = {"l1": 1.0, "l2": 2.0, "linf": math.inf}
CSV_HEADER = "n,draw,r_bar,r_under,rg_uniform,rg_opt,gap_regime,same_ca,bound,slack"
FIXTURE_TOL = 1e-9  # fixture checks: largest difference from an expected value
GRID_BOUNDARY = 1e-7  # grid points this close to the oracle boundary are not compared


def _shape_name(body) -> str:
    if isinstance(body, LpBall):
        return f"l{body.p:g}"  # l1, l2, linf, l1.5, ...
    if isinstance(body, Ellipsoid):
        return "ellipsoid"
    return type(body).__name__


def format_interval(lo: float | None, hi: float | None) -> str:
    left = "(-inf" if lo is None else f"[{lo:.9g}"
    right = "inf)" if hi is None else f"{hi:.9g}]"
    return f"{left}, {right}"


def describe_certificate(cert: Certificate) -> list[str]:
    lines = [f"certificate family={cert.family} mode={cert.mode}"]
    if cert.unbounded:
        lines.append("  entire space (no constraint)")
        return lines
    if cert.trivial:
        lines.append("  trivial: only the zero perturbation is certified")
    if cert.ball is not None:
        lines.append(f"  {_shape_name(cert.ball)} ball, radius {cert.ball.radius:.9g}")
        return lines
    if cert.region is not None:
        if cert.dim == 1:
            lo, hi = geometry.region_to_interval(cert.region)
            lines.append(f"  interval {format_interval(lo, hi)}")
            return lines
        tag = " (unbounded)" if geometry.region_is_unbounded(cert.region) else ""
        lines.append(f"  region of {cert.region.n_halfspaces} halfspaces{tag}:")
        for normal, offset in zip(cert.region.normals, cert.region.offsets):
            coeffs = ", ".join(f"{v:.9g}" for v in normal)
            lines.append(f"    [{coeffs}] . delta <= {offset:.9g}")
        return lines
    lines.append(f"  support-oracle certificate with {len(cert.constraints)} constraints")
    return lines


def _load_problem(path: str) -> ProblemFile:
    try:
        return problemfile.load(path)
    except FileNotFoundError:
        _fail(2, f"error: no such file: {path}")
    except json.JSONDecodeError as exc:
        _fail(2, f"error: {path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                 f"{exc.msg}")
    except ProblemFileError as exc:
        _fail(2, f"error: {path}: {exc}")


def _fail(code: int, message: str):
    print(message, file=sys.stderr)
    raise SystemExit(code)


def _parse_weights(text: str | None):
    if text is None:
        return None
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        _fail(2, f"error: bad --weights value: {text!r}")


def _certificate_from_problem(member: ClassifierAtPoint, mode: str,
                              norm: str | None) -> Certificate:
    """The certificate a mode names: an S-certificate for u/cw/cd, else a
    Lipschitz certificate, deriving constants from gradient clouds when the
    smoothness bodies are point sets."""
    if not mode.startswith("lipschitz-"):
        return s_certificate(member, mode)
    smoothness = member.smoothness
    base_mode = mode.removeprefix("lipschitz-")
    if smoothness is None:
        raise SmoothnessMismatch("the member carries no smoothness data")

    def ball_from(body, p: float):
        q = geometry.dual_exponent(p)
        constant = lipschitz_constant_from_gradients(body, q)
        return LpBall(p, constant, np.zeros(body.dim))

    if smoothness.mode != "cd" and all(isinstance(b, FinitePoints) for b in smoothness.bodies):
        balls = tuple(ball_from(b, _NORMS[norm or "l2"]) for b in smoothness.bodies)
        member = ClassifierAtPoint(member.logits, Uniform(balls[0])
                                   if smoothness.mode == "u" else ClassWise(balls))
    elif norm is not None:
        # ball smoothness already fixes the certificate norm: the gradient
        # ball lives in the dual norm, so --norm p needs a dual(p) ball;
        # class-difference bodies and bodies that are not origin-centered
        # balls are left to lipschitz_certificate's errors
        bodies = () if smoothness.mode == "cd" else smoothness.bodies
        wanted = LpBall(geometry.dual_exponent(_NORMS[norm]), 1.0, np.zeros(member.dim))
        for body in bodies:
            if not body.centered_ball or body.same_shape(wanted):
                continue
            shape = (f"l{body.p:g} gradient ball (the gradient bound lives in the dual norm)"
                     if isinstance(body, LpBall) else "ellipsoid smoothness")
            raise SmoothnessMismatch(f"--norm {norm} contradicts the file's {shape}")
    return lipschitz_certificate(member, base_mode)


def cmd_certify(args) -> int:
    problem = _load_problem(args.file)
    if problem.is_ensemble:
        _fail(3, "error: the file describes an ensemble; use `scert ensemble`")
    member = problem.classifier()
    c_a, c_b, r = gaps(member.logits)
    cert = _certificate_from_problem(member, args.mode, args.norm)
    print(f"top class: {c_a} (runner-up: {c_b})")
    print("gaps:", " ".join(f"{v:.9g}" for v in r))
    for line in describe_certificate(cert):
        print(line)
    return 0


def _ensemble_from_args(args) -> tuple[ProblemFile, EnsembleSpec]:
    problem = _load_problem(args.file)
    if not problem.is_ensemble:
        _fail(3, "error: the file describes a single classifier; use `scert certify`")
    return problem, _to_ensemble(problem, _parse_weights(getattr(args, "weights", None)))


def _to_ensemble(problem: ProblemFile, weights) -> EnsembleSpec:
    try:
        return problem.to_ensemble(weights)
    except ValueError as exc:
        _fail(2, f"error: {exc}")


def cmd_ensemble(args) -> int:
    _, spec = _ensemble_from_args(args)
    logits = ensemble_logits(spec)
    c_a, c_b, r = gaps(logits)
    print("weights:", " ".join(f"{w:.9g}" for w in spec.weights))
    print("ensemble logits:", " ".join(f"{v:.9g}" for v in logits))
    print(f"top class: {c_a} (runner-up: {c_b}), gap {float(r[c_b]):.9g}")
    for j, member in enumerate(spec.members):
        print(f"member {j}: top {member.top}, gap {member.gap:.9g}")
    if spec.members[0].smoothness is not None:
        composed = ensemble_classifier(spec)
        mode = composed.smoothness.mode
        cert = s_certificate(composed, mode)
        for line in describe_certificate(cert):
            print(line)
    return 0


def cmd_regime(args) -> int:
    _, spec = _ensemble_from_args(args)
    report = classify_regimes(spec)
    print(f"gap regime: {report.gap_regime}")
    print(f"certificate regime: {report.cert_regime}")
    print(f"ensemble gap: {report.gap_ensemble:.9g}")
    print(f"best member gap: {report.gap_best:.9g}")
    print(f"worst member gap: {report.gap_worst:.9g}")
    print(f"same top prediction: {report.same_top}")
    print(f"same runner-up: {report.same_runner_up}")
    method = report.evidence.get("method")
    if method:
        print(f"evidence method: {method}")
    if report.evidence.get("trivial_ensemble_certificate"):
        print("ensemble certificate is trivial ({0} only)")
    if "error" in report.evidence:
        print(f"evidence error: {report.evidence['error']}")
    return 0


def cmd_bound(args) -> int:
    if args.kind == "gap-gain":
        if args.rbar is None or args.k is None:
            _fail(2, "error: bound gap-gain needs --rbar and --k")
        try:
            value = gap_gain_bound(args.rbar, args.k)
        except ValueError as exc:
            _fail(2, f"error: {exc}")
        print(f"gap-gain bound (best gap {args.rbar:g}, {args.k} classes): {value:.9g}")
        return 0
    if args.file is None:
        _fail(2, "error: bound radius-improvement needs a problem file")
    _, spec = _ensemble_from_args(args)
    try:
        statement, proof = radius_improvement_bound(spec)
    except ValueError as exc:
        _fail(3, f"error: {exc}")
    print(f"radius-improvement bound (statement variant): {statement.value:.9g}")
    print(f"radius-improvement bound (proof variant):     {proof.value:.9g}")
    for key, value in statement.inputs.items():
        print(f"  {key} = {value:.9g}")
    return 0


def record_to_csv_row(rec: DrawRecord) -> str:
    return ",".join([
        str(rec.n_members), str(rec.draw_index),
        repr(rec.gap_best), repr(rec.gap_worst),
        repr(rec.gap_uniform), repr(rec.gap_optimized),
        rec.gap_regime, str(int(rec.same_top)),
        repr(rec.bound), repr(rec.slack),
    ])


def cmd_simulate(args) -> int:
    seed = args.seed
    if "SCERT_SEED" in os.environ:  # the environment overrides the flag
        try:
            seed = int(os.environ["SCERT_SEED"])
        except ValueError:
            _fail(2, "error: SCERT_SEED must be an integer")
    try:
        counts = tuple(int(v) for v in args.n.split(","))
    except ValueError:
        _fail(2, f"error: bad --n value: {args.n!r}")
    try:
        config = ExperimentConfig(k=args.k, member_counts=counts, draws=args.draws,
                                  seed=seed, weight_policy=args.policy)
    except ValueError as exc:
        _fail(2, f"error: {exc}")
    records = run_experiment(config)
    records.sort(key=lambda rec: (rec.n_members, rec.draw_index))
    lines = [CSV_HEADER] + [record_to_csv_row(rec) for rec in records]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _render_layers(problem: ProblemFile, spec_weights) -> list[tuple[str, Certificate]]:
    layers: list[tuple[str, Certificate]] = []
    if problem.is_ensemble:
        spec = _to_ensemble(problem, spec_weights)
        mode = spec.members[0].smoothness.mode if spec.members[0].smoothness else None
        if mode is None:
            _fail(3, "error: rendering needs smoothness data")
        for j, member in enumerate(spec.members):
            layers.append((f"member-{j}-s-{mode}", s_certificate(member, mode)))
        layers.append((f"ensemble-s-{mode}", s_certificate(ensemble_classifier(spec), mode)))
        return layers
    member = problem.classifier()
    if member.smoothness is None:
        _fail(3, "error: rendering needs smoothness data")
    mode = member.smoothness.mode
    layers.append((f"s-{mode}", s_certificate(member, mode)))
    return layers


def cmd_render(args) -> int:
    problem = _load_problem(args.file)
    if problem.dimension != 2:
        _fail(3, "error: rendering supports two-dimensional problems only")
    window = problem.window
    if args.window:
        try:
            parts = tuple(float(v) for v in args.window.split(","))
        except ValueError:
            parts = ()
        if len(parts) != 4 or not (parts[0] < parts[1] and parts[2] < parts[3]):
            _fail(2, f"error: bad --window value: {args.window!r}")
        window = parts
    weights = _parse_weights(getattr(args, "weights", None))
    layers = _render_layers(problem, weights)
    svg = render.render_svg(layers, window)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(svg)
    print(f"wrote {args.out} ({len(layers)} layers)")
    return 0


# --- bundled golden fixtures -------------------------------------------------

def fixture_path(name: str):
    return resources.files("scert.fixtures").joinpath(name)


def load_fixture(name: str) -> ProblemFile:
    return problemfile.loads(fixture_path(name).read_text(encoding="utf-8"))


def _normalized_halfplanes(region: geometry.HalfspaceRegion) -> list[list[float]]:
    rows = []
    for normal, offset in zip(region.normals, region.offsets):
        if offset <= ZERO_GAP_TOL:
            rows.append([*normal, float(offset)])
        else:
            rows.append([*(normal / offset), 1.0])
    return rows


def _match_halfplanes(actual: list[list[float]], expected: list[list[float]],
                      tol: float) -> bool:
    if len(actual) != len(expected):
        return False
    remaining = list(expected)
    for row in actual:
        hit = next((i for i, exp in enumerate(remaining)
                    if len(exp) == len(row)
                    and max(abs(a - e) for a, e in zip(row, exp)) <= tol), None)
        if hit is None:
            return False
        remaining.pop(hit)
    return True


def _grid_membership_consistent(problem: ProblemFile, tol: float) -> bool:
    """Independent support-arithmetic oracle for a two-member uniform-mode
    ellipsoid ensemble, evaluated on a sampled grid."""
    spec = problem.to_ensemble()
    cert = s_certificate(ensemble_classifier(spec), "u")
    sigmas = [m.smoothness.body.sigma for m in spec.members]
    radii = [m.smoothness.body.radius for m in spec.members]
    weights = spec.weights
    r_g = float(runner_up_gap(ensemble_logits(spec)))
    axis = np.linspace(-2.5, 2.5, 41)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    rho = sum(2.0 * w * eps * np.sqrt(np.einsum("ij,jk,ik->i", grid, sig, grid))
              for w, eps, sig in zip(weights, radii, sigmas))
    oracle = rho <= r_g + tol
    mismatch = (cert.contains(grid, tol) != oracle) & (np.abs(rho - r_g) > GRID_BOUNDARY)
    return not mismatch.any()


def run_fixture_check(check: dict, tol: float = FIXTURE_TOL) -> tuple[bool, str]:
    """Execute one expected-value check; returns (passed, detail)."""
    kind = check["kind"]
    problem = load_fixture(check["fixture"])
    if kind == "certify":
        member = problem.classifier()
        cert = _certificate_from_problem(member, check["mode"], check.get("norm"))
        if "radius" in check:
            actual = cert.radius
            ok = actual is not None and abs(actual - check["radius"]) <= tol
            return ok, f"radius {actual} vs {check['radius']}"
        if "interval" in check:
            lo, hi = geometry.region_to_interval(cert.region)
            exp_lo, exp_hi = check["interval"]
            ok = ((lo is None) == (exp_lo is None)
                  and (hi is None) == (exp_hi is None)
                  and (lo is None or abs(lo - exp_lo) <= tol)
                  and (hi is None or abs(hi - exp_hi) <= tol))
            return ok, f"interval ({lo}, {hi}) vs ({exp_lo}, {exp_hi})"
        if "halfplanes" in check:
            rows = _normalized_halfplanes(cert.region)
            ok = _match_halfplanes(rows, check["halfplanes"], tol)
            return ok, f"halfplanes {rows}"
        return False, "check carries no expectation"
    if kind == "strict_subsumes":
        member = problem.classifier()
        lip = _certificate_from_problem(member, "lipschitz-u", check.get("norm"))
        s_cert = s_certificate(member, "u")
        ball = lip.ball
        box = geometry.HalfspaceRegion(
            np.vstack([np.eye(2), -np.eye(2)]), np.full(4, ball.radius), 2)
        contained = bool(np.all(
            ball.support(s_cert.region.normals) <= s_cert.region.offsets + tol))
        strict = geometry.region_exceeds(s_cert.region, box, STRICT_MARGIN)
        return contained and strict, f"contained={contained} strict={strict}"
    if kind == "regime":
        spec = problem.to_ensemble()
        report = classify_regimes(spec)
        ok = True
        detail = f"gap={report.gap_regime} cert={report.cert_regime}"
        if "gap_regime" in check:
            ok = ok and report.gap_regime == check["gap_regime"]
        if "cert_regime" in check:
            ok = ok and report.cert_regime == check["cert_regime"]
        if "gap" in check:
            ok = ok and abs(report.gap_ensemble - check["gap"]) <= tol
        if "trivial" in check:
            ok = ok and bool(report.evidence.get(
                "trivial_ensemble_certificate")) == check["trivial"]
        return ok, detail
    if kind == "interior_radii":
        spec = problem.to_ensemble()
        certs = [s_certificate(m, "u") for m in spec.members]
        radii = [c.ball.radius for c in certs]
        exp = check["radii"]
        ok = all(abs(a - e) <= tol for a, e in zip(radii, exp))
        from .ensemble import common_shape_radii
        sweep = common_shape_radii(spec, np.linspace(0.0, 1.0, 101)[1:-1])
        lo, hi = min(radii), max(radii)
        ok = ok and bool(np.all((sweep > lo - tol) & (sweep < hi + tol)))
        ok = ok and bool(np.all(sweep > lo + STRICT_MARGIN)
                         and np.all(sweep < hi - STRICT_MARGIN))
        return ok, f"radii {radii} sweep in ({sweep.min()}, {sweep.max()})"
    if kind == "ensemble_grid":
        ok = _grid_membership_consistent(problem, tol)
        return ok, "grid membership vs support oracle"
    return False, f"unknown check kind {kind!r}"


def load_expected() -> list[dict]:
    text = fixture_path("expected.json").read_text(encoding="utf-8")
    return json.loads(text)["checks"]


def cmd_examples(_args) -> int:
    checks = load_expected()
    failures = 0
    width = max(len(c["name"]) for c in checks)
    for check in checks:
        ok, detail = run_fixture_check(check)
        status = "PASS" if ok else "FAIL"
        print(f"{check['name']:<{width}}  {status}  {detail}")
        if not ok:
            failures += 1
    print(f"{len(checks) - failures}/{len(checks)} fixture checks passed")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scert",
        description="Robustness certificates from gradient-set continuity data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="certificate for a single classifier file")
    p.add_argument("file")
    p.add_argument("--mode", required=True,
                   choices=["u", "cw", "cd", "lipschitz-u", "lipschitz-cw"])
    p.add_argument("--norm", choices=sorted(_NORMS))
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("ensemble", help="compose and certify an ensemble file")
    p.add_argument("file")
    p.add_argument("--weights")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("regime", help="gap and certificate regimes of an ensemble")
    p.add_argument("file")
    p.add_argument("--weights")
    p.set_defaults(func=cmd_regime)

    p = sub.add_parser("bound", help="closed-form bounds")
    p.add_argument("kind", choices=["gap-gain", "radius-improvement"])
    p.add_argument("file", nargs="?")
    p.add_argument("--rbar", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--weights")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("simulate", help="Monte Carlo regime statistics as CSV")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--n", default="2,3,4")
    p.add_argument("--draws", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--policy", choices=["uniform", "optimized"], default="uniform")
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("render", help="SVG of two-dimensional certificates")
    p.add_argument("file")
    p.add_argument("--out", required=True)
    p.add_argument("--window")
    p.add_argument("--weights")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("examples", help="run the bundled golden fixtures")
    p.set_defaults(func=cmd_examples)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except ProblemFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SmoothnessMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
