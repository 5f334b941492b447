"""Command-line interface.

Subcommands: certify, ensemble, regime, bound, simulate, render, examples.
Commands only raise; `main` prints one `error:` line and picks the exit
code.  Exit codes: 0 success; 2 a bad argument, file or input (ValueError,
OSError; a problem-file error carries its location); 3 a command or mode
that does not apply to the file (SmoothnessMismatch, PreconditionError); 1
a fixture mismatch in `examples`.  The environment variable SCERT_SEED
overrides the --seed flag whenever both are given.
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
    PreconditionError,
    classify_regimes,
    common_shape_radii,
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
FIXTURE_TOL = 1e-9  # fixture checks: absolute difference; relative for ray extents


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
    ball = cert.ball  # the polar of a centred LpBall or Ellipsoid
    if isinstance(ball, Ellipsoid):  # the radius is in units of this matrix
        matrix = ", ".join("[" + ", ".join(f"{v:.9g}" for v in row) + "]" for row in ball.sigma)
        lines.append(f"  ellipsoid ball, radius {ball.radius:.9g}, matrix [{matrix}]")
        return lines
    if ball is not None:
        lines.append(f"  l{ball.p:g} ball, radius {ball.radius:.9g}")  # l1, l2, linf, l1.5
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
        raise ValueError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x} "
                         f"at offset {exc.start})") from None
    except ProblemFileError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _check_writable(path: str) -> None:
    """Raise the OSError that writing `path` would, before any work is done;
    the file is neither truncated nor left behind."""
    existed = os.path.exists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def _parse_weights(text: str | None):
    if text is None:
        return None
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"bad --weights value: {text!r}") from None


def _certificate_from_problem(member: ClassifierAtPoint, mode: str,
                              norm: str | None) -> Certificate:
    """The certificate a mode names: an S-certificate for u/cw/cd, else a
    Lipschitz certificate in the --norm p norm (l2 by default), whose
    gradient balls live in the dual norm q: each point cloud becomes the l_q
    ball of its largest l_q norm, a ball stays as it is, and --norm must name
    the norm of the certificate's ball."""
    if not mode.startswith("lipschitz-"):
        return s_certificate(member, mode)
    p, smoothness = _NORMS[norm or "l2"], member.smoothness
    q = geometry.dual_exponent(p)
    if smoothness is not None and smoothness.mode != "cd":
        balls = tuple(LpBall(q, lipschitz_constant_from_gradients(b, q), np.zeros(b.dim))
                      if isinstance(b, FinitePoints) else b for b in smoothness.bodies)
        member = ClassifierAtPoint(member.logits, Uniform(balls[0])
                                   if smoothness.mode == "u" else ClassWise(balls))
    cert = lipschitz_certificate(member, mode.removeprefix("lipschitz-"))
    if norm is not None and cert.ball is not None and not cert.ball.same_shape(
            LpBall(p, 1.0, np.zeros(cert.dim))):
        raise SmoothnessMismatch(f"--norm {norm} contradicts the file's gradient balls: "
                                 f"their certificate is not an {norm} ball")
    return cert


def cmd_certify(args) -> int:
    problem = _load_problem(args.file)
    if problem.is_ensemble:
        raise PreconditionError("the file describes an ensemble; use `scert ensemble`")
    member = problem.classifier()
    c_a, c_b, r = gaps(member.logits)
    cert = _certificate_from_problem(member, args.mode, args.norm)
    print(f"top class: {c_a} (runner-up: {c_b})")
    print("gaps:", " ".join(f"{v:.9g}" for v in r))
    for line in describe_certificate(cert):
        print(line)
    return 0


def _ensemble_from_args(args) -> EnsembleSpec:
    problem = _load_problem(args.file)
    if not problem.is_ensemble:
        raise PreconditionError("the file describes a single classifier; use `scert certify`")
    return problem.to_ensemble(_parse_weights(getattr(args, "weights", None)))


def cmd_ensemble(args) -> int:
    spec = _ensemble_from_args(args)
    logits = ensemble_logits(spec)
    c_a, c_b, r = gaps(logits)
    cert_lines = []  # composed before the first print, so a failure prints no report
    if spec.members[0].smoothness is not None:
        composed = ensemble_classifier(spec)
        cert_lines = describe_certificate(s_certificate(composed, composed.smoothness.mode))
    print("weights:", " ".join(f"{w:.9g}" for w in spec.weights))
    print("ensemble logits:", " ".join(f"{v:.9g}" for v in logits))
    print(f"top class: {c_a} (runner-up: {c_b}), gap {float(r[c_b]):.9g}")
    for j, member in enumerate(spec.members):
        print(f"member {j}: top {member.top}, gap {member.gap:.9g}")
    for line in cert_lines:
        print(line)
    return 0


def cmd_regime(args) -> int:
    spec = _ensemble_from_args(args)
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
            raise ValueError("bound gap-gain needs --rbar and --k")
        value = gap_gain_bound(args.rbar, args.k)
        print(f"gap-gain bound (best gap {args.rbar:g}, {args.k} classes): {value:.9g}")
        return 0
    if args.file is None:
        raise ValueError("bound radius-improvement needs a problem file")
    statement, proof = radius_improvement_bound(_ensemble_from_args(args))
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
            raise ValueError("SCERT_SEED must be an integer") from None
    try:
        counts = tuple(int(v) for v in args.n.split(","))
    except ValueError:
        raise ValueError(f"bad --n value: {args.n!r}") from None
    config = ExperimentConfig(k=args.k, member_counts=counts, draws=args.draws,
                              seed=seed, weight_policy=args.policy)
    if args.out:
        _check_writable(args.out)
    try:
        records = run_experiment(config)
    except MemoryError:
        raise ValueError("the experiment does not fit in memory") from None
    records.sort(key=lambda rec: (rec.n_members, rec.draw_index))
    lines = [CSV_HEADER] + [record_to_csv_row(rec) for rec in records]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _render_layers(problem: ProblemFile, weights) -> list[tuple[str, Certificate]]:
    spec = problem.to_ensemble(weights) if problem.is_ensemble else None
    members = spec.members if spec else (problem.classifier(),)
    if members[0].smoothness is None:  # members share one smoothness mode
        raise PreconditionError("rendering needs smoothness data")
    mode = members[0].smoothness.mode
    if spec is None:
        return [(f"s-{mode}", s_certificate(members[0], mode))]
    return [*((f"member-{j}-s-{mode}", s_certificate(m, mode)) for j, m in enumerate(members)),
            (f"ensemble-s-{mode}", s_certificate(ensemble_classifier(spec), mode))]


def cmd_render(args) -> int:
    problem = _load_problem(args.file)
    if problem.dimension != 2:
        raise PreconditionError("rendering supports two-dimensional problems only")
    window = problem.window
    if args.window:
        try:
            parts = tuple(float(v) for v in args.window.split(","))
        except ValueError:
            parts = ()
        if not problemfile.valid_window(parts):
            raise ValueError(f"bad --window value: {args.window!r}")
        window = parts
    weights = _parse_weights(getattr(args, "weights", None))
    _check_writable(args.out)
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


def _ray_extents_consistent(problem: ProblemFile) -> bool:
    """Independent support-arithmetic oracle for a two-member uniform-mode
    ellipsoid ensemble: along 1,024 seeded unit directions u, the ensemble
    certificate's ray extent is r_g / sum_i 2 w_i eps_i sqrt(u' Sigma_i u),
    within FIXTURE_TOL relative."""
    spec = problem.to_ensemble()
    cert = s_certificate(ensemble_classifier(spec), "u")
    dirs = geometry.seeded_unit_directions(1024, 2)
    rho = sum(2.0 * w * m.smoothness.body.radius
              * np.sqrt(np.einsum("ij,jk,ik->i", dirs, m.smoothness.body.sigma, dirs))
              for w, m in zip(spec.weights, spec.members))
    oracle = float(runner_up_gap(ensemble_logits(spec))) / rho
    return bool(np.all(np.abs(cert.ray_extent(dirs) - oracle) <= FIXTURE_TOL * oracle))


def run_fixture_check(check: dict) -> tuple[bool, str]:
    """Execute one expected-value check; returns (passed, detail)."""
    kind = check["kind"]
    problem = load_fixture(check["fixture"])
    if kind == "certify":
        member = problem.classifier()
        cert = _certificate_from_problem(member, check["mode"], check.get("norm"))
        if "radius" in check:
            actual = cert.radius
            ok = actual is not None and abs(actual - check["radius"]) <= FIXTURE_TOL
            return ok, f"radius {actual} vs {check['radius']}"
        if "interval" in check:
            lo, hi = geometry.region_to_interval(cert.region)
            exp_lo, exp_hi = check["interval"]
            ok = ((lo is None) == (exp_lo is None)
                  and (hi is None) == (exp_hi is None)
                  and (lo is None or abs(lo - exp_lo) <= FIXTURE_TOL)
                  and (hi is None or abs(hi - exp_hi) <= FIXTURE_TOL))
            return ok, f"interval ({lo}, {hi}) vs ({exp_lo}, {exp_hi})"
        if "halfplanes" in check:
            rows = _normalized_halfplanes(cert.region)
            ok = _match_halfplanes(rows, check["halfplanes"], FIXTURE_TOL)
            return ok, f"halfplanes {rows}"
        return False, "check carries no expectation"
    if kind == "strict_subsumes":
        member = problem.classifier()
        lip = _certificate_from_problem(member, "lipschitz-u", check.get("norm"))
        s_cert = s_certificate(member, "u")
        ball = lip.ball
        box = geometry.HalfspaceRegion(  # `ball` itself under the check's linf norm
            np.vstack([np.eye(2), -np.eye(2)]), np.full(4, ball.radius), 2)
        contained = bool(np.all(
            ball.support(s_cert.region.normals) <= s_cert.region.offsets + FIXTURE_TOL))
        strict = not geometry.region_subset(s_cert.region, box, STRICT_MARGIN)
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
            ok = ok and abs(report.gap_ensemble - check["gap"]) <= FIXTURE_TOL
        if "trivial" in check:
            ok = ok and bool(report.evidence.get(
                "trivial_ensemble_certificate")) == check["trivial"]
        return ok, detail
    if kind == "interior_radii":
        spec = problem.to_ensemble()
        certs = [s_certificate(m, "u") for m in spec.members]
        radii = [c.ball.radius for c in certs]
        exp = check["radii"]
        ok = all(abs(a - e) <= FIXTURE_TOL for a, e in zip(radii, exp))
        sweep = common_shape_radii(spec, np.linspace(0.0, 1.0, 101)[1:-1])
        lo, hi = min(radii), max(radii)
        ok = ok and bool(np.all((sweep > lo - FIXTURE_TOL) & (sweep < hi + FIXTURE_TOL)))
        ok = ok and bool(np.all(sweep > lo + STRICT_MARGIN)
                         and np.all(sweep < hi - STRICT_MARGIN))
        return ok, f"radii {radii} sweep in ({sweep.min()}, {sweep.max()})"
    if kind == "ensemble_grid":
        ok = _ray_extents_consistent(problem)
        return ok, "ray extents on 1024 directions vs closed form"
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
    except (SmoothnessMismatch, PreconditionError) as exc:  # first: both are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
