"""Span tracer that wraps scert's public functions from outside the package.

Nothing inside ``scert`` changes.  ``Tracer.install`` replaces each traced
function or method with a wrapper that records a span, and rebinds the name
in every ``scert`` module namespace that holds the original object: a name
bound with ``from .geometry import region_subset`` is a separate reference,
and calls through it would otherwise escape the trace.  ``uninstall`` puts
the originals back.

A span is ``(name, start_ns, end_ns, parent, op, info)``; ``parent`` is the
index of the enclosing span (-1 for none) and ``info`` holds numbers read
from the call's arguments and result.  Spans stay in memory until
``write`` dumps them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int
    op: int
    info: dict | None


def _maximize_info(args, result):
    A, b = args[1], args[2]
    rows = A.shape[0] if getattr(A, "ndim", 1) == 2 else 0
    return {"rows": rows, "phase1": bool(rows and (b < 0.0).any())}


def _hull_info(args, result):
    return {"points_in": args[0].points.shape[0], "points_out": result.points.shape[0]}


def _polar_info(args, result):
    return {"halfspaces": result.n_halfspaces}


def _regime_info(args, result):
    return {"path": result.evidence.get("method", "none"),
            "indeterminate": result.cert_regime == "indeterminate"}


REGION_QUERIES = ("region_subset", "region_exceeds", "region_minus_subset",
                  "region_is_origin_only", "region_to_interval")
SUPPORT_CLASSES = ("FinitePoints", "LpBall", "Ellipsoid", "Combination")

# (module, attribute or "Class.method", span name, probe of args and result).
# Spans sharing a name form one layer group.
TARGETS = (
    ("scert._simplex", "maximize", "simplex.maximize", _maximize_info),
    ("scert.geometry", "lp_maximize", "geometry.lp_maximize", None),
    *(("scert.geometry", q, "geometry.region_query", None) for q in REGION_QUERIES),
    ("scert.geometry", "hull_prune", "geometry.hull_prune", _hull_info),
    ("scert.geometry", "minkowski_sum", "geometry.minkowski_sum", None),
    ("scert.geometry", "polar_hrep", "geometry.polar_hrep", _polar_info),
    ("scert.geometry", "support", "geometry.support", None),
    *(("scert.geometry", f"{c}.support", "geometry.support", None) for c in SUPPORT_CLASSES),
    ("scert.certificates", "s_certificate", "certificates.s_certificate", None),
    ("scert.certificates", "Certificate.ray_extent", "certificates.ray_extent", None),
    ("scert.certificates", "Certificate.contains", "certificates.contains", None),
    ("scert.ensemble", "classify_regimes", "ensemble.classify_regimes", _regime_info),
    ("scert.ensemble", "ensemble_classifier", "ensemble.ensemble_classifier", None),
    ("scert.ensemble", "optimize_weights", "ensemble.optimize_weights", None),
    ("scert.simulate", "run_experiment", "simulate.run_experiment", None),
    *(("scert.problemfile", f, "problemfile", None)
      for f in ("load", "loads", "from_dict", "ProblemFile.classifier",
                "ProblemFile.to_ensemble")),
    *(("scert.render", f, "render", None)
      for f in ("render_svg", "certificate_outline", "region_window_polygon",
                "window_polygon", "clip_polygon")),
    *(("scert.cli", f, "cli", None)
      for f in ("main", "cmd_certify", "cmd_ensemble", "cmd_regime", "cmd_bound",
                "cmd_render", "describe_certificate")),
)


class Tracer:
    """Records spans of the calls listed in ``TARGETS`` while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        # (namespace dict or class, name, original, wrapper)
        self._patches: list[tuple[object, str, object, object]] = []

    def _wrap(self, name, fn, probe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                info = probe(args, result) if probe and result is not None else None
                spans[index] = Span(name, start, end, parent, self.op, info)

        return traced

    def install(self) -> "Tracer":
        """Wrap every target and rebind each reference to it in the package."""
        namespaces = [vars(m) for key, m in list(sys.modules.items())
                      if m is not None and (key == "scert" or key.startswith("scert."))]
        for module_name, attr, span_name, probe in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patches.append((owner, meth, original, self._wrap(span_name, original, probe)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span_name, original, probe)
            for ns in namespaces:
                for key, value in ns.items():
                    if value is original:
                        self._patches.append((ns, key, original, wrapper))
        self.rebind()
        return self

    def rebind(self) -> None:
        """Point every patched name at its wrapper (undone by ``unbind``)."""
        for owner, key, _, wrapper in self._patches:
            _set(owner, key, wrapper)

    def unbind(self) -> None:
        for owner, key, original, _ in self._patches:
            _set(owner, key, original)

    def uninstall(self) -> None:
        self.unbind()
        self._patches.clear()

    def write(self, path: str) -> None:
        """Dump the spans as JSON: a name table and one row per span."""
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s.name], s.start, s.end, s.parent, s.op] for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "names": names, "spans": rows}, handle, separators=(",", ":"))


def _set(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result never goes below zero.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, run_start, run_end = 0, None, None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out.append(s.end - s.start - covered)
    return out


def _has_ancestor(spans, index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans, n_ops: int) -> dict[str, float]:
    """Per-op layer metrics from a span list covering ``n_ops`` ops.

    ``*.calls`` count every call; ``geometry.region_query.calls`` counts only
    queries not made from inside another region query, and ``lp_per_call``
    the ``lp_maximize`` calls under those.  ``*.self_ms`` sum self time.
    """
    selfs = self_times(spans)
    calls, self_ns = defaultdict(int), defaultdict(int)
    rows = phase1 = kept_in = kept_out = halfspaces = 0
    paths, indeterminate = defaultdict(int), 0
    region_calls = region_lps = 0
    for i, s in enumerate(spans):
        calls[s.name] += 1
        self_ns[s.name] += selfs[i]
        info = s.info or {}
        if s.name == "simplex.maximize":
            rows += info.get("rows", 0)
            phase1 += info.get("phase1", False)
        elif s.name == "geometry.hull_prune":
            kept_in += info.get("points_in", 0)
            kept_out += info.get("points_out", 0)
        elif s.name == "geometry.polar_hrep":
            halfspaces += info.get("halfspaces", 0)
        elif s.name == "ensemble.classify_regimes":
            paths[info.get("path", "none")] += 1
            indeterminate += info.get("indeterminate", False)
        elif s.name == "geometry.region_query":
            region_calls += not _has_ancestor(spans, i, "geometry.region_query")
        elif s.name == "geometry.lp_maximize":
            region_lps += _has_ancestor(spans, i, "geometry.region_query")

    def per_op(value):
        return value / n_ops

    def ratio(num, den):
        return num / den if den else 0.0

    lp = calls["simplex.maximize"]
    regimes = calls["ensemble.classify_regimes"]
    metrics = {
        "simplex.maximize.calls": per_op(lp),
        "simplex.maximize.rows_mean": ratio(rows, lp),
        "simplex.maximize.phase1_share": ratio(phase1, lp),
        "geometry.region_query.calls": per_op(region_calls),
        "geometry.region_query.lp_per_call": ratio(region_lps, region_calls),
        "geometry.lp_maximize.calls": per_op(calls["geometry.lp_maximize"]),
        "geometry.hull_prune.calls": per_op(calls["geometry.hull_prune"]),
        "geometry.hull_prune.kept_ratio": ratio(kept_out, kept_in),
        "geometry.polar_hrep.calls": per_op(calls["geometry.polar_hrep"]),
        "geometry.polar_hrep.halfspaces_mean": ratio(halfspaces, calls["geometry.polar_hrep"]),
        "geometry.support.calls": per_op(calls["geometry.support"]),
        "certificates.ray_extent.calls": per_op(calls["certificates.ray_extent"]),
        "certificates.contains.calls": per_op(calls["certificates.contains"]),
        "certificates.s_certificate.calls": per_op(calls["certificates.s_certificate"]),
        "ensemble.classify_regimes.calls": per_op(regimes),
        "ensemble.classify_regimes.path_share.radii": ratio(paths["radii"], regimes),
        "ensemble.classify_regimes.path_share.lp": ratio(paths["lp"], regimes),
        "ensemble.classify_regimes.path_share.sampled": ratio(paths["sampled"], regimes),
        "ensemble.classify_regimes.indeterminate_share": ratio(indeterminate, regimes),
    }
    for name in SELF_TIME_LAYERS:
        metrics[f"{name}.self_ms"] = per_op(self_ns[name]) / 1e6
    return metrics


SELF_TIME_LAYERS = (
    "simplex.maximize", "geometry.region_query", "geometry.hull_prune",
    "geometry.minkowski_sum", "geometry.support", "certificates.s_certificate",
    "ensemble.classify_regimes", "ensemble.ensemble_classifier",
    "ensemble.optimize_weights", "simulate.run_experiment",
    "problemfile", "render", "cli",
)
