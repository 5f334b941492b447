"""JSON problem files: one or more classifiers at a point, with smoothness.

Schema (all keys required unless marked optional; unknown keys are rejected
with the JSON path of the offender):

    {
      "dimension": d,
      "classes": K,
      "members": [
        {"logits": [...K...],
         "smoothness": {                       # optional (gap-only member)
            "mode": "u",  "body": BODY         # or
            "mode": "cw", "bodies": [BODY x K] # or
            "mode": "cd", "pairs": [{"i": int, "j": int, "body": BODY}, ...]
         }}
      ],
      "weights": [...],                        # optional, one per member
      "window": [xmin, xmax, ymin, ymax]       # optional render window
    }

    BODY = {"type": "points", "points": [[...d...], ...]}
         | {"type": "lp_ball", "p": number | "inf", "eps": r, "center": [...d...]}
         | {"type": "ellipsoid", "sigma": [[...]], "eps": r}

A parsed file round-trips: serializing and re-parsing yields an identical
specification.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .certificates import ClassDiff, ClassifierAtPoint, ClassWise, Smoothness, Uniform
from .ensemble import EnsembleSpec
from .geometry import ConvexBody, Ellipsoid, FinitePoints, LpBall
from .render import SVG_WIDTH


class ProblemFileError(ValueError):
    """Problem file rejected; `path` locates the offending element."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _require_keys(obj: dict, path: str, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(obj, dict):
        raise ProblemFileError(path, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in required and key not in optional:
            raise ProblemFileError(path, f"unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise ProblemFileError(path, f"missing key {key!r}")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemFileError(path, "expected a number")
    # an integer beyond the float range is not finite either (float() would raise)
    if isinstance(value, int) and abs(value) > sys.float_info.max or not math.isfinite(value):
        raise ProblemFileError(path, "expected a finite number")
    return float(value)


def _vector(value, path: str, dim: int) -> list[float]:
    if not isinstance(value, list) or len(value) != dim:
        raise ProblemFileError(path, f"expected a list of {dim} numbers")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def valid_window(win) -> bool:
    """Whether `win` is a render window [xmin, xmax, ymin, ymax]: four finite
    numbers with xmin < xmax whose SVG, drawn SVG_WIDTH wide, has a finite,
    nonzero height (so ymin < ymax, and the width and height are finite)."""
    return (len(win) == 4 and all(map(math.isfinite, win)) and win[1] - win[0] > 0.0
            and 0.0 < SVG_WIDTH * (win[3] - win[2]) / (win[1] - win[0]) < math.inf)


def _parse_body(obj, path: str, dim: int) -> ConvexBody:
    _require_keys(obj, path, {"type"}, {"points", "p", "eps", "center", "sigma"})
    kind = obj["type"]
    if kind == "points":
        _require_keys(obj, path, {"type", "points"})
        pts = obj["points"]
        if not isinstance(pts, list) or not pts:
            raise ProblemFileError(f"{path}.points", "expected a nonempty list of points")
        rows = [_vector(p, f"{path}.points[{i}]", dim) for i, p in enumerate(pts)]
        return FinitePoints(np.array(rows))
    if kind == "lp_ball":
        _require_keys(obj, path, {"type", "p", "eps"}, {"center"})
        p = math.inf if obj["p"] == "inf" else _number(obj["p"], f"{path}.p")
        if p < 1.0:
            raise ProblemFileError(f"{path}.p", "p must lie in [1, inf]")
        eps = _number(obj["eps"], f"{path}.eps")
        center = _vector(obj["center"], f"{path}.center", dim) if "center" in obj else np.zeros(dim)
        try:
            return LpBall(p, eps, np.array(center))
        except ValueError as exc:
            raise ProblemFileError(path, str(exc)) from None
    if kind == "ellipsoid":
        _require_keys(obj, path, {"type", "sigma", "eps"})
        sigma = obj["sigma"]
        if not isinstance(sigma, list) or len(sigma) != dim:
            raise ProblemFileError(f"{path}.sigma", f"expected a {dim}x{dim} matrix")
        rows = [_vector(r, f"{path}.sigma[{i}]", dim) for i, r in enumerate(sigma)]
        eps = _number(obj["eps"], f"{path}.eps")
        try:
            return Ellipsoid(np.array(rows), eps)
        except ValueError as exc:
            raise ProblemFileError(path, str(exc)) from None
    raise ProblemFileError(f"{path}.type", f"unknown body type {kind!r}")


def _parse_smoothness(obj, path: str, dim: int, classes: int) -> Smoothness:
    _require_keys(obj, path, {"mode"}, {"body", "bodies", "pairs"})
    mode = obj["mode"]
    if mode == "u":
        _require_keys(obj, path, {"mode", "body"})
        return Uniform(_parse_body(obj["body"], f"{path}.body", dim))
    if mode == "cw":
        _require_keys(obj, path, {"mode", "bodies"})
        bodies = obj["bodies"]
        if not isinstance(bodies, list) or len(bodies) != classes:
            raise ProblemFileError(f"{path}.bodies",
                                   f"expected one body per class ({classes})")
        return ClassWise(tuple(
            _parse_body(b, f"{path}.bodies[{i}]", dim) for i, b in enumerate(bodies)))
    if mode == "cd":
        _require_keys(obj, path, {"mode", "pairs"})
        entries = obj["pairs"]
        if not isinstance(entries, list) or not entries:
            raise ProblemFileError(f"{path}.pairs", "expected a nonempty list")
        pairs = {}
        for idx, entry in enumerate(entries):
            entry_path = f"{path}.pairs[{idx}]"
            _require_keys(entry, entry_path, {"i", "j", "body"})
            i, j = entry["i"], entry["j"]
            for name, value in (("i", i), ("j", j)):
                if isinstance(value, bool) or not isinstance(value, int) \
                        or not (0 <= value < classes):
                    raise ProblemFileError(f"{entry_path}.{name}",
                                           f"expected a class index in [0, {classes})")
            if i == j:
                raise ProblemFileError(entry_path, "pair indices must differ")
            if (i, j) in pairs:
                raise ProblemFileError(entry_path, f"duplicate pair ({i}, {j})")
            pairs[(i, j)] = _parse_body(entry["body"], f"{entry_path}.body", dim)
        return ClassDiff(pairs)
    raise ProblemFileError(f"{path}.mode", f"unknown smoothness mode {mode!r}")


@dataclass(frozen=True)
class ProblemFile:
    dimension: int
    classes: int
    members: tuple[ClassifierAtPoint, ...]
    weights: tuple[float, ...] | None = None
    window: tuple[float, float, float, float] | None = None

    @property
    def is_ensemble(self) -> bool:
        return len(self.members) >= 2

    def classifier(self) -> ClassifierAtPoint:
        if self.is_ensemble:
            raise ValueError("the file describes an ensemble; use to_ensemble()")
        return self.members[0]

    def to_ensemble(self, weights=None) -> EnsembleSpec:
        if not self.is_ensemble:
            raise ValueError("the file describes a single classifier")
        w = weights if weights is not None else self.weights
        return EnsembleSpec(self.members, None if w is None else np.asarray(w, dtype=float))


def from_dict(data: dict) -> ProblemFile:
    _require_keys(data, "$", {"dimension", "classes", "members"}, {"weights", "window"})
    dim, classes = data["dimension"], data["classes"]
    for name, value, floor in (("dimension", dim, 1), ("classes", classes, 2)):
        if isinstance(value, bool) or not isinstance(value, int) or value < floor:
            raise ProblemFileError(f"$.{name}", f"expected an integer >= {floor}")
    raw_members = data["members"]
    if not isinstance(raw_members, list) or not raw_members:
        raise ProblemFileError("$.members", "expected a nonempty list")
    members = []
    for idx, raw in enumerate(raw_members):
        path = f"$.members[{idx}]"
        _require_keys(raw, path, {"logits"}, {"smoothness"})
        logits = _vector(raw["logits"], f"{path}.logits", classes)
        smoothness = None
        if "smoothness" in raw:
            smoothness = _parse_smoothness(raw["smoothness"], f"{path}.smoothness",
                                           dim, classes)
        members.append(ClassifierAtPoint(np.array(logits), smoothness))
    weights = None
    if "weights" in data:
        raw_w = data["weights"]
        if not isinstance(raw_w, list) or len(raw_w) != len(members):
            raise ProblemFileError("$.weights", "expected one weight per member")
        weights = tuple(_number(w, f"$.weights[{i}]") for i, w in enumerate(raw_w))
        if any(w < 0 for w in weights):
            raise ProblemFileError("$.weights", "weights must be nonnegative")
    window = None
    if "window" in data:
        win = _vector(data["window"], "$.window", 4)
        if not valid_window(win):
            raise ProblemFileError("$.window", "expected [xmin, xmax, ymin, ymax]")
        window = tuple(win)
    return ProblemFile(dim, classes, tuple(members), weights, window)


def loads(text: str) -> ProblemFile:
    data = json.loads(text)  # json.JSONDecodeError carries line/column
    return from_dict(data)


def load(path) -> ProblemFile:
    with open(path, encoding="utf-8") as handle:
        return loads(handle.read())


def _body_to_dict(body: ConvexBody) -> dict:
    if isinstance(body, FinitePoints):
        return {"type": "points", "points": body.points.tolist()}
    if isinstance(body, LpBall):
        return {"type": "lp_ball",
                "p": "inf" if math.isinf(body.p) else body.p,
                "eps": body.radius,
                "center": body.center.tolist()}
    if isinstance(body, Ellipsoid):
        return {"type": "ellipsoid", "sigma": body.sigma.tolist(), "eps": body.radius}
    raise ValueError(f"{type(body).__name__} has no file representation")


def to_dict(problem: ProblemFile) -> dict:
    members = []
    for member in problem.members:
        entry: dict = {"logits": member.logits.tolist()}
        s = member.smoothness
        if isinstance(s, Uniform):
            entry["smoothness"] = {"mode": "u", "body": _body_to_dict(s.body)}
        elif isinstance(s, ClassWise):
            entry["smoothness"] = {"mode": "cw",
                                   "bodies": [_body_to_dict(b) for b in s.bodies]}
        elif isinstance(s, ClassDiff):
            entry["smoothness"] = {"mode": "cd", "pairs": [
                {"i": i, "j": j, "body": _body_to_dict(b)}
                for (i, j), b in sorted(s.pairs.items())]}
        members.append(entry)
    data: dict = {"dimension": problem.dimension, "classes": problem.classes,
                  "members": members}
    if problem.weights is not None:
        data["weights"] = list(problem.weights)
    if problem.window is not None:
        data["window"] = list(problem.window)
    return data


def dumps(problem: ProblemFile, indent: int | None = 2) -> str:
    return json.dumps(to_dict(problem), indent=indent)
