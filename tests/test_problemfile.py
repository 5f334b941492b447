"""Problem-file parsing, validation errors, and round-tripping."""

import json
import math

import numpy as np
import pytest

from scert import problemfile
from scert.certificates import ClassDiff, ClassifierAtPoint, ClassWise, Uniform
from scert.geometry import Combination, Ellipsoid, FinitePoints, LpBall
from scert.problemfile import ProblemFileError


def doc(**overrides):
    base = {
        "dimension": 2,
        "classes": 2,
        "members": [
            {"logits": [1.0, 0.0],
             "smoothness": {"mode": "u",
                            "body": {"type": "lp_ball", "p": 2, "eps": 1.0,
                                     "center": [0.0, 0.0]}}},
        ],
    }
    base.update(overrides)
    return base


class TestParsing:
    def test_minimal_single_classifier(self):
        problem = problemfile.from_dict(doc())
        assert not problem.is_ensemble
        member = problem.classifier()
        assert isinstance(member.smoothness, Uniform)
        assert isinstance(member.smoothness.body, LpBall)

    def test_inf_exponent(self):
        d = doc()
        d["members"][0]["smoothness"]["body"]["p"] = "inf"
        body = problemfile.from_dict(d).classifier().smoothness.body
        assert math.isinf(body.p)

    def test_points_and_ellipsoid_bodies(self):
        d = doc()
        d["members"][0]["smoothness"] = {
            "mode": "cw",
            "bodies": [{"type": "points", "points": [[0.0, 1.0]]},
                       {"type": "ellipsoid", "sigma": [[2.0, 0.0], [0.0, 1.0]],
                        "eps": 0.5}]}
        member = problemfile.from_dict(d).classifier()
        assert isinstance(member.smoothness, ClassWise)
        assert isinstance(member.smoothness.bodies[0], FinitePoints)
        assert isinstance(member.smoothness.bodies[1], Ellipsoid)

    def test_class_diff_pairs(self):
        d = doc(dimension=1)
        d["members"][0]["logits"] = [0.9, 0.7]
        d["members"][0]["smoothness"] = {
            "mode": "cd",
            "pairs": [{"i": 1, "j": 0,
                       "body": {"type": "points", "points": [[0.2]]}}]}
        member = problemfile.from_dict(d).classifier()
        assert isinstance(member.smoothness, ClassDiff)
        assert (1, 0) in member.smoothness.pairs

    def test_gap_only_member(self):
        d = doc()
        del d["members"][0]["smoothness"]
        assert problemfile.from_dict(d).classifier().smoothness is None

    def test_weights_and_window(self):
        d = doc()
        d["members"].append(dict(d["members"][0]))
        d["weights"] = [0.25, 0.75]
        d["window"] = [-2.0, 2.0, -1.0, 1.0]
        problem = problemfile.from_dict(d)
        assert problem.is_ensemble and problem.window == (-2.0, 2.0, -1.0, 1.0)
        spec = problem.to_ensemble()
        assert np.allclose(spec.weights, [0.25, 0.75])

    def test_accessors_check_the_member_count(self):
        with pytest.raises(ValueError, match="single classifier"):
            problemfile.from_dict(doc()).to_ensemble()
        d = doc()
        d["members"].append(dict(d["members"][0]))
        with pytest.raises(ValueError, match="describes an ensemble"):
            problemfile.from_dict(d).classifier()


class TestValidationErrors:
    def test_unknown_top_level_key(self):
        with pytest.raises(ProblemFileError, match=r"\$: unknown key 'extra'"):
            problemfile.from_dict(doc(extra=1))

    def test_unknown_member_key(self):
        d = doc()
        d["members"][0]["name"] = "oops"
        with pytest.raises(ProblemFileError, match=r"members\[0\]: unknown key"):
            problemfile.from_dict(d)

    def test_unknown_body_key_with_path(self):
        d = doc()
        d["members"][0]["smoothness"]["body"]["radius"] = 2
        with pytest.raises(ProblemFileError,
                           match=r"members\[0\]\.smoothness\.body: unknown key 'radius'"):
            problemfile.from_dict(d)

    def test_wrong_logit_count(self):
        d = doc()
        d["members"][0]["logits"] = [1.0, 0.0, 0.5]
        with pytest.raises(ProblemFileError, match="logits"):
            problemfile.from_dict(d)

    def test_bad_pair_index(self):
        d = doc(dimension=1)
        d["members"][0]["smoothness"] = {
            "mode": "cd",
            "pairs": [{"i": 5, "j": 0,
                       "body": {"type": "points", "points": [[0.2]]}}]}
        with pytest.raises(ProblemFileError, match=r"pairs\[0\]\.i"):
            problemfile.from_dict(d)

    def test_invalid_json_reports_position(self):
        with pytest.raises(json.JSONDecodeError):
            problemfile.loads("{\n  \"dimension\": 2,,\n}")

    def test_negative_eps_rejected(self):
        d = doc()
        d["members"][0]["smoothness"]["body"]["eps"] = -1.0
        with pytest.raises(ProblemFileError):
            problemfile.from_dict(d)


def edited(*keys, value):
    """A mutation of `doc()` that sets the element at `keys` to `value`."""
    def apply(d):
        target = d
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        return d
    return apply


SMOOTH = ("members", 0, "smoothness")
BODY = (*SMOOTH, "body")
POINTS = {"type": "points", "points": [[0.0, 1.0]]}


def pairs(*entries):
    return edited(*SMOOTH, value={"mode": "cd", "pairs": [
        {"i": i, "j": j, "body": POINTS} for i, j in entries]})


# one malformed document per rejection branch: (id, mutation, JSON path, message)
MALFORMED = [
    ("document-not-an-object", lambda d: [d], "$", "expected an object"),
    ("missing-members", lambda d: {"dimension": 2, "classes": 2}, "$", "missing key 'members'"),
    ("boolean-dimension", edited("dimension", value=True), "$.dimension", "integer >= 1"),
    ("one-class", edited("classes", value=1), "$.classes", "integer >= 2"),
    ("no-members", edited("members", value=[]), "$.members", "nonempty list"),
    ("member-not-an-object", edited("members", 0, value=[1.0, 0.0]), "$.members[0]",
     "expected an object"),
    ("string-logit", edited("members", 0, "logits", value=[1.0, "x"]),
     "$.members[0].logits[1]", "expected a number"),
    ("infinite-logit", edited("members", 0, "logits", value=[1.0, math.inf]),
     "$.members[0].logits[1]", "expected a finite number"),
    ("smoothness-without-mode", edited(*SMOOTH, value={"body": POINTS}),
     "$.members[0].smoothness", "missing key 'mode'"),
    ("unknown-mode", edited(*SMOOTH, "mode", value="uniform"),
     "$.members[0].smoothness.mode", "unknown smoothness mode"),
    ("class-wise-body-count", edited(*SMOOTH, value={"mode": "cw", "bodies": [POINTS]}),
     "$.members[0].smoothness.bodies", "one body per class"),
    ("no-pairs", pairs(), "$.members[0].smoothness.pairs", "nonempty list"),
    ("boolean-pair-index", pairs((True, 0)), "$.members[0].smoothness.pairs[0].i",
     "class index"),
    ("pair-index-out-of-range", pairs((0, 2)), "$.members[0].smoothness.pairs[0].j",
     "class index"),
    ("pair-of-one-class", pairs((1, 1)), "$.members[0].smoothness.pairs[0]", "must differ"),
    ("duplicate-pair", pairs((1, 0), (1, 0)), "$.members[0].smoothness.pairs[1]",
     "duplicate pair (1, 0)"),
    ("unknown-body-type", edited(*BODY, "type", value="box"),
     "$.members[0].smoothness.body.type", "unknown body type"),
    ("no-points", edited(*BODY, value={"type": "points", "points": []}),
     "$.members[0].smoothness.body.points", "nonempty list of points"),
    ("point-of-wrong-dimension", edited(*BODY, value={"type": "points", "points": [[1.0]]}),
     "$.members[0].smoothness.body.points[0]", "list of 2 numbers"),
    ("exponent-below-one", edited(*BODY, "p", value=0.5),
     "$.members[0].smoothness.body.p", "p must lie in [1, inf]"),
    ("exponent-not-a-number", edited(*BODY, "p", value="two"),
     "$.members[0].smoothness.body.p", "expected a number"),
    ("negative-eps", edited(*BODY, "eps", value=-1.0),
     "$.members[0].smoothness.body", "radius must be a finite nonnegative real"),
    ("short-center", edited(*BODY, "center", value=[0.0]),
     "$.members[0].smoothness.body.center", "list of 2 numbers"),
    ("sigma-of-wrong-size", edited(*BODY, value={"type": "ellipsoid", "sigma": [[1.0, 0.0]],
                                                 "eps": 1.0}),
     "$.members[0].smoothness.body.sigma", "2x2 matrix"),
    ("non-square-sigma", edited(*BODY, value={"type": "ellipsoid",
                                              "sigma": [[1.0, 0.0], [0.0]], "eps": 1.0}),
     "$.members[0].smoothness.body.sigma[1]", "list of 2 numbers"),
    ("asymmetric-sigma", edited(*BODY, value={"type": "ellipsoid",
                                              "sigma": [[1.0, 1.0], [0.0, 1.0]], "eps": 1.0}),
     "$.members[0].smoothness.body", "sigma must be symmetric"),
    ("ellipsoid-without-eps", edited(*BODY, value={"type": "ellipsoid",
                                                   "sigma": [[1.0, 0.0], [0.0, 1.0]]}),
     "$.members[0].smoothness.body", "missing key 'eps'"),
    ("weight-count", edited("weights", value=[0.5, 0.5]), "$.weights", "one weight per member"),
    ("string-weight", edited("weights", value=["1"]), "$.weights[0]", "expected a number"),
    ("negative-weight", edited("weights", value=[-1.0]), "$.weights", "must be nonnegative"),
    ("short-window", edited("window", value=[0.0, 1.0]), "$.window", "list of 4 numbers"),
    ("window-out-of-order", edited("window", value=[1.0, -1.0, -1.0, 1.0]), "$.window",
     "[xmin, xmax, ymin, ymax]"),
    ("window-height-overflows", edited("window", value=[-1.0, 1.0, -1e308, 1e308]), "$.window",
     "[xmin, xmax, ymin, ymax]"),
]


@pytest.mark.parametrize("mutate, path, message", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_document_is_rejected_at_its_path(mutate, path, message):
    with pytest.raises(ProblemFileError) as info:
        problemfile.from_dict(mutate(doc()))
    assert info.value.path == path
    assert str(info.value).startswith(f"{path}: ") and message in str(info.value)


class TestRoundTrip:
    @pytest.mark.parametrize("fixture", [
        "fig1.json", "example-3-11-cw.json", "example-3-11-cd.json",
        "appendix-c2-u.json", "appendix-c3-cw.json", "appendix-c4.json",
        "fig5a.json", "fig6.json"])
    def test_fixture_round_trip(self, fixture):
        from scert.cli import fixture_path
        text = fixture_path(fixture).read_text(encoding="utf-8")
        problem = problemfile.loads(text)
        again = problemfile.loads(problemfile.dumps(problem))
        assert problemfile.to_dict(problem) == problemfile.to_dict(again)
        assert again.dimension == problem.dimension
        assert again.classes == problem.classes
        for a, b in zip(problem.members, again.members):
            assert np.array_equal(a.logits, b.logits)
            assert type(a.smoothness) is type(b.smoothness)

    def test_a_combination_body_has_no_file_form(self):
        body = Combination(((1.0, LpBall(2, 1.0, [0.0, 0.0])), (1.0, LpBall(1, 1.0, [0.0, 0.0]))))
        problem = problemfile.ProblemFile(2, 2, (ClassifierAtPoint([1.0, 0.0], Uniform(body)),))
        with pytest.raises(ValueError, match="Combination has no file representation"):
            problemfile.dumps(problem)

    def test_weights_and_window_round_trip(self):
        d = doc(weights=[1.0], window=[-2.0, 2.0, -1.0, 0.5])
        problem = problemfile.from_dict(d)
        again = problemfile.loads(problemfile.dumps(problem))
        assert problemfile.to_dict(again) == problemfile.to_dict(problem)
        assert again.window == (-2.0, 2.0, -1.0, 0.5) and again.weights == (1.0,)
