"""Command-line surface: subcommands, exit codes, CSV and SVG contracts."""

import contextlib
import io
import json
import math
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_clip, unit_directions
from scert import cli, geometry
from scert.certificates import (
    Certificate,
    ClassifierAtPoint,
    ClassWise,
    Uniform,
    s_certificate,
)
from scert.cli import (
    _NORMS,
    CSV_HEADER,
    _certificate_from_problem,
    describe_certificate,
    fixture_path,
    load_expected,
    load_fixture,
    main,
    run_fixture_check,
)
from scert.ensemble import ensemble_classifier
from scert.geometry import TOL, FinitePoints, HalfspaceRegion, LpBall
from scert.render import (
    ANGLE_SAMPLES,
    DEFAULT_WINDOW,
    certificate_outline,
    window_polygon,
)


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCertify:
    def test_class_wise_interval(self, capsys):
        code, out, _ = run_cli(capsys, "certify",
                               str(fixture_path("example-3-11-cw.json")), "--mode", "cw")
        assert code == 0
        assert "interval [-0.25, 0.166666667]" in out
        assert "top class: 0" in out

    def test_half_infinite_interval(self, capsys):
        code, out, _ = run_cli(capsys, "certify",
                               str(fixture_path("appendix-c2-cw.json")), "--mode", "cw")
        assert code == 0
        assert "(-inf, 2]" in out

    def test_lipschitz_radius(self, capsys):
        code, out, _ = run_cli(capsys, "certify", str(fixture_path("fig1.json")),
                               "--mode", "lipschitz-u", "--norm", "linf")
        assert code == 0
        assert "radius 0.333333333" in out

    def test_mode_mismatch_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "certify",
                               str(fixture_path("appendix-c2-u.json")), "--mode", "cw")
        assert code == 3
        assert "error" in err

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  \"dimension\": 2,,\n}")
        code, _, err = run_cli(capsys, "certify", str(bad), "--mode", "u")
        assert code == 2
        assert "line" in err and "column" in err

    def test_unknown_key_exit_2_with_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dimension": 2, "classes": 2, "members": [],
                                   "bogus": 1}))
        code, _, err = run_cli(capsys, "certify", str(bad), "--mode", "u")
        assert code == 2
        assert "bogus" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "certify", "no-such-file.json", "--mode", "u")
        assert code == 2

    def test_whole_space_certificate(self, tmp_path, capsys):
        problem = tmp_path / "flat.json"
        problem.write_text(json.dumps({
            "dimension": 2, "classes": 2,
            "members": [{"logits": [1.0, 0.0],
                         "smoothness": {"mode": "u",
                                        "body": {"type": "points", "points": [[0.0, 0.0]]}}}]}))
        code, out, _ = run_cli(capsys, "certify", str(problem), "--mode", "u")
        assert code == 0
        assert "entire space (no constraint)" in out

    def test_contradicting_norm_exit_3(self, tmp_path, capsys):
        problem = tmp_path / "ball.json"
        problem.write_text(json.dumps({
            "dimension": 2, "classes": 2,
            "members": [{"logits": [1.0, 0.0],
                         "smoothness": {"mode": "u",
                                        "body": {"type": "lp_ball", "p": 2,
                                                 "eps": 1.0,
                                                 "center": [0.0, 0.0]}}}]}))
        code, _, err = run_cli(capsys, "certify", str(problem),
                               "--mode", "lipschitz-u", "--norm", "l1")
        assert code == 3
        assert err == ("error: --norm l1 contradicts the file's gradient balls: "
                       "their certificate is not an l1 ball\n")
        code, out, _ = run_cli(capsys, "certify", str(problem),
                               "--mode", "lipschitz-u", "--norm", "l2")
        assert code == 0 and "radius 0.5" in out

    @staticmethod
    def _write(tmp_path, logits, smoothness=None):
        member = {"logits": logits}
        if smoothness is not None:
            member["smoothness"] = smoothness
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({"dimension": 2, "classes": len(logits),
                                       "members": [member]}))
        return str(problem)

    def test_clouds_and_balls_mix_class_wise(self, tmp_path, capsys):
        # the cloud becomes the l2 ball of radius 1 beside the l2 ball of 0.5,
        # so the certificate is the l2 ball of radius 0.5 / (1 + 0.5)
        problem = self._write(tmp_path, [0.7, 0.2], {"mode": "cw", "bodies": [
            {"type": "points", "points": [[1.0, 0.0], [0.0, 1.0], [-0.5, -0.5]]},
            {"type": "lp_ball", "p": 2, "eps": 0.5}]})
        code, out, _ = run_cli(capsys, "certify", problem, "--mode", "lipschitz-cw")
        assert code == 0 and out.endswith("  l2 ball, radius 0.333333333\n")
        # under --norm l1 the cloud becomes an l_inf ball, of another shape
        code, _, err = run_cli(capsys, "certify", problem, "--mode", "lipschitz-cw",
                               "--norm", "l1")
        assert code == 3 and err == "error: class-wise lipschitz balls must share one shape\n"

    def test_norm_is_checked_on_an_ellipsoid_certificate(self, tmp_path, capsys):
        problem = self._write(tmp_path, [1.0, 0.0], {"mode": "u", "body": {
            "type": "ellipsoid", "sigma": [[1.0, 0.0], [0.0, 2.0]], "eps": 0.5}})
        code, out, _ = run_cli(capsys, "certify", problem, "--mode", "lipschitz-u")
        assert code == 0 and "ellipsoid ball, radius 1" in out
        code, _, err = run_cli(capsys, "certify", problem, "--mode", "lipschitz-u",
                               "--norm", "l2")
        assert code == 3 and "their certificate is not an l2 ball" in err

    @pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
    def test_degenerate_balls_certify_the_whole_space_under_any_norm(self, tmp_path,
                                                                   capsys, norm):
        problem = self._write(tmp_path, [1.0, 0.0], {"mode": "cw", "bodies": [
            {"type": "lp_ball", "p": 1, "eps": 0.0}, {"type": "lp_ball", "p": 2, "eps": 0.0}]})
        code, out, _ = run_cli(capsys, "certify", problem, "--mode", "lipschitz-cw",
                               "--norm", norm)
        assert code == 0 and "entire space (no constraint)" in out

    def test_a_file_without_smoothness_has_no_lipschitz_certificate(self, tmp_path, capsys):
        problem = self._write(tmp_path, [1.0, 0.0])
        code, _, err = run_cli(capsys, "certify", problem, "--mode", "lipschitz-u")
        assert code == 3 and err == "error: uniform mode needs a single shared gradient ball\n"


    def test_a_cloud_at_1e200_certifies_and_regimes_without_warning(self, tmp_path, capsys):
        # polar_hrep dropped zero rows by their norm, whose squares overflowed
        cloud = [[1e200, 0.0], [0.0, 1e200], [-1e200, -5e199], [3e199, 2e199]]
        member = {"logits": [0.6, 0.4],
                  "smoothness": {"mode": "u", "body": {"type": "points", "points": cloud}}}
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        one.write_text(json.dumps({"dimension": 2, "classes": 2, "members": [member]}))
        two.write_text(json.dumps({"dimension": 2, "classes": 2, "members": [member, member]}))
        code, out, err = run_cli(capsys, "certify", str(one), "--mode", "u")
        assert code == 0 and err == ""
        assert "[2e+200, 5e+199] . delta <= 0.2" in out and out.count(". delta <= 0.2") == 6
        code, out, err = run_cli(capsys, "regime", str(two))
        assert code == 0 and err == "" and "certificate regime: inconclusive" in out

    def test_a_cloud_at_1e_200_certifies_its_region(self, tmp_path, capsys):
        # an absolute floor under which a cloud was {0} certified the whole space
        cloud = [[1e-200, 0.0], [0.0, 1e-200], [-1e-200, -5e-201], [3e-201, 2e-201]]
        problem = self._write(tmp_path, [0.6, 0.4], {"mode": "u", "body": {
            "type": "points", "points": cloud}})
        code, out, err = run_cli(capsys, "certify", problem, "--mode", "u")
        assert code == 0 and err == ""
        assert "[2e-200, 5e-201] . delta <= 0.2" in out and out.count(". delta <= 0.2") == 6

    def test_a_subnormal_cloud_certifies_and_regimes_without_warning(self, tmp_path, capsys):
        # its region's row feet are past the float range, so the 2D path reads
        # the region as the plane
        cloud = [[1e-310, 0.0], [0.0, 1e-310], [-1e-310, -5e-311], [3e-311, 2e-311]]
        member = {"logits": [0.6, 0.4],
                  "smoothness": {"mode": "u", "body": {"type": "points", "points": cloud}}}
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        one.write_text(json.dumps({"dimension": 2, "classes": 2, "members": [member]}))
        two.write_text(json.dumps({"dimension": 2, "classes": 2, "members": [member, member]}))
        code, out, err = run_cli(capsys, "certify", str(one), "--mode", "u")
        assert code == 0 and err == "" and out.count(". delta <= 0.2") == 6
        code, out, err = run_cli(capsys, "regime", str(two))
        assert code == 0 and err == ""

    def test_a_tiny_ball_certifies_its_polar_ball(self, tmp_path, capsys):
        problem = self._write(tmp_path, [0.6, 0.4], {"mode": "u", "body": {
            "type": "lp_ball", "p": 2, "eps": 1e-16}})
        code, out, err = run_cli(capsys, "certify", problem, "--mode", "u")
        assert code == 0 and err == "" and "l2 ball, radius 1e+15" in out

    def test_a_polar_radius_past_the_float_range_is_an_error(self, tmp_path, capsys):
        problem = self._write(tmp_path, [0.6, 0.4], {"mode": "u", "body": {
            "type": "lp_ball", "p": 2, "eps": 5e-324}})
        code, out, err = run_cli(capsys, "certify", problem, "--mode", "u")
        assert code == 2 and err == "error: radius must be a finite nonnegative real\n"

    @pytest.mark.parametrize("fixture, mode, logits, interval", [
        ("example-3-11-cw.json", "cw", [1e308, 0.7], "[-1.25e+308, 8.33333333e+307]"),
        # the one row, -0.2 delta <= 1e308, bounds delta only past the float range
        ("example-3-11-cd.json", "cd", [0.9, 1e308], "(-inf, inf)"),
    ])
    def test_a_1d_file_with_huge_logits_certifies_without_warning(self, fixture, mode, logits,
                                                                interval, tmp_path, capsys):
        # the dense simplex that answered 1D regions overflowed, and read NaN
        problem = json.loads(fixture_path(fixture).read_text())
        problem["members"][0]["logits"] = logits
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(problem))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "certify", str(path), "--mode", mode)
        assert code == 0 and err == "" and f"  interval {interval}\n" in out

    @pytest.mark.parametrize("members", [(0,), (1,), (0, 1)])
    def test_an_ellipsoid_at_1e200_regimes_without_warning(self, members, tmp_path, capsys):
        # the Frobenius norm of sigma squared its entries, which overflowed
        problem = json.loads(fixture_path("appendix-c4.json").read_text())
        for index in members:
            problem["members"][index]["smoothness"]["body"]["sigma"][0][0] = 1e200
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(problem))
        code, out, err = run_cli(capsys, "regime", str(path))
        assert code == 0 and err == "" and "certificate regime: inconclusive" in out

    def test_a_2d_file_with_huge_logits_regimes_as_its_scaled_copy(self, tmp_path, capsys):
        # offsets near 1e308 sent 2D regions to the dense simplex, which warned
        # and raised "simplex did not converge within the iteration cap"
        clouds = ([[0.0416, -0.458], [-0.137, 0.0334], [-0.235, -0.143], [-0.246, -0.1]],
                  [[0.256, -0.122], [-0.0462, 0.244], [0.193, 0.509], [-0.627, 0.257]])
        logits = ([1e308, 4.05e306], [6.33e307, 7.04e306])
        regimes = []
        for k in (0, -20):
            problem = {"dimension": 2, "classes": 2, "members": [
                {"logits": [math.ldexp(v, k) for v in row],
                 "smoothness": {"mode": "u", "body": {"type": "points", "points": cloud}}}
                for row, cloud in zip(logits, clouds)]}
            path = tmp_path / f"huge{k}.json"
            path.write_text(json.dumps(problem))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(capsys, "regime", str(path))
            assert code == 0 and err == ""
            regimes.append(next(line for line in out.splitlines()
                                if line.startswith("certificate regime:")))
        assert regimes == ["certificate regime: inconclusive"] * 2


class TestEnsembleAndRegime:
    def test_ensemble_report(self, capsys):
        code, out, _ = run_cli(capsys, "ensemble", str(fixture_path("appendix-c4.json")))
        assert code == 0
        assert "ensemble logits" in out and "certificate family=s" in out

    def test_weights_override(self, capsys):
        code, out, _ = run_cli(capsys, "ensemble", str(fixture_path("appendix-c4.json")),
                               "--weights", "1,0")
        assert code == 0
        assert "weights: 1 0" in out

    def test_regime_report(self, capsys):
        code, out, _ = run_cli(capsys, "regime", str(fixture_path("fig5c.json")))
        assert code == 0
        assert "gap regime: loss" in out
        assert "certificate regime: reduction" in out
        assert "trivial" in out

    def test_single_member_rejected(self, capsys):
        code, _, err = run_cli(capsys, "regime", str(fixture_path("fig1.json")))
        assert code == 3

    def test_class_diff_ensemble(self, tmp_path, capsys):
        body = {"type": "points", "points": [[0.3, 0.1], [-0.2, 0.4]]}
        problem = {
            "dimension": 2, "classes": 2,
            "members": [
                {"logits": [0.8, 0.2],
                 "smoothness": {"mode": "cd",
                                "pairs": [{"i": 1, "j": 0, "body": body}]}},
                {"logits": [0.7, 0.3],
                 "smoothness": {"mode": "cd",
                                "pairs": [{"i": 1, "j": 0, "body": body}]}},
            ]}
        path = tmp_path / "cd.json"
        path.write_text(json.dumps(problem))
        code, out, _ = run_cli(capsys, "ensemble", str(path))
        assert code == 0
        assert "certificate family=s mode=cd" in out
        code, out, _ = run_cli(capsys, "regime", str(path))
        assert code == 0
        assert "certificate regime: inconclusive" in out


    @staticmethod
    def _two_3d_members(tmp_path, clouds):
        members = [{"logits": [0.6, 0.3, 0.1],
                    "smoothness": {"mode": "u", "body": {"type": "points", "points": c.tolist()}}}
                   for c in clouds]
        path = tmp_path / "members.json"
        path.write_text(json.dumps({"dimension": 3, "classes": 3, "members": members}))
        return str(path)

    def test_expansion_cap_error_is_printed(self, tmp_path, capsys):
        # every point on the sphere is extreme, so the ensemble's first
        # pairwise sum has 101 x 101 = 10,201 points, over the 10,000-point
        # cap, and the certificate regime cannot be decided
        rng = np.random.default_rng(5)
        spheres = [p / np.linalg.norm(p, axis=1, keepdims=True)
                   for p in (rng.standard_normal((101, 3)) for _ in range(2))]
        code, out, _ = run_cli(capsys, "regime", self._two_3d_members(tmp_path, spheres))
        assert code == 0
        assert "certificate regime: indeterminate" in out
        assert "evidence error: point expansion exceeds the 10000-point cap" in out

    def test_two_30_point_3d_members_decide(self, tmp_path, capsys):
        # the ensemble's 900-point cloud minus itself is far over the cap
        # unpruned; pruned after every pairwise step, the LP path decides
        rng = np.random.default_rng(5)
        clouds = [rng.standard_normal((30, 3)) for _ in range(2)]
        code, out, _ = run_cli(capsys, "regime", self._two_3d_members(tmp_path, clouds))
        assert code == 0
        assert "certificate regime: inconclusive" in out
        assert "evidence method: lp" in out


class TestExitThree:
    """A smoothness mismatch reaches `main`, which prints one error line and
    returns 3 (the `scert` entry point exits with it)."""

    @staticmethod
    def _cd_file_without_pair(tmp_path):
        # both members carry only the pair (0, 1); the ensemble's top class
        # is 0, so its certificate needs the missing pair (1, 0)
        body = {"type": "points", "points": [[0.3, 0.1], [-0.2, 0.4]]}
        member = {"smoothness": {"mode": "cd", "pairs": [{"i": 0, "j": 1, "body": body}]}}
        path = tmp_path / "cd-missing.json"
        path.write_text(json.dumps({"dimension": 2, "classes": 2, "members": [
            {"logits": [0.8, 0.2], **member}, {"logits": [0.6, 0.4], **member}]}))
        return str(path)

    def test_certify_in_the_wrong_mode(self, capsys):
        code, out, err = run_cli(capsys, "certify", str(fixture_path("appendix-c2-u.json")),
                                 "--mode", "cw")
        assert (code, out, err) == (3, "", "error: class-wise mode needs ClassWise smoothness\n")

    def test_ensemble_missing_a_class_difference_pair(self, tmp_path, capsys):
        # the certificate is composed before the report, so none of it prints
        code, out, err = run_cli(capsys, "ensemble", self._cd_file_without_pair(tmp_path))
        assert (code, out) == (3, "")
        assert err == "error: missing class-difference body for pair (1, 0)\n"

    def test_render_missing_a_class_difference_pair(self, tmp_path, capsys):
        out_file = tmp_path / "never.svg"
        code, out, err = run_cli(capsys, "render", self._cd_file_without_pair(tmp_path),
                                 "--out", str(out_file))
        assert (code, out) == (3, "")
        assert err == "error: missing class-difference body for pair (1, 0)\n"
        assert not out_file.exists()


class TestBound:
    def test_gap_gain(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "gap-gain", "--rbar", "0.2", "--k", "4")
        assert code == 0
        assert "0.466666667" in out

    def test_radius_improvement(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "radius-improvement",
                               str(fixture_path("appendix-c4.json")))
        assert code == 0
        assert "statement variant" in out and "proof variant" in out

    def test_missing_params(self, capsys):
        code, _, err = run_cli(capsys, "bound", "gap-gain")
        assert code == 2

    def test_weights_are_not_an_option(self, capsys):
        # no bound reads the weights, so the option is gone
        code, out, err = run_cli(capsys, "bound", "radius-improvement",
                                 str(fixture_path("appendix-c4.json")), "--weights", "1,0")
        assert code == 2 and not out
        assert "unrecognized arguments: --weights" in err


class TestSimulate:
    def test_csv_contract(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--k", "4", "--n", "2,3",
                               "--draws", "4", "--seed", "7")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 4
        keys = [tuple(map(int, line.split(",")[:2])) for line in lines[1:]]
        assert keys == sorted(keys)
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 10
            assert fields[6] in ("gain", "inconclusive", "loss")
            assert fields[7] in ("0", "1")

    def test_deterministic(self, capsys):
        args = ("simulate", "--k", "3", "--n", "2", "--draws", "6", "--seed", "21")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_rows_sorted_regardless_of_n_order(self, capsys):
        _, reordered, _ = run_cli(capsys, "simulate", "--k", "3", "--n", "3,2",
                                  "--draws", "3", "--seed", "5")
        _, ordered, _ = run_cli(capsys, "simulate", "--k", "3", "--n", "2,3",
                                "--draws", "3", "--seed", "5")
        assert reordered == ordered

    def test_env_seed_overrides_flag(self, capsys, monkeypatch):
        args = ("simulate", "--k", "3", "--n", "2", "--draws", "3", "--seed", "1")
        _, base, _ = run_cli(capsys, *args)
        monkeypatch.setenv("SCERT_SEED", "2")
        _, overridden, _ = run_cli(capsys, *args)
        monkeypatch.setenv("SCERT_SEED", "1")
        _, matching, _ = run_cli(capsys, *args)
        assert overridden != base
        assert matching == base

    def test_one_member_ensemble_is_a_bad_argument(self, capsys, monkeypatch):
        # rejected before any draw is computed
        monkeypatch.setattr("scert.simulate.evaluate_draws", None)
        code, out, err = run_cli(capsys, "simulate", "--k", "3", "--n", "2,1", "--draws", "2")
        assert code == 2 and out == ""
        assert "error: ensembles need at least two members" in err

    def test_negative_seed_flag_is_a_bad_argument(self, capsys, monkeypatch):
        monkeypatch.delenv("SCERT_SEED", raising=False)
        code, out, err = run_cli(capsys, "simulate", "--k", "3", "--n", "2", "--draws", "2",
                                 "--seed", "-1")
        assert code == 2 and out == ""
        assert err == "error: the seed must be nonnegative\n"

    def test_negative_env_seed_is_a_bad_argument(self, capsys, monkeypatch):
        monkeypatch.setenv("SCERT_SEED", "-5")
        code, out, err = run_cli(capsys, "simulate", "--k", "3", "--n", "2", "--draws", "2")
        assert code == 2 and out == ""
        assert err == "error: the seed must be nonnegative\n"

    def test_repeated_member_counts_are_a_bad_argument(self, capsys, monkeypatch):
        monkeypatch.setattr("scert.simulate.evaluate_draws", None)
        code, out, err = run_cli(capsys, "simulate", "--k", "3", "--n", "2,2", "--draws", "2",
                                 "--seed", "1")
        assert code == 2 and out == ""
        assert err == "error: member counts must be distinct\n"

    def test_memory_error_is_a_bad_argument(self, capsys, monkeypatch):
        def run_experiment(_config):
            raise MemoryError("Unable to allocate 14.9 GiB for an array")

        monkeypatch.setattr("scert.cli.run_experiment", run_experiment)
        code, out, err = run_cli(capsys, "simulate", "--k", "3", "--n", "2", "--draws", "1")
        assert code == 2 and out == ""
        assert err == "error: the experiment does not fit in memory\n"

    def test_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "sim.csv"
        code, _, _ = run_cli(capsys, "simulate", "--k", "3", "--n", "2", "--draws", "2",
                             "--seed", "0", "--out", str(out_file))
        assert code == 0
        text = out_file.read_text()
        assert text.startswith(CSV_HEADER)
        assert "\r" not in text


class TestLipschitzSoundness:
    """`certify --mode lipschitz-*` prints a ball in the requested norm that
    lies inside the S-certificate of the same gradient sets: a cloud's bound
    is taken in the dual norm, and a dual-norm ball stays as it is, so the
    ball is never larger than the true polar set."""

    @staticmethod
    def _assert_sound(member, mode, norm):
        lip = _certificate_from_problem(member, f"lipschitz-{mode}", norm)
        exact = s_certificate(member, mode)
        if lip.unbounded:  # all gradients zero: no constraint either way
            assert exact.unbounded
            return
        assert lip.ball.p == _NORMS[norm or "l2"]
        if exact.region is not None:
            assert np.all(lip.ball.support(exact.region.normals) <= exact.region.offsets + TOL)
        else:  # a ball among the bodies, or the whole space
            dirs = unit_directions(64, member.dim)
            assert np.all(lip.ray_extent(dirs) <= exact.ray_extent(dirs) * (1.0 + TOL) + TOL)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), dim=st.sampled_from([2, 3]), k=st.integers(2, 4),
           mode=st.sampled_from(["u", "cw"]), norm=st.sampled_from(["l1", "l2", "linf"]))
    def test_random_clouds(self, data, dim, k, mode, norm):
        coords = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
        cloud = st.lists(st.lists(coords, min_size=dim, max_size=dim), min_size=1, max_size=6)
        q = geometry.dual_exponent(_NORMS[norm])
        body = st.one_of(  # a class's gradients: a cloud, or an l_q ball of radius 0 to 2
            cloud.map(lambda pts: FinitePoints(np.array(pts))),
            st.floats(0.0, 2.0).map(lambda eps: LpBall(q, eps, np.zeros(dim))))
        logits = np.array(data.draw(st.lists(coords, min_size=k, max_size=k)))
        bodies = [data.draw(body) for _ in range(1 if mode == "u" else k)]
        smoothness = Uniform(bodies[0]) if mode == "u" else ClassWise(tuple(bodies))
        self._assert_sound(ClassifierAtPoint(logits, smoothness), mode, norm)

    def test_a_subnormal_cloud(self, tmp_path, capsys):
        # its norm squared each entry to 0, so its ball certified the whole
        # space, beyond the S-certificate's line delta_y = 0; the derandomized
        # property above finds this cloud only when this module runs alone
        cloud = [[0.0, 0.0], [0.0, 2.225073858507e-311]]
        member = ClassifierAtPoint([0.5, 0.5], Uniform(FinitePoints(np.array(cloud))))
        self._assert_sound(member, "u", None)
        path = tmp_path / "subnormal.json"
        path.write_text(json.dumps({"dimension": 2, "classes": 2, "members": [
            {"logits": [0.5, 0.5],
             "smoothness": {"mode": "u", "body": {"type": "points", "points": cloud}}}]}))
        code, out, err = run_cli(capsys, "certify", str(path), "--mode", "lipschitz-u")
        assert code == 0 and err == "" and "  l2 ball, radius 0\n" in out

    @pytest.mark.parametrize("check", [c for c in load_expected() if c["kind"] == "certify"
                                       and c["mode"].startswith("lipschitz-")],
                             ids=lambda c: c["name"])
    def test_fixture_checks(self, check):
        member = load_fixture(check["fixture"]).classifier()
        self._assert_sound(member, check["mode"].removeprefix("lipschitz-"), check.get("norm"))


class TestRender:
    def test_sector_layer_matches_halfplanes(self, tmp_path, capsys):
        out_file = tmp_path / "c3.svg"
        code, _, _ = run_cli(capsys, "render", str(fixture_path("appendix-c3-cw.json")),
                             "--out", str(out_file))
        assert code == 0
        root = ET.parse(out_file).getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        layer = root.find(".//svg:g[@id='layer-s-cw']", ns)
        assert layer is not None
        polygon = layer.find("svg:polygon", ns)
        pts = np.array([[float(v) for v in pair.split(",")]
                        for pair in polygon.get("points").split()])
        s3 = math.sqrt(3.0)
        expected = window_polygon((-3, 3, -3, 3))
        for normal, offset in (((-0.5, s3 / 2), 1.0), ((-0.5, 0.0), 1.0)):
            expected = reference_clip(expected, np.array(normal), offset)
        assert pts.shape[0] == expected.shape[0]
        # same vertex cycle up to rotation
        matched = any(
            np.allclose(np.roll(expected, shift, axis=0), pts, atol=1e-6)
            for shift in range(expected.shape[0]))
        assert matched
        # the region is unbounded, so its outline is dashed
        assert polygon.get("stroke-dasharray")

    def test_ensemble_layers(self, tmp_path, capsys):
        out_file = tmp_path / "fig6.svg"
        code, _, _ = run_cli(capsys, "render", str(fixture_path("fig6.json")),
                             "--out", str(out_file))
        assert code == 0
        text = out_file.read_text()
        assert 'id="layer-member-0-s-u"' in text
        assert 'id="layer-member-1-s-u"' in text
        assert 'id="layer-ensemble-s-u"' in text

    def test_window_flag(self, tmp_path, capsys):
        out_file = tmp_path / "w.svg"
        code, _, _ = run_cli(capsys, "render", str(fixture_path("fig6.json")),
                             "--out", str(out_file), "--window=-1,1,-1,1")
        assert code == 0
        assert 'viewBox="-1 -1 2 2"' in out_file.read_text()

    @pytest.mark.parametrize("window", ["0,inf,0,1", "-inf,1,0,1", "0,1,0,inf",
                                        "-inf,inf,-inf,inf",
                                        # finite ends, but the width or height overflows
                                        "-1e308,1e308,-1e308,1e308", "-1e308,1e308,0,1",
                                        "0,1,-1e308,1e308",
                                        # finite width and height, but the SVG height
                                        # (480 * height / width) overflows
                                        "0,1e308,0,1e308", "0,1e-300,0,1e300"])
    def test_non_finite_window_exit_2(self, window, tmp_path, capsys):
        out_file = tmp_path / "never.svg"
        code, out, err = run_cli(capsys, "render", str(fixture_path("fig6.json")),
                                 "--out", str(out_file), f"--window={window}")
        assert code == 2 and out == ""
        assert err == f"error: bad --window value: {window!r}\n"
        assert not out_file.exists()

    def test_a_window_near_the_float_range_renders_without_warnings(self, tmp_path, capsys):
        out_file = tmp_path / "far.svg"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, _ = run_cli(capsys, "render", str(fixture_path("fig6.json")),
                                 "--out", str(out_file), "--window=0,1e308,0,1e305")
        assert code == 0
        text = out_file.read_text()
        assert 'height="0.48"' in text and "inf" not in text and "nan" not in text

    def test_a_document_window_of_infinite_width_exit_2(self, tmp_path, capsys):
        data = json.loads(fixture_path("fig6.json").read_text(encoding="utf-8"))
        data["window"] = [-1e308, 1e308, -1.0, 1.0]
        path, out_file = tmp_path / "wide.json", tmp_path / "never.svg"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run_cli(capsys, "render", str(path), "--out", str(out_file))
        assert code == 2 and out == ""
        assert err == f"error: {path}: $.window: expected [xmin, xmax, ymin, ymax]\n"
        assert not out_file.exists()

    def test_one_dimensional_rejected(self, capsys):
        code, _, err = run_cli(capsys, "render", str(fixture_path("appendix-c2-u.json")),
                               "--out", "/tmp/never.svg")
        assert code == 3

    @pytest.mark.parametrize("fixture", ["appendix-c4.json", "fig5a.json", "fig5b.json",
                                         "fig5c.json", "fig6.json"])
    def test_wrong_weight_count_exit_2(self, fixture, tmp_path, capsys):
        out_file = tmp_path / "never.svg"
        weights = ",".join(["1"] * (load_fixture(fixture).to_ensemble().n_members + 1))
        code, out, err = run_cli(capsys, "render", str(fixture_path(fixture)),
                                 "--out", str(out_file), "--weights", weights)
        assert (code, out) == (2, "")
        assert err == "error: one weight per member is required\n"
        assert not out_file.exists()


def test_sampled_outline_matches_the_per_direction_outline():
    # fig6's ensemble certificate is support-only: its outline samples
    # ray extents, so compare it with the extents taken one at a time
    spec = load_fixture("fig6.json").to_ensemble()
    cert = s_certificate(ensemble_classifier(spec), "u")
    assert cert.kind == "support"
    poly, unbounded = certificate_outline(cert, DEFAULT_WINDOW)
    angles = np.linspace(0.0, 2.0 * math.pi, ANGLE_SAMPLES, endpoint=False)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    extents = np.array([cert.ray_extent(u) for u in dirs])
    xmin, xmax, ymin, ymax = DEFAULT_WINDOW
    expected = dirs * np.minimum(extents, 4.0 * max(xmax, ymax, -xmin, -ymin))[:, None]
    for normal, offset in (((-1.0, 0.0), -xmin), ((1.0, 0.0), xmax),
                           ((0.0, -1.0), -ymin), ((0.0, 1.0), ymax)):
        expected = reference_clip(expected, np.asarray(normal), offset)
    assert not unbounded and poly.shape == expected.shape
    assert np.allclose(poly, expected, rtol=0.0, atol=1e-12)


class TestUnboundedRegions:
    """`certify` tags an unbounded region and `render` dashes its outline."""

    @staticmethod
    def _certificate(normals, offsets):
        return Certificate("u", "s", 2, (), region=HalfspaceRegion(normals, offsets, 2))

    def test_single_halfplane_is_unbounded(self):
        cert = self._certificate([[1.0, 0.0]], [1.0])
        assert "  region of 1 halfspaces (unbounded):" in describe_certificate(cert)
        assert certificate_outline(cert, DEFAULT_WINDOW)[1]

    def test_box_is_bounded(self):
        cert = self._certificate(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4))
        assert "  region of 4 halfspaces:" in describe_certificate(cert)
        assert not certificate_outline(cert, DEFAULT_WINDOW)[1]


class TestExamples:
    def test_all_fixture_checks_pass(self, capsys):
        code, out, _ = run_cli(capsys, "examples")
        assert code == 0
        assert "FAIL" not in out

    def test_every_check_individually(self):
        for check in load_expected():
            ok, detail = run_fixture_check(check)
            assert ok, f"{check['name']}: {detail}"

    def _ray_extent_check(self):
        (check,) = [c for c in load_expected() if c["kind"] == "ensemble_grid"]
        assert check["fixture"] == "fig6.json"
        return check

    def test_the_ray_extent_check_passes_on_fig6(self):
        assert run_fixture_check(self._ray_extent_check()) == (
            True, "ray extents on 1024 directions vs closed form")

    def test_the_ray_extent_check_fails_on_a_wrong_ensemble_body(self, monkeypatch):
        check = self._ray_extent_check()
        monkeypatch.setattr(cli, "ensemble_classifier", lambda spec: spec.members[0])
        assert not run_fixture_check(check)[0]
        monkeypatch.undo()
        weighted_sum = geometry.weighted_sum
        monkeypatch.setattr(geometry, "weighted_sum", lambda bodies, weights: geometry.scale(
            1.0 + 1e-6, weighted_sum(bodies, weights)))
        assert not run_fixture_check(check)[0]

    def test_a_certify_check_without_an_expectation_fails(self):
        check = {"name": "bare", "kind": "certify", "fixture": "fig1.json", "mode": "u"}
        assert run_fixture_check(check) == (False, "check carries no expectation")

    def test_halfplanes_through_the_origin_keep_their_offset(self):
        region = HalfspaceRegion([[2.0, 0.0], [0.0, 4.0]], [0.0, 2.0], 2)
        assert cli._normalized_halfplanes(region) == [[2.0, 0.0, 0.0], [0.0, 2.0, 1.0]]

    def test_halfplane_matching_needs_one_match_per_row(self):
        rows = [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
        assert cli._match_halfplanes(rows, rows[::-1], 1e-9)
        assert not cli._match_halfplanes(rows, rows[:1], 1e-9)  # a count mismatch
        assert not cli._match_halfplanes(rows, [rows[0], [0.0, 1.0, 2.0]], 1e-9)  # no match

    def test_fixture_coverage(self):
        names = {check["fixture"] for check in load_expected()}
        required = {"fig1.json", "example-3-11-cw.json", "example-3-11-cd.json",
                    "appendix-c2-u.json", "appendix-c2-cw.json",
                    "appendix-c3-u.json", "appendix-c3-cw.json", "appendix-c4.json",
                    "fig5a.json", "fig5b.json", "fig5c.json", "fig6.json"}
        assert required <= names


# values that no field of a problem file takes, or not in every place: integers
# beyond the float range, each other JSON type, and lists of the wrong shape
MALFORMED = [10**400, -10**400, "x", True, None, [], {}, [[0.5]], [0.5] * 5]
FILE_COMMANDS = ([["certify", "FILE", "--mode", mode]
                  for mode in ("u", "cw", "cd", "lipschitz-u", "lipschitz-cw")]
                 + [["regime", "FILE"], ["ensemble", "FILE"],
                    ["bound", "radius-improvement", "FILE"], ["render", "FILE", "--out", "OUT"]])


def _json_paths(value, path=()):
    """The path of every element of a JSON value, the root's () first."""
    yield path
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from _json_paths(child, path + (key,))


def _substituted(value, path, new):
    """A copy of the JSON value with its element at `path` replaced by `new`."""
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _substituted(value[path[0]], path[1:], new)
    return copy


class TestErrorPolicy:
    """Every failure of a command reaches `main`, which prints one `error:`
    line and returns 2 for a bad argument, file or input and 3 for a command
    that does not apply to the file.  An exception that escapes `main` (a
    traceback at the `scert` entry point) fails these tests."""

    @staticmethod
    def _assert_one_error(result, code):
        exit_code, out, err = result
        assert exit_code == code and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "Traceback" not in err

    @staticmethod
    def _cap_file(tmp_path, split):
        # 120 points on the sphere are all extreme, so the certificate's
        # difference body B - B would need 120 x 120 points, over the
        # 10,000-point cap; split in halves, they are two members whose
        # weighted sum is that same cloud
        cloud = np.random.default_rng(0).standard_normal((120, 3))
        cloud /= np.linalg.norm(cloud, axis=1, keepdims=True)
        parts = ([[0.5, 0.3, 0.2], cloud[:60]], [[0.4, 0.35, 0.25], cloud[60:]]) if split \
            else ([[0.6, 0.3, 0.1], cloud],)
        members = [{"logits": logits, "smoothness": {
            "mode": "u", "body": {"type": "points", "points": points.tolist()}}}
            for logits, points in parts]
        path = tmp_path / "cap.json"
        path.write_text(json.dumps({"dimension": 3, "classes": 3, "members": members}))
        return str(path)

    def test_certify_past_the_expansion_cap(self, tmp_path, capsys):
        result = run_cli(capsys, "certify", self._cap_file(tmp_path, False), "--mode", "u")
        self._assert_one_error(result, 2)
        assert "point expansion exceeds the 10000-point cap" in result[2]

    def test_ensemble_past_the_expansion_cap(self, tmp_path, capsys):
        result = run_cli(capsys, "ensemble", self._cap_file(tmp_path, True))
        self._assert_one_error(result, 2)
        assert "point expansion exceeds the 10000-point cap" in result[2]

    def test_render_to_an_unwritable_out(self, tmp_path, capsys):
        self._assert_one_error(run_cli(capsys, "render", str(fixture_path("fig1.json")),
                                       "--out", str(tmp_path / "missing" / "x.svg")), 2)

    def test_simulate_to_an_unwritable_out(self, tmp_path, capsys):
        self._assert_one_error(run_cli(capsys, "simulate", "--k", "3", "--n", "2",
                                       "--draws", "2", "--out",
                                       str(tmp_path / "missing" / "x.csv")), 2)

    def test_an_unwritable_out_stops_simulate_before_the_experiment(self, tmp_path, capsys,
                                                                     monkeypatch):
        def run_experiment(_config):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr("scert.cli.run_experiment", run_experiment)
        out_file = tmp_path / "missing" / "x.csv"
        result = run_cli(capsys, "simulate", "--draws", "20000", "--out", str(out_file))
        self._assert_one_error(result, 2)
        assert str(out_file) in result[2]

    def test_an_unwritable_out_stops_render_before_the_certificates(self, tmp_path, capsys,
                                                                    monkeypatch):
        def s_certificate(*_args):
            raise AssertionError("a certificate was computed")

        monkeypatch.setattr("scert.cli.s_certificate", s_certificate)
        self._assert_one_error(run_cli(capsys, "render", str(fixture_path("fig1.json")),
                                       "--out", str(tmp_path)), 2)

    def test_a_failed_render_leaves_an_existing_out_as_it_was(self, tmp_path, capsys):
        out_file = tmp_path / "kept.svg"
        out_file.write_text("before")
        result = run_cli(capsys, "render", str(fixture_path("fig5a.json")),
                         "--out", str(out_file), "--weights", "1")
        self._assert_one_error(result, 2)
        assert out_file.read_text() == "before"

    def test_input_path_is_a_directory(self, tmp_path, capsys):
        self._assert_one_error(run_cli(capsys, "certify", str(tmp_path), "--mode", "u"), 2)

    def test_input_file_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"note": "café"}'.encode("latin-1"))
        result = run_cli(capsys, "certify", str(path), "--mode", "u")
        self._assert_one_error(result, 2)
        assert result[2] == f"error: {path}: not UTF-8 text (byte 0xe9 at offset 13)\n"

    def test_non_integer_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("SCERT_SEED", "x")
        result = run_cli(capsys, "simulate", "--k", "3", "--n", "2", "--draws", "2")
        self._assert_one_error(result, 2)
        assert result[2] == "error: SCERT_SEED must be an integer\n"

    @pytest.mark.parametrize("n_members", [1, 2])
    def test_render_without_smoothness(self, n_members, tmp_path, capsys):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"dimension": 2, "classes": 2, "members": [
            {"logits": [0.8, 0.2]}, {"logits": [0.6, 0.4]}][:n_members]}))
        out_file = tmp_path / "never.svg"
        result = run_cli(capsys, "render", str(path), "--out", str(out_file))
        self._assert_one_error(result, 3)
        assert result[2] == "error: rendering needs smoothness data\n"
        assert not out_file.exists()

    def test_examples_with_a_failing_check(self, capsys, monkeypatch):
        monkeypatch.setattr("scert.cli.load_expected", lambda: [
            {"name": "broken", "kind": "nonsense", "fixture": "fig1.json"}])
        assert run_cli(capsys, "examples") == (
            1, "broken  FAIL  unknown check kind 'nonsense'\n0/1 fixture checks passed\n", "")

    @staticmethod
    def _problem_file(tmp_path, path, value, members=2):
        # a point-cloud member and an l2-ball member, with weights
        data = {"dimension": 2, "classes": 2, "weights": [0.5, 0.5][:members], "members": [
            {"logits": [0.6, 0.4], "smoothness": {"mode": "u", "body": {
                "type": "points", "points": [[1.0, 0.0], [0.0, 1.0]]}}},
            {"logits": [0.3, 0.7], "smoothness": {"mode": "u", "body": {
                "type": "lp_ball", "p": 2, "eps": 0.5, "center": [0.0, 0.0]}}}][-members:]}
        file = tmp_path / "problem.json"
        file.write_text(json.dumps(_substituted(data, path, value)))
        return str(file)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("path, located", [
        (("members", 0, "logits", 1), "$.members[0].logits[1]"),
        (("members", 0, "smoothness", "body", "points", 1, 0),
         "$.members[0].smoothness.body.points[1][0]"),
        (("members", 1, "smoothness", "body", "p"), "$.members[1].smoothness.body.p"),
        (("members", 1, "smoothness", "body", "eps"), "$.members[1].smoothness.body.eps"),
        (("weights", 1), "$.weights[1]"),
    ], ids=["logit", "point", "p", "eps", "weight"])
    def test_an_integer_beyond_the_float_range(self, tmp_path, capsys, sign, path, located):
        file = self._problem_file(tmp_path, path, sign * 10**400)
        result = run_cli(capsys, "regime", file)
        self._assert_one_error(result, 2)
        assert result[2] == f"error: {file}: {located}: expected a finite number\n"

    def test_a_dimension_beyond_the_index_range_beside_a_center(self, tmp_path, capsys):
        # the default center, [0.0] * dimension, was built even beside a center
        file = self._problem_file(tmp_path, ("dimension",), 10**300, members=1)
        result = run_cli(capsys, "certify", file, "--mode", "u")
        self._assert_one_error(result, 2)
        assert result[2].startswith(
            f"error: {file}: $.members[0].smoothness.body.center: expected a list of 1000")

    @pytest.fixture(scope="class")
    def scratch(self, tmp_path_factory):
        return tmp_path_factory.mktemp("malformed")

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_malformed_fixtures_exit_with_one_error(self, scratch, data):
        # a value no field takes in that place, at any path of a bundled
        # fixture, under every command that reads a file
        name = data.draw(st.sampled_from(sorted({c["fixture"] for c in load_expected()})))
        original = json.loads(fixture_path(name).read_text(encoding="utf-8"))
        path = data.draw(st.sampled_from(list(_json_paths(original))))
        value = data.draw(st.sampled_from(MALFORMED))
        file = scratch / "problem.json"
        file.write_text(json.dumps(_substituted(original, path, value)))
        argv = [str(file) if arg == "FILE" else str(scratch / "out.svg") if arg == "OUT" else arg
                for arg in data.draw(st.sampled_from(FILE_COMMANDS))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3)
        if code:
            assert out.getvalue() == "" and err.getvalue().startswith("error:")
            assert len(err.getvalue().splitlines()) == 1
        else:
            assert err.getvalue() == ""

