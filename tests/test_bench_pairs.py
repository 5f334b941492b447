"""tools/bench_pairs.py: seed lists and the verdict on a claimed gain."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

NO_FAILURES = {"parent": 0, "change": 0}


def _pairs(parent, change):
    return [{"parent": p, "change": c} for p, c in zip(parent, change)]


def _won(n: int, lost: int = 0, tied: int = 0):
    """n pairs of ops_per_s: the parent spread over 100..101, the change 10
    higher, except `lost` pairs it loses and `tied` pairs it ties."""
    parent = [100.0 + i / n for i in range(n)]
    change = [p + 10.0 for p in parent]
    for i in range(lost):
        change[i] = parent[i] - 1.0
    for i in range(lost, lost + tied):
        change[i] = parent[i]
    return _pairs(parent, change)


def test_parse_seeds_ranges_and_repeats():
    assert bench_pairs.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert bench_pairs.parse_seeds("11,11") == [11, 11]


class TestGain:
    def test_ten_pairs_all_won(self):
        result = bench_pairs.summarize(_won(10), "higher", 0.25, NO_FAILURES)
        assert result["gain"] and result["change_won"] == 10 and result["pairs"] == 10

    def test_nine_pairs_all_won_are_too_few(self):
        result = bench_pairs.summarize(_won(9), "higher", 0.25, NO_FAILURES)
        assert result["change_won"] == 9 and not result["gain"]

    def test_nine_of_ten_won_is_enough(self):
        assert bench_pairs.summarize(_won(10, lost=1), "higher", 0.25, NO_FAILURES)["gain"]

    def test_eight_of_ten_won_is_not(self):
        assert not bench_pairs.summarize(_won(10, lost=2), "higher", 0.25, NO_FAILURES)["gain"]

    def test_ties_count_for_neither_side(self):
        one_tie = bench_pairs.summarize(_won(10, tied=1), "higher", 0.25, NO_FAILURES)
        assert one_tie["change_won"] == 9 and one_tie["gain"]
        two_ties = bench_pairs.summarize(_won(10, tied=2), "higher", 0.25, NO_FAILURES)
        assert two_ties["change_won"] == 8 and not two_ties["gain"]

    def test_median_difference_must_beat_the_parent_quartile_distance(self):
        parent = [100.0 + 4.0 * i for i in range(10)]  # quartile distance 18
        change = [p + 5.0 for p in parent]  # every pair won, median 5 higher
        result = bench_pairs.summarize(_pairs(parent, change), "higher", 0.25, NO_FAILURES)
        assert result["change_won"] == 10
        assert result["parent_quartile_distance"] == pytest.approx(18.0)
        assert not result["gain"]

    def test_more_failed_ops_forbid_a_gain(self):
        failed = {"parent": 0, "change": 1}
        assert not bench_pairs.summarize(_won(10), "higher", 0.25, failed)["gain"]
        same = {"parent": 2, "change": 2}
        assert bench_pairs.summarize(_won(10), "higher", 0.25, same)["gain"]

    def test_lower_is_better_flips_the_sign(self):
        pairs = _won(10)
        assert not bench_pairs.summarize(pairs, "lower", 0.25, NO_FAILURES)["gain"]
        flipped = [{"parent": p["change"], "change": p["parent"]} for p in pairs]
        result = bench_pairs.summarize(flipped, "lower", 0.25, NO_FAILURES)
        assert result["gain"] and result["change_won"] == 10


class TestBound:
    def test_worse_by_exactly_the_bound_is_within_it(self):
        pairs = _pairs([100.0] * 10, [75.0] * 10)
        result = bench_pairs.summarize(pairs, "higher", 0.25, NO_FAILURES)
        assert result["change_worse_by"] == 0.25 and result["bound_verdict"] == "within_bound"

    def test_beyond_the_bound(self):
        higher = bench_pairs.summarize(_pairs([100.0] * 10, [74.0] * 10), "higher", 0.25,
                                       NO_FAILURES)
        assert higher["bound_verdict"] == "beyond_bound"
        lower = bench_pairs.summarize(_pairs([100.0] * 10, [126.0] * 10), "lower", 0.25,
                                      NO_FAILURES)
        assert lower["change_worse_by"] == pytest.approx(0.26)
        assert lower["bound_verdict"] == "beyond_bound"
        assert bench_pairs.summarize(_pairs([100.0] * 10, [125.0] * 10), "lower", 0.25,
                                     NO_FAILURES)["bound_verdict"] == "within_bound"

    def test_no_bound_is_always_within(self):
        result = bench_pairs.summarize(_pairs([100.0] * 10, [1.0] * 10), "higher", None,
                                       NO_FAILURES)
        assert result["bound_verdict"] == "within_bound"


class TestUnresolved:
    """A median beyond the bound is unresolved when too few pairs ran or the
    parent's own spread exceeds the bound, unless every change run is worse
    than every parent run."""

    @pytest.mark.parametrize("better, worse, outlier", [("higher", 70.0, 101.0),
                                                        ("lower", 130.0, 99.0)])
    def test_fewer_than_ten_pairs(self, better, worse, outlier):
        mixed = _pairs([100.0] * 3, [worse, worse, outlier])
        result = bench_pairs.summarize(mixed, better, 0.25, NO_FAILURES)
        assert result["change_worse_by"] == pytest.approx(0.3)
        assert result["bound_verdict"] == "unresolved"
        separated = _pairs([100.0] * 3, [worse] * 3)
        assert bench_pairs.summarize(separated, better, 0.25,
                                     NO_FAILURES)["bound_verdict"] == "beyond_bound"
        ten = _pairs([100.0] * 10, [worse] * 9 + [outlier])
        assert bench_pairs.summarize(ten, better, 0.25,
                                     NO_FAILURES)["bound_verdict"] == "beyond_bound"

    def test_parent_quartile_distance_beyond_the_bound(self):
        wide = [50.0 + 10.0 * i for i in range(10)]  # median 95, quartile distance 45
        change = [p - 30.0 for p in wide[:9]] + [200.0]  # median 65
        result = bench_pairs.summarize(_pairs(wide, change), "higher", 0.25, NO_FAILURES)
        assert result["parent_quartile_distance"] / result["parent"]["median"] > 0.25
        assert result["change_worse_by"] > 0.25 and result["bound_verdict"] == "unresolved"
        narrow = [95.0 + i / 10.0 for i in range(10)]
        assert bench_pairs.summarize(_pairs(narrow, change), "higher", 0.25,
                                     NO_FAILURES)["bound_verdict"] == "beyond_bound"
        below_all = [40.0] * 10
        assert bench_pairs.summarize(_pairs(wide, below_all), "higher", 0.25,
                                     NO_FAILURES)["bound_verdict"] == "beyond_bound"
