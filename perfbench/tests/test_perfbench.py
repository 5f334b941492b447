"""Tests of the benchmark's own code: tracer, op lists and failure counting."""

import numpy as np
import pytest

import scert
from perfbench import run, tracer, workloads, worker
from perfbench.tracer import Span
from scert import cli, ensemble, geometry


def _span(name, start, end, parent=-1):
    return Span(name, start, end, parent, 0, None)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span("op", 0, 100),
        _span("a", 10, 40, parent=0),
        _span("b", 30, 50, parent=0),    # overlaps a: 10..50 covered once
        _span("c", 90, 120, parent=0),   # runs past the parent: clipped to 90..100
        _span("d", 15, 25, parent=1),    # grandchild: counts against a only
    ]
    assert tracer.self_times(spans) == [100 - 40 - 10, 30 - 10, 20, 30, 10]


def test_layer_metrics_count_nested_region_queries_once():
    spans = [
        _span("geometry.region_query", 0, 100),
        _span("geometry.region_query", 10, 60, parent=0),
        _span("geometry.lp_maximize", 20, 30, parent=1),
        _span("geometry.lp_maximize", 70, 80, parent=0),
        _span("geometry.lp_maximize", 200, 210),
    ]
    metrics = tracer.layer_metrics(spans, n_ops=1)
    assert metrics["geometry.region_query.calls"] == 1
    assert metrics["geometry.region_query.lp_per_call"] == 2
    assert metrics["geometry.lp_maximize.calls"] == 3
    # outer query: 100 - 50 (inner query) - 10 (lp); inner query: 50 - 10 (lp)
    assert metrics["geometry.region_query.self_ms"] == pytest.approx((40 + 40) / 1e6)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_the_same_op_list_digest(name):
    make = workloads.WORKLOADS[name]().make_ops
    digest = workloads.op_digest(make(7, 24))
    assert workloads.op_digest(make(7, 24)) == digest
    assert workloads.op_digest(make(8, 24)) != digest
    assert len(digest) == 64


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_op_count_is_whole_cycles_set_by_run_length(name):
    workload = workloads.WORKLOADS[name]()
    assert workloads.op_count(workload, 0.001) == workload.cycle
    assert workloads.op_count(workload, 20) % workload.cycle == 0
    assert workloads.op_count(workload, 20) >= 20 * workload.rate


def test_tracer_sees_calls_through_names_bound_by_from_import():
    # ensemble and cli bound these names with `from ... import`
    region_subset, s_certificate = geometry.region_subset, scert.certificates.s_certificate
    assert ensemble.region_subset is region_subset and cli.s_certificate is s_certificate
    t = tracer.Tracer().install()
    try:
        assert ensemble.region_subset.__wrapped__ is region_subset
        assert cli.s_certificate.__wrapped__ is s_certificate
        box = geometry.HalfspaceRegion(np.vstack([np.eye(2), -np.eye(2)]), np.ones(4), 2)
        ensemble.region_subset(box, box)
        clf = scert.ClassifierAtPoint([0.6, 0.4], scert.Uniform(
            geometry.FinitePoints([[1.0, 0.0], [0.0, 1.0]])))
        cert = cli.s_certificate(clf, "u")
        cert.contains([0.0, 0.0])
    finally:
        t.uninstall()
    names = [s.name for s in t.spans]
    assert "geometry.region_query" in names
    assert "certificates.s_certificate" in names
    assert "certificates.contains" in names
    assert "simplex.maximize" in names
    # uninstall restores the originals everywhere
    assert ensemble.region_subset is region_subset is geometry.region_subset
    assert cli.s_certificate is s_certificate


def test_injected_wrong_result_is_a_failed_op(monkeypatch):
    lattice = workloads.Lattice()
    (op,) = lattice.make_ops(3, 1)
    failures = []
    worker._run_op(lattice, op, failures)
    assert failures == []
    monkeypatch.setattr(geometry, "region_subset", lambda a, b, slack=1e-9: False)
    worker._run_op(lattice, op, failures)
    assert len(failures) == 1 and "OpFailed" in failures[0]


def test_wrong_cli_value_or_exit_code_is_a_failed_op():
    expected = cli.load_expected()
    command = ("certify", "appendix-c2-u.json", "--mode", "u")
    good = "top class: 0 (runner-up: 1)\n  interval [-2, 2]\n"
    workloads.check_cli_output(command, 0, good, expected)
    with pytest.raises(workloads.OpFailed):
        workloads.check_cli_output(command, 0, good.replace("[-2, 2]", "[-2, 2.1]"), expected)
    with pytest.raises(workloads.OpFailed):
        workloads.check_cli_output(command, 3, good, expected)


def test_regime_verdict_against_its_own_evidence():
    flags = {"method": "lp", "contains_intersection": True, "within_union": True,
             "contains_union": False, "within_intersection": False}
    report = ensemble.RegimeReport("inconclusive", "inconclusive", 0.2, 0.3, 0.1,
                                   True, True, dict(flags))
    assert workloads.regime_consistent(report) is None
    wrong = ensemble.RegimeReport("inconclusive", "improvement", 0.2, 0.3, 0.1,
                                  True, True, dict(flags))
    assert "contradicts" in workloads.regime_consistent(wrong)


def test_tail_has_ten_ops_beyond_it():
    percentile, value = run.tail([float(v) for v in range(100)])
    assert value == 89.0 and percentile == 90.0

