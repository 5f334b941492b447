"""tools/report_digest.py: one digest per output, equal on equal outputs only."""

import importlib.util
import pathlib

import numpy as np

from scert import _simplex, ensemble, geometry

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "report_digest.py"
_SPEC = importlib.util.spec_from_file_location("report_digest", _PATH)
report_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_digest)


def test_the_regimes_digest_is_repeatable_and_sees_a_flipped_flag(monkeypatch):
    # one cycle of op kinds: the 2D kinds and both 3D kinds
    first = report_digest.regimes_digest([1], 8)
    assert first == report_digest.regimes_digest([1], 8)
    assert first != report_digest.regimes_digest([2], 8)
    regions = ensemble._cert_regime_regions

    def flipped(q_g, member_certs):  # a flag the op runner's consistency check does not read
        regime, evidence = regions(q_g, member_certs)
        return regime, {**evidence, "strict_excess": not evidence.get("strict_excess", False)}

    monkeypatch.setattr(ensemble, "_cert_regime_regions", flipped)
    assert report_digest.regimes_digest([1], 8) != first


def test_the_records_digest_is_repeatable_and_sees_a_changed_gap(monkeypatch):
    first = report_digest.records_digest([1], 2)
    assert first == report_digest.records_digest([1], 2)
    gap = ensemble.runner_up_gap
    monkeypatch.setattr("scert.simulate.runner_up_gap", lambda logits: gap(logits) + 2.0 ** -40)
    assert report_digest.records_digest([1], 2) != first


def test_the_lattice_digest_is_repeatable_and_sees_a_row_and_a_containment(monkeypatch):
    check = report_digest.workloads._check
    first = report_digest.lattice_digest([1], 2)
    assert first == report_digest.lattice_digest([1], 2)
    assert first != report_digest.lattice_digest([2], 2)
    assert report_digest.workloads._check is check  # the op runner's own check is back
    polar = geometry.polar_hrep
    monkeypatch.setattr(geometry, "polar_hrep", lambda body, r: polar(body, r + 2.0 ** -40))
    assert report_digest.lattice_digest([1], 2) != first
    monkeypatch.undo()
    # a containment that fails is recorded, not raised
    subset = geometry.region_subset
    monkeypatch.setattr(geometry, "region_subset", lambda a, b: not subset(a, b))
    assert report_digest.lattice_digest([1], 2) != first


def test_the_nmember_digest_is_repeatable_and_reads_flags_not_floats(monkeypatch):
    first = report_digest.nmember_digest([1])
    assert first == report_digest.nmember_digest([1])
    assert first != report_digest.nmember_digest([2])
    # a gap moved by rounding is not read
    gap = ensemble.runner_up_gap
    monkeypatch.setattr(ensemble, "runner_up_gap", lambda logits: gap(logits) + 2.0 ** -40)
    assert report_digest.nmember_digest([1]) == first
    monkeypatch.undo()
    # a flipped flag is, past the op runner's consistency check
    regions = ensemble._cert_regime_regions

    def flipped(q_g, member_certs):
        regime, evidence = regions(q_g, member_certs)
        return regime, {**evidence, "within_union": not evidence["within_union"]}

    monkeypatch.setattr(ensemble, "_cert_regime_regions", flipped)
    monkeypatch.setattr(report_digest.workloads, "regime_consistent", lambda report: None)
    assert report_digest.nmember_digest([1]) != first


def test_the_work_line_is_repeatable_and_sees_an_added_pivot(monkeypatch):
    first = report_digest.work_counts([1], 8)
    assert first == report_digest.work_counts([1], 8)
    # the tool's wrappers are gone
    assert _simplex._pivot.__name__ == "_pivot"
    assert ensemble.region_minus_subset.__name__ == "region_minus_subset"
    lp, phase2, pivots, carves = (int(field.split("=")[1]) for field in first.split())
    assert 0 < lp and 0 < phase2 < pivots and 0 < carves
    phase1 = _simplex._phase1

    def one_more_pivot(A, b):
        # a pivot on the copy of a basic column, which changes nothing
        start = phase1(A, b)
        if start is not None and start[1].size:
            tableau, basis, _ = start
            _simplex._pivot(tableau.copy(), basis.copy(), 0, basis[0])
        return start

    monkeypatch.setattr(_simplex, "_phase1", one_more_pivot)
    more = report_digest.work_counts([1], 8)
    assert more.split()[:2] == first.split()[:2] and more != first
    monkeypatch.undo()
    # a carve that a union witness skipped runs once the witness is gone
    monkeypatch.setattr(ensemble, "union_witness", lambda g, regions: None)
    carved = report_digest.work_counts([1], 8)
    assert int(carved.split()[3].split("=")[1]) > carves


def test_the_scale_line_is_repeatable_and_counts_a_moved_op(monkeypatch):
    # one cycle of op kinds: six 2D ops and two 3D ops, of which the dense
    # simplex moves one at 2^600 (pinned in tests/test_ensemble.py), and two
    # 1D ensembles per mode, which the exact 1D path moves at no scale
    first = report_digest.scale_counts([1], 8, 2)
    assert first == report_digest.scale_counts([1], 8, 2) == "1d=0+0 2d=0+0 3d=0+1"
    # an absolute floor under which a gradient set is {0} certifies the whole
    # space at 2^-600, which moves every op
    monkeypatch.setattr(geometry.FinitePoints, "degenerate",
                        property(lambda body: bool(np.all(np.abs(body.points) <= 2.0 ** -50))))
    assert report_digest.scale_counts([1], 8, 2) == "1d=6+0 2d=6+0 3d=2+1"


def test_a_float_is_read_to_its_last_bit():
    assert report_digest._encode(0.1) != report_digest._encode(0.1 + 2.0 ** -56)
    assert report_digest._encode({"a": (1, True, "x")}) == "{'a':(1,True,'x')}"
