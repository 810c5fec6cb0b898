"""The recovery sub-gate: pinned E25 chaos-storm replay and its bars."""

import json

import pytest

from repro.bench.regress import compare_recovery, run_recovery_gate


@pytest.fixture(scope="module")
def recovery_doc():
    return run_recovery_gate()


def _copy(doc):
    return json.loads(json.dumps(doc))


def test_gate_meets_its_own_bar(recovery_doc):
    doc = _copy(recovery_doc)
    assert compare_recovery(doc, doc) == []
    on, off = doc["detection"], doc["none"]
    assert doc["recovery_ratio"] >= doc["min_recovered_ratio"]
    assert on["orphaned"] >= doc["min_orphans"]
    assert on["goodput_retention"] >= doc["min_on_retention"]
    assert off["goodput_retention"] < doc["max_off_retention"]
    assert on["detection_latency_max"] <= doc["max_detection_latency"]


def test_compare_flags_weak_recovery(recovery_doc):
    cur = _copy(recovery_doc)
    cur["recovery_ratio"] = 0.5
    assert any("orphaned in-flight invokes were recovered" in v
               for v in compare_recovery(cur, recovery_doc))


def test_compare_flags_storm_without_orphans(recovery_doc):
    cur = _copy(recovery_doc)
    base = _copy(recovery_doc)
    cur["detection"]["orphaned"] = base["detection"]["orphaned"] = 0
    assert any("not exercising crash recovery" in v
               for v in compare_recovery(cur, base))


def test_compare_flags_goodput_bars(recovery_doc):
    cur = _copy(recovery_doc)
    cur["detection"]["goodput_retention"] = 0.1
    assert any("detection arm holds only" in v
               for v in compare_recovery(cur, recovery_doc))
    cur = _copy(recovery_doc)
    cur["none"]["goodput_retention"] = 1.0
    assert any("storm no longer hurts it" in v
               for v in compare_recovery(cur, recovery_doc))


def test_compare_flags_slow_detection(recovery_doc):
    cur = _copy(recovery_doc)
    cur["detection"]["detection_latency_max"] = \
        recovery_doc["max_detection_latency"] + 0.5
    assert any("crash-detection latency" in v
               for v in compare_recovery(cur, recovery_doc))
