"""Throughput gate: cross-stack determinism and the comparison rules.

The gate's value rests on two claims that must hold at any workload
size: the live stack and the frozen pre-refactor stack produce
byte-identical fingerprints for the same plan, and ``invoke_many`` is
byte-identical to the serial ``invoke`` loop. These tests pin both on
a shrunken workload (the committed baseline pins them at full size),
plus the ``compare_throughput`` violation rules on fabricated docs.
"""

import pytest

from repro.bench import throughput
from repro.bench.throughput import MIN_SPEEDUP, compare_throughput


def _shrink_hot_loop(monkeypatch):
    """Scale the pinned workload down to test size (same shape)."""
    small = {
        "SESSIONS": 4, "SESSION_ITERS": 12, "SESSION_FNS": 3,
        "SESSION_NODES": 3, "FANOUT_PARENTS": 2, "FANOUT_ROUNDS": 2,
        "FANOUT_WIDTH": 10, "TAIL_SESSIONS": 6, "TAIL_ITERS": 4,
        "TAIL_ERROR_EVERY": 3, "SLEEPER_PROCS": 20, "SLEEPER_NAPS": 2,
        "INTERRUPT_PAIRS": 4,
    }
    for name, value in small.items():
        monkeypatch.setattr(throughput, name, value)


def test_current_and_reference_stacks_agree(monkeypatch):
    _shrink_hot_loop(monkeypatch)
    plan = throughput._HotLoopPlan()
    current = throughput.run_hot_loop_bench("current", plan)
    reference = throughput.run_hot_loop_bench("reference", plan)
    # The frozen stack is the behavioral oracle: identical virtual-time
    # outcomes, event counts, and span tallies — only speed may differ.
    assert current["fingerprint"] == reference["fingerprint"]
    assert current["events"] == reference["events"]
    assert current["spans"] == reference["spans"]
    assert current["final_now"] == reference["final_now"]


def test_hot_loop_fingerprint_is_stable_across_runs(monkeypatch):
    _shrink_hot_loop(monkeypatch)
    plan = throughput._HotLoopPlan()
    first = throughput.run_hot_loop_bench("current", plan)
    second = throughput.run_hot_loop_bench("current", plan)
    assert first["fingerprint"] == second["fingerprint"]


def test_invoke_many_matches_serial_loop(monkeypatch):
    monkeypatch.setattr(throughput, "INVOKE_WARMUP", 2)
    monkeypatch.setattr(throughput, "INVOKE_COUNT", 12)
    batched = throughput.run_invoke_bench(serial=False)
    serial = throughput.run_invoke_bench(serial=True)
    assert batched["batched"] is True
    assert serial["batched"] is False
    assert batched["invokes"] == serial["invokes"] == 12
    # Byte-identical placement, latency, cold-start, and counter
    # outcomes: batching is a dispatch optimization, not a semantic one.
    assert batched["fingerprint"] == serial["fingerprint"]
    assert batched["events"] == serial["events"]


def test_run_benchmarks_rejects_bad_repeat():
    with pytest.raises(ValueError):
        throughput.run_benchmarks(repeat=0)


# -------------------------------------------------- compare_throughput
def _passing_doc():
    return {
        "hot_loop_fingerprint": "aaaa", "invoke_fingerprint": "bbbb",
        "min_speedup": 5.0, "speedup": 6.2,
        "batched_matches_serial": True,
    }


def test_compare_throughput_passes_clean_doc():
    assert compare_throughput(_passing_doc(), _passing_doc()) == []


def test_compare_throughput_flags_slow_current():
    current = _passing_doc()
    current["speedup"] = 4.9
    violations = compare_throughput(current, _passing_doc())
    assert len(violations) == 1
    assert "4.90x" in violations[0]


def test_compare_throughput_pins_fingerprints_exactly():
    for fld in ("hot_loop_fingerprint", "invoke_fingerprint"):
        current = _passing_doc()
        current[fld] = "ffff"
        violations = compare_throughput(current, _passing_doc())
        assert len(violations) == 1
        assert fld in violations[0]


def test_compare_throughput_requires_batched_identity():
    current = _passing_doc()
    current["batched_matches_serial"] = False
    violations = compare_throughput(current, _passing_doc())
    assert len(violations) == 1
    assert "invoke_many" in violations[0]


def test_compare_throughput_uses_baseline_bar():
    # The committed baseline's bar wins over the module default.
    current = _passing_doc()
    current["speedup"] = MIN_SPEEDUP + 1.0
    baseline = _passing_doc()
    baseline["min_speedup"] = MIN_SPEEDUP + 2.0
    violations = compare_throughput(current, baseline)
    assert len(violations) == 1
    assert "required >=" in violations[0]
