"""The benchmark's own tests: slicing, output checks, smoke runs.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import harness  # noqa: E402
import layers  # noqa: E402
import run as runner  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = sorted(workloads.BUILDERS)
#: Simulated seconds of traffic in the shrunken runs.
SHORT = 2.0


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", WORKLOADS)
def test_sliced_run_matches_unsliced(name):
    whole = workloads.build(name, seed=7, horizon=SHORT)
    whole.advance(None)
    sliced = workloads.build(name, seed=7, horizon=SHORT)
    sliced.run_sliced(0.1)
    assert whole.outcome()["offered"] > 0
    assert sliced.digest() == whole.digest()
    # The runner's timed repetitions slice and calibrate in between.
    timed = harness.timed_reps(workloads, name, 7, SHORT, seconds=0)
    assert timed["digest"] == whole.digest()
    assert len(timed["cal_s"]) == harness.MIN_REPS


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_request_ends_exactly_once(name):
    run = workloads.build(name, seed=3, horizon=SHORT)
    run.advance(None)
    outcome = harness.finished(run)
    assert outcome["in_flight"] == 0
    assert outcome["offered"] == sum(outcome["tally"].values())


def test_seed_draws_the_inputs():
    a = workloads.build("invoke-bare", seed=1, horizon=SHORT)
    b = workloads.build("invoke-bare", seed=2, horizon=SHORT)
    a.advance(None)
    b.advance(None)
    assert a.digest() != b.digest()


@pytest.mark.parametrize("broken", [
    {"in_flight": 1},
    {"completed": 9},
    {"failed": 1},
    {"tally": {"ok": 10, "deadline": 0, "shed": 0, "throttled": 0,
               "error": 1}, "failed": 1},
])
def test_check_outcome_rejects_broken_accounting(broken):
    outcome = {"offered": 10, "completed": 10, "failed": 0, "in_flight": 0,
               "tally": {"ok": 10, "deadline": 0, "shed": 0,
                         "throttled": 0, "error": 0},
               "errors": {}}
    harness.check_outcome(outcome)
    outcome.update(broken)
    with pytest.raises(harness.CheckFailed):
        harness.check_outcome(outcome)


def test_digest_ledger_flags_a_changed_outcome(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    harness.check_digests("w", 1, 2.0, ["aa", "aa"])
    harness.check_digests("w", 1, 2.0, ["aa"])
    with pytest.raises(harness.CheckFailed):
        harness.check_digests("w", 1, 2.0, ["bb"])
    with pytest.raises(harness.CheckFailed):
        harness.check_digests("w", 2, 2.0, ["cc", "dd"])


def test_escaped_exception_is_a_failed_run(monkeypatch, capsys):
    def explode(*_args):
        raise RuntimeError("escaped Simulator.run()")

    monkeypatch.setenv("PYTHONHASHSEED", runner.HASH_SEED)
    monkeypatch.setattr(runner, "measure", explode)
    assert runner.main(["--workload", "invoke-bare", "--seed", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_layers_cover_every_repro_module():
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        module = layers._module_of(str(path))
        assert module is not None and module.startswith("repro")
    assert layers.layer_of("repro.sim.engine") == "engine"
    assert layers.layer_of("repro.core.scheduler") == "scheduler"
    assert layers.layer_of("repro.core.system") == "kernel"
    assert layers.layer_of("repro.storage.replication") == "storage"
    assert layers.layer_of("repro.workloads.arrivals") == "other"


def _run(*args, cwd=ROOT):
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_prints_every_metric(name, trace):
    proc = _run("--workload", name, "--seed", "5", "--seconds", "0",
                "--trace", str(trace), "--horizon", str(SHORT))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    spec = _spec()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        shares = [v["value"] for k, v in result["metrics"].items()
                  if k.endswith(".self_frac")]
        assert sum(shares) == pytest.approx(1.0)
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_repeats_exactly_across_processes():
    args = ("--workload", "invoke-allplanes", "--seed", "4", "--seconds",
            "0", "--horizon", str(SHORT))
    first, second = _run(*args), _run(*args)
    a = json.loads(first.stdout.strip().splitlines()[-1])["metrics"]
    b = json.loads(second.stdout.strip().splitlines()[-1])["metrics"]
    for exact in ("retained_kb_per_request", "sim_p50_ms", "sim_p99_ms",
                  "ok_frac"):
        assert a[exact] == b[exact]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "invoke-bare", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
