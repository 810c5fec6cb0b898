"""What both runs share: calibrated timing, output checks, the
repetitions of a seeded workload and the fresh-interpreter probes.

A timed repetition advances the simulation in slices with
``Simulator.run(until=...)``, which adds no events. Host time spent on
the simulation is scaled by the calibration loop (``calibrate.py``)
timed right after it, so machine-speed drift cancels.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from calibrate import NOMINAL_S, calibration_seconds

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Run outputs (digest ledger, traced-run spans), ignored by git.
OUT_DIR = ROOT / ".perfbench"
#: Hash seed every run pins, so set and dict orders replay exactly.
HASH_SEED = "0"
#: Share of the workload's horizon the tracemalloc run covers (it runs
#: about three times slower than an untraced one).
RETAINED_SHARE = 1 / 3
#: Simulated seconds of the warm-up run before the tracemalloc run.
PROBE_WARMUP_S = 1.0
#: Simulated seconds per slice of a timed run.
SLICE_S = 0.25
#: Host seconds of simulation between calibrations (at slice ends). The
#: host's speed drifts within tens of milliseconds, so a calibration
#: only tracks the stretch of simulation right before it.
CAL_EVERY_S = 0.025
#: Calibration loops per calibration; their mean counts (the fastest
#: one would stand for the host's quietest moment, not its average).
CAL_LOOPS = 2
#: Fewest reported timed repetitions, however short ``--seconds`` is.
MIN_REPS = 3


class CheckFailed(Exception):
    """An output check failed; the run is reported as incorrect."""


def calibrated(host_s: float, cal_s: float) -> float:
    """Host seconds scaled to the calibration loop's reference host."""
    return host_s * NOMINAL_S / cal_s


def calibrate() -> float:
    return sum(calibration_seconds() for _ in range(CAL_LOOPS)) / CAL_LOOPS


def check_outcome(outcome: dict) -> None:
    """Every offered request ends exactly once, with a typed outcome."""
    offered, tally = outcome["offered"], outcome["tally"]
    if outcome["in_flight"] != 0:
        raise CheckFailed(f"{outcome['in_flight']} requests still in "
                          "flight after the drain")
    if offered != outcome["completed"] + outcome["failed"]:
        raise CheckFailed(f"offered {offered} != completed "
                          f"{outcome['completed']} + failed "
                          f"{outcome['failed']}")
    if sum(tally.values()) != offered or tally["ok"] != outcome["completed"]:
        raise CheckFailed(f"outcome tally {tally} disagrees with offered "
                          f"{offered} / completed {outcome['completed']}")
    if tally["error"]:
        raise CheckFailed(f"untyped request errors: {outcome['errors']}")


def code_version() -> str:
    """A digest of the program's and the benchmark's source files."""
    h = hashlib.sha256()
    files = sorted(SRC.rglob("*.py")) + sorted(BENCH_DIR.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_digests(name: str, seed: int, horizon: float,
                  digests: list) -> None:
    """All repetitions agree, and agree with earlier runs of the same
    code, workload, seed and horizon."""
    key = f"{code_version()}/{name}/seed={seed}/horizon={horizon}"
    if len(set(digests)) != 1:
        raise CheckFailed(f"repetitions disagree: digests {digests}")
    ledger_path = OUT_DIR / "digests.json"
    ledger = (json.loads(ledger_path.read_text())
              if ledger_path.is_file() else {})
    known = ledger.setdefault(key, digests[0])
    if known != digests[0]:
        raise CheckFailed(f"{key}: digest {digests[0]} differs from "
                          f"{known} of an earlier run")
    OUT_DIR.mkdir(exist_ok=True)
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True))


def finished(run) -> dict:
    """The checked outcome of a drained run."""
    outcome = run.outcome()
    check_outcome(outcome)
    return outcome


def timed_rep(workloads, name: str, seed: int, horizon):
    """One fresh seeded run, sliced, calibrated after every
    ``CAL_EVERY_S`` host seconds of simulation.

    Returns ``(run, host_s, calibrated_s)``; the calibration loops are
    outside both times.
    """
    run = workloads.build(name, seed, horizon)
    run.start()
    host = cal = pending = 0.0
    mark = time.perf_counter()

    def between(final=False):
        nonlocal host, cal, pending, mark
        pending += time.perf_counter() - mark
        if final or pending >= CAL_EVERY_S:
            host += pending
            cal += calibrated(pending, calibrate())
            pending = 0.0
        mark = time.perf_counter()

    run.run_sliced(SLICE_S, between)
    between(final=True)
    return run, host, cal


def timed_reps(workloads, name: str, seed: int, horizon,
               seconds: float) -> dict:
    """Timed repetitions of the seeded run for ``seconds`` host seconds
    (at least ``MIN_REPS``), after one warm-up repetition.

    The warm-up fills caches and finishes lazy set-up; it also runs on
    a fresh heap, which the repetitions after it never see, so it is
    not reported. Every repetition, the warm-up too, must reproduce one
    digest. Returns ``{"outcome", "digest", "host_s", "cal_s",
    "rss_mb"}``: the outcome and digest of the run, the host and
    calibrated seconds of each reported repetition, and the peak RSS
    after the warm-up.
    """
    calibrate()     # builds the calibration loop's working set
    digests, host_s, cal_s = [], [], []
    stop = None
    while stop is None or time.perf_counter() < stop \
            or len(host_s) < MIN_REPS:
        run, host, cal = timed_rep(workloads, name, seed, horizon)
        outcome, horizon = finished(run), run.horizon
        digests.append(run.digest())
        del run     # nothing of a finished repetition outlives it
        gc.collect()
        if stop is None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            stop = time.perf_counter() + seconds
        else:
            host_s.append(host)
            cal_s.append(cal)
    check_digests(name, seed, horizon, digests)
    return {"outcome": outcome, "digest": digests[0], "host_s": host_s,
            "cal_s": cal_s, "rss_mb": rss_mb}


def setup_probe(name: str, seed: int, horizon) -> dict:
    """Calibrated seconds this fresh interpreter takes to import
    ``repro``, build the cloud, define functions, preload objects and
    arm the arrivals."""
    cal_before = calibrate()
    t0 = time.perf_counter()
    import workloads
    workloads.build(name, seed, horizon).start()
    host = time.perf_counter() - t0
    cal_s = (cal_before + calibrate()) / 2
    return {"host_s": host, "calibrated_s": calibrated(host, cal_s)}


def memory_probe(name: str, seed: int, horizon) -> dict:
    """Heap a drained run still holds after a full collection, by the
    file that allocated it (exact under ``tracemalloc``).

    Meant for a fresh interpreter (:func:`probe`), so the figure does
    not depend on what ran before in the process. A short warm-up run
    first settles one-time lazy state (imports, caches), which is not
    counted. ``blocks`` (``sys.getallocatedblocks``) is an
    overhead-free cross-check.
    """
    import workloads
    warm = workloads.build(name, seed, min(PROBE_WARMUP_S, horizon))
    warm.advance(None)
    del warm
    gc.collect()
    blocks = sys.getallocatedblocks()
    tracemalloc.start()
    run = workloads.build(name, seed, horizon)
    run.advance(None)
    gc.collect()
    blocks = sys.getallocatedblocks() - blocks
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    outcome = finished(run)
    return {"by_file": {stat.traceback[0].filename: stat.size
                        for stat in snapshot.statistics("filename")},
            "blocks": blocks, "offered": outcome["offered"],
            "digest": run.digest(), "horizon": run.horizon}


#: What ``run.py --probe <kind>`` runs in a fresh interpreter.
PROBES = {"setup": setup_probe, "memory": memory_probe}


def probe(kind: str, name: str, seed: int, horizon) -> dict:
    """Run ``run.py --probe kind`` in a fresh interpreter, wait for it
    to end, and return the JSON object it prints."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--probe", kind,
            "--workload", name, "--seed", str(seed)]
    if horizon is not None:
        argv += ["--horizon", str(horizon)]
    proc = subprocess.run(argv, env=pinned_env(), capture_output=True,
                          text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} probe failed: {proc.stderr[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pinned_env() -> dict:
    """The environment with the hash seed pinned."""
    return dict(os.environ, PYTHONHASHSEED=HASH_SEED)
