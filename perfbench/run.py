"""Benchmark runner for the PCSI simulator.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload invoke-bare --seed 1 \\
        --seconds 10 --trace 0

Workloads: ``invoke-bare``, ``invoke-allplanes``, ``data-plane`` (see
``perfbench/README.md``). The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; earlier lines
starting with ``#`` are diagnostics, among them the raw (uncalibrated)
host rate. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
adds a profiled run and reports the per-layer metrics instead
(``perfbench/layers.py``).

Each run is a fresh interpreter with ``PYTHONHASHSEED`` pinned (the
runner re-executes itself when it is not). After one unreported
warm-up repetition, the timed phase repeats the seeded workload until
``--seconds`` host seconds have passed and reports the median
repetition. Set-up time and retained memory are measured in fresh
interpreters of their own (``harness.PROBES``). Host times are divided by a calibration
loop timed between slices of the simulation (``perfbench/calibrate.py``),
so machine-speed drift cancels.

Output checks — a run that fails one prints ``"correct": false``:

* every repetition reproduces the first one's simulated-outcome digest,
  and so does every earlier run of the same code, workload, seed and
  horizon in this checkout (digests are kept in
  ``.perfbench/digests.json``);
* every offered request ends exactly once with a typed outcome
  (``offered == completed + failed``, nothing in flight after the
  drain, no untyped error);
* no exception escapes ``Simulator.run()``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from harness import (  # noqa: E402
    HASH_SEED, PROBES, RETAINED_SHARE, SRC, check_digests, pinned_env, probe,
    timed_reps)

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 7


def measure(name: str, seed: int, seconds: float, horizon=None) -> dict:
    """The end-to-end metrics of one run (trace off)."""
    import workloads
    horizon = workloads.HORIZON[name] if horizon is None else horizon
    t0 = time.perf_counter()
    setups = [probe("setup", name, seed, horizon)
              for _ in range(SETUP_PROBES)]
    mem = probe("memory", name, seed, horizon * RETAINED_SHARE)
    check_digests(name, seed, mem["horizon"], [mem["digest"]])
    t1 = time.perf_counter()
    reps = timed_reps(workloads, name, seed, horizon, seconds)
    outcome = reps["outcome"]
    done = outcome["completed"]
    rates = [done / s for s in reps["cal_s"]]
    raw_rates = [done / s for s in reps["host_s"]]
    mem_requests = mem["offered"]

    offered = outcome["offered"]
    refused = offered - outcome["tally"]["ok"]
    print(f"# {name} seed={seed} digest={reps['digest']} reps={len(rates)} "
          f"tally={outcome['tally']}")
    print(f"# requests_per_s calibrated={statistics.median(rates):.1f} "
          f"raw_host={statistics.median(raw_rates):.1f}; setup_s raw_host="
          f"{statistics.median(s['host_s'] for s in setups):.4f}")
    print("# reps calibrated 1/s: " + " ".join(f"{r:.0f}" for r in rates)
          + "; raw 1/s: " + " ".join(f"{r:.0f}" for r in raw_rates))
    print(f"# retained blocks/request={mem['blocks'] / mem_requests:.3f}; "
          f"latency samples={done}, {done - int(0.99 * done)} above p99")
    print(f"# host seconds: probes {t1 - t0:.1f}, timed "
          f"{time.perf_counter() - t1:.1f}")
    return {
        "offered": offered,
        "metrics": {
            "requests_per_s": (statistics.median(rates), "1/s"),
            "setup_s": (statistics.median(s["calibrated_s"]
                                          for s in setups), "s"),
            "peak_rss_mb": (reps["rss_mb"], "MB"),
            "retained_kb_per_request": (
                sum(mem["by_file"].values()) / 1024 / mem_requests, "KB"),
            "sim_p50_ms": (outcome["p50"] * 1e3, "ms"),
            "sim_p99_ms": (outcome["p99"] * 1e3, "ms"),
            "ok_frac": ((offered - refused) / offered, "fraction"),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="draws the workload's arrivals and requests")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="host seconds of timed repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--horizon", type=float, default=None,
                        help="simulated seconds of traffic (default: the "
                        "workload's own; smaller for smoke tests)")
    parser.add_argument("--probe", choices=sorted(PROBES),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # A fresh interpreter with the hash seed pinned.
        return subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               *sys.argv[1:]], env=pinned_env()).returncode
    sys.path.insert(0, str(SRC))

    if args.probe:
        print(json.dumps(PROBES[args.probe](args.workload, args.seed,
                                            args.horizon)))
        return 0

    import workloads
    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.BUILDERS)}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            import layers
            result = layers.measure(args.workload, args.seed, args.seconds,
                                    args.horizon)
        else:
            result = measure(args.workload, args.seed, args.seconds,
                             args.horizon)
        correct, failed = True, 0
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        # A failed check, or an exception that escaped Simulator.run().
        traceback.print_exc()
        print("# check failed: " + "".join(
            traceback.format_exception_only(type(exc), exc)).strip())
        correct, failed, result = False, 1, {"offered": 1, "metrics": {}}
    print(json.dumps({
        "correct": correct,
        "attempted": result["offered"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
