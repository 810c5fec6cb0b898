"""Behavioural regression gates: eight pinned replays behind one CLI.

Every gate lives in the :data:`GATES` registry: a name, a baseline
file under ``benchmarks/baselines/``, a runner that replays a pinned
seeded workload into a JSON document, a comparator that returns the
violations of that document against the baseline, and a one-line
summary. The E4 critical-path and autoscale gates are defined here;
the others sit next to the workload they replay (``throughput`` and
the E21/E22/E24/E25/E26 experiment modules). ``docs/INTERNALS.md``
("The perf gate") tables what each gate pins exactly and which
behavioural bars it enforces.

Usage::

    python -m repro.bench.regress                  # every gate, exit 0/1/2
    python -m repro.bench.regress --gate chaos     # one gate (repeatable)
    python -m repro.bench.regress --out artifacts/ # also write <gate>.json
    python -m repro.bench.regress --update         # rewrite the baselines

Updating the baselines is a deliberate act: run with ``--update``,
commit the JSON, and explain the delta in the commit message.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..cluster.resources import MB
from ..core.system import PCSICloud
from ..faas.harness import ControllerHarness, HarnessResult, burst_phases
from ..workloads.ml_serving import ModelServingApp, ModelServingConfig
from .critical_path import invocation_critical_paths, merged_by_name
from .experiments.e21_chaos import (
    chaos_summary,
    compare_chaos,
    run_chaos_gate,
)
from .experiments.e22_attribution import (
    attribution_summary,
    compare_attribution,
    run_attribution_gate,
)
from .experiments.e24_overload import (
    compare_overload,
    overload_summary,
    run_overload_gate,
)
from .experiments.e25_recovery import (
    compare_recovery,
    recovery_summary,
    run_recovery_gate,
)
from .experiments.e26_tail import compare_tail, run_tail_gate, tail_summary
from .result import pinned
from .throughput import (
    compare_throughput,
    run_throughput_gate,
    throughput_summary,
)

Doc = Dict[str, Any]

#: Where the checked-in baselines live (``--baseline-dir`` default).
BASELINE_DIR = Path(__file__).resolve().parents[3] / "benchmarks" \
    / "baselines"


# ---------------------------------------------------------------------------
# E4 critical-path gate
# ---------------------------------------------------------------------------

#: The pinned E4 workload (mirrors e04_fig2_pipeline, co-locate arm).
SEED = 41
WARMUP = 2
REQUESTS = 10
CFG = ModelServingConfig(upload_nbytes=4 * MB, weights_nbytes=64 * MB)

#: Span name -> layer. Unknown names fall into "other" so a new span
#: can never silently vanish from the gate.
LAYERS: Dict[str, str] = {
    "coldstart": "coldstart",
    "sandbox.provision": "coldstart",
    "net.transfer": "network",
    "net.local_copy": "network",
    "quorum.read": "quorum",
    "quorum.write": "quorum",
    "eventual.read": "quorum",
    "eventual.write": "quorum",
    "data.read": "storage",
    "data.write": "storage",
    "data.read_range": "storage",
    "data.readv": "storage",
    "nfs.read": "storage",
    "nfs.write": "storage",
    "kv.get": "storage",
    "kv.put": "storage",
    "compute": "compute",
    "execute": "compute",
    "invoke": "control",
    "dispatch": "control",
    "hedge": "control",
    "placement": "control",
    "attempt": "control",
    "warmpool.acquire": "control",
    "warmpool.prewarm": "coldstart",
    "autoscale.tick": "control",
    "autoscale.resize": "control",
    "queue.wait": "control",
    "retry.backoff": "control",
    "graph": "control",
    "pipeline": "control",
    "fifo.put": "control",
    "fifo.get": "control",
    "socket.send": "control",
    "socket.recv": "control",
}

#: Relative tolerance per layer (fraction of the baseline total);
#: layers not listed use DEFAULT_TOLERANCE.
DEFAULT_TOLERANCE = 0.15

#: Absolute slack: deltas under this many seconds never fail, so
#: near-zero layers don't trip on representation noise.
ABS_FLOOR = 5e-5


def layer_of(span_name: str) -> str:
    """The gate layer a span name belongs to."""
    return LAYERS.get(span_name, "other")


def fold_layers(by_name: Dict[str, float]) -> Dict[str, float]:
    """Collapse merged critical-path totals into layer totals."""
    out: Dict[str, float] = {}
    for name, secs in by_name.items():
        layer = layer_of(name)
        out[layer] = out.get(layer, 0.0) + secs
    return dict(sorted(out.items()))


def run_pinned_e4() -> Tuple[PCSICloud, Dict[str, float],
                             Dict[str, float]]:
    """Run the pinned workload; returns (cloud, by_name, by_layer)."""
    cloud = PCSICloud(racks=4, nodes_per_rack=8, gpu_nodes_per_rack=2,
                      seed=SEED, placement="colocate", keep_alive=600.0,
                      trace=True)
    app = ModelServingApp(cloud, CFG)
    client = cloud.client_node()

    def flow() -> Generator:
        for _ in range(WARMUP + REQUESTS):
            yield from app.serve_one(client)

    cloud.run_process(flow())
    by_name = merged_by_name(invocation_critical_paths(cloud.tracer))
    return cloud, by_name, fold_layers(by_name)


def run_e4_gate(out: Optional[Path] = None) -> Doc:
    """The pinned E4 critical-path document.

    With ``out``, the run's labelled-metrics JSON is also written there
    as ``e4_metrics.json``.
    """
    cloud, by_name, by_layer = run_pinned_e4()
    if out is not None:
        cloud.metrics.write_json(str(out / "e4_metrics.json"),
                                 now=cloud.sim.now)
    return {
        "experiment": "E4 pinned (PCSI co-locate)",
        "seed": SEED,
        "warmup": WARMUP,
        "requests": REQUESTS,
        "by_layer": by_layer,
        "by_name": by_name,
        "default_tolerance": DEFAULT_TOLERANCE,
        "abs_floor_s": ABS_FLOOR,
        "tolerances": {
            # Cold starts happen once, then warm reuse: small absolute
            # numbers, so give the layer more relative headroom.
            "coldstart": 0.25,
        },
    }


def compare(current: Dict[str, float], baseline: Doc) -> List[str]:
    """Violations of ``current`` layer totals against a baseline doc."""
    base_layers: Dict[str, float] = baseline["by_layer"]
    tolerances: Dict[str, float] = baseline.get("tolerances", {})
    default_tol = baseline.get("default_tolerance", DEFAULT_TOLERANCE)
    abs_floor = baseline.get("abs_floor_s", ABS_FLOOR)
    violations: List[str] = []
    for layer in sorted(set(base_layers) | set(current)):
        base = base_layers.get(layer, 0.0)
        cur = current.get(layer, 0.0)
        tol = tolerances.get(layer, default_tol)
        allowed = max(tol * base, abs_floor)
        delta = cur - base
        if abs(delta) > allowed:
            violations.append(
                f"layer {layer!r}: {cur * 1e3:.3f} ms vs baseline "
                f"{base * 1e3:.3f} ms ({delta:+.6f} s, allowed "
                f"+/-{allowed:.6f} s)")
    return violations


def _e4_summary(doc: Doc) -> str:
    layers = sorted(doc["by_layer"].items(), key=lambda kv: -kv[1])
    return ", ".join(f"{layer} {secs * 1e3:.3f} ms"
                     for layer, secs in layers)


# ---------------------------------------------------------------------------
# Autoscale gate
# ---------------------------------------------------------------------------

#: The pinned burst schedule the controller must win on.
AUTOSCALE_SEED = 47
AUTOSCALE_BURSTS = 3
AUTOSCALE_BURST_DURATION = 10.0
AUTOSCALE_BURST_RATE = 10.0
AUTOSCALE_GAP = 60.0
#: The controller must cut cold starts by at least this fraction.
MIN_REDUCTION = 0.30

#: Arm fields compared exactly. (Float fields like p99 and
#: held_seconds ride along in the baseline but are informational.)
PINNED_ARM_FIELDS = ("offered", "completed", "failed", "cold_starts",
                     "warm_hits", "prewarmed", "queue_waits",
                     "final_size")


def _arm_doc(result: HarnessResult) -> Doc:
    """The pinned, exactly-reproducible facts of one harness arm."""
    return {
        "policy": result.policy,
        "offered": result.offered,
        "completed": result.completed,
        "failed": result.failed,
        "cold_starts": result.cold_starts,
        "warm_hits": result.warm_hits,
        "prewarmed": result.prewarmed,
        "queue_waits": result.queue_waits,
        "final_size": result.final_size,
        "p99_s": result.p99,
        "held_seconds": result.held_seconds,
    }


def run_autoscale_gate() -> Doc:
    """Replay both arms of the pinned burst schedule."""
    phases = burst_phases(bursts=AUTOSCALE_BURSTS,
                          burst_duration=AUTOSCALE_BURST_DURATION,
                          burst_rate=AUTOSCALE_BURST_RATE,
                          gap=AUTOSCALE_GAP)
    fixed = ControllerHarness(policy="fixed",
                              seed=AUTOSCALE_SEED).run(phases)
    controlled = ControllerHarness(policy="queue-depth",
                                   seed=AUTOSCALE_SEED).run(phases)
    reduction = (1.0 - controlled.cold_starts / fixed.cold_starts
                 if fixed.cold_starts else 0.0)
    return {
        "experiment": "autoscale pinned burst (fixed vs queue-depth)",
        "seed": AUTOSCALE_SEED,
        "schedule": {
            "bursts": AUTOSCALE_BURSTS,
            "burst_duration_s": AUTOSCALE_BURST_DURATION,
            "burst_rate_rps": AUTOSCALE_BURST_RATE,
            "gap_s": AUTOSCALE_GAP,
        },
        "fixed": _arm_doc(fixed),
        "controlled": _arm_doc(controlled),
        "cold_start_reduction": reduction,
        "min_reduction": MIN_REDUCTION,
    }


def compare_autoscale(current: Doc, baseline: Doc) -> List[str]:
    """Violations of the autoscale gate against its baseline doc."""
    violations = pinned(current, baseline, ("fixed", "controlled"),
                        PINNED_ARM_FIELDS, "autoscale")
    min_reduction = baseline.get("min_reduction", MIN_REDUCTION)
    reduction = current.get("cold_start_reduction", 0.0)
    if reduction < min_reduction:
        violations.append(
            f"cold-start reduction {reduction:.1%} is below the "
            f"required {min_reduction:.0%}")
    for arm in ("fixed", "controlled"):
        if current.get(arm, {}).get("final_size") != 0:
            violations.append(
                f"{arm}: pool did not scale to zero "
                f"(final_size={current.get(arm, {}).get('final_size')})")
    return violations


def _autoscale_summary(doc: Doc) -> str:
    return (f"cold {doc['fixed']['cold_starts']} (fixed) -> "
            f"{doc['controlled']['cold_starts']} (queue-depth), "
            f"-{doc['cold_start_reduction']:.1%}")


# ---------------------------------------------------------------------------
# The registry and the CLI
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gate:
    """One pinned regression gate.

    ``run(out)`` replays the gate's workload into its JSON document
    (``out`` is the ``--out`` directory or ``None``, for gates that
    write extra artifacts); ``compare(doc, baseline)`` lists the
    violations; ``summary(doc)`` is the one-line report.
    """

    name: str
    baseline: str
    run: Callable[[Optional[Path]], Doc]
    compare: Callable[[Doc, Doc], List[str]]
    summary: Callable[[Doc], str]


#: Every gate, in the order the CLI runs them.
GATES: Dict[str, Gate] = {gate.name: gate for gate in (
    Gate("e4", "e4_critical_path.json", run_e4_gate,
         lambda doc, base: compare(doc["by_layer"], base), _e4_summary),
    Gate("autoscale", "autoscale_burst.json",
         lambda out: run_autoscale_gate(), compare_autoscale,
         _autoscale_summary),
    Gate("chaos", "chaos_goodput.json", lambda out: run_chaos_gate(),
         compare_chaos, chaos_summary),
    Gate("attribution", "attribution_drift.json",
         lambda out: run_attribution_gate(), compare_attribution,
         attribution_summary),
    Gate("throughput", "throughput.json",
         lambda out: run_throughput_gate(), compare_throughput,
         throughput_summary),
    Gate("overload", "overload_goodput.json",
         lambda out: run_overload_gate(), compare_overload,
         overload_summary),
    Gate("recovery", "recovery_mttr.json",
         lambda out: run_recovery_gate(), compare_recovery,
         recovery_summary),
    Gate("tail", "tail_drift.json", lambda out: run_tail_gate(),
         compare_tail, tail_summary),
)}


def _write_json(path: Path, doc: Doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns 0 (pass), 1 (regression), 2 (usage)."""
    parser = argparse.ArgumentParser(
        prog="repro.bench.regress",
        description="Pinned behavioural regression gates",
        allow_abbrev=False)
    parser.add_argument("--gate", action="append", choices=list(GATES),
                        help="run this gate (repeatable; default: all)")
    parser.add_argument("--baseline-dir", type=Path, default=BASELINE_DIR,
                        help="directory holding the baseline JSON files")
    parser.add_argument("--out", type=Path, default=None,
                        help="write each gate's JSON to OUT/<gate>.json")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baselines from this run")
    args = parser.parse_args(argv)
    gates = [g for g in GATES.values()
             if args.gate is None or g.name in args.gate]

    if not args.update:
        for gate in gates:
            path = args.baseline_dir / gate.baseline
            if not path.exists():
                print(f"no baseline at {path}; run with --update first",
                      file=sys.stderr)
                return 2
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
    if args.update:
        args.baseline_dir.mkdir(parents=True, exist_ok=True)

    violations: List[str] = []
    for gate in gates:
        doc = gate.run(args.out)
        if args.out is not None:
            _write_json(args.out / f"{gate.name}.json", doc)
        path = args.baseline_dir / gate.baseline
        if args.update:
            _write_json(path, doc)
            print(f"baseline updated: {path}")
            continue
        print(f"  {gate.name:<12} {gate.summary(doc)}")
        violations += gate.compare(
            doc, json.loads(path.read_text(encoding="utf-8")))

    if violations:
        print("PERF REGRESSION:", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    if not args.update:
        print("perf gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
