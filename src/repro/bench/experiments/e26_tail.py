"""E26 — the tail pipeline: p99 objective, adaptive hedging, SLO burn.

Mean-steered control loops are blind to a specific, common failure
shape: an implementation whose *mean* is excellent but whose tail is
fat. This experiment builds exactly that trap and measures whether the
tail observability plane (warm-latency quantile sketches in the
attributor → ``objective="p99"`` in the optimizer, observed-p-quantile
arming in the hedger, burn-rate SLO alerting) escapes it while the
mean-steered loops stay caught.

Setup: one ``serve`` function with two WASM impls on the same CPU
hardware —

* **bimodal** — static prior ~10 ms; the body draws per *execution*:
  ~92% base (~10 ms, ±10% jitter), ~8% spikes (~150 ms). Mean
  ≈ 21 ms, q99 ≈ 150 ms.
* **steady** — a constant ~45 ms. Worse mean, q99 ≈ 45 ms.

**Objective arms** (identical closed-loop schedule, both
``observation_mode="ema"``): the ``objective="mean"`` optimizer starts
on bimodal (best prior), watches its warm EMA settle near 21 ms —
comfortably under steady's 45 ms — and never leaves. The
``objective="p99"`` optimizer reads the warm-latency *sketch* instead:
the first observed spike pushes bimodal's q99 estimate past steady's,
and it flips, trading ~24 ms of mean for a ~3× tail cut. Mean-optimal
and tail-optimal impls diverge; the gate pins the flip (and the
non-flip).

**Hedge arms** (single bimodal impl, capacity-one nodes): a fixed
``hedge_delay`` must be hand-tuned and here it is deliberately
mis-tuned the way static constants rot — 120 ms, below the 150 ms
spike but 12× the base latency, so every spike still eats ≥ 120 ms
before its duplicate launches. The adaptive policy arms at the
*observed* q90 (the spike mass is ~8%, so q90 sits just above the base
band): spikes get their duplicate after ~11 ms and finish near 2×
base. Extra load stays bounded — the launch fraction is pinned under
:data:`MAX_HEDGE_OVERHEAD`.

**SLO tracking**: both objective arms record every request against a
99%-under-100 ms SLO with multi-window burn-rate alerting
(:mod:`repro.bench.slo`). The mean arm burns ~8× budget and keeps
alerting; the p99 arm's burn rate collapses after the flip.

Every latency stream is also pushed through the sketch-vs-exact
differential harness; the gate pins the worst q50/q90/q99 relative
error under :data:`MAX_SKETCH_REL_ERR`.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from ...cluster.resources import cpu_task, server_node
from ...cluster.topology import build_cluster
from ...core.functions import FunctionImpl
from ...core.retry import RetryPolicy
from ...core.system import PCSICloud
from ...faas.platforms import WASM
from ...sim.engine import Simulator
from ...sim.rng import RandomStream
from ...sim.sketch import max_quantile_rel_err
from ..slo import BurnRateWindow, SLOTracker
from ..result import ExperimentResult, fingerprint, pinned
from ..tables import fmt_ms

SEED = 2626
#: ~10 ms on a WASM/CPU executor (5e10 ops/s × 0.7 efficiency).
BASE_OPS = 3.5e8
#: ~150 ms: the bimodal impl's fat-tail mode (15× base).
SPIKE_OPS = 15.0 * BASE_OPS
#: ~45 ms: the tight-tail impl's constant cost (worse mean than
#: bimodal's ~21 ms, far better q99).
STEADY_OPS = 4.5 * BASE_OPS
#: Probability one bimodal *execution* spikes (drawn per execution,
#: not per request: a hedge duplicate redraws, like re-running on a
#: different machine).
SPIKE_PROB = 0.08
#: ±10% uniform jitter on the base mode, so observed quantiles sit in
#: a band instead of a point mass.
BASE_JITTER = 0.1

#: Closed-loop requests per arm and think time between them.
REQUESTS = 240
REQUEST_INTERVAL = 0.25

#: The SLO both objective arms are tracked against.
SLO_THRESHOLD_S = 0.1
SLO_OBJECTIVE = 0.99
#: Burn-rate windows sized to the 60 s run (same long/short shape as
#: the SRE-book pairs).
SLO_WINDOWS = (BurnRateWindow(long_s=20.0, short_s=2.0, threshold=5.0),)

#: The hedge mini-run: the deliberately mis-tuned fixed delay (12×
#: base, just under the spike) vs adaptive arming at observed q90.
HEDGE_REQUESTS = 240
HEDGE_FIXED_DELAY = 0.12
HEDGE_QUANTILE = 90.0
HEDGE_MIN_SAMPLES = 24
#: Pinned bound on adaptive hedge-launch overhead (duplicates per
#: request).
MAX_HEDGE_OVERHEAD = 0.20

#: Pinned bound on the sketch-vs-exact differential (q50/q90/q99
#: relative error) over every latency stream this experiment produces.
MAX_SKETCH_REL_ERR = 0.02

#: A lower EMA weight than the attributor default: the mean arm must
#: represent a *well-tuned* mean pipeline (a 0.3-weight EMA is so
#: jumpy a single spike would fake a tail signal out of it).
ATTR_ALPHA = 0.05


def _make_body(rng: RandomStream):
    """The ``serve`` body: per-execution bimodal or constant compute."""

    def body(ctx) -> Generator:
        if ctx.impl.name == "bimodal":
            if rng.uniform() < SPIKE_PROB:
                ops = SPIKE_OPS * (1.0 + BASE_JITTER * (2 * rng.uniform()
                                                        - 1.0))
            else:
                ops = BASE_OPS * (1.0 + BASE_JITTER * (2 * rng.uniform()
                                                       - 1.0))
        else:
            ops = STEADY_OPS
        yield from ctx.compute(ops)
        return {"ok": True}

    return body


def _percentile(sorted_vals: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_vals:
        return 0.0
    idx = min(int(q * len(sorted_vals)), len(sorted_vals) - 1)
    return sorted_vals[idx]


def run_objective_arm(objective: str) -> Dict[str, Any]:
    """One optimizer arm (``"mean"`` or ``"p99"``) on the drift trap."""
    sim = Simulator()
    cloud = PCSICloud(sim, racks=2, nodes_per_rack=3,
                      gpu_nodes_per_rack=0, seed=SEED,
                      keep_alive=3600.0, trace=True,
                      observation_mode="ema", objective=objective)
    cloud.attributor.alpha = ATTR_ALPHA
    cloud.optimizer.cold_start_amortization = 50
    rng = RandomStream(SEED, "tail-body")
    fn_ref = cloud.define_function("serve", [
        FunctionImpl("bimodal", WASM, cpu_task(cpus=1, memory_gb=1),
                     work_ops=BASE_OPS),
        FunctionImpl("steady", WASM, cpu_task(cpus=1, memory_gb=1),
                     work_ops=STEADY_OPS),
    ], body=_make_body(rng))
    client = cloud.client_node()
    slo = SLOTracker(metrics=cloud.metrics, windows=SLO_WINDOWS)
    slo.add_target("serve", SLO_THRESHOLD_S, objective=SLO_OBJECTIVE)
    latencies: List[float] = []

    def flow() -> Generator:
        for _ in range(REQUESTS):
            t0 = cloud.sim.now
            yield from cloud.invoke(client, fn_ref)
            latency = cloud.sim.now - t0
            latencies.append(latency)
            slo.record("serve", latency, cloud.sim.now)
            yield cloud.sim.timeout(REQUEST_INTERVAL)

    cloud.run_process(flow())
    decisions = [inv.impl_name for inv in cloud.scheduler.history]
    horizon = cloud.sim.now
    slat = sorted(latencies)
    return {
        "objective": objective,
        "decisions": decisions,
        "latencies": latencies,
        "mean_s": sum(latencies) / len(latencies),
        "p99_s": _percentile(slat, 0.99),
        "flip_index": next((i for i, d in enumerate(decisions)
                            if d == "steady"), None),
        "stuck_on_bimodal": all(d == "bimodal" for d in decisions),
        "slo_alerts": slo.alert_count("serve"),
        "slo_final_burn": slo.burn_rate("serve", SLO_WINDOWS[0].long_s,
                                        horizon),
        "slo_attainment": slo.attainment("serve"),
        "sketch_rel_err": max_quantile_rel_err(latencies),
    }


def run_hedge_arm(mode: str) -> Dict[str, Any]:
    """One hedge arm (``"fixed"`` or ``"adaptive"``) on the bimodal fn.

    Capacity-one nodes force the speculative duplicate onto a
    different machine (as in E21); the duplicate redraws the bimodal
    coin, so hedging a spike usually lands in the base band.
    """
    sim = Simulator()
    topo = build_cluster(sim, racks=2, nodes_per_rack=3,
                         gpu_nodes_per_rack=0,
                         node_capacity=server_node(cpus=1, memory_gb=4))
    cloud = PCSICloud(sim, seed=SEED, keep_alive=3600.0, topology=topo,
                      data_replicas=1, trace=True, attribution=True)
    cloud.attributor.alpha = ATTR_ALPHA
    client = cloud.client_node()
    cloud.scheduler.control_node = client
    rng = RandomStream(SEED, "tail-hedge")
    fn_ref = cloud.define_function("spiky", [
        FunctionImpl("bimodal", WASM, cpu_task(cpus=1, memory_gb=1),
                     work_ops=BASE_OPS),
    ], body=_make_body(rng))
    policy = RetryPolicy(max_attempts=1, hedge_delay=HEDGE_FIXED_DELAY,
                         hedge_mode=mode, hedge_quantile=HEDGE_QUANTILE,
                         hedge_min_samples=HEDGE_MIN_SAMPLES)
    latencies: List[float] = []

    def flow() -> Generator:
        for _ in range(HEDGE_REQUESTS):
            t0 = cloud.sim.now
            yield from cloud.invoke(client, fn_ref, retry=policy)
            latencies.append(cloud.sim.now - t0)
            yield cloud.sim.timeout(REQUEST_INTERVAL)

    cloud.run_process(flow())
    counters = cloud.metrics.counters()
    launched = counters.get("invoke.hedge.launched", 0.0)
    slat = sorted(latencies)
    return {
        "mode": mode,
        "requests": HEDGE_REQUESTS,
        "latencies": latencies,
        "mean_s": sum(latencies) / len(latencies),
        "p50_s": _percentile(slat, 0.50),
        "p99_s": _percentile(slat, 0.99),
        "hedges": launched,
        "hedge_wins": counters.get("invoke.hedge.won", 0.0),
        "launch_fraction": launched / HEDGE_REQUESTS,
        "sketch_rel_err": max_quantile_rel_err(latencies),
    }


def run_tail_arms() -> Dict[str, Any]:
    """All four arms plus derived win metrics (the gate substrate)."""
    mean_arm = run_objective_arm("mean")
    p99_arm = run_objective_arm("p99")
    hedge_fixed = run_hedge_arm("fixed")
    hedge_adaptive = run_hedge_arm("adaptive")
    sketch_rel_err = max(mean_arm["sketch_rel_err"],
                         p99_arm["sketch_rel_err"],
                         hedge_fixed["sketch_rel_err"],
                         hedge_adaptive["sketch_rel_err"])
    return {
        "config": {
            "seed": SEED,
            "requests": REQUESTS,
            "hedge_requests": HEDGE_REQUESTS,
            "base_ops": BASE_OPS,
            "spike_ops": SPIKE_OPS,
            "steady_ops": STEADY_OPS,
            "spike_prob": SPIKE_PROB,
            "slo_threshold_s": SLO_THRESHOLD_S,
            "slo_objective": SLO_OBJECTIVE,
            "hedge_fixed_delay_s": HEDGE_FIXED_DELAY,
            "hedge_quantile": HEDGE_QUANTILE,
            "attr_alpha": ATTR_ALPHA,
        },
        "mean": mean_arm,
        "p99": p99_arm,
        "hedge_fixed": hedge_fixed,
        "hedge_adaptive": hedge_adaptive,
        "sketch_rel_err": sketch_rel_err,
        "max_sketch_rel_err": MAX_SKETCH_REL_ERR,
        "max_hedge_overhead": MAX_HEDGE_OVERHEAD,
        "p99_tail_cut": (mean_arm["p99_s"] - p99_arm["p99_s"])
        / mean_arm["p99_s"] if mean_arm["p99_s"] > 0 else 0.0,
        "hedge_p99_cut": (hedge_fixed["p99_s"] - hedge_adaptive["p99_s"])
        / hedge_fixed["p99_s"] if hedge_fixed["p99_s"] > 0 else 0.0,
    }


def run_tail_drift() -> ExperimentResult:
    """Regenerate the tail-pipeline drift experiment."""
    res = run_tail_arms()
    mean_arm, p99_arm = res["mean"], res["p99"]
    hf, ha = res["hedge_fixed"], res["hedge_adaptive"]

    def served(decisions: List[str]) -> str:
        counts: Dict[str, int] = {}
        for d in decisions:
            counts[d] = counts.get(d, 0) + 1
        return "+".join(f"{n}×{impl}"
                        for impl, n in sorted(counts.items()))

    rows = [
        ("objective=mean", fmt_ms(mean_arm["mean_s"]),
         fmt_ms(mean_arm["p99_s"]), served(mean_arm["decisions"]),
         f"burn {mean_arm['slo_final_burn']:.1f}×, "
         f"{mean_arm['slo_alerts']} alerts"),
        ("objective=p99", fmt_ms(p99_arm["mean_s"]),
         fmt_ms(p99_arm["p99_s"]), served(p99_arm["decisions"]),
         f"burn {p99_arm['slo_final_burn']:.1f}×, "
         f"{p99_arm['slo_alerts']} alerts"),
        ("hedge fixed 120ms", fmt_ms(hf["mean_s"]), fmt_ms(hf["p99_s"]),
         f"{hf['hedges']:.0f} hedges "
         f"({hf['launch_fraction']:.0%})", "—"),
        ("hedge adaptive q90", fmt_ms(ha["mean_s"]),
         fmt_ms(ha["p99_s"]),
         f"{ha['hedges']:.0f} hedges "
         f"({ha['launch_fraction']:.0%})", "—"),
    ]
    return ExperimentResult(
        experiment_id="E26",
        title="Tail pipeline: p99 objective, adaptive hedging, SLO burn",
        headers=("Arm", "Mean", "p99", "Served / hedges", "SLO"),
        rows=rows,
        claims={
            "mean_arm_p99_s": mean_arm["p99_s"],
            "p99_arm_p99_s": p99_arm["p99_s"],
            "p99_tail_cut": res["p99_tail_cut"],
            "p99_flip_index": p99_arm["flip_index"],
            "mean_arm_stuck": mean_arm["stuck_on_bimodal"],
            "hedge_fixed_p99_s": hf["p99_s"],
            "hedge_adaptive_p99_s": ha["p99_s"],
            "hedge_p99_cut": res["hedge_p99_cut"],
            "hedge_launch_fraction": ha["launch_fraction"],
            "max_hedge_overhead": MAX_HEDGE_OVERHEAD,
            "sketch_rel_err": res["sketch_rel_err"],
            "max_sketch_rel_err": MAX_SKETCH_REL_ERR,
            "mean_arm_alerts": mean_arm["slo_alerts"],
            "p99_arm_alerts": p99_arm["slo_alerts"],
        },
        notes=[
            f"The mean-steered optimizer never leaves the bimodal impl "
            f"(mean {mean_arm['mean_s'] * 1e3:.0f} ms looks great) and "
            f"serves a {mean_arm['p99_s'] * 1e3:.0f} ms p99; the "
            f"p99-steered arm flips to the steady impl at request "
            f"{p99_arm['flip_index']} and cuts p99 to "
            f"{p99_arm['p99_s'] * 1e3:.0f} ms "
            f"({res['p99_tail_cut']:.0%}).",
            f"Adaptive hedging arms at the observed q90 instead of the "
            f"mis-tuned 120 ms constant: p99 "
            f"{hf['p99_s'] * 1e3:.0f} ms → {ha['p99_s'] * 1e3:.0f} ms "
            f"({res['hedge_p99_cut']:.0%} cut) at "
            f"{ha['launch_fraction']:.0%} duplicate launches "
            f"(bound {MAX_HEDGE_OVERHEAD:.0%}).",
            f"The SLO tracker tells the same story from the outside: "
            f"the mean arm finishes burning "
            f"{mean_arm['slo_final_burn']:.1f}× its error budget with "
            f"{mean_arm['slo_alerts']} burn-rate alerts; the p99 arm "
            f"ends at {p99_arm['slo_final_burn']:.1f}×.",
            f"Worst sketch-vs-exact relative error across every "
            f"latency stream: {res['sketch_rel_err']:.2%} "
            f"(bound {MAX_SKETCH_REL_ERR:.0%}).",
        ])


# -- regression gate (``repro.bench.regress --gate tail``) --------------

#: Objective-arm fields compared exactly: the decision digest pins the
#: p99 flip and the mean non-flip, the latency digest every request's
#: exact duration, and the SLO fields the burn-rate alerting.
PINNED_TAIL_OBJECTIVE_FIELDS = ("objective", "decision_fingerprint",
                                "latency_fingerprint", "flip_index",
                                "stuck_on_bimodal", "slo_alerts")

#: Hedge-arm fields compared exactly per arm.
PINNED_TAIL_HEDGE_FIELDS = ("mode", "latency_fingerprint", "hedges",
                            "hedge_wins")


def _tail_objective_doc(arm: Dict[str, Any]) -> Dict[str, Any]:
    """One objective arm with its bulky sequences folded to digests."""
    return {
        "objective": arm["objective"],
        "mean_s": arm["mean_s"],
        "p99_s": arm["p99_s"],
        "decision_fingerprint": fingerprint(arm["decisions"]),
        "latency_fingerprint": fingerprint(arm["latencies"]),
        "flip_index": arm["flip_index"],
        "stuck_on_bimodal": arm["stuck_on_bimodal"],
        "slo_alerts": arm["slo_alerts"],
        "slo_final_burn": arm["slo_final_burn"],
        "slo_attainment": arm["slo_attainment"],
        "sketch_rel_err": arm["sketch_rel_err"],
    }


def _tail_hedge_doc(arm: Dict[str, Any]) -> Dict[str, Any]:
    """One hedge arm with its latency sequence folded to a digest."""
    return {
        "mode": arm["mode"],
        "mean_s": arm["mean_s"],
        "p50_s": arm["p50_s"],
        "p99_s": arm["p99_s"],
        "latency_fingerprint": fingerprint(arm["latencies"]),
        "hedges": arm["hedges"],
        "hedge_wins": arm["hedge_wins"],
        "launch_fraction": arm["launch_fraction"],
        "sketch_rel_err": arm["sketch_rel_err"],
    }


def run_tail_gate() -> Dict[str, Any]:
    """Replay the pinned tail comparison (all four arms)."""
    res = run_tail_arms()
    return {
        "experiment": "E26 pinned tail pipeline (p99 objective, "
                      "adaptive hedging, SLO burn)",
        "config": res["config"],
        "mean": _tail_objective_doc(res["mean"]),
        "p99": _tail_objective_doc(res["p99"]),
        "hedge_fixed": _tail_hedge_doc(res["hedge_fixed"]),
        "hedge_adaptive": _tail_hedge_doc(res["hedge_adaptive"]),
        "p99_tail_cut": res["p99_tail_cut"],
        "hedge_p99_cut": res["hedge_p99_cut"],
        "sketch_rel_err": res["sketch_rel_err"],
        "max_sketch_rel_err": MAX_SKETCH_REL_ERR,
        "max_hedge_overhead": MAX_HEDGE_OVERHEAD,
    }


def compare_tail(current: Dict[str, Any],
                 baseline: Dict[str, Any]) -> List[str]:
    """Violations of the tail gate against its baseline doc."""
    violations = pinned(current, baseline, ("mean", "p99"),
                        PINNED_TAIL_OBJECTIVE_FIELDS, "tail")
    violations += pinned(current, baseline,
                         ("hedge_fixed", "hedge_adaptive"),
                         PINNED_TAIL_HEDGE_FIELDS, "tail")
    if current.get("p99", {}).get("flip_index") is None:
        violations.append(
            "tail: the p99-steered optimizer never flipped to the "
            "tight-tail impl — the tail objective is not steering")
    if not current.get("mean", {}).get("stuck_on_bimodal", False):
        violations.append(
            "tail: the mean-steered arm left the bimodal impl — the "
            "trap no longer distinguishes mean from tail steering")
    fixed_p99 = current.get("hedge_fixed", {}).get("p99_s", 0.0)
    adaptive_p99 = current.get("hedge_adaptive", {}).get("p99_s",
                                                         float("inf"))
    if adaptive_p99 >= fixed_p99:
        violations.append(
            f"tail: adaptive hedging no longer beats the fixed delay "
            f"({adaptive_p99:.6f} s p99 vs {fixed_p99:.6f} s fixed)")
    max_overhead = baseline.get("max_hedge_overhead", 1.0)
    launch_fraction = current.get("hedge_adaptive",
                                  {}).get("launch_fraction", 0.0)
    if launch_fraction > max_overhead:
        violations.append(
            f"tail: adaptive hedging launches duplicates for "
            f"{launch_fraction:.1%} of requests (bound "
            f"{max_overhead:.0%})")
    max_err = baseline.get("max_sketch_rel_err", 1.0)
    rel_err = current.get("sketch_rel_err", 0.0)
    if rel_err > max_err:
        violations.append(
            f"tail: worst sketch-vs-exact quantile error "
            f"{rel_err:.2%} across the latency streams (bound "
            f"{max_err:.0%})")
    return violations


def tail_summary(doc: Dict[str, Any]) -> str:
    """The tail gate's one-line report."""
    ha = doc["hedge_adaptive"]
    return (f"p99 {doc['mean']['p99_s'] * 1e3:.0f} ms (objective=mean) "
            f"-> {doc['p99']['p99_s'] * 1e3:.0f} ms (objective=p99), "
            f"hedge p99 {doc['hedge_fixed']['p99_s'] * 1e3:.0f} ms "
            f"(fixed) -> {ha['p99_s'] * 1e3:.0f} ms (adaptive, "
            f"{ha['launch_fraction']:.0%} launches), sketch err "
            f"{doc['sketch_rel_err']:.2%}")
