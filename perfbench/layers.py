"""Per-layer metrics: the traced run of a workload.

Layers are named by module. Everything here observes the program from
outside: cProfile self time aggregated per module, call counts of
plain-function entry points from the same profile, simulated-time spans
recorded by wrappers the benchmark installs around generator entry
points for the traced run only, ``tracemalloc`` retained bytes grouped
by the allocating module, and the program's own counters read after
the run. The traced run must reproduce the untraced run's
simulated-outcome digest, so the instruments are shown not to perturb
what they measure.

Spans and counts are kept in memory and written to
``.perfbench/trace-<workload>-seed<seed>.json`` in the checkout when the
run ends.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import harness

#: Layer -> module prefixes (dotted, under ``repro``). A module belongs
#: to the layer of its longest matching prefix; anything else — the
#: load generator, the benchmark's own frames, the standard library —
#: is ``other``. Built-in functions count toward the module that calls
#: them.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "engine": ("repro.sim.engine", "repro.sim.resources", "repro.sim.rng"),
    "trace": ("repro.sim.trace",),
    "metrics": ("repro.sim.metrics", "repro.sim.metrics_registry",
                "repro.sim.sketch"),
    "attribution": ("repro.bench.attribution", "repro.bench.critical_path",
                    "repro.bench.slo"),
    "scheduler": ("repro.core.scheduler", "repro.core.invoke",
                  "repro.core.optimizer", "repro.core.retry",
                  "repro.core.placement", "repro.core.functions",
                  "repro.sim.deadline"),
    "warmpool": ("repro.faas",),
    "network": ("repro.cluster.network", "repro.net.marshal",
                "repro.cluster.latency", "repro.cluster.topology",
                "repro.cluster.node", "repro.cluster.resources"),
    "storage": ("repro.core.consistency", "repro.storage"),
    "gateway": ("repro.net.gateway",),
    "health": ("repro.cluster.health",),
    "kernel": ("repro.core", "repro.security", "repro.cost"),
}
SHARES = tuple(LAYERS) + ("other",)

#: Plain-function entry points counted from the profile:
#: (module, qualified name) -> count key.
CALL_COUNTS = {
    ("repro.sim.metrics_registry", "LabeledMetricsRegistry.counter"):
        "metrics.calls",
    ("repro.sim.metrics_registry", "LabeledMetricsRegistry.histogram"):
        "metrics.calls",
    ("repro.sim.metrics_registry", "LabeledMetricsRegistry.gauge"):
        "metrics.calls",
    ("repro.sim.trace", "Tracer.span"): "trace.span_calls",
    ("repro.bench.attribution", "LatencyAttributor.observe_root"):
        "attribution.roots",
    ("repro.core.optimizer", "ImplOptimizer.choose"): "scheduler.choose",
    ("repro.cluster.health", "PhiAccrualDetector.beat"):
        "health.heartbeats",
    ("repro.cluster.health", "CircuitBreaker._open"): "health.breaker_opens",
}

#: Generator entry points wrapped for the traced run:
#: (module, class, method) -> span name. cProfile counts every
#: resumption of a generator as a call, so these are counted (and
#: timed in simulated seconds) by the wrappers instead.
SPANNED = {
    ("repro.cluster.network", "Network", "transfer"): "network.transfer",
    ("repro.core.consistency", "DataLayer", "read"): "storage.read",
    ("repro.core.consistency", "DataLayer", "write"): "storage.write",
    ("repro.storage.replication", "ReplicatedStore",
     "write_linearizable"): "storage.quorum_write",
    ("repro.storage.replication", "ReplicatedStore",
     "read_linearizable"): "storage.quorum_read",
    ("repro.faas.autoscale", "WarmPool", "acquire"): "warmpool.acquire",
    ("repro.core.scheduler", "FunctionScheduler", "_attempt"):
        "scheduler.attempt",
    ("repro.net.gateway", "AdmissionGateway", "_acquire_slot"):
        "gateway.queue",
}


def layer_of(module: Optional[str]) -> str:
    best, best_len = "other", -1
    if module is None:
        return best
    for layer, prefixes in LAYERS.items():
        for prefix in prefixes:
            if (module == prefix or module.startswith(prefix + ".")) \
                    and len(prefix) > best_len:
                best, best_len = layer, len(prefix)
    return best


def _module_of(filename: str) -> Optional[str]:
    try:
        rel = Path(filename).resolve().relative_to(harness.SRC)
    except ValueError:
        return None
    return ".".join(rel.with_suffix("").parts)


def _qualname(module: str, lineno: int, funcname: str,
              cache: Dict) -> str:
    """``Class.method`` for a profiled function (by definition line)."""
    key = (module, lineno, funcname)
    if key not in cache:
        import importlib
        import inspect
        name = funcname
        mod = importlib.import_module(module)
        for cls_name, cls in vars(mod).items():
            if inspect.isclass(cls) and cls.__module__ == module:
                fn = vars(cls).get(funcname)
                code = getattr(fn, "__code__", None)
                if code is not None and code.co_firstlineno == lineno:
                    name = f"{cls_name}.{funcname}"
                    break
        cache[key] = name
    return cache[key]


def profile_shares(stats: pstats.Stats) -> Tuple[Dict[str, float],
                                                 Dict[str, int], float]:
    """Self seconds per layer, entry-point call counts, and the total.

    A built-in function's self time is split over its callers by the
    per-caller times the profile records, and counted in each caller's
    layer.
    """
    self_s = dict.fromkeys(SHARES, 0.0)
    counts: Dict[str, int] = {}
    names: Dict = {}
    layer_cache: Dict[str, str] = {}

    def layer_for(filename: str) -> str:
        if filename not in layer_cache:
            layer_cache[filename] = layer_of(_module_of(filename))
        return layer_cache[filename]

    total = 0.0
    for (filename, lineno, funcname), (_cc, nc, tt, _ct, callers) \
            in stats.stats.items():
        total += tt
        if filename == "~":
            for (cfile, _cl, _cf), edge in callers.items():
                self_s[layer_for(cfile)] += edge[2]
            # Self time of a built-in entered from no profiled caller.
            self_s["other"] += tt - sum(e[2] for e in callers.values())
            continue
        self_s[layer_for(filename)] += tt
        module = _module_of(filename)
        if module is None:
            continue
        key = CALL_COUNTS.get((module, _qualname(module, lineno, funcname,
                                                 names)))
        if key is not None:
            counts[key] = counts.get(key, 0) + nc
    return self_s, counts, total


class SpanLog:
    """Simulated-time spans around the wrapped generator entry points."""

    def __init__(self, sim):
        self.sim = sim
        self.spans: List[list] = []     # [name, start, end, parent]
        self._stacks: Dict[int, List[int]] = {}
        self._saved: List[Tuple[type, str, object]] = []

    def _wrap(self, name: str, method):
        log = self

        def wrapper(*args, **kwargs):
            sim = log.sim
            stack = log._stacks.setdefault(id(sim.active_process), [])
            index = len(log.spans)
            log.spans.append([name, sim.now, None,
                              stack[-1] if stack else None])
            stack.append(index)
            try:
                result = yield from method(*args, **kwargs)
            finally:
                stack.pop()
                log.spans[index][2] = sim.now
            return result

        return wrapper

    def install(self) -> None:
        import importlib
        for (module, cls_name, method), name in SPANNED.items():
            cls = getattr(importlib.import_module(module), cls_name)
            original = vars(cls)[method]
            self._saved.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original))

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved.clear()

    def summary(self) -> Dict[str, Tuple[int, float]]:
        """Span name -> (count, mean simulated seconds)."""
        totals: Dict[str, List[float]] = {}
        for name, start, end, _parent in self.spans:
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += end - start
        return {name: (int(n), s / n) for name, (n, s) in totals.items()}


def profiled_rep(workloads, name: str, seed: int, horizon):
    """One sliced run under cProfile and the span wrappers.

    The profiler is off while calibrating. Returns the run, the host
    and calibrated seconds, the stats and the span log.
    """
    run = workloads.build(name, seed, horizon)
    spans = SpanLog(run.sim)
    profiler = cProfile.Profile()
    host = calibrated = 0.0
    spans.install()
    try:
        run.start()
        mark = time.perf_counter()
        profiler.enable()

        def between():
            nonlocal host, calibrated, mark
            profiler.disable()
            dt = time.perf_counter() - mark
            host += dt
            calibrated += harness.calibrated(dt, harness.calibrate())
            mark = time.perf_counter()
            profiler.enable()

        run.run_sliced(harness.SLICE_S, between)
        profiler.disable()
    finally:
        profiler.disable()
        spans.uninstall()
    return run, host, calibrated, pstats.Stats(profiler), spans


def retained_by_layer(by_file: Dict[str, int]) -> Dict[str, int]:
    """A memory probe's retained bytes, grouped by allocating layer."""
    by_layer = dict.fromkeys(SHARES, 0)
    for filename, size in by_file.items():
        by_layer[layer_of(_module_of(filename))] += size
    return by_layer


def measure(name: str, seed: int, seconds: float, horizon=None) -> dict:
    """The per-layer metrics of one workload and seed."""
    import workloads
    untraced = harness.timed_reps(workloads, name, seed, horizon, seconds)
    run, host_s, cal_s, stats, spans = profiled_rep(workloads, name, seed,
                                                    horizon)
    outcome = harness.finished(run)
    harness.check_digests(name, seed, run.horizon, [run.digest()])
    mem = harness.probe("memory", name, seed,
                        run.horizon * harness.RETAINED_SHARE)
    harness.check_digests(name, seed, mem["horizon"], [mem["digest"]])
    retained = retained_by_layer(mem["by_file"])
    mem_requests = mem["offered"]

    self_s, calls, total_s = profile_shares(stats)
    if abs(sum(self_s.values()) - total_s) > 1e-6 * max(total_s, 1.0):
        raise harness.CheckFailed(
            f"layer self times sum to {sum(self_s.values())}, not the "
            f"profiled total {total_s}")
    span_stats = spans.summary()
    offered = outcome["offered"]
    cloud = run.cloud
    counters = cloud.metrics.counters()

    def per_request(value: float) -> float:
        return value / offered

    def span_count(span: str) -> int:
        return span_stats.get(span, (0, 0.0))[0]

    def span_ms(span: str) -> float:
        return span_stats.get(span, (0, 0.0))[1] * 1e3

    pools = list(cloud.scheduler._pools.values())
    cold = sum(p.cold_starts for p in pools)
    warm = sum(p.warm_hits for p in pools)
    hedges = counters.get("invoke.hedge.launched", 0.0)
    data = cloud.data
    cache_lookups = data.cache_hits + data.cache_misses
    gateway = cloud.gateway
    tracer = cloud.tracer
    histograms = cloud.metrics.histograms()
    samples = sum(h.get("count", 0) for key, h in histograms.items()
                  if "{" not in key)

    metrics = {}
    for layer in SHARES:
        metrics[f"{layer}.self_frac"] = (self_s[layer] / total_s, "fraction")
        metrics[f"{layer}.retained_kb_per_request"] = (
            retained[layer] / 1024 / mem_requests, "KB")
    counts = {
        "engine.events_per_request": per_request(outcome["events"]),
        "trace.spans_per_request": per_request(calls.get("trace.span_calls",
                                                         0)),
        "trace.records_per_request": per_request(len(tracer._records)),
        "metrics.calls_per_request": per_request(calls.get("metrics.calls",
                                                           0)),
        "metrics.samples_retained_per_request": per_request(samples),
        "attribution.roots_per_request": per_request(
            calls.get("attribution.roots", 0)),
        "scheduler.attempts_per_request": per_request(
            span_count("scheduler.attempt")),
        "scheduler.hedge_launch_frac": per_request(hedges),
        "scheduler.hedge_win_frac": (
            counters.get("invoke.hedge.won", 0.0) / hedges
            if hedges else 0.0),
        "scheduler.history_per_request": per_request(
            len(cloud.scheduler.history)),
        "warmpool.cold_start_frac": cold / (cold + warm) if cold + warm
        else 0.0,
        "network.transfers_per_request": per_request(
            span_count("network.transfer")),
        "network.bytes_per_request": per_request(
            counters.get("network.bytes", 0.0)
            + counters.get("network.local_bytes", 0.0)),
        "storage.reads_per_request": per_request(span_count("storage.read")),
        "storage.writes_per_request": per_request(
            span_count("storage.write")),
        "storage.cache_hit_frac": data.cache_hits / cache_lookups
        if cache_lookups else 0.0,
        "gateway.admitted_frac": per_request(getattr(gateway, "admitted",
                                                     0)),
        "gateway.shed_frac": per_request(getattr(gateway, "shed", 0)),
        "gateway.throttled_frac": per_request(getattr(gateway, "throttled",
                                                      0)),
        "health.heartbeats_per_request": per_request(
            calls.get("health.heartbeats", 0)),
    }
    for key, value in counts.items():
        unit = "fraction" if key.endswith("_frac") else (
            "B" if key.startswith("network.bytes") else "count")
        metrics[key] = (value, unit)
    metrics["health.breaker_opens"] = (calls.get("health.breaker_opens", 0),
                                       "count")
    for key, span in (("warmpool.sim_wait_ms", "warmpool.acquire"),
                      ("network.sim_transfer_ms", "network.transfer"),
                      ("gateway.sim_queue_ms", "gateway.queue")):
        metrics[key] = (span_ms(span), "ms")
    quorum = [span_stats[s] for s in ("storage.quorum_write",
                                      "storage.quorum_read")
              if s in span_stats]
    n_quorum = sum(n for n, _ in quorum)
    metrics["storage.quorum_sim_ms"] = (
        sum(n * mean for n, mean in quorum) / n_quorum * 1e3
        if n_quorum else 0.0, "ms")
    metrics["tracing_overhead"] = (
        cal_s / statistics.median(untraced["cal_s"]), "ratio")

    out = harness.OUT_DIR
    out.mkdir(exist_ok=True)
    (out / f"trace-{name}-seed{seed}.json").write_text(json.dumps({
        "workload": name, "seed": seed, "digest": untraced["digest"],
        "offered": offered,
        "self_seconds": self_s, "profiled_seconds": total_s,
        "calls": calls, "counters": counters,
        "span_fields": ["name", "start", "end", "parent"],
        "spans": spans.spans,
    }))
    print(f"# {name} seed={seed} digest={untraced['digest']} traced host "
          f"{host_s:.3f}s, untraced reps {len(untraced['cal_s'])}; spans "
          f"written to {out.name}/")
    return {"offered": offered, "metrics": metrics}
