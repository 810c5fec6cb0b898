"""The benchmark's three seeded workloads, driven through the public API.

Every workload is open-loop: arrivals fire on their own clock
(:class:`repro.workloads.arrivals.OpenLoopDriver`) whatever the system
does, so a slow configuration receives the same offered schedule as a
fast one. The seed is the only input; the program receives nothing but
the generated requests.

* ``invoke-bare`` — a heterogeneous :class:`TenantMix` of Poisson,
  bursty and diurnal tenants invoking three functions (a WASM and a
  container impl each) with a per-request deadline, on a bare
  :class:`PCSICloud`.
* ``invoke-allplanes`` — the identical offered schedule with tracing,
  EMA attribution, the p99 objective, adaptive hedging, an
  :class:`AdmissionGateway`, the health plane and queue-depth
  autoscaling all on.
* ``data-plane`` — Zipf-skewed ``op_read``/``op_write`` traffic (about a
  third writes, of log-normal sizes) over linearizable and eventual
  objects plus IMMUTABLE objects the per-node read cache serves. No
  function is invoked.

A :class:`Run` is advanced with ``advance(until)``, which only calls
``Simulator.run(until=...)``: slicing adds no events, so a sliced run
and an unsliced one reach the same outcome (``perfbench/tests`` pins
that). ``outcome()`` returns the exact simulated results and
``digest()`` a fingerprint of them.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, Generator, List

from repro.cluster.resources import cpu_task, server_node
from repro.cluster.topology import build_cluster
from repro.core.functions import FunctionImpl
from repro.core.mutability import Mutability
from repro.core.objects import Consistency
from repro.core.retry import RetryPolicy
from repro.core.system import PCSICloud
from repro.faas.platforms import CONTAINER, WASM
from repro.net.gateway import GatewayConfig, ShedError, ThrottledError
from repro.net.marshal import SizedPayload
from repro.sim.deadline import DeadlineExceededError
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStream
from repro.workloads.arrivals import OpenLoopDriver, TenantMix
from repro.workloads.kv import KVWorkload, KVWorkloadConfig
from repro.workloads.zipf import ZipfKeys

#: Simulated seconds of offered traffic in one run of each workload.
HORIZON = {"invoke-bare": 30.0, "invoke-allplanes": 30.0,
           "data-plane": 20.0}

# -- invoke workloads ------------------------------------------------------
TENANTS = 24
#: Mean offered rate per tenant (req/s); bursty tenants peak at 2x.
TENANT_RATE = 9.0
#: Burst and diurnal period of the tenant mix (simulated seconds).
MIX_PERIOD = 8.0
#: Seed of the tenant mix's shape, which every run shares.
MIX_SEED = 2021
#: Relative deadline of every invoke (simulated seconds).
DEADLINE = 2.0
#: (function, work ops of the WASM impl, work ops of the container impl).
FUNCTIONS = (("resize", 2.5e9, 2.0e9), ("score", 4e9, 3.2e9),
             ("thumb", 1.5e9, 1.2e9))
#: Each request scales its function's work by a log-normal factor
#: (median 1) drawn from the seed, so service times are continuous.
WORK_SIGMA = 0.3

# -- data-plane workload ---------------------------------------------------
CLIENTS = 16
CLIENT_RATE = 20.0
KV_OBJECTS = 96
IMMUTABLE_OBJECTS = 48
#: Median object size; each write and each IMMUTABLE object draws its
#: size from a log-normal around it, so transfer times, and with them
#: the latency percentiles, are continuous rather than a few fixed
#: network round trips.
VALUE_NBYTES = 4096
SIZE_SIGMA = 1.0
#: Share of operations that read an IMMUTABLE object (cache-servable).
IMMUTABLE_SHARE = 0.4
#: Read share of the remaining (mutable-object) operations; with the
#: immutable reads this makes about a third of all operations writes.
KV_READ_FRACTION = 0.45

OUTCOMES = ("ok", "deadline", "shed", "throttled", "error")


class Run:
    """One seeded run of a workload: a cloud, its traffic, its tally."""

    def __init__(self, workload: str, cloud: PCSICloud,
                 driver: OpenLoopDriver,
                 make_request: Callable[[str, int], Generator]):
        self.workload = workload
        self.cloud = cloud
        self.sim = cloud.sim
        self.driver = driver
        self.tally: Dict[str, int] = dict.fromkeys(OUTCOMES, 0)
        self.errors: Dict[str, int] = {}
        #: Simulated latency of every successful request, in finish order.
        self.latencies: List[float] = []
        self._make_request = make_request
        self._started = False

    @property
    def horizon(self) -> float:
        return self.driver.horizon

    def start(self) -> None:
        """Arm the arrival processes (no simulated time passes)."""
        tally, errors, latencies = self.tally, self.errors, self.latencies
        make_request = self._make_request
        sim = self.sim

        def tracked(tenant: str, i: int) -> Generator:
            start = sim.now
            try:
                yield from make_request(tenant, i)
            except DeadlineExceededError:
                tally["deadline"] += 1
                raise
            except ShedError:
                tally["shed"] += 1
                raise
            except ThrottledError:
                tally["throttled"] += 1
                raise
            except Exception as exc:
                tally["error"] += 1
                name = type(exc).__name__
                errors[name] = errors.get(name, 0) + 1
                raise
            tally["ok"] += 1
            latencies.append(sim.now - start)

        self.driver.start(tracked)
        self._started = True

    def advance(self, until=None) -> None:
        """Advance simulated time to ``until`` (None: until drained)."""
        if not self._started:
            self.start()
        self.sim.run(until=until)

    def run_sliced(self, slice_s: float,
                   between: Callable[[], None] = lambda: None) -> None:
        """The whole run in ``slice_s`` slices, calling ``between``
        after each; the last slice drains the schedule."""
        t = 0.0
        while t < self.horizon:
            t = min(t + slice_s, self.horizon)
            self.advance(t)
            between()
        self.advance(None)
        between()

    def outcome(self) -> Dict:
        """Exact simulated results: counts, latencies, event totals."""
        d = self.driver
        lat = d.latencies
        return {
            "workload": self.workload,
            "offered": d.offered,
            "completed": d.completed,
            "failed": d.failed,
            "in_flight": d.in_flight,
            "tally": dict(self.tally),
            "errors": dict(sorted(self.errors.items())),
            "events": self.sim._seq,
            "end_time": self.sim.now,
            "latency_sum": lat.total if lat.count else 0.0,
            "p50": lat.p50 if lat.count else None,
            "p99": lat.p99 if lat.count else None,
        }

    def digest(self) -> str:
        """A 16-hex fingerprint of the outcome and every latency."""
        doc = self.outcome()
        doc["latencies"] = self.latencies
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _invoke_cluster(sim: Simulator):
    # 14 four-CPU nodes = 56 one-CPU sandboxes: enough for the mean
    # load (about 26 busy), too few for the largest staggered burst
    # peaks, which queue on the warm pools and force cold starts. On 32
    # sandboxes queue-depth autoscaling starves whole pools into
    # PlacementFailedError; on 48 the p99 swings with the seed.
    return build_cluster(sim, racks=2, nodes_per_rack=7,
                         gpu_nodes_per_rack=0,
                         node_capacity=server_node(cpus=4, memory_gb=16))


def _body(ctx) -> Generator:
    yield from ctx.compute(ctx.impl.work_ops * ctx.request["scale"])
    return None


def _define_functions(cloud: PCSICloud) -> List:
    return [cloud.define_function(name, body=_body, impls=[
        FunctionImpl("wasm", WASM, cpu_task(cpus=1, memory_gb=1),
                     work_ops=wasm_ops),
        FunctionImpl("container", CONTAINER, cpu_task(cpus=1, memory_gb=1),
                     work_ops=container_ops)])
        for name, wasm_ops, container_ops in FUNCTIONS]


def _tenant_mix() -> TenantMix:
    # The mix's shape (each tenant's pattern and phase) is part of the
    # workload's definition and fixed; the seed draws the arrivals.
    return TenantMix.seeded(TENANTS, TENANT_RATE,
                            RandomStream(MIX_SEED, "perfbench-mix"),
                            period=MIX_PERIOD)


def build_invoke(seed: int, horizon: float, planes: bool) -> Run:
    sim = Simulator()
    kwargs = {}
    if planes:
        kwargs = dict(trace=True, observation_mode="ema", objective="p99",
                      health=True, autoscale="queue-depth",
                      admission=GatewayConfig(
                          rate_per_tenant=2.0 * TENANT_RATE, burst=12.0,
                          max_concurrency=40, max_queue=64,
                          default_estimate_s=0.05))
    cloud = PCSICloud(sim, seed=seed, topology=_invoke_cluster(sim),
                      data_replicas=1, **kwargs)
    fns = _define_functions(cloud)
    client = cloud.client_node()
    mix = _tenant_mix()
    tenant_fn = {t: fns[i % len(fns)] for i, t in enumerate(mix.tenants)}
    driver = OpenLoopDriver(sim, RandomStream(seed, "perfbench-arrivals"),
                            mix, horizon)
    work = RandomStream(seed, "perfbench-work")

    def request() -> dict:
        return {"scale": work.lognormal(1.0, WORK_SIGMA)}

    if planes:
        retry = RetryPolicy(hedge_delay=0.25, hedge_mode="adaptive",
                            hedge_quantile=95.0)
        gateway = cloud.gateway

        def make_request(tenant: str, _i: int) -> Generator:
            yield from gateway.submit(client, tenant_fn[tenant],
                                      request=request(), tenant=tenant,
                                      deadline=DEADLINE, retry=retry)
    else:
        def make_request(tenant: str, _i: int) -> Generator:
            yield from cloud.invoke(client, tenant_fn[tenant],
                                    request=request(), deadline=DEADLINE)

    return Run("invoke-allplanes" if planes else "invoke-bare", cloud,
               driver, make_request)


def build_data_plane(seed: int, horizon: float) -> Run:
    sim = Simulator()
    cloud = PCSICloud(sim, seed=seed)
    rng = RandomStream(seed, "perfbench-data")
    kv = KVWorkload(cloud, rng.fork("kv"), KVWorkloadConfig(
        n_objects=KV_OBJECTS, value_nbytes=VALUE_NBYTES, strong_fraction=0.5))
    sizes = rng.fork("sizes")

    def value() -> SizedPayload:
        return SizedPayload(round(sizes.lognormal(VALUE_NBYTES, SIZE_SIGMA)))

    frozen_keys = ZipfKeys(rng.fork("immutable"), IMMUTABLE_OBJECTS)
    frozen = {}
    for key in frozen_keys.all_keys():
        ref = cloud.create_object(mutability=Mutability.IMMUTABLE,
                                  consistency=Consistency.EVENTUAL)
        cloud.preload(ref, value())
        frozen[key] = ref
    nodes = [n.node_id for n in cloud.topology.nodes]
    mix = TenantMix.seeded(CLIENTS, CLIENT_RATE,
                           RandomStream(MIX_SEED, "perfbench-clients"),
                           period=MIX_PERIOD, prefix="client")
    client_node = {t: nodes[(3 * i) % len(nodes)]
                   for i, t in enumerate(mix.tenants)}
    pick = rng.fork("pick")
    driver = OpenLoopDriver(sim, rng.fork("arrivals"), mix, horizon)

    def make_request(tenant: str, _i: int) -> Generator:
        node = client_node[tenant]
        if pick.bernoulli(IMMUTABLE_SHARE):
            yield from cloud.op_read(node, frozen[frozen_keys.sample()])
        elif pick.bernoulli(KV_READ_FRACTION):
            yield from cloud.op_read(node, kv.objects[kv.keys.sample()])
        else:
            yield from cloud.op_write(node, kv.objects[kv.keys.sample()],
                                      value())

    return Run("data-plane", cloud, driver, make_request)


BUILDERS: Dict[str, Callable[[int, float], Run]] = {
    "invoke-bare": lambda seed, h: build_invoke(seed, h, planes=False),
    "invoke-allplanes": lambda seed, h: build_invoke(seed, h, planes=True),
    "data-plane": build_data_plane,
}


def build(workload: str, seed: int, horizon: float = None) -> Run:
    """A fresh, un-started run of ``workload`` for ``seed``."""
    if workload not in BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {sorted(BUILDERS)}")
    return BUILDERS[workload](seed, HORIZON[workload]
                              if horizon is None else horizon)
