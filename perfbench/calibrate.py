"""A fixed pure-Python workload that measures how fast this host runs
the interpreter right now.

Host timings on a shared virtual machine drift by a fifth between runs
of the same code: neighbours contend for the core, its caches and the
memory bus. The drift hits the simulator and any other pure-Python loop
alike, so the runner times :func:`calibration_seconds` between slices of
the simulation and reports host seconds in *calibrated* units,
``host_s * NOMINAL_S / calibration_s``: the drift cancels, a change to
the simulator does not.

The loop is a miniature discrete-event simulation — a binary heap of
``(time, seq, process)`` tuples, generator resumption, dict lookups and
pointer chasing over a working set of tens of megabytes — because a
small cache-resident loop slows down under contention far more than
the simulator does and over-corrects. It imports nothing from
``repro``, so no change to the program under test can move it. Its
state is built once and frozen out of the cyclic collector, so it adds
nothing to the collector's work during the simulation.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Calibration seconds a reference host takes for one loop; calibrated
#: seconds are host seconds scaled to such a host.
NOMINAL_S = 0.005
#: Entries in the working set the loop walks.
ENTRIES = 100_000
#: Generator "processes" of the loop, and events per loop.
PROCESSES = 600
STEPS = 2000


class _Entry:
    __slots__ = ("index", "value", "next")


class _State:
    """The loop's working set, built on first use."""

    def __init__(self):
        self.entries = []
        self.table = {}
        for i in range(ENTRIES):
            entry = _Entry()
            entry.index = i
            entry.value = float(i)
            self.entries.append(entry)
            self.table[f"key-{i}"] = entry
        self.keys = list(self.table)
        # A fixed permutation (the stride is prime to ENTRIES) links
        # each entry to one far away in memory.
        for i, entry in enumerate(self.entries):
            entry.next = self.entries[(i * 7919 + 4409) % ENTRIES]
        self.processes = [self._process(pid) for pid in range(PROCESSES)]
        gc.freeze()

    def _process(self, pid):
        table, keys, n = self.table, self.keys, ENTRIES
        x = pid * 2654435761 % 4294967296
        history = []
        entry = self.entries[pid]
        while True:
            x = (x * 1103515245 + 12345) % 2147483648
            hit = table[keys[x % n]]
            hit.value += 0.5
            entry = entry.next.next.next
            history.append((x, hit.value, entry.index))
            if len(history) > 16:
                history.pop(0)
            yield (x % 997) * 1e-3 + 1e-4


_state = None


def calibration_workload() -> float:
    """One pass of the fixed workload; returns the final virtual time."""
    global _state
    if _state is None:
        _state = _State()
    processes = _state.processes
    heap = [(0.0, i, processes[i]) for i in range(0, PROCESSES, 3)]
    heapq.heapify(heap)
    seq = PROCESSES
    now = 0.0
    for _ in range(STEPS):
        now, _seq, proc = heapq.heappop(heap)
        seq += 1
        heapq.heappush(heap, (now + next(proc), seq, proc))
    return now


def calibration_seconds() -> float:
    """Host seconds one pass of the fixed workload takes right now.

    The cyclic collector is paused meanwhile: the loop's allocations
    must not trigger a collection of the simulation's heap, whose size
    the program under test decides.
    """
    if _state is None:
        calibration_workload()
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        calibration_workload()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
