"""Reproducible performance baseline for the simulator hot path.

Measures, on fixed-seed workloads:

- ``event_core``   — raw heap push/pop throughput of the tuple-entry
  :class:`~repro.sim.events.EventQueue`, compared against a vendored copy
  of the seed's ``@dataclass(order=True)`` heap (the speedup ratio is the
  number the acceptance bar tracks);
- ``event_loop``   — events/sec through a full :class:`Simulator` run,
  including timer re-arm churn so heap compaction is exercised;
- ``packet_forwarding`` — simulated packets/sec (and packet-hops/sec) of
  wall time through the full switch pipeline on a 3-switch linear topology;
- ``tpp_exec``     — TPP executions/sec and instructions/sec on a bare
  TCPU + MMU, compiled fast path vs the reference interpreter (the
  speedup ratio is measured, not asserted);
- ``tpp_exec_cached`` — the warm-cache steady state: one pre-built TPP
  re-executed with its state reset, isolating per-execution cost with
  zero per-iteration build cost;
- ``tpp_exec_verified`` — the same steady state with a verifier
  certificate installed (:meth:`repro.core.tcpu.TCPU.trust`), so the
  per-instruction bounds checks are elided; the speedup over the
  uncertified warm-cache run is the verified fast path's measured win;
- ``fleet_scale`` — the sharded fleet driver at 1 vs 4 shards on one
  fixed ring of regions: modeled-critical-path packets/s and flows/s,
  the speedup sharding buys, and a 0/1 bit-identical flag asserting the
  determinism fingerprints matched (v5 addition).

v8 retired the three batched workloads of v4/v6/v7
(``tpp_exec_batched``, ``tpp_exec_batched_write``, ``tpp_exec_sketch``)
together with the numpy vector lanes they measured.

``tools/run_bench.py`` drives :func:`run_all` and emits
``BENCH_simcore.json`` so every future PR's perf delta is visible.  The
module is import-light on purpose: no pytest dependency, deterministic
workloads, wall-clock timing via ``time.perf_counter``.
"""

from __future__ import annotations

import gc
import heapq
import math
import random
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Callable, Dict, Tuple

from repro import units
from repro.core.assembler import assemble
from repro.core.mmu import MMU, ExecutionContext
from repro.core.tcpu import TCPU
from repro.asic.metadata import PacketMetadata
from repro.net.routing import install_shortest_path_routes
from repro.net.topology import TopologyBuilder
from repro.sim.events import EventQueue
from repro.sim.simulator import Simulator
from repro.sim.timers import OneShotTimer

SCHEMA = "simcore-bench/v8"
DEFAULT_SEED = 20260806


# --------------------------------------------------------------------- #
# Vendored seed event core (the "before" of the tentpole) — kept here so
# the speedup claim is measured, not asserted.
# --------------------------------------------------------------------- #

@dataclass(order=True)
class _LegacyEvent:
    time_ns: int
    sequence: int
    callback: Callable[..., None] = field(compare=False)
    args: Tuple[Any, ...] = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)


class _LegacyEventQueue:
    """The seed's ``@dataclass(order=True)`` min-heap, verbatim semantics."""

    def __init__(self) -> None:
        self._heap: list = []
        self._sequence = 0

    def push(self, time_ns, callback, args=()):
        event = _LegacyEvent(time_ns, self._sequence, callback, args)
        self._sequence += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self):
        while self._heap:
            event = heapq.heappop(self._heap)
            if not event.cancelled:
                return event
        return None


# --------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------- #

#: ``_timed`` repetitions; the best (minimum) elapsed time is kept, the
#: standard defence against co-tenant scheduling noise (same rationale
#: as ``timeit.repeat``: slowdowns are never the code's true speed).
TIMING_REPEATS = 3


def _timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    # GC is paused during the measured region (as ``timeit`` does): a
    # collection landing inside one repetition measures the collector's
    # schedule, not the workload.
    best = math.inf
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(TIMING_REPEATS):
            start = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return result, best


def bench_event_core(n_events: int = 100_000,
                     seed: int = DEFAULT_SEED) -> Dict[str, Any]:
    """Heap push/pop throughput: new tuple-entry core vs seed dataclass heap.

    Same pre-generated random event times for both, so the only variable
    is the heap-entry representation.
    """
    rng = random.Random(seed)
    times = [rng.randrange(1_000_000_000) for _ in range(n_events)]
    callback = lambda: None  # noqa: E731 - intentionally trivial

    def drive_new() -> int:
        queue = EventQueue()
        for t in times:
            queue.push(t, callback)
        popped = 0
        while queue.pop() is not None:
            popped += 1
        return popped

    def drive_legacy() -> int:
        queue = _LegacyEventQueue()
        for t in times:
            queue.push(t, callback)
        popped = 0
        while queue.pop() is not None:
            popped += 1
        return popped

    # Warm up once each (allocator, code caches), then measure.
    drive_new(), drive_legacy()
    popped_new, elapsed_new = _timed(drive_new)
    popped_legacy, elapsed_legacy = _timed(drive_legacy)
    assert popped_new == popped_legacy == n_events

    events_per_sec = n_events / elapsed_new
    legacy_per_sec = n_events / elapsed_legacy
    return {
        "n_events": n_events,
        "seed": seed,
        "events_per_sec": events_per_sec,
        "legacy_events_per_sec": legacy_per_sec,
        "speedup_vs_dataclass_heap": events_per_sec / legacy_per_sec,
    }


def bench_event_loop(n_events: int = 200_000,
                     seed: int = DEFAULT_SEED) -> Dict[str, Any]:
    """Events/sec through Simulator.run with timer re-arm churn.

    Every tick re-arms a one-shot timer (retransmission-style), so half
    the scheduled events are cancelled stragglers and the compaction path
    is part of what is being measured.
    """
    def drive() -> Tuple[int, int]:
        sim = Simulator()
        rng = random.Random(seed)
        count = [0]
        rto = OneShotTimer(sim, lambda: None)

        def tick() -> None:
            count[0] += 1
            rto.start(1_000_000)  # re-arm: cancels the previous arming
            if count[0] < n_events:
                sim.schedule(rng.randrange(1, 100), tick)
            else:
                rto.cancel()

        sim.schedule(0, tick)
        sim.run()
        return count[0], sim.events_processed

    drive()  # warm-up
    (ticks, processed), elapsed = _timed(drive)
    assert ticks == n_events
    return {
        "n_events": n_events,
        "seed": seed,
        "events_processed": processed,
        "events_per_sec": processed / elapsed,
    }


def bench_packet_forwarding(n_switches: int = 3,
                            duration_s: float = 0.02,
                            rate_mbps: int = 800) -> Dict[str, Any]:
    """Simulated packets/sec of wall time through the full pipeline."""
    from repro.endhost.flows import Flow, FlowSink

    def drive() -> int:
        builder = TopologyBuilder(rate_bps=units.GIGABITS_PER_SEC,
                                  trace_enabled=False)
        net = builder.linear(n_switches=n_switches)
        install_shortest_path_routes(net)
        h0, h1 = net.host("h0"), net.host("h1")
        sink = FlowSink(h1, 99)
        flow = Flow(h0, h1, h1.mac, 99,
                    rate_bps=rate_mbps * units.MEGABITS_PER_SEC)
        flow.start()
        net.run(until_seconds=duration_s)
        return sink.packets_received

    drive()  # warm-up
    received, elapsed = _timed(drive)
    return {
        "n_switches": n_switches,
        "sim_duration_s": duration_s,
        "packets_received": received,
        "packets_per_sec_wall": received / elapsed,
        "packet_hops_per_sec_wall": received * n_switches / elapsed,
    }


class _FakeQueue:
    occupancy_bytes = 500


class _FakePort:
    index = 0
    queue = _FakeQueue()


def _bench_mmu() -> MMU:
    mmu = MMU(name="bench")
    mmu.bind_reader("Switch:SwitchID", lambda ctx: 7)
    mmu.bind_reader("Queue:QueueSize",
                    lambda ctx: ctx.queue.occupancy_bytes)
    return mmu


_BENCH_SOURCE = """
    PUSH [Switch:SwitchID]
    PUSH [Queue:QueueSize]
"""


def bench_tpp_exec(n_executions: int = 50_000) -> Dict[str, Any]:
    """TPP executions/sec on a bare TCPU: fast path vs interpreter.

    Each iteration rebuilds the TPP section and execution context, as the
    switch pipeline does per packet — so this includes the per-packet
    setup cost, and the compiled/interpreted ratio is measured on the
    same workload rather than asserted.
    """
    mmu = _bench_mmu()
    # The primary TCPU follows REPRO_TPP_FASTPATH so a --no-fastpath
    # bench run measures the interpreter end to end (speedup ~1.0x).
    tcpu = TCPU(mmu)
    interp = TCPU(mmu, compile=False)
    program = assemble(_BENCH_SOURCE, hops=1)

    def drive(cpu: TCPU) -> int:
        executed = 0
        for _ in range(n_executions):
            tpp = program.build()
            ctx = ExecutionContext(metadata=PacketMetadata(),
                                   egress_port=_FakePort(), time_ns=1000)
            report = cpu.execute(tpp, ctx)
            executed += report.executed
        return executed

    drive(tcpu)  # warm-up (also compiles + caches the program)
    executed, elapsed = _timed(lambda: drive(tcpu))
    drive(interp)  # warm-up
    interp_executed, interp_elapsed = _timed(lambda: drive(interp))
    assert executed == interp_executed
    execs_per_sec = n_executions / elapsed
    interp_per_sec = n_executions / interp_elapsed
    return {
        "n_executions": n_executions,
        "instructions_executed": executed,
        "tpp_execs_per_sec": execs_per_sec,
        "instructions_per_sec": executed / elapsed,
        "interp_execs_per_sec": interp_per_sec,
        "speedup_vs_interpreter": execs_per_sec / interp_per_sec,
    }


def bench_tpp_exec_cached(n_executions: int = 50_000) -> Dict[str, Any]:
    """Warm-cache steady state: one pre-built TPP, state reset per run.

    Execute-many in its purest form — the program is compiled once and
    every subsequent execution must hit the cache, so this isolates the
    per-execution cost of the compiled closures themselves.  The cache
    hit/miss counters are exported so a report can *prove* the cache
    stayed warm instead of assuming it.
    """
    mmu = _bench_mmu()
    tcpu = TCPU(mmu)
    program = assemble(_BENCH_SOURCE, hops=1)
    tpp = program.build()
    initial_memory = bytes(tpp.memory)
    initial_hop_or_sp = tpp.hop_or_sp
    initial_flags = tpp.flags
    ctx = ExecutionContext(metadata=PacketMetadata(),
                           egress_port=_FakePort(), time_ns=1000)

    def drive() -> int:
        executed = 0
        for _ in range(n_executions):
            tpp.hop_or_sp = initial_hop_or_sp
            tpp.flags = initial_flags
            tpp.memory[:] = initial_memory
            report = tcpu.execute(tpp, ctx)
            executed += report.executed
        return executed

    drive()  # warm-up
    executed, elapsed = _timed(drive)
    cache = tcpu.cache.stats()
    return {
        "n_executions": n_executions,
        "instructions_executed": executed,
        "tpp_execs_per_sec": n_executions / elapsed,
        "instructions_per_sec": executed / elapsed,
        "cache_hits": cache["hits"],
        "cache_misses": cache["misses"],
    }


#: The verified workload runs a longer, denser program than the other
#: TPP benches: the certificate elides *per-instruction* bounds checks
#: and loop bookkeeping, so the win scales with instruction count while
#: the per-execution fixed cost (report, hop advance) does not.  12
#: instructions needs a raised per-TPP limit (the paper's default is 5).
_VERIFIED_BENCH_SOURCE = """
    PUSH [Switch:SwitchID]
    PUSH [Queue:QueueSize]
    LOAD [Switch:SwitchID], [Packet:2]
    LOAD [Queue:QueueSize], [Packet:3]
    ADD [Packet:2], [Queue:QueueSize]
    ADD [Packet:3], [Switch:SwitchID]
    MIN [Packet:2], [Queue:QueueSize]
    MAX [Packet:3], [Switch:SwitchID]
    PUSH [Switch:SwitchID]
    PUSH [Queue:QueueSize]
    ADD [Packet:2], [Queue:QueueSize]
    XOR [Packet:3], [Switch:SwitchID]
"""

_VERIFIED_BENCH_MAX_INSTRUCTIONS = 16


def bench_tpp_exec_verified(n_executions: int = 50_000) -> Dict[str, Any]:
    """Warm-cache steady state with a verifier certificate installed.

    Same reset-and-rerun harness as :func:`bench_tpp_exec_cached`, but
    the program is statically verified first and its certificate handed
    to the TCPU (:meth:`~repro.core.tcpu.TCPU.trust`), so executions run
    the check-elided closures.  A second, certificate-less TCPU runs the
    same loop as the control; the ratio is the verified fast path's
    measured win.  ``verified_executions`` is exported so a report can
    *prove* the guard matched on every iteration instead of assuming it.
    """
    from repro.core.memory_map import MemoryMap
    from repro.core.verifier import verify_program

    mmu = _bench_mmu()
    tcpu = TCPU(mmu, max_instructions=_VERIFIED_BENCH_MAX_INSTRUCTIONS)
    control = TCPU(mmu, max_instructions=_VERIFIED_BENCH_MAX_INSTRUCTIONS)
    program = assemble(_VERIFIED_BENCH_SOURCE, hops=1)
    result = verify_program(
        program, memory_map=MemoryMap.standard(),
        max_instructions=_VERIFIED_BENCH_MAX_INSTRUCTIONS)
    certificate = result.raise_on_error().certificate
    if certificate is not None:
        tcpu.trust(certificate)
    tpp = program.build()
    initial_memory = bytes(tpp.memory)
    initial_hop_or_sp = tpp.hop_or_sp
    initial_flags = tpp.flags
    ctx = ExecutionContext(metadata=PacketMetadata(),
                           egress_port=_FakePort(), time_ns=1000)

    def drive(cpu: TCPU) -> int:
        executed = 0
        for _ in range(n_executions):
            tpp.hop_or_sp = initial_hop_or_sp
            tpp.flags = initial_flags
            tpp.memory[:] = initial_memory
            report = cpu.execute(tpp, ctx)
            executed += report.executed
        return executed

    drive(tcpu)  # warm-up (compiles both closure sets)
    executed, elapsed = _timed(lambda: drive(tcpu))
    drive(control)  # warm-up
    control_executed, control_elapsed = _timed(lambda: drive(control))
    assert executed == control_executed
    execs_per_sec = n_executions / elapsed
    control_per_sec = n_executions / control_elapsed
    return {
        "n_executions": n_executions,
        "instructions_executed": executed,
        "tpp_execs_per_sec": execs_per_sec,
        "instructions_per_sec": executed / elapsed,
        "unverified_execs_per_sec": control_per_sec,
        "speedup_vs_unverified": execs_per_sec / control_per_sec,
        "verified_executions": tcpu.verified_executions,
    }


_BATCH_SIZE = 32


def bench_fleet_scale(probe_bursts: int = 3,
                      flows_per_probe: int = 250,
                      duration_ns: int = 2_000_000,
                      seed: int = DEFAULT_SEED) -> Dict[str, Any]:
    """Sharded fleet throughput: one fixed ring at 1 vs 4 shards.

    Reports the modeled-critical-path rates (per barrier round the
    slowest shard's busy time is what every other shard waits on, so
    the sum of per-round maxima is what an S-machine deployment would
    take even on this single-core box) and the speedup 4 shards buy
    over 1.  ``bit_identical`` is 1 only when both runs produced the
    same determinism fingerprint — a 0 here is a correctness failure,
    not a slow run, and trips the validator's positive-metric check.
    """
    from repro.fleet import fleet_specs, run_fleet

    specs = fleet_specs(4, switches=2, hosts_per_switch=2,
                        master_seed=seed, probe_bursts=probe_bursts,
                        probe_interval_ns=100_000,
                        flows_per_probe=flows_per_probe)
    # Warm-up: first-run one-time costs (imports, allocator growth,
    # bytecode caches) must not be billed to the 1-shard point.
    run_fleet(specs, duration_ns, shards=1)

    one = run_fleet(specs, duration_ns, shards=1)
    four = run_fleet(specs, duration_ns, shards=4)
    return {
        "n_regions": 4,
        "probe_bursts": probe_bursts,
        "flows_per_probe": flows_per_probe,
        "duration_ns": duration_ns,
        "logical_flows": four.counters["logical_flows"],
        "packets_switched": four.counters["packets_switched"],
        "boundary_messages": four.messages_exchanged,
        "verifications_saved": four.counters["verifications_saved"],
        "packets_per_sec_modeled": four.packets_per_modeled_second,
        "flows_per_sec_modeled": four.flows_per_modeled_second,
        "speedup_vs_one_shard": (four.packets_per_modeled_second
                                 / one.packets_per_modeled_second),
        "bit_identical": int(one.fingerprint() == four.fingerprint()),
    }


# --------------------------------------------------------------------- #
# Harness entry point
# --------------------------------------------------------------------- #

def run_all(quick: bool = False, seed: int = DEFAULT_SEED) -> Dict[str, Any]:
    """Run every workload; ``quick`` shrinks sizes for CI smoke runs."""
    scale = 10 if quick else 1
    workloads = {
        "event_core": bench_event_core(100_000 // scale, seed=seed),
        "event_loop": bench_event_loop(200_000 // scale, seed=seed),
        "packet_forwarding": bench_packet_forwarding(
            duration_s=0.02 / scale),
        "tpp_exec": bench_tpp_exec(50_000 // scale),
        "tpp_exec_cached": bench_tpp_exec_cached(50_000 // scale),
        "tpp_exec_verified": bench_tpp_exec_verified(50_000 // scale),
        "fleet_scale": bench_fleet_scale(
            probe_bursts=3 if quick else 10,
            flows_per_probe=250 if quick else 1_000,
            seed=seed),
    }
    now = time.time()
    return {
        "schema": SCHEMA,
        "quick": quick,
        "seed": seed,
        # Raw float for arithmetic, ISO-8601 UTC for humans and tooling
        # that should not have to guess the epoch/timezone (v2 addition).
        "timestamp": now,
        "timestamp_iso": datetime.fromtimestamp(
            now, tz=timezone.utc).isoformat(),
        "workloads": workloads,
    }
