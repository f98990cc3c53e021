"""The four benchmark workloads, built on the public ``repro`` APIs.

Each workload is a closed batch job: :meth:`Workload.__init__` is the
set-up (topology, routes, control plane, program assembly, admission),
:meth:`Workload.simulate` runs a fixed simulated horizon, and
:meth:`Workload.analyze` is the end-host analysis of what came back.
:meth:`Workload.checks` and :meth:`Workload.outcome` run after the timed
region: the first turns simulated results into pass/fail correctness
checks, the second into the plain data the determinism digest hashes.

Every input is generated here from ``seed``; ``scale`` stretches the
simulated horizon (1.0 is the benchmark size, the self-test uses a
small fraction).
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Any, Dict, List, Tuple

from repro import units
from repro.analysis.convergence import jain_fairness
from repro.analysis.timeseries import TimeSeries
from repro.apps.microburst import (
    TELEMETRY_PROGRAM,
    BurstDetector,
    CoarsePoller,
    TelemetryStream,
)
from repro.apps.ndb import NdbCollector, NdbTagger, PathVerifier
from repro.apps.rcp import RCPStarFlow, RCPStarTask
from repro.asic.tables import TcamRule
from repro.control.agent import ControlPlaneAgent
from repro.control.security import VerifierPolicy
from repro.core import assemble
from repro.core.memory_map import MemoryMap
from repro.endhost.client import TPPEndpoint
from repro.endhost.flows import Flow, FlowSink
from repro.endhost.probes import PeriodicProber
from repro.net.routing import host_path, install_shortest_path_routes
from repro.net.topology import Network, TopologyBuilder
from repro.sim.timers import PeriodicTimer

Checks = List[Tuple[str, bool]]


def _series(series: TimeSeries) -> List[Tuple[int, float]]:
    return [(t, float(v)) for t, v in series.samples()]


def switch_counters(net: Network) -> Dict[str, Any]:
    """Per-switch pipeline, TCPU and queue counters (digest input)."""
    counters = {}
    for name, switch in sorted(net.switches.items()):
        counters[name] = {
            "switched": switch.packets_switched,
            "tpps": switch.tcpu.tpps_executed,
            "instructions": switch.tcpu.instructions_executed,
            "faults": switch.tcpu.faults,
            "stripped": switch.tpps_stripped,
            "ports": [(p.rx_frames, p.tx_frames,
                       p.queue.stats.packets_dropped,
                       p.queue.stats.peak_occupancy_bytes)
                      for p in switch.ports],
        }
    counters["events"] = net.sim.events_processed
    return counters


class Workload:
    """One seeded scenario; subclasses build it in ``__init__``."""

    name = ""
    #: Simulated horizon at ``scale == 1``.
    horizon_s = 0.0

    net: Network

    def __init__(self, seed: int, scale: float) -> None:
        self.horizon = self.horizon_s * scale
        self.rng = random.Random(f"{self.name}/{seed}")

    def simulate(self, fraction: float = 1.0) -> None:
        """Run the fixed simulated horizon, or up to ``fraction`` of it;
        consecutive calls with growing fractions compose into one run."""
        self.net.run(until_seconds=self.horizon * fraction)

    def analyze(self) -> Dict[str, Any]:
        """End-host analysis of the results (timed with the run)."""
        raise NotImplementedError

    def checks(self, result: Dict[str, Any]) -> Checks:
        """Correctness checks that hold for any seed."""
        raise NotImplementedError

    def outcome(self, result: Dict[str, Any]) -> Dict[str, Any]:
        """Simulated outcomes hashed into the determinism digest."""
        raise NotImplementedError


class Microburst(Workload):
    """§2.1: two bursty 1 Gb/s senders into a 100 Mb/s host, one monitor
    probing the queue every 100 µs, one 1 s control-plane poller."""

    name = "microburst"
    horizon_s = 1.2
    FAST = units.GIGABITS_PER_SEC
    SLOW = 100 * units.MEGABITS_PER_SEC
    SLOT_NS = units.milliseconds(25)
    #: A shallow egress buffer toward the slow host: long or colliding
    #: bursts overflow it, so the drop path runs too.
    BUFFER_BYTES = 64 * 1024
    #: No burst starts this long before a poll instant, so the 1 s
    #: poller's sample lands on a drained queue — the regime §2.1
    #: describes, where coarse polling sees nothing.
    QUIET_NS = units.milliseconds(40)
    DRAIN_NS = units.milliseconds(60)

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        net = self.net = Network(seed=seed)
        switch = self.switch = net.add_switch()
        for name in ("h0", "h1", "h2", "h3"):
            host = net.add_host(name)
            if name == "h2":
                net.link(host, switch, self.SLOW, delay_ns=5_000,
                         queue_capacity_bytes=self.BUFFER_BYTES)
            else:
                net.link(host, switch, self.FAST, delay_ns=5_000)
        install_shortest_path_routes(net)
        h0, h2 = net.host("h0"), net.host("h2")

        horizon_ns = units.seconds(self.horizon)
        FlowSink(h2, 99)
        for name in ("h1", "h3"):
            flow = Flow(net.host(name), h2, h2.mac, 99, rate_bps=0,
                        packet_bytes=1000)
            flow.start()
            for start, end in self._schedule(horizon_ns - self.DRAIN_NS):
                net.sim.schedule_at(start, flow.set_rate, self.FAST)
                net.sim.schedule_at(end, flow.set_rate, 0)

        self.stream = TelemetryStream(h0, h2.mac,
                                      interval_ns=units.microseconds(100))
        h2.tpp = TPPEndpoint(h2)
        self.stream.start(first_delay_ns=1)
        net.sim.schedule_at(horizon_ns - self.DRAIN_NS, self.stream.stop)

        port = next(p for p in switch.ports if p.link.name.endswith("h2"))
        self.coarse = CoarsePoller(net.sim, port,
                                   interval_ns=units.seconds(1))
        self.coarse.start()

    def _schedule(self, until_ns: int) -> List[Tuple[int, int]]:
        """One burst per 25 ms slot: seeded start, 200-600 µs long."""
        bursts = []
        for slot in range(0, until_ns - self.SLOT_NS + 1, self.SLOT_NS):
            start = slot + self.rng.randrange(
                0, self.SLOT_NS - units.milliseconds(1))
            length = self.rng.randrange(units.microseconds(200),
                                        units.microseconds(600))
            poll = (start // units.seconds(1) + 1) * units.seconds(1)
            if poll - start < self.QUIET_NS:
                start = poll + units.milliseconds(1)
            bursts.append((start, start + length))
        return bursts

    def analyze(self) -> Dict[str, Any]:
        series = self.stream.series_for(self.switch.switch_id)
        detector = BurstDetector(threshold_bytes=8_000)
        return {
            "series": series,
            "resampled": series.resample_mean(units.milliseconds(2)),
            "bursts": detector.detect(series),
            "coarse_bursts": detector.detect(self.coarse.series),
        }

    def checks(self, result: Dict[str, Any]) -> Checks:
        prober = self.stream.prober
        return [
            ("tpp_bursts_detected", len(result["bursts"]) >= 1),
            ("coarse_poller_blind", len(result["coarse_bursts"]) == 0),
            ("probes_answered_or_timed_out",
             prober.outstanding == 0
             and prober.probes_sent == (prober.results_received
                                        + prober.probes_timed_out)),
        ]

    def outcome(self, result: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "series": _series(result["series"]),
            "resampled": _series(result["resampled"]),
            "bursts": [(b.start_ns, b.end_ns, b.peak_bytes)
                       for b in result["bursts"]],
            "coarse": _series(self.coarse.series),
            "switches": switch_counters(self.net),
        }


class RcpStar(Workload):
    """§2.2, Fig. 2: three RCP* flows join a 10 Mb/s dumbbell one after
    another; collect, compute and CSTORE/CEXEC-update TPPs."""

    name = "rcp_star"
    horizon_s = 6.0
    CAPACITY = 10 * units.MEGABITS_PER_SEC
    #: Join times as shares of the horizon; the fairness window is the
    #: last third, which starts well after the last join.
    JOINS = (0.0, 0.25, 0.5)

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        builder = TopologyBuilder(seed=seed, rate_bps=10 * self.CAPACITY,
                                  delay_ns=units.milliseconds(1))
        net = self.net = builder.dumbbell(n_pairs=3,
                                          bottleneck_bps=self.CAPACITY)
        install_shortest_path_routes(net)
        for switch in net.switches.values():
            switch.start_stats(interval_ns=units.milliseconds(5))
        agent = ControlPlaneAgent(list(net.switches.values()),
                                  memory_map=MemoryMap.standard())
        self.task = RCPStarTask(agent)

        self.flows = []
        for index, share in enumerate(self.JOINS):
            flow = RCPStarFlow(self.task, index, net.host(f"h{index}"),
                               net.host(f"h{index + 3}"),
                               net.host(f"h{index + 3}").mac,
                               capacity_bps=self.CAPACITY, rtt_s=0.02,
                               max_hops=3)
            self.flows.append(flow)
            jitter = self.rng.randrange(0, units.milliseconds(50))
            net.sim.schedule(units.seconds(share * self.horizon) + jitter,
                             flow.start)

        self.bottleneck = net.switch("swL")
        self.ratio = TimeSeries("R/C")
        PeriodicTimer(net.sim, units.milliseconds(50), self._sample).start()

    def _sample(self) -> None:
        self.ratio.append(self.net.sim.now_ns,
                          self.task.rate_register_bps(self.bottleneck, 0)
                          / self.CAPACITY)

    def analyze(self) -> Dict[str, Any]:
        end = units.seconds(self.horizon)
        window = units.seconds(self.horizon / 3)
        goodputs = [flow.sink.goodput_bps(end - window, end)
                    for flow in self.flows]
        return {
            "goodputs": goodputs,
            "jain": jain_fairness(goodputs),
            "ratio": self.ratio.resample_mean(units.milliseconds(250)),
            "updates": sum(flow.updates_sent for flow in self.flows),
        }

    def checks(self, result: Dict[str, Any]) -> Checks:
        return [
            ("jain_fairness_ge_0.99", result["jain"] >= 0.99),
            ("rate_register_updates", result["updates"] > 0),
        ]

    def outcome(self, result: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "goodputs": result["goodputs"],
            "ratio": _series(result["ratio"]),
            "rates": [_series(flow.rate_series) for flow in self.flows],
            "updates": result["updates"],
            "switches": switch_counters(self.net),
        }


class NdbFabric(Workload):
    """§2.3: a traced 200 Mb/s flow across a k=2 fat-tree; a fat-finger
    TCAM rule detours it through the wrong spine part-way through."""

    name = "ndb_fabric"
    horizon_s = 0.2
    DRAIN_NS = units.milliseconds(1)

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        builder = TopologyBuilder(seed=seed, rate_bps=units.GIGABITS_PER_SEC,
                                  delay_ns=2_000)
        net = self.net = builder.fat_tree(k=2)
        install_shortest_path_routes(net)
        h0, h2 = net.host("h0"), net.host("h2")

        self.sink = FlowSink(h2, 99)
        self.collector = NdbCollector(h2)
        self.flow = Flow(h0, h2, h2.mac, 99,
                         rate_bps=200 * units.MEGABITS_PER_SEC,
                         packet_bytes=500)
        NdbTagger(hops=3).attach(self.flow)

        path = host_path(net, "h0", "h2")
        entries = {}
        for switch in net.switches.values():
            entry = switch.l2.entry_for(h2.mac)
            if entry is not None:
                entries[switch.switch_id] = (entry.entry_id, entry.version)
        self.verifier = PathVerifier(
            [net.switch(name).switch_id for name in path
             if name in net.switches], entries)

        self.leaf = net.switches[path[1]]
        wrong_spine = next(name for name in net.switches
                           if name.startswith("spine") and name != path[2])
        self.wrong_port = next(local for local, peer, _
                               in net.adjacency()[self.leaf.name]
                               if peer == wrong_spine)
        horizon_ns = units.seconds(self.horizon)
        self.fat_finger_ns = round(horizon_ns * self.rng.uniform(0.4, 0.6))
        net.sim.schedule_at(self.fat_finger_ns, self._fat_finger)
        self.flow.start()
        net.sim.schedule_at(horizon_ns - self.DRAIN_NS, self.flow.stop)

    def _fat_finger(self) -> None:
        self.leaf.install_tcam_rule(TcamRule(
            priority=99, out_port=self.wrong_port, dst_mac=self.sink.host.mac))

    def analyze(self) -> Dict[str, Any]:
        journeys = self.collector.journeys
        return {
            "violations": self.verifier.verify(journeys),
            "paths": Counter(tuple(j.switch_ids()) for j in journeys),
        }

    def checks(self, result: Dict[str, Any]) -> Checks:
        received = {j.frame_uid: j.received_at_ns
                    for j in self.collector.journeys}
        violations = result["violations"]
        early_wrong = [v for v in violations if v.kind == "wrong-path"
                       and received[v.frame_uid] < self.fat_finger_ns]
        culprit = [v for v in violations if v.kind == "unknown-rule"
                   and v.switch_id == self.leaf.switch_id
                   and received[v.frame_uid] >= self.fat_finger_ns]
        return [
            ("journey_per_delivered_packet",
             self.sink.packets_received > 0
             and len(self.collector.journeys)
             == self.sink.packets_received),
            ("no_wrong_path_before_rule", not early_wrong),
            ("culprit_rule_named", bool(culprit)),
        ]

    def outcome(self, result: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "journeys": [(j.frame_uid, j.received_at_ns,
                          [(h.switch_id, h.entry_id, h.entry_version,
                            h.input_port) for h in j.hops])
                         for j in self.collector.journeys],
            "violations": [(v.kind, v.frame_uid, v.switch_id)
                           for v in result["violations"]],
            "paths": sorted(result["paths"].items()),
            "switches": switch_counters(self.net),
        }


class ProbeIncast(Workload):
    """§2.1 + §4: eight tenant hosts on one leaf, behind a verifying
    edge, probe a collector behind the spine on a common 100 µs clock —
    eight same-program TPPs reach the leaf in the same nanosecond."""

    name = "probe_incast"
    horizon_s = 0.1
    TENANTS = 8
    INTERVAL_NS = units.microseconds(100)
    DRAIN_NS = units.milliseconds(2)

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        net = self.net = Network(seed=seed)
        leaf = self.leaf = net.add_switch("leaf")
        spine = net.add_switch("spine")
        collector = net.add_host("collector")
        net.link(leaf, spine, 10 * units.GIGABITS_PER_SEC,
                 delay_ns=1_000 + self.rng.randrange(0, 4_000))
        net.link(collector, spine, 10 * units.GIGABITS_PER_SEC,
                 delay_ns=1_000)
        tenants = []
        for index in range(self.TENANTS):
            host = net.add_host(f"t{index}")
            net.link(host, leaf, units.GIGABITS_PER_SEC, delay_ns=2_000)
            tenants.append(host)
        install_shortest_path_routes(net)

        self.policy = VerifierPolicy(untrusted_action="strip")
        for local_port, peer, _ in net.adjacency()["leaf"]:
            if peer.startswith("t"):
                self.policy.mark_untrusted("leaf", local_port)
        leaf.tpp_policy = self.policy
        collector.tpp = TPPEndpoint(collector)

        program = assemble(TELEMETRY_PROGRAM, hops=4)
        horizon_ns = units.seconds(self.horizon)
        phase = 1 + self.rng.randrange(0, self.INTERVAL_NS)
        self.results: List[Any] = []
        self.probers = []
        for host in tenants:
            host.tpp = TPPEndpoint(host)
            prober = PeriodicProber(host.tpp, program,
                                    self.INTERVAL_NS, self.results.append,
                                    dst_mac=collector.mac)
            prober.start(first_delay_ns=phase)
            net.sim.schedule_at(horizon_ns - self.DRAIN_NS, prober.stop)
            self.probers.append(prober)

    def analyze(self) -> Dict[str, Any]:
        return {"hops": [result.per_hop_words() for result in self.results],
                "faults": [int(result.fault) for result in self.results]}

    def checks(self, result: Dict[str, Any]) -> Checks:
        sent = sum(p.probes_sent for p in self.probers)
        return [
            ("every_probe_answered",
             sent > 0 and len(self.results) == sent
             and all(p.probes_timed_out == 0 for p in self.probers)),
            ("fault_free", not any(result["faults"])),
            ("word_pair_per_hop",
             all(len(hops) == 2 and all(len(pair) == 2 for pair in hops)
                 for hops in result["hops"])),
            ("no_tenant_probe_stripped",
             self.leaf.tpps_stripped == 0
             and self.policy.tpps_rejected == 0),
        ]

    def outcome(self, result: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "hops": result["hops"],
            "times": [r.time_ns for r in self.results],
            "switches": switch_counters(self.net),
        }


WORKLOADS = {cls.name: cls
             for cls in (Microburst, RcpStar, NdbFabric, ProbeIncast)}
