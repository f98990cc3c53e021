"""RCP* with piggybacked collect TPPs ("using the flow's packets", §2.2)."""

import pytest

from repro import units
from repro.apps.rcp import RCPStarFlow, RCPStarTask
from repro.control.agent import ControlPlaneAgent
from repro.core.memory_map import MemoryMap
from repro.net.routing import install_shortest_path_routes
from repro.net.topology import TopologyBuilder
from repro.sim.trace import TraceLevel

CAPACITY = 10 * units.MEGABITS_PER_SEC


def build(n_pairs=1):
    builder = TopologyBuilder(rate_bps=10 * CAPACITY,
                              delay_ns=units.milliseconds(1))
    net = builder.dumbbell(n_pairs=n_pairs, bottleneck_bps=CAPACITY)
    install_shortest_path_routes(net)
    for switch in net.switches.values():
        switch.start_stats(interval_ns=units.milliseconds(5))
    agent = ControlPlaneAgent(list(net.switches.values()),
                              memory_map=MemoryMap.standard())
    return net, RCPStarTask(agent)


def make_flow(net, task, index, n_pairs, **kwargs):
    src = net.host(f"h{index}")
    dst = net.host(f"h{index + n_pairs}")
    return RCPStarFlow(task, index, src, dst, dst.mac,
                       capacity_bps=CAPACITY, rtt_s=0.02, max_hops=3,
                       **kwargs)


class TestPiggyback:
    def test_every_nth_packet_carries_tpp(self):
        net, task = build()
        net.trace.set_kind_level("tpp.exec", TraceLevel.INFO)
        flow = make_flow(net, task, 0, 1, piggyback_every=4)
        flow.start()
        net.run(until_seconds=0.5)
        # ~1/4 of the emitted frames are TPP-wrapped.
        wrapped = sum(1 for r in net.trace.records(kind="tpp.exec",
                                                   source="swL")
                      if r.detail["executed"] == 5)
        assert wrapped > 10
        assert flow._data_packets > 3 * wrapped

    def test_trimmed_echo_returns_samples(self):
        net, task = build()
        flow = make_flow(net, task, 0, 1, piggyback_every=4)
        flow.start()
        net.run(until_seconds=0.5)
        assert flow.endpoint.responses_received > 10
        assert len(flow.links) == 2
        assert flow.links[0].samples > 10

    def test_data_still_delivered(self):
        net, task = build()
        flow = make_flow(net, task, 0, 1, piggyback_every=4)
        flow.start()
        net.run(until_seconds=0.5)
        # Receiver got every data packet (wrapped and unwrapped alike);
        # a handful may still be in flight when the run stops.
        assert flow.sink.packets_received == pytest.approx(
            flow.flow.packets_sent, abs=15)

    def test_single_flow_converges_to_capacity(self):
        net, task = build()
        flow = make_flow(net, task, 0, 1, piggyback_every=4)
        flow.start()
        net.run(until_seconds=2.0)
        assert flow.flow.rate_bps == pytest.approx(CAPACITY, rel=0.15)

    def test_three_flows_fair_share(self):
        net, task = build(n_pairs=3)
        flows = [make_flow(net, task, i, 3, piggyback_every=4)
                 for i in range(3)]
        for flow in flows:
            flow.start()
        net.run(until_seconds=5.0)
        register = task.rate_register_bps(net.switch("swL"), 0)
        assert register == pytest.approx(CAPACITY / 3, rel=0.35)
        goodputs = [f.sink.goodput_bps(units.seconds(4), units.seconds(5))
                    for f in flows]
        assert goodputs[0] == pytest.approx(goodputs[2], rel=0.2)

    def test_keepalive_probes_cover_quiet_flows(self):
        """A flow paced near zero still samples the path."""
        net, task = build()
        flow = make_flow(net, task, 0, 1, piggyback_every=4,
                         initial_rate_bps=1000)  # ~0 data packets
        # Freeze the data path entirely to isolate the keepalive.
        flow.flow.set_rate(0)
        flow.start()
        net.run(until_seconds=0.5)
        # Samples arrived anyway (standalone keepalive probes).
        assert flow.endpoint.responses_received > 20

    def test_no_prober_when_piggybacking(self):
        net, task = build()
        flow = make_flow(net, task, 0, 1, piggyback_every=4)
        assert flow.prober is None
        assert flow._keepalive is not None
