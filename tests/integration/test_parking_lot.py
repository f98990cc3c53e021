"""RCP* on a multi-bottleneck parking-lot topology.

Unlike the dumbbell, different flows here have different bottleneck
*links*, so the CEXEC-targeted phase-3 updates must land on different
switches — exercising per-flow bottleneck identification end to end.
"""

import pytest

from repro import units
from repro.apps.rcp import RCPStarFlow, RCPStarTask
from repro.control.agent import ControlPlaneAgent
from repro.core.memory_map import MemoryMap
from repro.net.routing import install_shortest_path_routes
from repro.net.topology import Network
from repro.sim.trace import TraceLevel

CAPACITY = 10 * units.MEGABITS_PER_SEC


def build_two_bottleneck_net():
    """h0 -> hA crosses bottleneck A only; h1 -> hB crosses B only;
    hL -> hR crosses both:

        hL   h0--+        +--hA   hB--+        +--hR
              sw0 ==A== sw1          sw2 ==B== sw3
        (hL on sw0, hA on sw1, hB on sw2, hR on sw3; sw1--sw2 is fast)
    """
    net = Network(seed=5)
    switches = [net.add_switch() for _ in range(4)]
    fast = 10 * CAPACITY
    delay = units.milliseconds(1)
    net.link(switches[0], switches[1], CAPACITY, delay)       # bottleneck A
    net.link(switches[1], switches[2], fast, delay)
    net.link(switches[2], switches[3], CAPACITY, delay)       # bottleneck B
    attach = {"hL": 0, "h0": 0, "hA": 1, "hB": 2, "hR": 3}
    for name, index in attach.items():
        host = net.add_host(name)
        net.link(host, switches[index], fast, delay)
    install_shortest_path_routes(net)
    for switch in net.switches.values():
        switch.start_stats(interval_ns=units.milliseconds(5))
    return net


class TestMultiBottleneck:
    def test_flows_find_their_own_bottlenecks(self):
        net = build_two_bottleneck_net()
        agent = ControlPlaneAgent(list(net.switches.values()),
                                  memory_map=MemoryMap.standard())
        task = RCPStarTask(agent)

        flow_a = RCPStarFlow(task, 0, net.host("h0"), net.host("hA"),
                             net.host("hA").mac, capacity_bps=CAPACITY,
                             rtt_s=0.02, max_hops=4)
        flow_long = RCPStarFlow(task, 1, net.host("hL"), net.host("hR"),
                                net.host("hR").mac, capacity_bps=CAPACITY,
                                rtt_s=0.02, max_hops=4)
        flow_a.start()
        flow_long.start()
        net.run(until_seconds=6.0)

        # Both flows cross bottleneck A; only the long flow crosses B.
        # Fair shares: A carries two flows -> each ~C/2; B carries the
        # long flow only -> its register should stay well above C/2.
        register_a = task.rate_register_bps(net.switch("sw0"), 0)
        register_b = task.rate_register_bps(net.switch("sw2"), 1)
        # A carries two flows: its register converges toward C/2 (minus
        # probe overhead and smoothing lag); B carries only the long
        # flow, so its register stays strictly higher.
        assert register_a == pytest.approx(CAPACITY / 2, rel=0.5)
        assert register_b > register_a

        goodput_a = flow_a.sink.goodput_bps(units.seconds(4),
                                            units.seconds(6))
        goodput_long = flow_long.sink.goodput_bps(units.seconds(4),
                                                  units.seconds(6))
        assert goodput_a == pytest.approx(goodput_long, rel=0.4)
        total = goodput_a + goodput_long
        assert total > 0.6 * CAPACITY

    def test_updates_target_distinct_switches(self):
        """The long flow's updates go to A's switch while the short
        flow congests only A — verified via the TPP execution trace."""
        net = build_two_bottleneck_net()
        net.trace.set_kind_level("tpp.exec", TraceLevel.INFO)
        agent = ControlPlaneAgent(list(net.switches.values()),
                                  memory_map=MemoryMap.standard())
        task = RCPStarTask(agent)
        flow_a = RCPStarFlow(task, 0, net.host("h0"), net.host("hA"),
                             net.host("hA").mac, capacity_bps=CAPACITY,
                             rtt_s=0.02, max_hops=4)
        flow_b = RCPStarFlow(task, 1, net.host("hB"), net.host("hR"),
                             net.host("hR").mac, capacity_bps=CAPACITY,
                             rtt_s=0.02, max_hops=4)
        flow_a.start()
        flow_b.start()
        net.run(until_seconds=3.0)
        # Each flow's register writes landed on its own bottleneck
        # switch: sw0 (A) for flow_a, sw2 (B) for flow_b.
        writes_sw0 = [r for r in net.trace.records(kind="tpp.exec",
                                                   source="sw0")
                      if r.detail["executed"] >= 4]
        writes_sw2 = [r for r in net.trace.records(kind="tpp.exec",
                                                   source="sw2")
                      if r.detail["executed"] >= 4]
        assert writes_sw0 and writes_sw2
        # Registers on the fast middle link were never written down.
        middle = task.rate_register_bps(net.switch("sw1"), 1)
        assert middle == pytest.approx(10 * CAPACITY, rel=0.01)
