"""Figure 1 end to end: the queue-size query's per-hop stack growth.

The figure shows a TPP whose packet memory starts empty (SP = 0x0) and
gains one queue-size word per switch (SP = 0x4, 0x8, 0xc), with the
packet never growing or shrinking inside the network.
"""

import pytest

from repro import quickstart_network, units
from repro.core.assembler import assemble
from repro.sim.trace import TraceLevel


@pytest.fixture
def net():
    return quickstart_network(n_switches=3)


class TestFigure1:
    def test_stack_pointer_advances_per_hop(self, net):
        """SP goes 0x0 -> 0x4 -> 0x8 -> 0xc across three switches."""
        observed_sp = []
        program = assemble("PUSH [Queue:QueueSize]")

        def tap(record):
            # The echoed (done) TPP crosses the switches again but
            # executes nothing; only live executions count.
            if record.kind == "tpp.exec" and record.detail["executed"]:
                observed_sp.append(record.detail["sp_or_hop"])

        net.trace.set_kind_level("tpp.exec", TraceLevel.INFO)
        net.trace.add_tap(tap)
        net.host("h0").tpp.send(program, dst_mac=net.host("h1").mac)
        net.run(until_seconds=0.01)
        assert observed_sp == [0x4, 0x8, 0xC]

    def test_packet_size_constant_in_network(self, net):
        """Packet memory is preallocated; the TPP never grows/shrinks."""
        sizes = set()

        def tap(record):
            if record.kind == "tpp.exec":
                sizes.add(4 * len(record.detail["memory_words"]))

        net.trace.set_kind_level("tpp.exec", TraceLevel.INFO)
        net.trace.add_tap(tap)
        program = assemble("PUSH [Queue:QueueSize]", hops=8)
        net.host("h0").tpp.send(program, dst_mac=net.host("h1").mac)
        net.run(until_seconds=0.01)
        assert sizes == {8 * 4}

    def test_queue_snapshots_are_instantaneous(self, net):
        """Values in the packet are the occupancy at traversal instant —
        under load at sw1 only, only hop 2's word is large."""
        from repro.endhost.flows import Flow, FlowSink
        # Build congestion on sw1 -> sw2 by crossing traffic h0 -> h1
        # (saturating) is shared path, so instead slow the sw1->sw2 link.
        sw1 = net.switch("sw1")
        toward_sw2 = [port for port in sw1.ports
                      if port.link.name == "sw1->sw2"][0]
        toward_sw2.link.rate_bps = 50 * units.MEGABITS_PER_SEC

        h0, h1 = net.host("h0"), net.host("h1")
        FlowSink(h1, 99)
        flow = Flow(h0, h1, h1.mac, 99,
                    rate_bps=200 * units.MEGABITS_PER_SEC,
                    packet_bytes=1000)
        flow.start()
        results = []
        program = assemble("PUSH [Queue:QueueSize]")
        net.sim.schedule(units.milliseconds(5), lambda: h0.tpp.send(
            program, dst_mac=h1.mac, on_response=results.append))
        net.sim.schedule(units.milliseconds(6), flow.stop)
        net.run(until_seconds=0.2)
        hop_values = [words[0] for words in results[0].per_hop_words()]
        assert hop_values[1] > 5_000       # congested hop
        assert hop_values[2] < hop_values[1]

    def test_end_host_interprets_breakdown(self, net):
        """§2.1: 'a detailed breakdown of queueing latencies on all
        network hops' — hop count and per-hop attribution are exact."""
        results = []
        program = assemble("""
            PUSH [Switch:SwitchID]
            PUSH [Queue:QueueSize]
        """)
        net.host("h0").tpp.send(program, dst_mac=net.host("h1").mac,
                                on_response=results.append)
        net.run(until_seconds=0.01)
        view = results[0]
        assert view.hops() == 3
        switch_ids = [words[0] for words in view.per_hop_words()]
        assert switch_ids == [net.switch(f"sw{i}").switch_id
                              for i in range(3)]
