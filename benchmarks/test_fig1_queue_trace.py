"""E1 / Figure 1: visualizing the execution of a queue-size query TPP.

The paper's figure shows one TPP traversing three switches; at each hop
the ASIC executes ``PUSH [Queue:QueueSize]``, the stack pointer advances
0x0 -> 0x4 -> 0x8 -> 0xc, and packet memory accumulates one queue-size
snapshot per hop while the packet itself never grows.

This bench regenerates those per-hop packet snapshots under real (bursty)
cross traffic so the recorded queue sizes are nonzero and different per
hop, and prints them in the figure's layout.
"""

from __future__ import annotations

from bench_utils import banner, run_once

from repro import units
from repro.analysis.reporting import format_table
from repro.core.assembler import assemble
from repro.endhost.client import TPPEndpoint
from repro.endhost.flows import Flow, FlowSink
from repro.net.routing import install_shortest_path_routes
from repro.net.topology import TopologyBuilder
from repro.sim.trace import TraceLevel

RATE = 100 * units.MEGABITS_PER_SEC


def build_experiment():
    """Three-switch chain with cross traffic converging on sw1->sw2."""
    builder = TopologyBuilder(rate_bps=RATE, delay_ns=10_000)
    net = builder.linear(n_switches=3, hosts_per_end=1)
    # Two extra hosts on sw1 jointly overload sw1's egress toward sw2.
    for name in ("hx0", "hx1"):
        crosser = net.add_host(name)
        net.link(crosser, net.switch("sw1"), RATE, 10_000)
    install_shortest_path_routes(net)
    return net


def run_experiment():
    net = build_experiment()
    h0, h1 = net.host("h0"), net.host("h1")
    client = TPPEndpoint(h0)
    TPPEndpoint(h1)
    FlowSink(h1, 99)

    # Cross traffic loads sw1's egress toward sw2 at 2x its line rate.
    for name in ("hx0", "hx1"):
        cross = Flow(net.host(name), h1, h1.mac, 99, rate_bps=RATE,
                     packet_bytes=1000)
        cross.start()

    snapshots = []

    def tap(record):
        if record.kind == "tpp.exec" and record.detail["executed"]:
            snapshots.append((record.source,
                              record.detail["sp_or_hop"],
                              list(record.detail["memory_words"])))

    net.trace.set_kind_level("tpp.exec", TraceLevel.INFO)
    net.trace.add_tap(tap)
    program = assemble("PUSH [Queue:QueueSize]", hops=3)
    results = []
    net.sim.schedule(units.milliseconds(5), lambda: client.send(
        program, dst_mac=h1.mac, on_response=results.append))
    net.run(until_seconds=0.5)
    return snapshots, results


def test_fig1_queue_size_query(benchmark):
    snapshots, results = run_once(benchmark, run_experiment)

    banner("Figure 1: TPP executing 'PUSH [Queue:QueueSize]' per hop")
    rows = [["(sent)", "0x0", "-", "-", "-"]]
    for index, (switch, sp, words) in enumerate(snapshots):
        cells = [f"{w:#06x}" if i <= index else "-"
                 for i, w in enumerate(words)]
        rows.append([f"after {switch}", f"{sp:#x}"] + cells)
    print(format_table(
        ["packet state", "SP", "mem[0]", "mem[1]", "mem[2]"], rows))

    # --- shape assertions ------------------------------------------------
    # One execution per switch, SP advancing one word per hop.
    assert [sp for _, sp, _ in snapshots] == [0x4, 0x8, 0xC]
    assert [s for s, _, _ in snapshots] == ["sw0", "sw1", "sw2"]
    # Packet memory never grows or shrinks inside the network.
    assert all(len(words) == 3 for _, _, words in snapshots)
    # The congested hop (sw1 -> sw2) recorded a bigger queue than sw0.
    final_words = results[0].per_hop_words()
    queue_sizes = [words[0] for words in final_words]
    print(f"\nper-hop queue sizes seen by the end-host: {queue_sizes}")
    assert queue_sizes[1] > queue_sizes[0]
    # End-host sees exactly what the last switch wrote.
    assert results[0].hops() == 3
