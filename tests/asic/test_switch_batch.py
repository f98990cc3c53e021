"""Ingress-drain batching on the switch dataplane.

Same-instant arrivals of the same TPP program must be grouped into one
:meth:`TCPU.execute_batch` call — and doing so must not change a single
observable output relative to packet-at-a-time execution.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import units
from repro.analysis.reporting import batch_report
from repro.core.assembler import assemble
from repro.endhost.client import TPPEndpoint
from repro.net.routing import install_shortest_path_routes
from repro.net.topology import TopologyBuilder


def star_net(n_hosts=4):
    builder = TopologyBuilder(rate_bps=units.GIGABITS_PER_SEC,
                              delay_ns=1_000)
    net = builder.star(n_hosts=n_hosts)
    install_shortest_path_routes(net)
    return net


def burst_probes(net, program, n_hosts=4, on_response=None):
    """One probe from every spoke host toward h0, all at t=0, so they
    arrive at the hub switch in the same drain window."""
    target = net.host("h0")
    TPPEndpoint(target)
    for index in range(1, n_hosts):
        client = TPPEndpoint(net.host(f"h{index}"))
        client.send(program, dst_mac=target.mac, on_response=on_response)


#: batch accounting is (by design) absent when compilation is disabled
#: via the environment; the correctness tests below still run.
requires_batch = pytest.mark.skipif(
    os.environ.get("REPRO_TPP_FASTPATH") == "0",
    reason="compiled fast path disabled via environment")

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestDrainBatching:
    @requires_batch
    def test_same_instant_probes_form_a_batch(self):
        net = star_net()
        switch = net.switch("sw0")
        program = assemble("PUSH [Queue:QueueSize]", hops=2)
        burst_probes(net, program)
        net.run(until_seconds=0.01)
        stats = switch.fastpath_stats()
        assert stats["batches_executed"] >= 1
        assert stats["batched_tpps"] >= 3
        assert switch.tcpu.tpps_executed >= 3

    def test_staggered_probes_do_not_batch(self):
        """Arrivals in different drain windows stay scalar."""
        net = star_net()
        switch = net.switch("sw0")
        target = net.host("h0")
        TPPEndpoint(target)
        client = TPPEndpoint(net.host("h1"))
        program = assemble("PUSH [Queue:QueueSize]", hops=2)

        def send_one():
            client.send(program, dst_mac=target.mac)

        for at_ns in (0, 50_000, 100_000):
            net.sim.schedule(at_ns, send_one)
        net.run(until_seconds=0.01)
        assert switch.fastpath_stats()["batches_executed"] == 0
        assert switch.tcpu.tpps_executed == 3

    def test_batching_off_produces_identical_responses(self):
        """Observable equivalence: responses, hop words, and counters
        match whether a run goes through ``execute_batch`` or through a
        plain ``execute`` loop."""
        def run_once(batch):
            net = star_net()
            for switch in net.switches.values():
                if not batch:
                    tcpu = switch.tcpu
                    tcpu.execute_batch = (
                        lambda sections, ctxs, tcpu=tcpu:
                        [tcpu.execute(s, c)
                         for s, c in zip(sections, ctxs)])
            results = []
            program = assemble("""
                PUSH [Switch:SwitchID]
                PUSH [Queue:QueueSize]
            """, hops=2)
            burst_probes(net, program,
                         on_response=lambda r: results.append(r))
            net.run(until_seconds=0.01)
            switch = net.switch("sw0")
            return ([(r.tpp.encode(), r.per_hop_words())
                     for r in results],
                    switch.tcpu.tpps_executed,
                    switch.packets_switched)

        batched, scalar = run_once(True), run_once(False)
        assert len(batched[0]) == 3
        assert sorted(batched[0]) == sorted(scalar[0])
        assert batched[1:] == scalar[1:]

    def test_mixed_programs_split_into_runs(self):
        """Different program keys in one drain window never share a
        batch; every probe still executes correctly."""
        net = star_net()
        switch = net.switch("sw0")
        target = net.host("h0")
        TPPEndpoint(target)
        sources = ["PUSH [Switch:SwitchID]", "PUSH [Queue:QueueSize]",
                   "PUSH [Switch:SwitchID]"]
        results = []
        for index, source in enumerate(sources, start=1):
            client = TPPEndpoint(net.host(f"h{index}"))
            client.send(assemble(source, hops=2), dst_mac=target.mac,
                        on_response=results.append)
        net.run(until_seconds=0.01)
        assert len(results) == 3
        assert switch.tcpu.tpps_executed == 3

    def test_batching_never_imports_numpy(self):
        """A same-instant burst batches in a fresh interpreter without
        pulling numpy in (its lazy import cost ~12 MB and ~0.1 s)."""
        script = textwrap.dedent("""
            import sys
            from repro import units
            from repro.core.assembler import assemble
            from repro.endhost.client import TPPEndpoint
            from repro.net.routing import install_shortest_path_routes
            from repro.net.topology import TopologyBuilder

            net = TopologyBuilder(rate_bps=units.GIGABITS_PER_SEC,
                                  delay_ns=1_000).star(n_hosts=4)
            install_shortest_path_routes(net)
            target = net.host("h0")
            TPPEndpoint(target)
            program = assemble("PUSH [Queue:QueueSize]", hops=2)
            for index in range(1, 4):
                TPPEndpoint(net.host(f"h{index}")).send(
                    program, dst_mac=target.mac)
            net.run(until_seconds=0.01)
            print(net.switch("sw0").tcpu.batched_tpps,
                  "numpy" in sys.modules)
        """)
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        # Batch accounting needs the compiled path, whatever this
        # process runs under.
        env.pop("REPRO_TPP_FASTPATH", None)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        batched, numpy_loaded = out.stdout.split()
        assert int(batched) >= 2
        assert numpy_loaded == "False"


class TestBatchStats:
    def test_fastpath_stats_exposes_batch_counters(self):
        net = star_net()
        stats = net.switch("sw0").fastpath_stats()
        for key in ("batches_executed", "batched_tpps", "batch_occupancy",
                    "batch_demotions"):
            assert key in stats
        assert isinstance(stats["batch_occupancy"], dict)
        assert not any(key.startswith("vector_") for key in stats)

    def test_batch_report_renders(self):
        net = star_net()
        program = assemble("PUSH [Queue:QueueSize]", hops=2)
        burst_probes(net, program)
        net.run(until_seconds=0.01)
        text = batch_report(net.switches.values())
        assert "Batched execution" in text
        assert "sw0" in text
        assert batch_report([]) == "(nothing to report)"
