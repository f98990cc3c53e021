"""The per-hop ``tpp.exec`` trace record is opt-in debugging evidence.

Each TPP already carries its per-hop results back to its end host, so
by default no switch snapshots packet memory into the trace.  A run
that wants the snapshots opts in through the trace level alone, and
whether it does must not change a single simulated outcome.
"""

import pytest

from repro import units
from repro.core.assembler import assemble
from repro.core.tpp import TPPSection
from repro.endhost.client import TPPEndpoint
from repro.net.routing import install_shortest_path_routes
from repro.net.topology import TopologyBuilder
from repro.sim.trace import TraceLevel

N_HOSTS = 4
PROGRAM = "PUSH [Switch:SwitchID]\nPUSH [Queue:QueueSize]"


def probe_run(trace_mode="default"):
    """A star whose spokes probe h0 in one same-instant burst (the
    batched ingress path) and then one at a time (the inline path).

    Returns the network and the probe results, in arrival order.
    """
    builder = TopologyBuilder(rate_bps=units.GIGABITS_PER_SEC,
                              delay_ns=1_000,
                              trace_enabled=trace_mode != "disabled")
    net = builder.star(n_hosts=N_HOSTS)
    install_shortest_path_routes(net)
    if trace_mode == "debug":
        net.trace.set_level(TraceLevel.DEBUG)
    elif trace_mode == "opt-in":
        net.trace.set_kind_level("tpp.exec", TraceLevel.INFO)
    target = net.host("h0")
    TPPEndpoint(target)
    program = assemble(PROGRAM, hops=2)
    results = []
    clients = [TPPEndpoint(net.host(f"h{index}"))
               for index in range(1, N_HOSTS)]

    def send(client):
        client.send(program, dst_mac=target.mac,
                    on_response=results.append)

    for client in clients:
        send(client)                            # same instant: a batch
    for offset, client in enumerate(clients, start=1):
        net.sim.schedule(offset * 100_000, send, client)  # one by one
    net.run(until_seconds=0.01)
    return net, results


def outcome(net, results):
    switch = net.switch("sw0")
    return {
        "switched": switch.packets_switched,
        "tpps": switch.tcpu.tpps_executed,
        "instructions": switch.tcpu.instructions_executed,
        "faults": switch.tcpu.faults,
        "batches": switch.fastpath_stats()["batches_executed"],
        "ports": [(p.rx_frames, p.tx_frames,
                   p.queue.stats.packets_dropped) for p in switch.ports],
        "events": net.sim.events_processed,
        "results": [(r.seq, r.time_ns, r.rtt_ns, r.hops(),
                     bytes(r.tpp.memory)) for r in results],
    }


@pytest.fixture
def counted_words(monkeypatch):
    """Counts every ``TPPSection.words`` call and pairs its result with
    a per-word ``read_word`` walk over the same memory."""
    calls = []
    original = TPPSection.words

    def words(tpp):
        snapshot = original(tpp)
        usable = len(tpp.memory) - len(tpp.memory) % tpp.word_size
        walk = [tpp.read_word(i) for i in range(0, usable, tpp.word_size)]
        calls.append((snapshot, walk))
        return snapshot

    monkeypatch.setattr(TPPSection, "words", words)
    return calls


class TestTppExecIsOptIn:
    def test_default_trace_takes_no_snapshot(self, counted_words):
        net, results = probe_run()
        assert len(results) == 2 * (N_HOSTS - 1)
        assert net.switch("sw0").tcpu.tpps_executed == 2 * (N_HOSTS - 1)
        assert counted_words == []
        assert net.trace.records(kind="tpp.exec") == []

    @pytest.mark.parametrize("trace_mode", ["opt-in", "debug"])
    def test_opting_in_restores_the_snapshots(self, counted_words,
                                              trace_mode):
        net, results = probe_run(trace_mode)
        records = net.trace.records(kind="tpp.exec")
        # One record per execution on the forward path; the echoes
        # cross sw0 again, done, and are recorded as not executed.
        assert len(records) == 2 * len(results)
        assert sum(1 for r in records if r.detail["executed"]) \
            == len(results)
        assert len(counted_words) == len(records)
        for record, (snapshot, walk) in zip(records, counted_words):
            assert record.detail["memory_words"] is snapshot
            assert snapshot == walk
        assert set(records[0].detail) == {
            "frame_uid", "seq", "task", "executed", "skipped", "fault",
            "cycles", "sp_or_hop", "memory_words"}

    def test_observing_does_not_change_behaviour(self):
        default = outcome(*probe_run())
        assert default["tpps"] == len(default["results"]) == 2 * (N_HOSTS - 1)
        assert outcome(*probe_run("debug")) == default
        assert outcome(*probe_run("opt-in")) == default
        assert outcome(*probe_run("disabled")) == default
