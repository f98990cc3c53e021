"""Batch accounting: every fallback to a plain execute loop is counted.

:meth:`TCPU.execute_batch` runs one compiled entry packet by packet.  It
falls back to ``[tcpu.execute(s, c) ...]`` for exactly two reasons —
``non_uniform`` (a section's program key differs from the first one's)
and ``too_long`` (the program exceeds the instruction limit) — each
counted once per batch in ``TCPU.batch_demotions``; the switch surfaces
the dict via ``fastpath_stats()``/``batch_report()``.  Every other batch
shape (uncertified, CEXEC, SRAM writes, guard misses) records no
demotion and still executes exactly as the scalar loop would.
"""

from repro.asic.metadata import PacketMetadata
from repro.core.assembler import assemble
from repro.core.exceptions import FaultCode
from repro.core.memory_map import MemoryMap
from repro.core.mmu import MMU, ExecutionContext
from repro.core.tcpu import TCPU
from repro.core.verifier import verify_program


class FakeQueue:
    occupancy_bytes = 640


class FakePort:
    index = 0
    queue = FakeQueue()


def make_mmu():
    mmu = MMU(name="counters")
    mmu.bind_reader("Switch:SwitchID", lambda ctx: 9)
    mmu.bind_reader("Queue:QueueSize",
                    lambda ctx: ctx.queue.occupancy_bytes)
    return mmu


def make_ctx(task_id=0):
    return ExecutionContext(metadata=PacketMetadata(),
                            egress_port=FakePort(), time_ns=0,
                            task_id=task_id)


def certified_tcpu(source, mmu=None, max_instructions=5, trust=True):
    mmu = mmu if mmu is not None else make_mmu()
    tcpu = TCPU(mmu, max_instructions=max_instructions, compile=True)
    program = assemble(source)
    if trust:
        result = verify_program(program,
                                memory_map=MemoryMap.standard(),
                                max_instructions=max_instructions)
        tcpu.trust(result.raise_on_error().certificate)
    return tcpu, program


def run_batch(tcpu, program, n=4, task_ids=None, ctxs=None, mutate=None):
    tasks = task_ids if task_ids is not None else [0] * n
    sections = [program.build(task_id=t) for t in tasks]
    if mutate is not None:
        for index, section in enumerate(sections):
            mutate(section, index)
            section.invalidate_caches()
    if ctxs is None:
        ctxs = [make_ctx(t) for t in tasks]
    return tcpu.execute_batch(sections, ctxs), sections


READ_ONLY = "PUSH [Switch:SwitchID]"


class TestDemotionReasons:
    def test_uncertified_program(self):
        tcpu, program = certified_tcpu(READ_ONLY, trust=False)
        reports, sections = run_batch(tcpu, program)
        assert tcpu.batch_demotions == {}
        assert tcpu.batched_tpps == 4
        assert all(r.ok for r in reports)
        assert all(s.read_word(0) == 9 for s in sections)

    def test_uncertified_guard_miss(self):
        # Certified, but the SP sits outside the certificate guard: the
        # checked closures run and fault exactly like the scalar path.
        tcpu, program = certified_tcpu(READ_ONLY)

        def overflow_sp(section, index):
            section.hop_or_sp = len(section.memory)

        reports, _ = run_batch(tcpu, program, mutate=overflow_sp)
        assert tcpu.batch_demotions == {}
        assert all(r.fault == FaultCode.STACK_OVERFLOW for r in reports)
        assert tcpu.verified_executions == 0

    def test_oversized_program_counts_too_long(self):
        tcpu, program = certified_tcpu("\n".join(["NOP"] * 4),
                                       max_instructions=3, trust=False)
        reports, _ = run_batch(tcpu, program)
        assert tcpu.batch_demotions == {"too_long": 1}
        assert all(r.fault == FaultCode.TOO_MANY_INSTRUCTIONS
                   for r in reports)

    def test_cexec(self):
        tcpu, program = certified_tcpu(
            "CEXEC [Switch:SwitchID], 0xFF, 9\nPUSH [Queue:QueueSize]")
        reports, sections = run_batch(tcpu, program)
        assert tcpu.batch_demotions == {}
        assert all(r.executed == 2 and r.cexec_disabled_at is None
                   for r in reports)
        assert all(s.read_word(0) == 640 for s in sections)

    def test_write_dataflow(self):
        # A non-additive read-modify-write of one SRAM word: each packet
        # sees its predecessors' store, in arrival order.
        tcpu, program = certified_tcpu(
            ".mode absolute\n.memory 1\n"
            "LOAD [Sram:Word0], [Packet:0]\n"
            "XOR [Packet:0], [Switch:SwitchID]\n"
            "STORE [Sram:Word0], [Packet:0]")
        _, sections = run_batch(tcpu, program)
        assert tcpu.batch_demotions == {}
        assert [s.read_word(0) for s in sections] == [9, 0, 9, 0]
        assert tcpu.mmu.peek_sram(0) == 0

    def test_unstable_read(self):
        # A reader whose value moves with every execution observes the
        # sequential interleaving, one packet after the other.
        mmu = make_mmu()
        holder = {}
        mmu.bind_reader("Switch:TPPsExecuted",
                        lambda ctx: holder["tcpu"].tpps_executed)
        tcpu, program = certified_tcpu("PUSH [Switch:TPPsExecuted]",
                                       mmu=mmu)
        holder["tcpu"] = tcpu
        _, sections = run_batch(tcpu, program)
        assert tcpu.batch_demotions == {}
        assert [s.read_word(0) for s in sections] == [0, 1, 2, 3]

    def test_non_uniform_hop_counters(self):
        tcpu, program = certified_tcpu(READ_ONLY)

        def advance_one(section, index):
            if index == 1:
                section.hop_or_sp += 4

        _, sections = run_batch(tcpu, program, mutate=advance_one)
        assert tcpu.batch_demotions == {}
        assert sections[1].read_word(4) == 9
        assert sections[0].read_word(0) == 9

    def test_mixed_program_keys_count_non_uniform(self):
        tcpu, _ = certified_tcpu(READ_ONLY, trust=False)
        a = assemble(READ_ONLY).build()
        b = assemble("PUSH [Queue:QueueSize]").build()
        tcpu.execute_batch([a, b], [make_ctx(), make_ctx()])
        assert tcpu.batch_demotions == {"non_uniform": 1}

    def test_reasons_accumulate_across_batches(self):
        tcpu, program = certified_tcpu("\n".join(["NOP"] * 4),
                                       max_instructions=3, trust=False)
        for _ in range(3):
            run_batch(tcpu, program)
        assert tcpu.batch_demotions == {"too_long": 3}
        assert tcpu.batches_executed == 3


class TestCounterSurface:
    def _switch(self):
        from repro import units
        from repro.net.topology import TopologyBuilder

        builder = TopologyBuilder(rate_bps=units.GIGABITS_PER_SEC,
                                  delay_ns=1_000)
        net = builder.star(n_hosts=2)
        return net.switch("sw0")

    def test_fastpath_stats_exposes_demotion_counters(self):
        switch = self._switch()
        stats = switch.fastpath_stats()
        assert stats["batch_demotions"] == {}
        assert not any(key.startswith("vector_") for key in stats)
        switch.tcpu.batch_demotions["non_uniform"] = 2
        fresh = switch.fastpath_stats()
        assert fresh["batch_demotions"] == {"non_uniform": 2}
        # The stats dict is a snapshot, not a live alias.
        fresh["batch_demotions"]["non_uniform"] = 99
        assert switch.tcpu.batch_demotions["non_uniform"] == 2

    def test_batch_report_renders_demotions(self):
        from repro.analysis.reporting import batch_report

        switch = self._switch()
        switch.tcpu.batch_demotions.update(
            {"non_uniform": 2, "too_long": 1})
        text = batch_report([switch])
        assert "demoted" in text
        assert "non_uniform×2" in text
        assert "too_long×1" in text
        assert "vec-" not in text
