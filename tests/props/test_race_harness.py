"""Randomized race harness: the static analysis vs ground truth.

Builds fleets of 2–6 random same-task TPPs, runs the fleet-level static
race analysis (:mod:`repro.core.racecheck`), then *executes* the fleet
under many program-interleaving orders on a live TCPU and asserts the
oracle in both directions:

- **no false negatives** — any divergence in final SRAM (or in any
  program's final packet memory) across interleavings must be flagged
  by at least one race diagnostic;
- **race-free means order-insensitive** — every fleet the analysis
  declares race-free (zero diagnostics) produces bit-identical SRAM
  *and* packet memory under every interleaving tested.

The TCPU executes a whole TPP atomically, so whole-program interleaving
is the only nondeterminism — which is exactly the granularity the
static analysis reasons at.  False positives (flagged fleets that never
diverge — e.g. TPP021 reads whose observables happen to coincide) are
allowed but counted, and the aggregate count is gated against the
committed baseline in ``race_fp_baseline.json`` so it cannot regress
silently.  The analysis runs with the ground-truth switch's stable
registers bound (``fence_values``) *and* its seeded SRAM image bound
(``sram_values``), mirroring how ``TCPU.trust`` deploys it per switch —
so writes behind falsified fences and claims whose epochs are
relationally unreachable no longer count as may-writes.
"""

import itertools
import json
import pathlib
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.asic.metadata import PacketMetadata
from repro.core.assembler import assemble
from repro.core.memory_map import MemoryMap
from repro.core.mmu import MMU, ExecutionContext
from repro.core.racecheck import check_fleet, summarize_program
from repro.core.tcpu import TCPU
from repro.telemetry import (
    DistinctCountLayout,
    HeavyHitterLayout,
    build_count_min_update,
    build_distinct_update,
    build_heavy_hitter_update,
    disjoint_keys,
)

_MAP = MemoryMap.standard()

#: SRAM words the generated fleets fight over — small on purpose, so
#: access sets genuinely intersect.
WORDS = 4
#: Seeded fleets in the main sweep (acceptance bar: >= 200).
N_FLEETS = 220
#: Documented false-positive bound for the seeded sweep: flagged fleets
#: whose outcomes never diverge.  The constant-fence refinement (with
#: the ground-truth switch's ID bound, as ``TCPU.trust`` does in
#: deployment) retired the dominant class — writers behind a fence
#: that can never pass here — taking the measurement 27/220 → 21/220;
#: the relational refinement (claim-epoch reachability against the
#: bound SRAM image, dead reads, inert writes) retired the live-both
#: and dead-read classes on top, landing at 3/220 ≈ 0.014.  What
#: remains is inherent to whole-program may-analysis over joined claim
#: values.  The rate bound is asserted loose so generator tweaks don't
#: flake; the *count* is gated hard against the committed baseline.
MAX_FALSE_POSITIVE_RATE = 0.25

#: Committed regression baseline for the seeded sweep (CI gate): the
#: sweep fails if the measured false-positive fleet count exceeds
#: ``max_fp_fleets``.  Update the file deliberately when the analysis
#: changes — never loosen it to paper over a regression.
FP_BASELINE_PATH = pathlib.Path(__file__).with_name(
    "race_fp_baseline.json")
FP_BASELINE = json.loads(FP_BASELINE_PATH.read_text())


class FakeQueue:
    occupancy_bytes = 500


class FakePort:
    index = 0
    queue = FakeQueue()


def make_mmu(rng_seed):
    """Fresh MMU with deterministic stat bindings + seeded SRAM.

    Only *stable* statistics are bound: nothing a program can read
    changes between executions, so the only cross-program channel is
    SRAM — the channel under test.
    """
    mmu = MMU(name="race")
    mmu.bind_reader("Switch:SwitchID", lambda ctx: 7)
    mmu.bind_reader("Switch:NumPorts", lambda ctx: 4)
    mmu.bind_reader("Queue:QueueSize",
                    lambda ctx: ctx.queue.occupancy_bytes)
    rng = random.Random(rng_seed)
    for word in range(WORDS):
        mmu.poke_sram(word, rng.randrange(0, 50))
    return mmu


def make_ctx(task_id=0):
    return ExecutionContext(metadata=PacketMetadata(),
                            egress_port=FakePort(), time_ns=1000,
                            task_id=task_id)


def random_program(rng):
    """One random absolute-mode TPP over the contested SRAM words.

    Uses LOAD/STORE/ADD-family/CSTORE/CEXEC/PUSH so every access class
    the classifier distinguishes shows up; all operands are in-bounds
    by construction, so programs never fault and every interleaving
    runs every program to completion.
    """
    n_data = 3
    lines = [".memory {}".format(n_data + 2)]
    for slot in range(n_data):
        lines.append(f".data {slot} {rng.randrange(0, 50)}")
    ops = []
    for _ in range(rng.randint(1, 4)):
        word = rng.randrange(WORDS)
        slot = rng.randrange(n_data)
        kind = rng.choice(["load", "store", "arith", "cstore", "rmw",
                           "cexec", "push"])
        if kind == "load":
            ops.append(f"LOAD [Sram:Word{word}], [Packet:{slot}]")
        elif kind == "store":
            ops.append(f"STORE [Sram:Word{word}], [Packet:{slot}]")
        elif kind == "arith":
            opcode = rng.choice(["ADD", "SUB", "XOR", "MIN", "MAX"])
            ops.append(f"{opcode} [Packet:{slot}], [Sram:Word{word}]")
        elif kind == "cstore":
            cond = rng.randrange(0, 50)
            src = rng.randrange(0, 50)
            ops.append(f"CSTORE [Sram:Word{word}], {cond}, {src}")
        elif kind == "rmw":
            ops.append(f"ADD [Packet:{slot}], [Sram:Word{word}]")
            ops.append(f"STORE [Sram:Word{word}], [Packet:{slot}]")
        elif kind == "cexec":
            # Half the fences can never pass (SwitchID is 7): the
            # bound analysis must prove the suffix dead for target 9
            # and keep it live for target 7.
            target = rng.choice([7, 9])
            ops.append(f"CEXEC [Switch:SwitchID], 0xFFFFFFFF, {target}")
        else:
            ops.append(f"PUSH [Sram:Word{word}]")
    lines.extend(ops[:6])
    return assemble("\n".join(lines))


def build_fleet(seed, n_min=2, n_max=6):
    rng = random.Random(seed)
    return [random_program(rng)
            for _ in range(rng.randint(n_min, n_max))]


def orders_for(n, rng):
    """Interleavings to execute: exhaustive for n<=4, sampled beyond."""
    if n <= 4:
        return list(itertools.permutations(range(n)))
    identity = tuple(range(n))
    sampled = {identity, identity[::-1]}
    while len(sampled) < 12:
        order = list(range(n))
        rng.shuffle(order)
        sampled.add(tuple(order))
    return sorted(sampled)


def run_fleet(programs, order, sram_seed):
    """Execute the fleet in one order; return all final observables."""
    mmu = make_mmu(sram_seed)
    tcpu = TCPU(mmu, max_instructions=8, race_mode="off")
    memories = [None] * len(programs)
    for index in order:
        tpp = programs[index].build(task_id=0)
        report = tcpu.execute(tpp, make_ctx())
        assert report.ok, f"generated program faulted: {report.fault}"
        memories[index] = bytes(tpp.memory)
    sram = tuple(mmu.peek_sram(word) for word in range(WORDS))
    return (sram, tuple(memories))


#: The ground-truth switch's stable registers (mirrors ``make_mmu``):
#: the analysis is run per-switch in deployment (``TCPU.trust``), so
#: the sweep binds them too — constant fences falsified by the binding
#: discount their guarded accesses.
BINDINGS = {_MAP.resolve("Switch:SwitchID"): 7}


def sram_image(rng_seed):
    """The ground-truth switch's seeded SRAM image (mirrors
    ``make_mmu``: same seed, same draw order)."""
    rng = random.Random(rng_seed)
    return {word: rng.randrange(0, 50) for word in range(WORDS)}


def analyse(programs, fence_values=None, sram_values=None):
    return check_fleet([
        summarize_program(program, task_id=0, name=f"prog{i}")
        for i, program in enumerate(programs)], fence_values,
        sram_values=sram_values)


def check_oracle(programs, seed):
    """Run one fleet both ways; return (diverged, flagged)."""
    report = analyse(programs, fence_values=BINDINGS,
                     sram_values=sram_image(seed))
    rng = random.Random(seed ^ 0x5EED)
    outcomes = {run_fleet(programs, order, sram_seed=seed)
                for order in orders_for(len(programs), rng)}
    diverged = len(outcomes) > 1
    flagged = bool(report.diagnostics)
    if diverged:
        assert flagged, (
            f"false negative (seed {seed}): {len(outcomes)} distinct "
            f"outcomes but no race diagnostics")
    if report.race_free:
        assert not diverged, (
            f"analysis declared race-free (seed {seed}) but outcomes "
            f"diverged")
    return diverged, flagged


class TestRandomizedOracle:
    """The acceptance-bar sweep: >= 200 seeded fleets, both directions."""

    def test_oracle_holds_on_seeded_fleets(self):
        stats = {"fleets": 0, "diverged": 0, "flagged": 0,
                 "false_positive": 0}
        for seed in range(N_FLEETS):
            programs = build_fleet(seed)
            diverged, flagged = check_oracle(programs, seed)
            stats["fleets"] += 1
            stats["diverged"] += diverged
            stats["flagged"] += flagged
            stats["false_positive"] += (flagged and not diverged)
        assert stats["fleets"] >= 200
        # The sweep must actually exercise both sides of the oracle.
        assert stats["diverged"] > 10
        assert stats["flagged"] - stats["false_positive"] > 10
        assert stats["fleets"] - stats["flagged"] > 10  # race-free too
        fp_rate = stats["false_positive"] / stats["fleets"]
        assert fp_rate <= MAX_FALSE_POSITIVE_RATE, stats
        # CI regression gate: the FP count may never exceed the
        # committed baseline (race_fp_baseline.json).
        assert stats["fleets"] == FP_BASELINE["sweep_fleets"], stats
        assert (stats["false_positive"]
                <= FP_BASELINE["max_fp_fleets"]), (
            f"race-harness FP regression: "
            f"{stats['false_positive']} false-positive fleets exceed "
            f"the committed baseline "
            f"{FP_BASELINE['max_fp_fleets']} ({FP_BASELINE_PATH})")

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=N_FLEETS, max_value=100_000),
           size=st.integers(min_value=2, max_value=5))
    def test_oracle_property(self, seed, size):
        programs = build_fleet(seed, n_min=size, n_max=size)
        check_oracle(programs, seed)


def fleet_from_sources(*sources):
    return [assemble(source) for source in sources]


class TestKnownFleets:
    """Hand-written fleets with known verdicts and known ground truth."""

    def test_last_writer_wins_divergence_is_flagged(self):
        programs = fleet_from_sources(
            ".memory 1\n.data 0 5\nSTORE [Sram:Word0], [Packet:0]",
            ".memory 1\n.data 0 9\nSTORE [Sram:Word0], [Packet:0]")
        report = analyse(programs)
        assert [d.code for d in report.diagnostics] == ["TPP020"]
        outcomes = {run_fleet(programs, order, sram_seed=1)
                    for order in ((0, 1), (1, 0))}
        assert len(outcomes) == 2  # genuinely order-sensitive

    def test_lost_increment_pair_is_flagged(self):
        counter = (".memory 1\n.data 0 1\n"
                   "ADD [Packet:0], [Sram:Word0]\n"
                   "STORE [Sram:Word0], [Packet:0]")
        other = ".memory 1\n.data 0 77\nSTORE [Sram:Word0], [Packet:0]"
        programs = fleet_from_sources(counter, other)
        report = analyse(programs)
        assert not report.ok
        outcomes = {run_fleet(programs, order, sram_seed=2)
                    for order in ((0, 1), (1, 0))}
        assert len(outcomes) == 2

    def test_competing_claims_diverge_and_are_noted(self):
        # Both CSTOREs fire (cond == seeded initial value is arranged
        # to match for the first claimer only), so the winner — and the
        # final word — depends on order: exactly TPP023's story.
        programs = fleet_from_sources(
            "CSTORE [Sram:Word0], 30, 111",
            "CSTORE [Sram:Word0], 30, 222")
        report = analyse(programs)
        assert [d.code for d in report.diagnostics] == ["TPP023"]
        assert report.ok  # sanctioned protocol: no error severity
        # Find a seed whose initial Word0 is 30 so both claims contend.
        seed = next(s for s in range(100)
                    if random.Random(s).randrange(0, 50) == 30)
        outcomes = {run_fleet(programs, order, sram_seed=seed)
                    for order in ((0, 1), (1, 0))}
        assert len(outcomes) == 2
        assert not report.race_free  # oracle still covered

    def test_disjoint_fleet_is_race_free_and_insensitive(self):
        programs = fleet_from_sources(
            ".memory 1\n.data 0 5\nSTORE [Sram:Word0], [Packet:0]",
            ".memory 1\n.data 0 9\nSTORE [Sram:Word1], [Packet:0]",
            ".memory 1\nLOAD [Sram:Word2], [Packet:0]")
        report = analyse(programs)
        assert report.race_free
        outcomes = {run_fleet(programs, order, sram_seed=3)
                    for order in itertools.permutations(range(3))}
        assert len(outcomes) == 1

    def test_commuting_increments_flagged_and_observably_racy(self):
        """Two identical RMW counters: the *SRAM* sum commutes (+1 twice
        lands on the same total either way) but each program's packet
        memory records the intermediate it saw, so the full-observable
        oracle still diverges — TPP020 is a true positive here, not a
        tolerated false one."""
        counter = (".memory 1\n.data 0 1\n"
                   "ADD [Packet:0], [Sram:Word0]\n"
                   "STORE [Sram:Word0], [Packet:0]")
        programs = fleet_from_sources(counter, counter)
        report = analyse(programs)
        assert [d.code for d in report.diagnostics] == ["TPP020"]
        outcomes = {run_fleet(programs, order, sram_seed=4)
                    for order in ((0, 1), (1, 0))}
        srams = {sram for sram, _ in outcomes}
        assert len(srams) == 1      # the counter itself commutes...
        assert len(outcomes) == 2   # ...but the observed intermediates
        #                             swap between the two programs.

    def test_fenced_writers_resolved_by_switch_binding(self):
        """Two writers fenced behind ``CEXEC SwitchID == 9`` on a
        switch whose ID is 7.  The *unbound* analysis must still flag
        TPP020 — on some switch the fence passes and the stores race —
        but binding the ground-truth switch's ID proves the stores dead
        there, and the diagnostic disappears.  Ground truth agrees: the
        fence never passes, so every order yields the same outcome.
        This was the harness's canonical false positive before the
        per-switch fence_values refinement."""
        fenced = (".memory 1\n.data 0 9\n"
                  "CEXEC [Switch:SwitchID], 0xFFFFFFFF, 9\n"
                  "STORE [Sram:Word0], [Packet:0]")
        programs = fleet_from_sources(fenced, fenced)
        unbound = analyse(programs)
        assert [d.code for d in unbound.diagnostics] == ["TPP020"]
        bound = analyse(programs, fence_values=BINDINGS)
        assert bound.race_free
        # On a switch whose ID really is 9 the fence passes and the
        # stores genuinely race — the binding must NOT suppress there.
        matching = analyse(
            programs, fence_values={_MAP.resolve("Switch:SwitchID"): 9})
        assert [d.code for d in matching.diagnostics] == ["TPP020"]
        outcomes = {run_fleet(programs, order, sram_seed=4)
                    for order in ((0, 1), (1, 0))}
        assert len(outcomes) == 1  # fence never passes; nothing races

    def test_unfenced_vs_dead_fenced_writer_is_suppressed(self):
        """The dominant false-positive class the sweep used to tolerate:
        an unfenced writer vs a writer behind a never-passing fence.
        Mutual exclusion alone cannot help (one guard set is empty), but
        the switch binding proves the fenced store dead."""
        plain = ".memory 1\n.data 0 5\nSTORE [Sram:Word0], [Packet:0]"
        fenced = (".memory 1\n.data 0 9\n"
                  "CEXEC [Switch:SwitchID], 0xFFFFFFFF, 9\n"
                  "STORE [Sram:Word0], [Packet:0]")
        programs = fleet_from_sources(plain, fenced)
        unbound = analyse(programs)
        assert [d.code for d in unbound.diagnostics] == ["TPP020"]
        bound = analyse(programs, fence_values=BINDINGS)
        assert bound.race_free
        outcomes = {run_fleet(programs, order, sram_seed=4)
                    for order in ((0, 1), (1, 0))}
        assert len(outcomes) == 1  # only the unfenced store runs

    def test_shipped_examples_fleet_is_race_free(self):
        import pathlib
        root = pathlib.Path(__file__).resolve().parents[2] / "examples"
        programs = [
            assemble((root / name).read_text(), symbols={"Target": 7})
            for name in ("queue_probe.tpp", "path_tracer.tpp",
                         "guarded_update.tpp", "sketch_update.tpp")]
        report = analyse(programs)
        assert report.race_free

    def test_racy_counter_example_races_with_guarded_update(self):
        import pathlib
        root = pathlib.Path(__file__).resolve().parents[2] / "examples"
        programs = [
            assemble((root / name).read_text(), symbols={"Target": 7})
            for name in ("guarded_update.tpp", "racy_counter.tpp")]
        report = analyse(programs)
        assert not report.ok
        assert "TPP022" in report.by_code()


# --------------------------------------------------------------------- #
# Sketch-updater fleets: 2-6 concurrent sketch writers on one switch
# --------------------------------------------------------------------- #

#: Seeded sketch fleets in the sketch sweep.
SKETCH_N_FLEETS = 120
#: Seeded SRAM values stay small so CSTORE claims genuinely contend
#: with the unclaimed sentinels the generator draws from [0, 4).
SKETCH_SRAM_MAX = 6


def sketch_layouts(seed):
    """One seeded heavy-hitter layout + a small HLL register file.

    The layouts share the fleet seed as their hash seed, so counter
    placement — and therefore which updaters collide — varies per
    fleet.  Blocks are disjoint: hh in words [0, 24), hll in [32, 36).
    """
    rng = random.Random(seed)
    layout = HeavyHitterLayout(
        base_word=0, width=rng.randint(2, 6), depth=rng.randint(1, 3),
        n_slots=rng.randint(1, 3), seed=seed,
        unclaimed_value=rng.randrange(0, 4))
    hll = DistinctCountLayout(base_word=32, m=4, seed=seed)
    return layout, hll


def sketch_words(layout, hll):
    return tuple(layout.words()) + tuple(hll.words())


def build_sketch_fleet(seed):
    """2-6 concurrent sketch programs sharing one switch's sketch SRAM.

    Mixes every update shape the sketch subsystem generates:
    heavy-hitter updates (additive rows + a CSTORE claim), bare
    count-min updates (additive rows only), distinct-count updates (MAX
    RMW) and LOAD-only probe readers.  Keys come from a small
    universe so colliding counter cells — and duplicate keys — occur
    often.
    """
    layout, hll = sketch_layouts(seed)
    rng = random.Random(seed ^ 0xA5A5)
    words = sketch_words(layout, hll)
    programs = []
    for _ in range(rng.randint(2, 6)):
        kind = rng.random()
        if kind < 0.40:
            key = rng.choice([k for k in range(1, 9)
                              if k != layout.unclaimed_value])
            programs.append(build_heavy_hitter_update(
                layout, key, delta=rng.randint(1, 3)).program)
        elif kind < 0.65:
            programs.append(build_count_min_update(
                layout.countmin, rng.randrange(1, 9),
                delta=rng.randint(1, 3)).program)
        elif kind < 0.85:
            programs.append(build_distinct_update(
                hll, rng.randrange(1, 64)).program)
        else:
            sample = rng.sample(words, k=min(3, len(words)))
            lines = [f".memory {len(sample)}"]
            lines += [f"LOAD [Sram:Word{w}], [Packet:{i}]"
                      for i, w in enumerate(sample)]
            programs.append(assemble("\n".join(lines)))
    return layout, hll, programs


def make_sketch_mmu(layout, hll, rng_seed):
    """Fresh MMU with the stable bindings + seeded *sketch* SRAM."""
    mmu = MMU(name="sketch-race")
    mmu.bind_reader("Switch:SwitchID", lambda ctx: 7)
    mmu.bind_reader("Switch:NumPorts", lambda ctx: 4)
    mmu.bind_reader("Queue:QueueSize",
                    lambda ctx: ctx.queue.occupancy_bytes)
    rng = random.Random(rng_seed)
    for word in sketch_words(layout, hll):
        mmu.poke_sram(word, rng.randrange(0, SKETCH_SRAM_MAX))
    return mmu


def sketch_sram_image(layout, hll, rng_seed):
    """Mirror of :func:`make_sketch_mmu` (same seed, same draw order)."""
    rng = random.Random(rng_seed)
    return {word: rng.randrange(0, SKETCH_SRAM_MAX)
            for word in sketch_words(layout, hll)}


def run_sketch_fleet(layout, hll, programs, order, sram_seed):
    mmu = make_sketch_mmu(layout, hll, sram_seed)
    tcpu = TCPU(mmu, max_instructions=8, race_mode="off")
    memories = [None] * len(programs)
    for index in order:
        tpp = programs[index].build(task_id=0)
        report = tcpu.execute(tpp, make_ctx())
        assert report.ok, f"sketch program faulted: {report.fault}"
        memories[index] = bytes(tpp.memory)
    sram = tuple(mmu.peek_sram(word)
                 for word in sketch_words(layout, hll))
    return (sram, tuple(memories))


def check_sketch_oracle(layout, hll, programs, seed):
    """Sketch-fleet instance of the two-direction oracle."""
    report = analyse(programs, fence_values=BINDINGS,
                     sram_values=sketch_sram_image(layout, hll, seed))
    rng = random.Random(seed ^ 0x5EED)
    outcomes = {run_sketch_fleet(layout, hll, programs, order,
                                 sram_seed=seed)
                for order in orders_for(len(programs), rng)}
    diverged = len(outcomes) > 1
    flagged = bool(report.diagnostics)
    if diverged:
        assert flagged, (
            f"false negative (sketch seed {seed}): {len(outcomes)} "
            f"distinct outcomes but no race diagnostics")
    if report.race_free:
        assert not diverged, (
            f"analysis declared sketch fleet race-free (seed {seed}) "
            f"but outcomes diverged")
    return diverged, flagged


class TestSketchFleets:
    """Concurrent sketch updaters under the same two-direction oracle."""

    def test_four_updater_fleet_admitted_under_enforce(self):
        """The acceptance-criteria fleet: four heavy-hitter updaters
        whose counter cells are provably disjoint share one switch.
        ``enforce``-mode admission accepts all four (their claim slots
        may be shared — CSTORE vs CSTORE is the sanctioned TPP023
        protocol, never error severity), and the oracle agrees: any
        order-sensitivity the interleavings expose is flagged."""
        layout = HeavyHitterLayout(base_word=0, width=8, depth=2,
                                   n_slots=2)
        keys = disjoint_keys(layout, range(1, 512), 4)
        assert len(keys) == 4
        mmu = make_sketch_mmu(
            layout, DistinctCountLayout(base_word=32, m=4), 0)
        for word in layout.words():     # deploy on a pristine sketch
            mmu.poke_sram(word, 0)
        tcpu = TCPU(mmu, max_instructions=5, race_mode="enforce")
        updates = [build_heavy_hitter_update(layout, key)
                   for key in keys]
        for update in updates:
            assert tcpu.trust(update.certificate), update.key
        assert tcpu.certificates_refused == 0
        fleet = tcpu.fleet.report()
        assert fleet.ok                  # nothing error-severity
        codes = set(fleet.by_code())
        assert codes <= {"TPP021", "TPP023"}, codes
        # Oracle over the same four programs, zero false negatives.
        hll = DistinctCountLayout(base_word=32, m=4)
        check_sketch_oracle(layout, hll,
                            [u.program for u in updates], seed=0)
        # And a fifth updater whose counters collide with the fleet is
        # refused — admission is the oracle's verdict, not a heuristic.
        collider = next(
            key for key in range(1, 512)
            if key not in keys
            and any(set(layout.countmin.words_for(key))
                    & set(layout.countmin.words_for(k))
                    for k in keys))
        update = build_heavy_hitter_update(layout, collider)
        assert not tcpu.trust(update.certificate)
        assert tcpu.certificates_refused == 1

    def test_oracle_holds_on_seeded_sketch_fleets(self):
        stats = {"fleets": 0, "diverged": 0, "flagged": 0,
                 "false_positive": 0}
        for seed in range(SKETCH_N_FLEETS):
            layout, hll, programs = build_sketch_fleet(seed)
            diverged, flagged = check_sketch_oracle(
                layout, hll, programs, seed)
            stats["fleets"] += 1
            stats["diverged"] += diverged
            stats["flagged"] += flagged
            stats["false_positive"] += (flagged and not diverged)
        # Both oracle directions must be exercised.
        assert stats["diverged"] > 10
        assert stats["flagged"] - stats["false_positive"] > 10
        assert stats["fleets"] - stats["flagged"] > 10  # race-free too
        # CI regression gate against the committed baseline.
        assert stats["fleets"] == FP_BASELINE["sketch_sweep_fleets"], (
            stats)
        assert (stats["false_positive"]
                <= FP_BASELINE["sketch_max_fp_fleets"]), (
            f"sketch-fleet FP regression: "
            f"{stats['false_positive']} false-positive fleets exceed "
            f"the committed baseline "
            f"{FP_BASELINE['sketch_max_fp_fleets']} "
            f"({FP_BASELINE_PATH})")
