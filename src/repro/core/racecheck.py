"""Fleet-level static SRAM race analysis (the cross-program layer).

The single-program verifier (:mod:`repro.core.verifier`) proves that a
program stays inside its *own* task's SRAM protection domain (``TPP007``),
but says nothing about two admitted programs of the **same** task hitting
the same scratch word: the paper's CSTORE is the only claim/coordination
primitive switches offer, and nothing else serializes concurrent TPPs.
This module is the first analysis in the repo that reasons about *sets* of
programs: it extracts, per program, the word-level SRAM read / write /
CSTORE-claim sets, then intersects them pairwise across a fleet of
admitted programs to emit stable diagnostics:

========= ======== ======================================================
code      severity meaning
========= ======== ======================================================
``TPP020`` error    write-write race: two programs store into the same
                    SRAM word unconditionally (no claim protocol) — the
                    final value is whichever packet executed last, and
                    read-modify-write updates lose increments
``TPP021`` warning  read-write race: one program reads a word another
                    writes — the value observed (and anything derived
                    from it, including other SRAM words) depends on
                    packet interleaving
``TPP022`` error    claim-protocol violation: a word one program claims
                    through CSTORE is written *unconditionally* by
                    another, so the claim can be silently overwritten
``TPP023`` info     claim-coordinated sharing: both programs CSTORE the
                    same word.  This is the sanctioned §3.2.3 protocol —
                    first claimer wins — but the winner (and hence the
                    final value) still depends on arrival order
========= ======== ======================================================

Exactly one diagnostic is emitted per (pair, word): the most severe
applicable classification wins (``TPP020`` > ``TPP022`` > ``TPP021`` >
``TPP023``).  A fleet with an empty diagnostic list is **order
insensitive**: every program's writes land on words no other program
touches, and every shared word is read-only, so any interleaving of
whole-program executions produces bit-identical SRAM (the randomized
harness in ``tests/props/test_race_harness.py`` holds this as ground
truth).  Programs of *different* tasks are never paired — cross-task
access is already a ``TPP007`` admission error and an
``SRAM_PROTECTION`` runtime fault.

The analysis is may-access, refined by *constant-mask CEXEC fences*: a
CEXEC whose switch operand is a per-switch constant (``Switch:SwitchID``)
and whose mask/value operand words provably survive every hop unmodified
is a stable predicate — on any given switch it either always passes or
always fails.  Accesses guarded by two mutually exclusive such fences
(same register and mask, different expected values) can never execute in
the same switch's interleaving, so the pairwise classification only
counts *co-executable* access pairs, and accesses behind self-
contradictory fences are statically unreachable and dropped from the
summary.  Fences with matching predicates suppress nothing: the analysis
does not know the register's value, and on some switch both programs'
guarded accesses may run.

When the analysis runs on behalf of a *specific* switch the register
values stop being unknowns: admission is per-switch (``TCPU.trust``
keeps one :class:`FleetRaceTable` per switch), so callers may supply
``fence_values`` — a ``{switch_vaddr: value}`` binding of the stable
registers for that switch.  A fence whose predicate is falsified by the
bindings (``value & mask != expected``) can never pass there, so every
access it guards is statically dead on that switch and drops out of the
pairwise classification entirely.  This is the refinement that retires
the dominant false-positive class: a write fenced on the *wrong*
``Switch:SwitchID`` looked like a may-write to the unbound analysis.
Everything else stays may-access — writes behind non-constant fences
still count — so a diagnosed-free fleet is genuinely race free on the
bound switch, at a measurably lower false-positive rate
(``tests/props/test_race_harness.py`` pins the measurement).

Two consumption modes:

- :func:`check_fleet` — one-shot pairwise pass over a list of
  :class:`ProgramAccessSummary` (the ``tppasm racecheck`` CLI).
- :class:`FleetRaceTable` — incremental membership for admission
  control: :meth:`~FleetRaceTable.admit` re-checks only the pairs that
  share a word with the newcomer (via a word-level index), and
  :meth:`~FleetRaceTable.revoke` retires a member and every diagnostic
  involving it.  The table's report is always identical to a
  from-scratch :func:`check_fleet` over the current membership
  (conformance-tested over random admit/revoke sequences).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.isa import (
    HOP_RELATIVE_OPCODES,
    Instruction,
    Opcode,
    SWITCH_WRITING_OPCODES,
)
from repro.core.memory_map import MemoryMap, SRAM_BASE, is_sram
from repro.core.relational import (
    FIRE_NEVER,
    ReachTable,
    RelationalSummary,
    analyze_relations,
    claim_can_fire,
    claim_mutates,
    reachable_values,
    write_mutates,
)
from repro.core.tpp import AddressingMode, TPPSection, program_key_of

#: Hop horizon used when a program declares no budget (mirrors the
#: verifier's scan limit; a larger horizon only widens the written
#: intervals, which is the conservative direction for fence constancy).
FENCE_SCAN_LIMIT = 1024

#: Switch registers whose value is a per-switch constant for the life of
#: a run: set at boot, never written by the dataplane or control plane.
#: Only CEXECs reading these can be *stable* fences — a fence on a
#: counter or queue register can flip between two packets of the same
#: interleaving and proves nothing.
STABLE_FENCE_REGISTERS = ("Switch:SwitchID",)

#: Stable race diagnostic codes with their severity.  Kept separate from
#: the single-program ``TPP0xx`` table in :mod:`repro.core.verifier`:
#: these name *pairs* of programs, not instructions of one program.
RACE_CODES: Dict[str, str] = {
    "TPP020": "error",
    "TPP021": "warning",
    "TPP022": "error",
    "TPP023": "info",
}

#: Opcodes whose switch operand genuinely *reads* a value an end-host
#: observes (directly or through arithmetic).  CSTORE also reads its
#: destination, but that read is part of the claim protocol itself and
#: is classified as a claim, not a read.
_SRAM_READING_OPCODES = frozenset({
    Opcode.PUSH, Opcode.LOAD, Opcode.CEXEC,
    Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
    Opcode.MIN, Opcode.MAX,
})

#: Opcodes that store into their switch operand unconditionally.
_SRAM_PLAIN_WRITING_OPCODES = SWITCH_WRITING_OPCODES - {Opcode.CSTORE}


def _index_map(
        pairs: Iterable[Tuple[int, int]]) -> Dict[int, Tuple[int, ...]]:
    """Group ``(word, instruction)`` pairs into word → sorted indices."""
    grouped: Dict[int, List[int]] = {}
    for word, index in pairs:
        grouped.setdefault(word, []).append(index)
    return {word: tuple(sorted(indices))
            for word, indices in grouped.items()}


class ProgramAccessSummary:
    """Word-level SRAM access sets of one program.

    ``reads`` / ``writes`` / ``claims`` map an absolute SRAM word index
    to the (sorted) instruction indices performing that access.  The
    summary is the unit the fleet analysis intersects; it is cheap to
    build (one linear scan) and cheap to carry inside a
    :class:`~repro.core.verifier.VerifiedProgram` certificate.

    ``fences`` holds the program's provably-stable CEXEC fences as
    ``(instruction_index, switch_vaddr, mask, expected)`` tuples (see
    :func:`collect_constant_fences`); an access at index ``i`` is
    guarded by every fence at a smaller index.  Accesses whose own guard
    set is self-contradictory are statically unreachable and dropped at
    construction, so every index the maps carry can actually execute on
    some switch.
    """

    __slots__ = ("name", "task_id", "program_key",
                 "reads", "writes", "claims", "fences",
                 "relational", "word_size")

    def __init__(self, name: str, task_id: int, program_key: bytes,
                 reads: Dict[int, Tuple[int, ...]],
                 writes: Dict[int, Tuple[int, ...]],
                 claims: Dict[int, Tuple[int, ...]],
                 fences: Tuple[Tuple[int, int, int, int], ...] = (),
                 relational: Optional[RelationalSummary] = None,
                 word_size: int = 4,
                 ) -> None:
        self.name = name
        self.task_id = task_id
        self.program_key = program_key
        self.fences = tuple(sorted(fences))
        self.relational = relational
        self.word_size = word_size
        self.reads = self._drop_unreachable(reads)
        self.writes = self._drop_unreachable(writes)
        self.claims = self._drop_unreachable(claims)

    def guards(self, index: int) -> Tuple[Tuple[int, int, int], ...]:
        """The fence predicates guarding the instruction at ``index``
        (every stable CEXEC at a smaller index)."""
        return tuple((addr, mask, expected)
                     for fence_index, addr, mask, expected in self.fences
                     if fence_index < index)

    def _drop_unreachable(
            self, table: Dict[int, Tuple[int, ...]],
    ) -> Dict[int, Tuple[int, ...]]:
        if not self.fences:
            return table
        filtered: Dict[int, Tuple[int, ...]] = {}
        for word, indices in table.items():
            live = tuple(i for i in indices
                         if not _self_contradictory(self.guards(i)))
            if live:
                filtered[word] = live
        return filtered

    @property
    def key(self) -> Tuple[bytes, int]:
        """Fleet-membership key: one entry per (program, task) pair."""
        return (self.program_key, self.task_id)

    @property
    def words(self) -> Set[int]:
        """Every SRAM word this program touches, any access kind."""
        return (set(self.reads) | set(self.writes) | set(self.claims))

    @property
    def touches_sram(self) -> bool:
        """Whether the fleet analysis has anything to look at."""
        return bool(self.reads or self.writes or self.claims)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (``tppasm racecheck --json``)."""
        def render(table: Dict[int, Tuple[int, ...]]) -> Dict[str, Any]:
            return {str(word): list(indices)
                    for word, indices in sorted(table.items())}
        return {
            "name": self.name,
            "task_id": self.task_id,
            "program_key": self.program_key.hex(),
            "reads": render(self.reads),
            "writes": render(self.writes),
            "claims": render(self.claims),
            "fences": [list(fence) for fence in self.fences],
        }


def collect_sram_accesses(
        instructions: Sequence[Instruction],
) -> Tuple[Tuple[Tuple[int, int], ...],
           Tuple[Tuple[int, int], ...],
           Tuple[Tuple[int, int], ...]]:
    """Scan a program for SRAM accesses.

    Returns ``(reads, writes, claims)``, each a tuple of
    ``(absolute_sram_word, instruction_index)`` pairs — the flat shape
    embedded into verifier certificates.
    """
    reads: List[Tuple[int, int]] = []
    writes: List[Tuple[int, int]] = []
    claims: List[Tuple[int, int]] = []
    for index, instruction in enumerate(instructions):
        if not is_sram(instruction.addr):
            continue
        word = instruction.addr - SRAM_BASE
        opcode = instruction.opcode
        if opcode == Opcode.CSTORE:
            claims.append((word, index))
        elif opcode in _SRAM_PLAIN_WRITING_OPCODES:
            writes.append((word, index))
        elif opcode in _SRAM_READING_OPCODES:
            reads.append((word, index))
    return tuple(reads), tuple(writes), tuple(claims)


def written_byte_intervals(instructions: Sequence[Instruction], *,
                           mode: Any,
                           word_size: int,
                           memory_len: int,
                           perhop_len_bytes: int = 0,
                           max_hops: Optional[int] = None,
                           ) -> List[Tuple[int, int]]:
    """Over-approximated byte ranges any instruction can write into
    packet memory across the whole hop horizon.

    The single source of truth for "which packet-memory bytes are
    provably constant": the verifier's dead-code analysis and the fence
    extraction below both exclude these intervals.  PUSH coverage uses
    the per-instruction SP prefix sums over the worst achievable per-hop
    growth; LOAD/arithmetic write back at their operand (striding per
    hop in hop mode); CSTORE writes the old switch value over its
    condition word.
    """
    hop_mode = mode == AddressingMode.HOP
    word = word_size
    n = len(instructions)
    horizon = max_hops if max_hops is not None else FENCE_SCAN_LIMIT
    top_hop = max(horizon - 1, 0)
    prefix = [0] * (n + 1)
    for j, instruction in enumerate(instructions):
        delta = 0
        if instruction.opcode == Opcode.PUSH:
            delta = word
        elif instruction.opcode == Opcode.POP:
            delta = -word
        prefix[j + 1] = prefix[j] + delta
    deltas = {prefix[n]}
    for k, instruction in enumerate(instructions):
        if instruction.opcode == Opcode.CEXEC:
            deltas.add(prefix[k])
    dmax = max(deltas)
    pushes = [j for j, i in enumerate(instructions)
              if i.opcode == Opcode.PUSH]
    intervals: List[Tuple[int, int]] = []
    if pushes:
        growth = top_hop * max(dmax, 0)
        hi = max(growth + prefix[j] + word for j in pushes)
        intervals.append((0, min(hi, memory_len)))
    for j, instruction in enumerate(instructions):
        opcode = instruction.opcode
        base = instruction.offset * word
        if opcode == Opcode.LOAD or opcode in (
                Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR,
                Opcode.XOR, Opcode.MIN, Opcode.MAX):
            if hop_mode and opcode in HOP_RELATIVE_OPCODES:
                intervals.append((base,
                                  top_hop * perhop_len_bytes + base + word))
            else:
                intervals.append((base, base + word))
        elif opcode == Opcode.CSTORE:
            # Writes the old switch value back over the cond word.
            intervals.append((base, base + word))
    return intervals


def collect_constant_fences(instructions: Sequence[Instruction], *,
                            mode: Any,
                            word_size: int,
                            memory_len: int,
                            perhop_len_bytes: int = 0,
                            initial_memory: Optional[bytes] = None,
                            max_hops: Optional[int] = None,
                            memory_map: Optional[MemoryMap] = None,
                            ) -> Tuple[Tuple[int, int, int, int], ...]:
    """Extract the provably-stable CEXEC fences of one program.

    Returns ``(instruction_index, switch_vaddr, mask, expected)`` tuples
    for every CEXEC that (a) reads a :data:`STABLE_FENCE_REGISTERS`
    register and (b) takes its mask/value operand pair from packet-memory
    bytes no instruction can overwrite on any hop within the horizon.
    Such a fence evaluates identically on every execution of the program
    on a given switch, so it partitions the fleet's interleavings; every
    access at a later index is guarded by it (CEXEC kills the program
    suffix).  Without an initial memory image nothing is provable and
    the result is empty — the conservative, pre-fence behaviour.
    """
    if initial_memory is None:
        return ()
    resolver = (memory_map if memory_map is not None
                else MemoryMap.shared_standard())
    stable_addrs = set()
    for name in STABLE_FENCE_REGISTERS:
        try:
            stable_addrs.add(resolver.resolve(name))
        except KeyError:  # pragma: no cover - custom maps may omit it
            continue
    if not stable_addrs:
        return ()
    cexecs = [(j, i) for j, i in enumerate(instructions)
              if i.opcode == Opcode.CEXEC and i.addr in stable_addrs]
    if not cexecs:
        return ()
    written = written_byte_intervals(
        instructions, mode=mode, word_size=word_size,
        memory_len=memory_len, perhop_len_bytes=perhop_len_bytes,
        max_hops=max_hops)
    word = word_size
    fences: List[Tuple[int, int, int, int]] = []
    for j, instruction in cexecs:
        base = instruction.offset * word
        end = base + 2 * word
        if end > len(initial_memory) or end > memory_len:
            continue
        if any(lo < end and base < hi for lo, hi in written):
            continue  # operands are mutable: the fence can flip
        mask = int.from_bytes(initial_memory[base:base + word], "big")
        expected = int.from_bytes(initial_memory[base + word:end], "big")
        fences.append((j, instruction.addr, mask, expected))
    return tuple(fences)


def _exclusive_guards(guards_a: Tuple[Tuple[int, int, int], ...],
                      guards_b: Tuple[Tuple[int, int, int], ...]) -> bool:
    """Whether two guard sets can never both pass on one switch.

    True iff they contain fences on the same stable register with the
    same mask but different expected values — at most one of the two
    predicates holds for any register value.  Matching predicates are
    *not* exclusive: the analysis does not know the register's value,
    and on some switch both pass.
    """
    for addr_a, mask_a, expected_a in guards_a:
        for addr_b, mask_b, expected_b in guards_b:
            if (addr_a == addr_b and mask_a == mask_b
                    and expected_a != expected_b):
                return True
    return False


def _falsified(guards: Tuple[Tuple[int, int, int], ...],
               fence_values: Optional[Mapping[int, int]]) -> bool:
    """Whether known per-switch register values kill this guard set.

    ``fence_values`` maps a stable register's switch vaddr to its
    concrete value on the switch the analysis is run for.  A fence on a
    bound register passes iff ``value & mask == expected``; one failing
    fence makes every access behind it unreachable on that switch.
    Unbound registers stay unknowns (handled by mutual exclusion).
    """
    if not fence_values or not guards:
        return False
    for addr, mask, expected in guards:
        value = fence_values.get(addr)
        if value is not None and (value & mask) != expected:
            return True
    return False


def _self_contradictory(
        guards: Tuple[Tuple[int, int, int], ...]) -> bool:
    """Whether one access's own guard set can never all pass: a fence
    whose expected value has bits outside its mask (never true), or two
    fences on the same register/mask demanding different values."""
    for _, mask, expected in guards:
        if expected & ~mask:
            return True
    return _exclusive_guards(guards, guards)


def _apply_relational_statics(
        reads: Dict[int, Tuple[int, ...]],
        writes: Dict[int, Tuple[int, ...]],
        claims: Dict[int, Tuple[int, ...]],
        relational: RelationalSummary,
) -> Tuple[Dict[int, Tuple[int, ...]], Dict[int, Tuple[int, ...]],
           Dict[int, Tuple[int, ...]]]:
    """Fold fleet-independent relational facts into the access maps.

    These refinements hold on *every* switch, for any fleet around the
    program, so they are applied once at summary construction:

    - accesses past a relationally-false CEXEC never execute;
    - reads whose value provably never reaches an observable cannot
      produce divergence;
    - stores proven to write the word's current value back are no-ops;
    - claims that provably never fire (or that fire but store the value
      they matched) never change the word — their old-value write-back
      still *observes* it, so they demote to reads unless the write-back
      itself is provably dead.
    """
    dead_at = relational.dead_suffix_at

    def trim(table: Dict[int, Tuple[int, ...]],
             drop: Set[int]) -> Dict[int, Tuple[int, ...]]:
        out: Dict[int, Tuple[int, ...]] = {}
        for word, indices in table.items():
            live = tuple(
                i for i in indices
                if i not in drop and (dead_at is None or i <= dead_at))
            if live:
                out[word] = live
        return out

    reads = trim(reads, set(relational.dead_reads))
    writes = trim(writes, {e.index for e in relational.writes
                           if e.inert})
    demoted: Set[int] = set()
    observing: Dict[int, List[int]] = {}
    obs_dead = set(relational.dead_claim_obs)
    for effect in relational.claims:
        if effect.fire == FIRE_NEVER:
            inert_claim = True
        else:
            conds = (frozenset(a[1] for a in effect.conds)
                     if effect.conds is not None and all(
                         a[0] == "c" for a in effect.conds) else None)
            srcs = (frozenset(a[1] for a in effect.srcs)
                    if effect.srcs is not None and all(
                        a[0] == "c" for a in effect.srcs) else None)
            inert_claim = (conds is not None and srcs is not None
                           and len(conds) == 1 and conds == srcs)
        if inert_claim:
            demoted.add(effect.index)
            if effect.index not in obs_dead:
                observing.setdefault(effect.word, []).append(
                    effect.index)
    if demoted:
        claims = trim(claims, demoted)
        reads = dict(reads)
        for word, indices in observing.items():
            merged = sorted(set(reads.get(word, ())) | set(indices))
            reads[word] = tuple(merged)
    return reads, writes, claims


def summarize_instructions(instructions: Sequence[Instruction], *,
                           task_id: int = 0,
                           mode: Any = None,
                           word_size: int = 4,
                           name: str = "",
                           program_key: Optional[bytes] = None,
                           memory_len: int = 0,
                           perhop_len_bytes: int = 0,
                           initial_memory: Optional[bytes] = None,
                           max_hops: Optional[int] = None,
                           memory_map: Optional[MemoryMap] = None,
                           entry: Optional[int] = None,
                           ) -> ProgramAccessSummary:
    """Build a :class:`ProgramAccessSummary` from decoded instructions.

    ``initial_memory`` (plus the memory geometry) enables the
    constant-fence and relational refinements; without it the summary is
    the plain may-access one.  ``entry`` pins the hop/SP counter
    executions enter with at the deployment point under analysis (see
    :func:`repro.core.relational.analyze_relations`); ``None`` keeps
    the relational pass conservative over the whole counter interval.
    """
    if program_key is None:
        program_key = program_key_of(
            list(instructions),
            AddressingMode.STACK if mode is None else mode, word_size)
    reads, writes, claims = collect_sram_accesses(instructions)
    fences = collect_constant_fences(
        instructions,
        mode=AddressingMode.STACK if mode is None else mode,
        word_size=word_size, memory_len=memory_len,
        perhop_len_bytes=perhop_len_bytes,
        initial_memory=initial_memory, max_hops=max_hops,
        memory_map=memory_map)
    reads_map = _index_map(reads)
    writes_map = _index_map(writes)
    claims_map = _index_map(claims)
    relational: Optional[RelationalSummary] = None
    if initial_memory is not None:
        relational = analyze_relations(
            instructions,
            mode=AddressingMode.STACK if mode is None else mode,
            word_size=word_size, memory_len=memory_len,
            perhop_len_bytes=perhop_len_bytes,
            initial_memory=initial_memory, entry=entry,
            memory_map=memory_map)
        reads_map, writes_map, claims_map = _apply_relational_statics(
            reads_map, writes_map, claims_map, relational)
        if relational.stable_fences:
            fences = tuple(sorted(
                set(fences) | set(relational.stable_fences)))
    return ProgramAccessSummary(
        name=name or f"{program_key.hex()[:12]}/t{task_id}",
        task_id=task_id,
        program_key=program_key,
        reads=reads_map,
        writes=writes_map,
        claims=claims_map,
        fences=fences,
        relational=relational,
        word_size=word_size,
    )


def summarize_section(tpp: TPPSection,
                      name: str = "") -> ProgramAccessSummary:
    """Summary of an in-flight (wire-decoded) TPP section.

    The section's current hop/SP counter is the entry counter any
    further execution of this frame uses, so the relational pass runs
    pinned to it.
    """
    return summarize_instructions(
        tpp.instructions, task_id=tpp.task_id, mode=tpp.mode,
        word_size=tpp.word_size, name=name,
        program_key=tpp.program_key,
        memory_len=len(tpp.memory),
        perhop_len_bytes=tpp.perhop_len_bytes,
        initial_memory=bytes(tpp.memory),
        entry=tpp.hop_or_sp)


def summarize_program(program: Any, task_id: int = 0,
                      name: str = "") -> ProgramAccessSummary:
    """Summary of an :class:`~repro.core.assembler.AssembledProgram`.

    Freshly built programs enter the network with counter ``0``
    (``build()`` stamps ``hop_or_sp = 0``), so the relational pass is
    pinned to entry ``0`` — the state the admission point sees.
    """
    return summarize_instructions(
        program.instructions, task_id=task_id, mode=program.mode,
        word_size=program.word_size, name=name,
        memory_len=len(program.initial_memory),
        perhop_len_bytes=program.perhop_len_bytes,
        initial_memory=bytes(program.initial_memory),
        max_hops=getattr(program, "hops", None),
        entry=0)


def summarize_certificate(certificate: Any,
                          name: str = "") -> ProgramAccessSummary:
    """Summary reconstructed from a verifier certificate's pinned sets.

    Certificates (:class:`~repro.core.verifier.VerifiedProgram`) embed
    the flat access tuples so admission layers — notably
    :meth:`repro.core.tcpu.TCPU.trust` — can race-check a program
    without ever seeing its instructions.

    Certificates pin the *raw* access tuples plus the relational facts
    separately (backward compatible either way); the fleet-independent
    relational refinements fold in here, exactly as they do when
    summarizing from instructions.
    """
    reads_map = _index_map(certificate.sram_reads)
    writes_map = _index_map(certificate.sram_writes)
    claims_map = _index_map(certificate.sram_claims)
    relational = getattr(certificate, "sram_relational", None)
    if relational is not None:
        reads_map, writes_map, claims_map = _apply_relational_statics(
            reads_map, writes_map, claims_map, relational)
    return ProgramAccessSummary(
        name=(name or f"{certificate.program_key.hex()[:12]}"
                      f"/t{certificate.task_id}"),
        task_id=certificate.task_id,
        program_key=certificate.program_key,
        reads=reads_map,
        writes=writes_map,
        claims=claims_map,
        # Old certificates carry no fences or relational facts: the
        # conservative pre-fence analysis applies unchanged.
        fences=getattr(certificate, "sram_fences", ()),
        relational=relational,
        word_size=getattr(certificate, "word_size", 4),
    )


@dataclass(frozen=True)
class RaceDiagnostic:
    """One pairwise finding: two named programs, one SRAM word."""

    code: str                          #: ``TPP020``..``TPP023``
    severity: str                      #: ``error`` | ``warning`` | ``info``
    message: str
    word: int                          #: absolute SRAM word index
    vaddr: int                         #: ``SRAM_BASE + word``
    task_id: int
    program_a: str
    program_b: str
    instructions_a: Tuple[int, ...]    #: offending indices in program a
    instructions_b: Tuple[int, ...]    #: offending indices in program b

    def format(self) -> str:
        """Human-readable one-liner."""
        return (f"{self.code} {self.severity}: {self.message} "
                f"[Sram:Word{self.word} @ {self.vaddr:#06x}, "
                f"task {self.task_id}; {self.program_a} instr "
                f"{list(self.instructions_a)} vs {self.program_b} "
                f"instr {list(self.instructions_b)}]")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "word": self.word,
            "vaddr": self.vaddr,
            "task_id": self.task_id,
            "program_a": self.program_a,
            "program_b": self.program_b,
            "instructions_a": list(self.instructions_a),
            "instructions_b": list(self.instructions_b),
        }


def _sort_key(diagnostic: RaceDiagnostic) -> Tuple:
    return (diagnostic.task_id, diagnostic.word, diagnostic.code,
            diagnostic.program_a, diagnostic.program_b)


def check_pair(a: ProgramAccessSummary,
               b: ProgramAccessSummary,
               fence_values: Optional[Mapping[int, int]] = None,
               ) -> List[RaceDiagnostic]:
    """Race diagnostics between two programs (same task only).

    The pair is canonically ordered by ``(name, program_key)`` before
    classification, so the result is identical no matter which way the
    caller hands the two summaries in — a requirement for the
    incremental table to match a from-scratch pass exactly.
    ``fence_values`` binds stable registers to the target switch's
    values (see module docstring); ``None`` keeps them unknown.
    """
    if a.task_id != b.task_id:
        return []  # disjoint protection domains: TPP007's job
    a, b = sorted((a, b), key=lambda s: (s.name, s.program_key))
    shared = a.words & b.words
    diagnostics: List[RaceDiagnostic] = []
    for word in sorted(shared):
        finding = _classify_word(a, b, word, fence_values)
        if finding is not None:
            diagnostics.append(finding)
    return diagnostics


def _live_pairs(a: ProgramAccessSummary, indices_a: Tuple[int, ...],
                b: ProgramAccessSummary, indices_b: Tuple[int, ...],
                fence_values: Optional[Mapping[int, int]] = None,
                ) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Filter two access-index sets down to the co-executable pairs.

    An access dead on the bound switch (a guard falsified by
    ``fence_values``) is dropped outright.  Of the remainder, an access
    of ``a`` and an access of ``b`` are co-executable unless their guard
    sets contain mutually exclusive stable fences — then no single
    switch can ever run both, so the pair cannot race there.  Returns
    the surviving indices on each side, or ``None`` when no cross pair
    survives (guard sets without fences always survive: the pre-fence
    may-access behaviour).
    """
    if not indices_a or not indices_b:
        return None
    if not a.fences and not b.fences:
        return (indices_a, indices_b)  # fast path: nothing to exclude
    guards_a = {i: a.guards(i) for i in indices_a
                if not _falsified(a.guards(i), fence_values)}
    guards_b = {j: b.guards(j) for j in indices_b
                if not _falsified(b.guards(j), fence_values)}
    live_a = tuple(i for i in guards_a
                   if any(not _exclusive_guards(guards_a[i], guards_b[j])
                          for j in guards_b))
    live_b = tuple(j for j in guards_b
                   if any(not _exclusive_guards(guards_a[i], guards_b[j])
                          for i in guards_a))
    if live_a and live_b:
        return (live_a, live_b)
    return None


def _classify_word(a: ProgramAccessSummary, b: ProgramAccessSummary,
                   word: int,
                   fence_values: Optional[Mapping[int, int]] = None,
                   ) -> Optional[RaceDiagnostic]:
    """Most severe applicable classification for one shared word.

    Each relation only fires for *co-executable* access pairs: accesses
    separated by mutually exclusive constant fences run on disjoint
    switches and cannot interleave (see :func:`_live_pairs`).
    """
    writes_a = a.writes.get(word, ())
    writes_b = b.writes.get(word, ())
    claims_a = a.claims.get(word, ())
    claims_b = b.claims.get(word, ())
    reads_a = a.reads.get(word, ())
    reads_b = b.reads.get(word, ())

    def build(code: str, message: str,
              indices_a: Tuple[int, ...],
              indices_b: Tuple[int, ...]) -> RaceDiagnostic:
        return RaceDiagnostic(
            code=code, severity=RACE_CODES[code], message=message,
            word=word, vaddr=SRAM_BASE + word, task_id=a.task_id,
            program_a=a.name, program_b=b.name,
            instructions_a=indices_a, instructions_b=indices_b)

    ww = _live_pairs(a, writes_a, b, writes_b, fence_values)
    if ww is not None:
        return build(
            "TPP020",
            f"write-write race: {a.name} and {b.name} both store to "
            f"Sram:Word{word} with no CSTORE claim protocol",
            ww[0], ww[1])
    claim_vs_write = _live_pairs(a, claims_a, b, writes_b, fence_values)
    write_vs_claim = _live_pairs(a, writes_a, b, claims_b, fence_values)
    if claim_vs_write is not None or write_vs_claim is not None:
        if claim_vs_write is not None:
            claimer, writer = a, b
            indices_a, indices_b = claim_vs_write
        else:
            claimer, writer = b, a
            indices_a, indices_b = write_vs_claim
        return build(
            "TPP022",
            f"claim protocol violated: {claimer.name} claims "
            f"Sram:Word{word} via CSTORE but {writer.name} writes it "
            f"unconditionally",
            indices_a, indices_b)
    mutates_a = tuple(sorted(writes_a + claims_a))
    mutates_b = tuple(sorted(writes_b + claims_b))
    aw_read_b = _live_pairs(a, mutates_a, b, reads_b, fence_values)
    bw_read_a = _live_pairs(a, reads_a, b, mutates_b, fence_values)
    if aw_read_b is not None or bw_read_a is not None:
        # Both directions may race at once (each side reads what the
        # other writes); the diagnostic merges the involved indices of
        # both, so ``instructions_a``/``instructions_b`` carry every
        # offending index per program — the same per-pair shape TPP020
        # reports.
        merged_a: Set[int] = set()
        merged_b: Set[int] = set()
        if aw_read_b is not None:
            writer, reader = a, b
            merged_a.update(aw_read_b[0])
            merged_b.update(aw_read_b[1])
        if bw_read_a is not None:
            if aw_read_b is None:
                writer, reader = b, a
            merged_a.update(bw_read_a[0])
            merged_b.update(bw_read_a[1])
        return build(
            "TPP021",
            f"read-write race: {reader.name} reads Sram:Word{word} "
            f"which {writer.name} writes — torn-read risk, value "
            f"depends on packet interleaving",
            tuple(sorted(merged_a)), tuple(sorted(merged_b)))
    cc = _live_pairs(a, claims_a, b, claims_b, fence_values)
    if cc is not None:
        return build(
            "TPP023",
            f"claim-coordinated sharing: {a.name} and {b.name} both "
            f"CSTORE Sram:Word{word} — sanctioned protocol, but the "
            f"winning claim depends on arrival order",
            cc[0], cc[1])
    return None  # read-read sharing is always safe


@dataclass
class FleetRaceReport:
    """Everything one fleet-wide analysis established."""

    programs: List[str]
    diagnostics: List[RaceDiagnostic]
    pairs_checked: int = 0

    @property
    def ok(self) -> bool:
        """No error-severity diagnostics (TPP020/TPP022)."""
        return not self.errors

    @property
    def race_free(self) -> bool:
        """No diagnostics at all: the fleet is provably order
        insensitive — every interleaving of whole-program executions
        yields bit-identical final SRAM."""
        return not self.diagnostics

    @property
    def errors(self) -> List[RaceDiagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[RaceDiagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    def by_code(self) -> Dict[str, int]:
        """Diagnostic counts keyed by code (stable order)."""
        counts: Dict[str, int] = {}
        for diagnostic in self.diagnostics:
            counts[diagnostic.code] = counts.get(diagnostic.code, 0) + 1
        return dict(sorted(counts.items()))

    def format(self) -> str:
        """All diagnostics plus a verdict line, human-readable."""
        lines = [d.format() for d in self.diagnostics]
        n_err, n_warn = len(self.errors), len(self.warnings)
        verdict = ("race-free" if self.race_free
                   else "racy" if not self.ok else "shared")
        lines.append(
            f"{verdict}: {len(self.programs)} program(s), "
            f"{self.pairs_checked} pair(s) checked, {n_err} error(s), "
            f"{n_warn} warning(s)")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return {
            "ok": self.ok,
            "race_free": self.race_free,
            "programs": list(self.programs),
            "pairs_checked": self.pairs_checked,
            "by_code": self.by_code(),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


def _refine_summary(summary: ProgramAccessSummary,
                    reach: ReachTable) -> ProgramAccessSummary:
    """Apply claim-epoch facts for one switch to one summary.

    Claims whose condition constant is outside the word's reachable
    epochs can never fire on this switch: they demote to reads (the
    old-value write-back still observes the word) or vanish when the
    write-back itself is provably dead.  Stores of a value the word
    always holds can never change it and drop out.  Returns the summary
    unchanged when nothing refines.
    """
    relational = summary.relational
    if relational is None:
        return summary
    mask = (1 << (8 * summary.word_size)) - 1
    task = summary.task_id
    dropped_writes: Set[int] = set()
    for effect in relational.writes:
        if not write_mutates(effect, task, reach, mask):
            dropped_writes.add(effect.index)
    dropped_claims: Set[int] = set()
    observing: Dict[int, List[int]] = {}
    obs_dead = set(relational.dead_claim_obs)
    for effect in relational.claims:
        if claim_mutates(effect, task, reach, mask):
            continue
        dropped_claims.add(effect.index)
        if effect.index not in obs_dead:
            observing.setdefault(effect.word, []).append(effect.index)
    dropped_writes &= {i for idxs in summary.writes.values()
                       for i in idxs}
    dropped_claims &= {i for idxs in summary.claims.values()
                       for i in idxs}
    if not dropped_writes and not dropped_claims:
        return summary

    def strip(table: Dict[int, Tuple[int, ...]],
              drop: Set[int]) -> Dict[int, Tuple[int, ...]]:
        out: Dict[int, Tuple[int, ...]] = {}
        for word, indices in table.items():
            live = tuple(i for i in indices if i not in drop)
            if live:
                out[word] = live
        return out

    reads = dict(summary.reads)
    for word, indices in observing.items():
        reads[word] = tuple(sorted(
            set(reads.get(word, ())) | set(indices)))
    return ProgramAccessSummary(
        name=summary.name, task_id=summary.task_id,
        program_key=summary.program_key,
        reads=reads,
        writes=strip(summary.writes, dropped_writes),
        claims=strip(summary.claims, dropped_claims),
        fences=summary.fences,
        relational=relational,
        word_size=summary.word_size)


def refine_for_switch(
        summaries: Sequence[ProgramAccessSummary],
        sram_values: Mapping[int, int],
        floor: Optional[ReachTable] = None,
) -> Tuple[List[ProgramAccessSummary], ReachTable]:
    """Refine a fleet's summaries against one switch's SRAM image.

    Runs the claim-epoch reachability fixpoint
    (:func:`repro.core.relational.reachable_values`) over the whole
    membership, then rewrites each summary so the pairwise
    classification only counts accesses that can actually mutate or
    observe on this switch.  ``floor`` seeds the fixpoint with values
    already reachable from earlier membership states (see
    :class:`FleetRaceTable`).
    """
    word_size = summaries[0].word_size if summaries else 4
    reach = reachable_values(
        [(s, s.relational) for s in summaries], sram_values,
        word_size=word_size, floor=floor)
    return [_refine_summary(s, reach) for s in summaries], reach


def check_fleet(
        summaries: Sequence[ProgramAccessSummary],
        fence_values: Optional[Mapping[int, int]] = None,
        sram_values: Optional[Mapping[int, int]] = None,
        ) -> FleetRaceReport:
    """From-scratch pairwise analysis over a whole fleet.

    The reference semantics the incremental :class:`FleetRaceTable`
    must match; diagnostics come out in a canonical order so reports
    are directly comparable.  ``fence_values`` binds stable registers
    to one switch's values, refining every pair (see module docstring);
    ``sram_values`` additionally binds the switch's initial SRAM image,
    enabling the claim-epoch refinement (:func:`refine_for_switch`).
    """
    if sram_values is not None and summaries:
        summaries = refine_for_switch(summaries, sram_values)[0]
    diagnostics: List[RaceDiagnostic] = []
    pairs = 0
    for i in range(len(summaries)):
        for j in range(i + 1, len(summaries)):
            pairs += 1
            diagnostics.extend(
                check_pair(summaries[i], summaries[j], fence_values))
    diagnostics.sort(key=_sort_key)
    return FleetRaceReport(
        programs=[s.name for s in summaries],
        diagnostics=diagnostics,
        pairs_checked=pairs)


class FleetRaceTable:
    """Incrementally maintained fleet membership with race diagnostics.

    Admission layers call :meth:`admit` / :meth:`revoke` as programs
    come and go; the table keeps a word-level index so an admission
    only re-checks the pairs whose access sets actually intersect the
    newcomer's — on a fleet of N programs touching disjoint words,
    admission is O(program size), not O(N).

    A table guards one deployment point.  When that point is a single
    switch (``TCPU.trust``), pass ``fence_values`` with the switch's
    stable register values so constant fences falsified there discount
    their guarded accesses, and optionally ``sram_values`` with the
    switch's SRAM image at binding time to enable the claim-epoch
    refinement; a table spanning many switches (an edge policy) leaves
    both unset and gets the conservative analysis.

    With ``sram_values`` bound the refinement is *fleet-coupled*: an
    admission can enlarge a word's reachable epochs and thereby revive a
    claim an earlier pair check discounted, so the table re-checks every
    pair one of whose refined summaries changed.  Reachability is
    monotone over the table's whole membership **history** — a revoked
    member's writes may persist in physical SRAM, so revocation never
    shrinks the reachable sets (the table stays sound, merely more
    conservative than a from-scratch pass over the survivors).
    """

    def __init__(self,
                 fence_values: Optional[Mapping[int, int]] = None,
                 sram_values: Optional[Mapping[int, int]] = None,
                 ) -> None:
        #: Stable-register bindings for the switch this table guards
        #: (``None`` = unknown, conservative).
        self.fence_values: Optional[Dict[int, int]] = (
            dict(fence_values) if fence_values else None)
        #: Initial SRAM image of the switch this table guards
        #: (``None`` = unknown, conservative).
        self.sram_values: Optional[Dict[int, int]] = (
            dict(sram_values) if sram_values is not None else None)
        self._members: Dict[Tuple[bytes, int], ProgramAccessSummary] = {}
        # Claim-epoch view: per-member refined summaries + the monotone
        # reachable-value table (only populated with ``sram_values``).
        self._refined: Dict[Tuple[bytes, int], ProgramAccessSummary] = {}
        self._reach: ReachTable = {}
        # (task_id, word) -> member keys touching that word (unrefined
        # words: stable under refinement changes).
        self._word_index: Dict[Tuple[int, int],
                               Set[Tuple[bytes, int]]] = {}
        # Unordered pair (sorted key tuple) -> its diagnostics.
        self._pair_diagnostics: Dict[
            Tuple[Tuple[bytes, int], Tuple[bytes, int]],
            List[RaceDiagnostic]] = {}
        #: Pairwise checks actually performed (the incremental-work
        #: counter the conformance tests compare against a full pass).
        self.pair_checks = 0
        #: Admissions that introduced at least one error diagnostic.
        self.racy_admissions = 0

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, key: object) -> bool:
        return key in self._members

    @property
    def members(self) -> List[ProgramAccessSummary]:
        """Current membership in admission order."""
        return list(self._members.values())

    def member(self, key: Tuple[bytes, int]
               ) -> Optional[ProgramAccessSummary]:
        """Membership lookup by ``(program_key, task_id)``."""
        return self._members.get(key)

    def admit(self,
              summary: ProgramAccessSummary) -> List[RaceDiagnostic]:
        """Add a program; returns every diagnostic it participates in.

        Idempotent: re-admitting a member returns its current
        diagnostics without re-running any pair.  Only pairs sharing at
        least one SRAM word with the newcomer are checked.
        """
        key = summary.key
        if key in self._members:
            return self.diagnostics_for(key)
        self._members[key] = summary
        for word in summary.words:
            index_key = (summary.task_id, word)
            self._word_index.setdefault(index_key, set()).add(key)
        if self.sram_values is not None:
            self._resync({key})
            introduced = self.diagnostics_for(key)
        else:
            rivals = self._rivals_of(key)
            introduced = []
            for rival_key in rivals:
                rival = self._members[rival_key]
                self.pair_checks += 1
                findings = check_pair(summary, rival, self.fence_values)
                if findings:
                    self._pair_diagnostics[_pair_key(key, rival_key)] = (
                        findings)
                    introduced.extend(findings)
            introduced.sort(key=_sort_key)
        if any(d.severity == "error" for d in introduced):
            self.racy_admissions += 1
        return introduced

    def _rivals_of(self, key: Tuple[bytes, int]
                   ) -> Set[Tuple[bytes, int]]:
        summary = self._members[key]
        rivals: Set[Tuple[bytes, int]] = set()
        for word in summary.words:
            bucket = self._word_index.get((summary.task_id, word))
            if bucket:
                rivals.update(bucket)
        rivals.discard(key)
        return rivals

    def _resync(self, seeds: Set[Tuple[bytes, int]]) -> None:
        """Re-run the claim-epoch refinement after a membership change.

        ``seeds`` are members whose pairs must be re-checked regardless
        (the newcomer).  Any member whose *refined* summary changed —
        the fixpoint is fleet-coupled, so an admission can revive a
        claim elsewhere — joins them.  The previous reachable table
        seeds the new fixpoint as a monotone floor.
        """
        assert self.sram_values is not None
        keys = list(self._members)
        refined, self._reach = refine_for_switch(
            [self._members[k] for k in keys], self.sram_values,
            floor=self._reach)
        changed = set(seeds)
        for k, view in zip(keys, refined):
            old = self._refined.get(k)
            if old is None or _access_fingerprint(old) != \
                    _access_fingerprint(view):
                changed.add(k)
            self._refined[k] = view
        for k in [k for k in self._refined if k not in self._members]:
            del self._refined[k]
        pairs_to_check: Set[Tuple[Tuple[bytes, int],
                                  Tuple[bytes, int]]] = set()
        for k in changed:
            if k not in self._members:
                continue
            for rival_key in self._rivals_of(k):
                pairs_to_check.add(_pair_key(k, rival_key))
        for pair in pairs_to_check:
            self._pair_diagnostics.pop(pair, None)
            self.pair_checks += 1
            findings = check_pair(self._refined[pair[0]],
                                  self._refined[pair[1]],
                                  self.fence_values)
            if findings:
                self._pair_diagnostics[pair] = findings

    def revoke(self, key_or_summary: Any) -> bool:
        """Retire a member (and every diagnostic naming it).

        Accepts a summary, a certificate-like object (anything with
        ``program_key`` and ``task_id``), or a raw
        ``(program_key, task_id)`` tuple.  Returns whether the member
        existed.
        """
        key = _member_key(key_or_summary)
        summary = self._members.pop(key, None)
        if summary is None:
            return False
        for word in summary.words:
            index_key = (summary.task_id, word)
            bucket = self._word_index.get(index_key)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._word_index[index_key]
        for pair in [p for p in self._pair_diagnostics if key in p]:
            del self._pair_diagnostics[pair]
        self._refined.pop(key, None)
        if self.sram_values is not None and self._members:
            # The floor keeps every historically reachable value, so
            # surviving pairs normally need no re-check; _resync still
            # runs to keep the refined view and diagnostics coherent.
            self._resync(set())
        return True

    def diagnostics(self) -> List[RaceDiagnostic]:
        """Every active diagnostic, in canonical order."""
        collected: List[RaceDiagnostic] = []
        for findings in self._pair_diagnostics.values():
            collected.extend(findings)
        collected.sort(key=_sort_key)
        return collected

    def diagnostics_for(self,
                        key_or_summary: Any) -> List[RaceDiagnostic]:
        """Active diagnostics involving one member."""
        key = _member_key(key_or_summary)
        collected: List[RaceDiagnostic] = []
        for pair, findings in self._pair_diagnostics.items():
            if key in pair:
                collected.extend(findings)
        collected.sort(key=_sort_key)
        return collected

    def report(self) -> FleetRaceReport:
        """Snapshot equivalent to
        ``check_fleet(self.members, self.fence_values)``."""
        members = self.members
        n = len(members)
        return FleetRaceReport(
            programs=[s.name for s in members],
            diagnostics=self.diagnostics(),
            pairs_checked=n * (n - 1) // 2)


def _access_fingerprint(summary: ProgramAccessSummary) -> Tuple:
    """Hashable digest of the access maps a pair check consumes."""
    return (tuple(sorted(summary.reads.items())),
            tuple(sorted(summary.writes.items())),
            tuple(sorted(summary.claims.items())))


def _member_key(key_or_summary: Any) -> Tuple[bytes, int]:
    if isinstance(key_or_summary, ProgramAccessSummary):
        return key_or_summary.key
    program_key = getattr(key_or_summary, "program_key", None)
    if program_key is not None:
        return (program_key, getattr(key_or_summary, "task_id", 0))
    program_key, task_id = key_or_summary
    return (program_key, task_id)


def _pair_key(a: Tuple[bytes, int], b: Tuple[bytes, int]
              ) -> Tuple[Tuple[bytes, int], Tuple[bytes, int]]:
    return (a, b) if a <= b else (b, a)


# --------------------------------------------------------------------- #
# Cross-switch divergence modeling
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class SwitchBinding:
    """One deployment point's known state for per-switch analysis.

    ``fence_values`` binds the switch's stable registers (vaddr →
    value); ``sram_values`` binds its SRAM image at analysis time (word
    → value).  Either may be ``None`` — that dimension stays unknown and
    the analysis is conservative along it, exactly as in
    :func:`check_fleet`.
    """

    name: str
    fence_values: Optional[Mapping[int, int]] = None
    sram_values: Optional[Mapping[int, int]] = None


@dataclass
class MultiSwitchRaceReport:
    """Per-switch verdicts for one fleet admitted across many switches.

    The same fleet admitted on switches with different stable-register
    values or SRAM allocations diverges (or not) *per switch*: a fence
    falsified on switch A may pass on switch B, and a claim epoch
    reachable on B may be unreachable on A.  Each entry of ``switches``
    is a full :class:`FleetRaceReport` for that binding; the fleet-wide
    verdicts are the conjunctions.
    """

    switches: Dict[str, FleetRaceReport]

    @property
    def ok(self) -> bool:
        """No error-severity diagnostics on any switch."""
        return all(report.ok for report in self.switches.values())

    @property
    def race_free(self) -> bool:
        """Zero diagnostics on every switch: order insensitive
        everywhere the fleet is admitted."""
        return all(report.race_free
                   for report in self.switches.values())

    @property
    def racy_switches(self) -> List[str]:
        """Switch names with at least one error diagnostic."""
        return [name for name, report in self.switches.items()
                if not report.ok]

    def format(self) -> str:
        """Per-switch sections plus a fleet-wide verdict line."""
        lines: List[str] = []
        for name, report in self.switches.items():
            lines.append(f"-- switch {name} --")
            lines.append(report.format())
        verdict = ("race-free" if self.race_free
                   else "racy" if not self.ok else "shared")
        lines.append(f"fleet-wide: {verdict} across "
                     f"{len(self.switches)} switch(es)")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (stable key order)."""
        return {
            "ok": self.ok,
            "race_free": self.race_free,
            "racy_switches": self.racy_switches,
            "switches": {name: report.to_dict()
                         for name, report in self.switches.items()},
        }


def check_fleet_multiswitch(
        summaries: Sequence[ProgramAccessSummary],
        switches: Sequence[SwitchBinding],
) -> MultiSwitchRaceReport:
    """Analyze one fleet against every switch it is admitted on.

    Equivalent to one :func:`check_fleet` per binding — each with that
    switch's ``fence_values``/``sram_values`` — collected into a
    :class:`MultiSwitchRaceReport`.  An empty ``switches`` sequence gets
    the single conservative, unbound analysis under the name ``"*"``.
    """
    if not switches:
        return MultiSwitchRaceReport(
            switches={"*": check_fleet(summaries)})
    reports: Dict[str, FleetRaceReport] = {}
    for binding in switches:
        if binding.name in reports:
            raise ValueError(
                f"duplicate switch binding name: {binding.name!r}")
        reports[binding.name] = check_fleet(
            summaries, fence_values=binding.fence_values,
            sram_values=binding.sram_values)
    return MultiSwitchRaceReport(switches=reports)
