"""Static verification of TPP programs (the eBPF-style admission layer).

The paper's safety story (§3.4) is reactive: a malformed TPP is caught at
runtime, hop by hop, as dataplane faults stamped into the packet.  This
module adds the missing *proactive* layer: an abstract interpreter that,
given the network-wide :class:`~repro.core.memory_map.MemoryMap`, a hop
budget, the word size, and the TCPU's instruction limit, proves program
properties without executing a single instruction:

- **instruction count** against the switch limit (``TPP001``);
- **symbolic stack tracking** — PUSH/POP stack-pointer deltas are summed
  per instruction; because CEXEC kills the *suffix* of a program, every
  per-hop SP delta is a prefix sum, so the reachable SP interval after
  ``h`` hops is exactly ``[h * dmin, h * dmax]`` over the achievable
  per-hop deltas.  Overflow (``TPP002``) and underflow (``TPP003``) are
  therefore decided exactly, not approximated;
- **effective-address range analysis** for hop-relative and absolute
  packet-memory operands, including the ``(offset, offset+1)`` absolute
  pair reads of CSTORE/CEXEC (``TPP004``);
- **address resolution** against the memory map: unmapped regions
  (``TPP005``), writes into read-only statistics (``TPP006``), and —
  when the caller supplies the switch's SRAM allocations — accesses into
  another task's protection domain (``TPP007``);
- **CEXEC reachability**: a conditional whose operand words are provably
  constant and whose condition can never hold makes the rest of the
  program statically dead (``TPP008``); a constant-true conditional is
  reported as ``TPP010``.  The interval analysis only trusts operand
  words *no* instruction can overwrite; the relational pass
  (:mod:`repro.core.relational`) additionally tracks the values writes
  actually store, deciding fences the interval analysis must give up
  on, and names each switch-state write stranded behind a
  relationally-false fence with the ``TPP012`` info code;
- **per-hop memory-budget accounting**: bytes consumed per hop times the
  hop budget against the allocated packet memory (``TPP009``).

A clean program earns a :class:`VerifiedProgram` certificate.  The
certificate is *per-execution* sound: it pins the program fingerprint,
memory length and per-hop stride, and carries a ``[guard_lo, guard_hi]``
interval for the header's hop/SP counter such that **one** execution
starting inside the interval cannot violate packet-memory bounds or the
stack discipline.  The TCPU checks the guard on every execution
(:meth:`repro.core.tcpu.TCPU.trust`) and falls back to the fully-checked
closures when it fails (a corrupted or replayed header), so eliding the
per-instruction bounds checks never changes observable behaviour.
Switch-side protection (read-only statistics, SRAM domains, unbound
addresses) is *not* elided — those faults depend on per-switch state the
verifier cannot see, and stay inside the MMU accessors.

Dead-code analysis (``TPP008``) is deliberately lint-only: it reads the
program's *initial* memory image, but packet memory mutates in flight, so
no check elision is ever based on reachability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.exceptions import FaultCode, TPPError
from repro.core.isa import (
    HOP_RELATIVE_OPCODES,
    Instruction,
    Opcode,
    PAIR_OPERAND_OPCODES,
    SWITCH_WRITING_OPCODES,
)
from repro.core.memory_map import MemoryMap, SRAM_BASE, is_sram, region_of
from repro.core.racecheck import (
    collect_constant_fences,
    collect_sram_accesses,
    written_byte_intervals,
)
from repro.core.relational import (
    RelationalSummary,
    analyze_relations,
)
from repro.core.tcpu import DEFAULT_MAX_INSTRUCTIONS
from repro.core.tpp import AddressingMode, TPPSection, program_key_of

#: Hop horizon for the capacity scan when no explicit budget is given.
#: Far beyond any real path length; it bounds the analysis, not programs.
HOP_SCAN_LIMIT = 1024

#: Upper clamp of certificate guards — the TPP header's hop/SP field is
#: 16 bits, so no in-flight section can carry a larger counter.
GUARD_MAX = 0xFFFF

#: Opcodes that read their switch virtual address.
SWITCH_READING_OPCODES = frozenset({
    Opcode.PUSH, Opcode.LOAD, Opcode.CSTORE, Opcode.CEXEC,
    Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
    Opcode.MIN, Opcode.MAX,
})

#: Stable diagnostic codes with their default severity and the runtime
#: fault each one predicts (``None`` for pure lint findings).
DIAGNOSTIC_CODES: Dict[str, Tuple[str, Optional[FaultCode]]] = {
    "TPP001": ("error", FaultCode.TOO_MANY_INSTRUCTIONS),
    "TPP002": ("error", FaultCode.STACK_OVERFLOW),
    "TPP003": ("error", FaultCode.STACK_UNDERFLOW),
    "TPP004": ("error", FaultCode.MEMORY_BOUNDS),
    "TPP005": ("error", FaultCode.BAD_ADDRESS),
    "TPP006": ("error", FaultCode.WRITE_PROTECTED),
    "TPP007": ("error", FaultCode.SRAM_PROTECTION),
    "TPP008": ("warning", None),
    "TPP009": ("info", None),
    "TPP010": ("info", None),
    "TPP011": ("error", None),
    "TPP012": ("info", None),
}


class VerificationError(TPPError):
    """An enforced admission check rejected a program.

    Carries the full :class:`VerificationResult` so callers can render
    every diagnostic, not just the first.
    """

    def __init__(self, result: "VerificationResult") -> None:
        errors = result.errors
        summary = "; ".join(
            f"{d.code}: {d.message}" for d in errors[:3])
        if len(errors) > 3:
            summary += f" (+{len(errors) - 3} more)"
        super().__init__(f"TPP verification failed: {summary}")
        self.result = result


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the verifier, with a stable machine-readable code."""

    code: str                          #: ``TPP0xx``
    severity: str                      #: ``error`` | ``warning`` | ``info``
    message: str
    instruction: Optional[int] = None  #: index into the program, if any
    line: Optional[int] = None         #: source line, when assembled
    hop: Optional[int] = None          #: earliest hop the fault can occur
    fault: Optional[FaultCode] = None  #: runtime fault this predicts

    def format(self, source_name: str = "") -> str:
        """Human-readable one-liner, ``file:line:`` prefixed when known."""
        prefix = ""
        if source_name:
            prefix = (f"{source_name}:{self.line}: " if self.line
                      else f"{source_name}: ")
        elif self.line:
            prefix = f"line {self.line}: "
        where = []
        if self.instruction is not None:
            where.append(f"instruction {self.instruction}")
        if self.hop is not None:
            where.append(f"hop {self.hop}")
        suffix = f" [{', '.join(where)}]" if where else ""
        return (f"{prefix}{self.code} {self.severity}: "
                f"{self.message}{suffix}")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (for ``tppasm lint --json``)."""
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "instruction": self.instruction,
            "line": self.line,
            "hop": self.hop,
            "fault": self.fault.name if self.fault else None,
        }


@dataclass(frozen=True)
class VerifiedProgram:
    """Certificate that a program is safe to run with checks elided.

    Sound *per execution*: any single execution of the fingerprinted
    program over packet memory of exactly ``memory_len`` bytes (with
    per-hop stride ``perhop_len_bytes``) whose starting hop/SP counter
    lies in ``[guard_lo, guard_hi]`` cannot overrun packet memory or
    violate the stack discipline.  The TCPU re-checks those three pinned
    facts before every execution and silently falls back to the checked
    closures when any fails, so trusting a certificate never changes
    observable behaviour — it only removes provably-dead branches.
    """

    program_key: bytes
    mode: AddressingMode
    word_size: int
    n_instructions: int
    memory_len: int
    perhop_len_bytes: int
    max_hops: int
    guard_lo: int
    guard_hi: int
    has_cexec: bool
    #: Task the program was verified under (TPP007 isolation domain).
    task_id: int = 0
    #: Word-level SRAM access sets as flat ``(word, instruction)``
    #: pairs — the raw material for fleet race analysis
    #: (:mod:`repro.core.racecheck`), pinned into the certificate so
    #: admission layers can race-check without the instructions.
    sram_reads: Tuple[Tuple[int, int], ...] = ()
    sram_writes: Tuple[Tuple[int, int], ...] = ()
    sram_claims: Tuple[Tuple[int, int], ...] = ()
    #: Provably-stable CEXEC fences as ``(index, addr, mask, expected)``
    #: tuples (:func:`repro.core.racecheck.collect_constant_fences`) —
    #: lets the fleet race analysis discount access pairs separated by
    #: mutually exclusive per-switch predicates.  Empty on certificates
    #: minted before the fence model existed: the conservative
    #: may-access analysis applies to those unchanged.
    sram_fences: Tuple[Tuple[int, int, int, int], ...] = ()
    #: Relational facts (:func:`repro.core.relational.analyze_relations`
    #: run with ``entry=None``, i.e. valid for *any* in-guard entry
    #: counter): per-write value descriptions, claim fire conditions,
    #: dead reads and the relationally-dead suffix.  Fleet race analysis
    #: (:func:`repro.core.racecheck.summarize_certificate`) folds the
    #: fleet-independent facts into the access sets and feeds the rest
    #: to the per-switch claim-epoch fixpoint; ``None`` on certificates
    #: minted before the relational layer existed (conservative
    #: may-analysis applies unchanged).
    sram_relational: Optional[RelationalSummary] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (for ``tppasm lint --json``)."""
        return {
            "program_key": self.program_key.hex(),
            "mode": self.mode.name.lower(),
            "word_size": self.word_size,
            "n_instructions": self.n_instructions,
            "memory_len": self.memory_len,
            "perhop_len_bytes": self.perhop_len_bytes,
            "max_hops": self.max_hops,
            "guard_lo": self.guard_lo,
            "guard_hi": self.guard_hi,
            "has_cexec": self.has_cexec,
            "task_id": self.task_id,
            "sram_reads": [list(p) for p in self.sram_reads],
            "sram_writes": [list(p) for p in self.sram_writes],
            "sram_claims": [list(p) for p in self.sram_claims],
            "sram_fences": [list(f) for f in self.sram_fences],
            "sram_relational": (self.sram_relational.to_dict()
                                if self.sram_relational else None),
        }


@dataclass
class VerificationResult:
    """Everything one :func:`verify` call established."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    certificate: Optional[VerifiedProgram] = None
    #: Hop capacity of the allocated packet memory, from the TPP009
    #: budget scan: the first hop whose worst-case stack or bounds
    #: access would fault, or ``None`` when no violation exists inside
    #: the scan horizon (effectively unbounded).  Surfaced structurally
    #: so admission layers can budget hops without parsing diagnostics.
    hop_capacity: Optional[int] = None

    @property
    def ok(self) -> bool:
        """No error-severity diagnostics (warnings/info allowed)."""
        return not self.errors

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    def predicted_faults(self) -> List[FaultCode]:
        """Runtime fault codes the error diagnostics predict, in order."""
        return [d.fault for d in self.errors if d.fault is not None]

    def format(self, source_name: str = "") -> str:
        """All diagnostics plus a verdict line, human-readable."""
        lines = [d.format(source_name) for d in self.diagnostics]
        n_err, n_warn = len(self.errors), len(self.warnings)
        verdict = "verified" if self.ok else "rejected"
        lines.append(f"{verdict}: {n_err} error(s), {n_warn} warning(s)")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (for ``tppasm lint --json``)."""
        return {
            "ok": self.ok,
            "hop_capacity": self.hop_capacity,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "certificate": (self.certificate.to_dict()
                            if self.certificate else None),
        }

    def raise_on_error(self) -> "VerificationResult":
        """Raise :class:`VerificationError` unless verification passed."""
        if not self.ok:
            raise VerificationError(self)
        return self


# --------------------------------------------------------------------- #
# The abstract interpreter
# --------------------------------------------------------------------- #

def verify(instructions: Sequence[Instruction], *,
           mode: AddressingMode = AddressingMode.STACK,
           word_size: int = 4,
           memory_len: int = 0,
           perhop_len_bytes: int = 0,
           memory_map: Optional[MemoryMap] = None,
           max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
           max_hops: Optional[int] = None,
           initial_memory: Optional[bytes] = None,
           task_id: int = 0,
           sram_regions: Optional[Iterable[Any]] = None,
           lines: Optional[Sequence[int]] = None) -> VerificationResult:
    """Statically verify a decoded TPP program.

    ``max_hops`` is the admission horizon: the number of switch
    executions the program must survive.  ``None`` derives the horizon
    from what the allocated packet memory can actually support (the
    §2.1 reading: the end-host preallocated exactly the memory it
    needs), so only a program that cannot complete even its *first*
    execution is rejected on hop-dependent grounds.

    ``initial_memory`` enables the constant-condition CEXEC analysis
    (``TPP008``/``TPP010``); ``sram_regions`` (objects with
    ``contains(word)``/``task_id``, e.g.
    :class:`repro.core.mmu.SRAMRegion`) enables the SRAM protection
    check (``TPP007``) against a concrete switch allocation table.
    ``lines`` maps instruction index to a source line for diagnostics.
    """
    checker = _Checker(list(instructions), mode, word_size, memory_len,
                       perhop_len_bytes,
                       memory_map if memory_map else MemoryMap.standard(),
                       max_instructions, max_hops, initial_memory,
                       task_id, sram_regions, lines)
    return checker.run()


def verify_program(program: Any,
                   memory_map: Optional[MemoryMap] = None,
                   max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                   max_hops: Optional[int] = None,
                   task_id: int = 0,
                   sram_regions: Optional[Iterable[Any]] = None,
                   ) -> VerificationResult:
    """Verify an :class:`~repro.core.assembler.AssembledProgram`.

    The hop budget defaults to the budget the program was assembled for
    (its ``hops`` directive), and diagnostics carry source lines.
    """
    if max_hops is None:
        max_hops = getattr(program, "hops", None)
    return verify(
        program.instructions,
        mode=program.mode,
        word_size=program.word_size,
        memory_len=len(program.initial_memory),
        perhop_len_bytes=program.perhop_len_bytes,
        memory_map=memory_map,
        max_instructions=max_instructions,
        max_hops=max_hops,
        initial_memory=bytes(program.initial_memory),
        task_id=task_id,
        sram_regions=sram_regions,
        lines=getattr(program, "lines", None),
    )


def verify_section(tpp: TPPSection,
                   memory_map: Optional[MemoryMap] = None,
                   max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                   max_hops: Optional[int] = None,
                   sram_regions: Optional[Iterable[Any]] = None,
                   ) -> VerificationResult:
    """Verify a wire-decoded TPP section (edge-admission use).

    With ``max_hops=None`` the horizon is derived from the section's own
    memory capacity — an in-flight section does not declare a hop
    budget, so admission asks "is this program self-consistent with the
    memory it carries?".
    """
    return verify(
        tpp.instructions,
        mode=tpp.mode,
        word_size=tpp.word_size,
        memory_len=len(tpp.memory),
        perhop_len_bytes=tpp.perhop_len_bytes,
        memory_map=memory_map,
        max_instructions=max_instructions,
        max_hops=max_hops,
        initial_memory=bytes(tpp.memory),
        task_id=tpp.task_id,
        sram_regions=sram_regions,
    )


class _Checker:
    """Single-use analysis state for one :func:`verify` call."""

    def __init__(self, instructions, mode, word_size, memory_len,
                 perhop_len_bytes, memory_map, max_instructions,
                 max_hops, initial_memory, task_id, sram_regions,
                 lines) -> None:
        self.instructions = instructions
        self.mode = mode
        self.word = word_size
        self.memory_len = memory_len
        self.perhop = perhop_len_bytes
        self.memory_map = memory_map
        self.max_instructions = max_instructions
        self.max_hops = max_hops
        self.initial_memory = initial_memory
        self.task_id = task_id
        self.sram_regions = list(sram_regions) if sram_regions else []
        self.lines = lines
        self.diagnostics: List[Diagnostic] = []
        self.hop_mode = mode == AddressingMode.HOP
        n = len(instructions)
        # Running SP delta *before* each instruction (prefix sums).
        self.prefix = [0] * (n + 1)
        for j, instruction in enumerate(instructions):
            delta = 0
            if instruction.opcode == Opcode.PUSH:
                delta = self.word
            elif instruction.opcode == Opcode.POP:
                delta = -self.word
            self.prefix[j + 1] = self.prefix[j] + delta
        # Achievable per-hop SP deltas: the full program, or the prefix
        # ending at any CEXEC that disabled the suffix.  CEXEC itself has
        # delta zero, so prefix[k] is the delta of that truncated path.
        deltas = {self.prefix[n]}
        for k, instruction in enumerate(instructions):
            if instruction.opcode == Opcode.CEXEC:
                deltas.add(self.prefix[k])
        self.dmin = min(deltas)
        self.dmax = max(deltas)
        self.pushes = [j for j, i in enumerate(instructions)
                       if i.opcode == Opcode.PUSH]
        self.pops = [j for j, i in enumerate(instructions)
                     if i.opcode == Opcode.POP]
        # Hop-relative packet accesses: (index, first byte offset).
        self.hop_relative = [
            (j, i.offset * self.word) for j, i in enumerate(instructions)
            if self.hop_mode and i.opcode in HOP_RELATIVE_OPCODES]
        # Relational facts, valid for any in-guard entry counter
        # (``entry=None``): consumed by the dead-code analysis and
        # pinned on the certificate for the fleet race layer.
        self.relational: Optional[RelationalSummary] = None
        if initial_memory is not None and instructions:
            self.relational = analyze_relations(
                instructions, mode=mode, word_size=word_size,
                memory_len=memory_len,
                perhop_len_bytes=perhop_len_bytes,
                initial_memory=initial_memory, entry=None,
                memory_map=self.memory_map)

    # -- diagnostics ---------------------------------------------------- #

    def diag(self, code: str, message: str,
             instruction: Optional[int] = None,
             hop: Optional[int] = None,
             severity: Optional[str] = None) -> None:
        default_severity, fault = DIAGNOSTIC_CODES[code]
        line = None
        if (self.lines is not None and instruction is not None
                and instruction < len(self.lines)):
            line = self.lines[instruction]
        self.diagnostics.append(Diagnostic(
            code=code, severity=severity or default_severity,
            message=message, instruction=instruction, line=line, hop=hop,
            fault=fault))

    # -- driver --------------------------------------------------------- #

    def run(self) -> VerificationResult:
        self.check_instruction_count()
        self.check_switch_addresses()
        self.check_absolute_accesses()
        capacity = self.check_hop_budget()
        self.check_dead_code()
        result = VerificationResult(diagnostics=self.diagnostics,
                                    hop_capacity=capacity)
        if result.ok and self.word in (4, 8):
            result.certificate = self.certificate(capacity)
        return result

    # -- individual analyses -------------------------------------------- #

    def check_instruction_count(self) -> None:
        n = len(self.instructions)
        if n > self.max_instructions:
            self.diag("TPP001",
                      f"{n} instructions exceed the per-TPP limit of "
                      f"{self.max_instructions}", hop=0)

    def check_switch_addresses(self) -> None:
        """Resolve every switch operand against the network-wide map."""
        for j, instruction in enumerate(self.instructions):
            opcode = instruction.opcode
            reads = opcode in SWITCH_READING_OPCODES
            writes = opcode in SWITCH_WRITING_OPCODES
            if not (reads or writes):
                continue
            addr = instruction.addr
            descriptor = self.memory_map.describe(addr)
            if descriptor is None:
                self.diag("TPP005",
                          f"{opcode.name} references unmapped address "
                          f"{addr:#06x} ({region_of(addr)} region)",
                          instruction=j)
                continue
            if writes and not descriptor.writable:
                self.diag("TPP006",
                          f"{opcode.name} writes read-only statistic "
                          f"{descriptor.name}", instruction=j)
            if self.sram_regions and is_sram(addr):
                word = addr - SRAM_BASE
                for region in self.sram_regions:
                    if (region.contains(word)
                            and region.task_id != self.task_id):
                        self.diag(
                            "TPP007",
                            f"{opcode.name} accesses SRAM word {word} "
                            f"owned by task {region.task_id} (program "
                            f"runs as task {self.task_id})",
                            instruction=j)
                        break

    def check_absolute_accesses(self) -> None:
        """Hop-independent packet-memory accesses (decided at hop 0).

        Covers CSTORE/CEXEC's absolute operand pairs in every mode, and
        the single-word operands of LOAD/STORE/arithmetic when the
        program is not hop-addressed.
        """
        for j, instruction in enumerate(self.instructions):
            opcode = instruction.opcode
            base = instruction.offset * self.word
            if opcode in PAIR_OPERAND_OPCODES:
                width = 2 * self.word
            elif (opcode in HOP_RELATIVE_OPCODES and not self.hop_mode):
                width = self.word
            else:
                continue
            if base + width > self.memory_len:
                what = ("operand pair" if width > self.word else "operand")
                self.diag("TPP004",
                          f"{opcode.name} {what} at bytes "
                          f"[{base}, {base + width}) overruns packet "
                          f"memory of {self.memory_len} bytes",
                          instruction=j)

    def _violation_at(self, h: int) -> Optional[Tuple[str, str, int]]:
        """First (code, message, instruction) violated when the hop/SP
        counter arrives at its worst reachable value after ``h`` clean
        hops."""
        memlen, word = self.memory_len, self.word
        hi, lo = h * self.dmax, h * self.dmin
        for j in self.pushes:
            sp = hi + self.prefix[j]
            if sp + word > memlen:
                return ("TPP002",
                        f"PUSH can reach SP={sp} past packet memory of "
                        f"{memlen} bytes", j)
        for j in self.pops:
            if lo + self.prefix[j] < word:
                return ("TPP003",
                        f"POP can reach SP={lo + self.prefix[j]} with "
                        f"an empty stack", j)
            if hi + self.prefix[j] > memlen:
                return ("TPP004",
                        f"POP can read at byte "
                        f"{hi + self.prefix[j] - word} past packet "
                        f"memory of {memlen} bytes", j)
        for j, offset in self.hop_relative:
            ea = h * self.perhop + offset
            if ea + word > memlen:
                opcode = self.instructions[j].opcode
                return ("TPP004",
                        f"{opcode.name} hop-relative operand at byte "
                        f"{ea} overruns packet memory of {memlen} "
                        f"bytes", j)
        return None

    def check_hop_budget(self) -> Optional[int]:
        """Scan hops for the first stack/bounds violation; returns the
        memory's hop capacity (``None`` when unbounded in the horizon).

        Emits the violation as an error when it falls inside the
        requested budget (always, for a hop-0 violation: the program
        cannot complete even one execution), and the ``TPP009``
        budget-accounting record either way.
        """
        if self.hop_mode and (self.pushes or self.pops):
            for j in self.pushes + self.pops:
                opcode = self.instructions[j].opcode
                self.diag("TPP011",
                          f"{opcode.name} in a hop-addressed program: "
                          f"the header counter is the hop index, so "
                          f"stack discipline cannot be verified",
                          instruction=j)
            return 0
        # Always scan the full horizon so the TPP009 record reports the
        # memory's true capacity; only violations *inside* the requested
        # budget become errors.
        capacity: Optional[int] = None
        violation = None
        for h in range(max(self.max_hops or 0, HOP_SCAN_LIMIT)):
            violation = self._violation_at(h)
            if violation is not None:
                capacity = h
                break
        if violation is not None:
            code, message, j = violation
            if capacity == 0:
                self.diag(code, message + " (on the first execution)",
                          instruction=j, hop=0)
            elif self.max_hops is not None and capacity < self.max_hops:
                self.diag(code, message + f" at hop {capacity} of the "
                          f"{self.max_hops}-hop budget",
                          instruction=j, hop=capacity)
        self._budget_record(capacity)
        return capacity

    def _budget_record(self, capacity: Optional[int]) -> None:
        footprint = self.perhop if self.hop_mode else max(self.dmax, 0)
        if footprint <= 0:
            return
        supported = (f"{capacity}" if capacity is not None
                     else f">= {HOP_SCAN_LIMIT}")
        budget = (f"{self.max_hops}" if self.max_hops is not None
                  else "unspecified")
        severity = None
        if (capacity is not None and self.max_hops is not None
                and capacity < self.max_hops):
            severity = "warning"
        self.diag("TPP009",
                  f"per-hop footprint {footprint} B x hop budget "
                  f"{budget} over {self.memory_len} B of packet memory "
                  f"(supports {supported} hop(s))", severity=severity)

    # -- CEXEC reachability --------------------------------------------- #

    def _written_intervals(self) -> List[Tuple[int, int]]:
        """Over-approximated byte ranges any instruction can write into
        packet memory across the whole hop horizon (delegated to the
        shared implementation the fence extraction also uses)."""
        return written_byte_intervals(
            self.instructions, mode=self.mode, word_size=self.word,
            memory_len=self.memory_len, perhop_len_bytes=self.perhop,
            max_hops=(self.max_hops if self.max_hops is not None
                      else HOP_SCAN_LIMIT))

    def check_dead_code(self) -> None:
        """Constant-condition CEXEC analysis (lint-only, never elision).

        Requires the initial memory image, and only trusts operand words
        no instruction can overwrite on any hop.
        """
        memory = self.initial_memory
        if memory is None:
            return
        cexecs = [j for j, i in enumerate(self.instructions)
                  if i.opcode == Opcode.CEXEC]
        if not cexecs:
            return
        written = self._written_intervals()
        word = self.word
        reported: set = set()
        for k in cexecs:
            base = self.instructions[k].offset * word
            end = base + 2 * word
            if end > len(memory):
                continue  # already a TPP004 error
            if any(lo < end and base < hi for lo, hi in written):
                continue  # operands are mutable: outcome unknown
            mask = int.from_bytes(memory[base:base + word], "big")
            expected = int.from_bytes(memory[base + word:end], "big")
            if expected & ~mask:
                dead = len(self.instructions) - 1 - k
                if dead > 0:
                    reported.add(k)
                    self.diag(
                        "TPP008",
                        f"CEXEC condition can never hold (value "
                        f"{expected:#x} has bits outside mask "
                        f"{mask:#x}): the {dead} following "
                        f"instruction(s) are statically dead",
                        instruction=k)
            elif mask == 0 and expected == 0:
                reported.add(k)
                self.diag("TPP010",
                          "CEXEC condition is constant-true (mask 0, "
                          "value 0): the conditional never disables "
                          "anything", instruction=k)
        self._check_relational_dead(reported)

    def _check_relational_dead(self, reported: set) -> None:
        """Relational tightening of the CEXEC analysis.

        The interval pass above gives up as soon as a fence operand lies
        inside *any* written byte range; the relational walker tracks
        the values those writes actually store, so it decides strictly
        more fences.  A relationally-false fence yields the same
        ``TPP008`` (when the interval pass missed it) plus one
        ``TPP012`` info record per switch-state write stranded behind
        it — the machine-readable fact the fleet race analysis uses to
        discount a dead write.
        """
        relational = self.relational
        if relational is None:
            return
        for k, _, mask, expected in relational.const_cexecs:
            if k in reported:
                continue
            if mask == 0 and expected == 0:
                reported.add(k)
                self.diag("TPP010",
                          "CEXEC condition is relationally "
                          "constant-true (mask 0, value 0): the "
                          "conditional never disables anything",
                          instruction=k)
        dead_at = relational.dead_suffix_at
        if dead_at is None:
            return
        dead = len(self.instructions) - 1 - dead_at
        if dead > 0 and dead_at not in reported:
            self.diag(
                "TPP008",
                f"CEXEC condition is relationally never true: the "
                f"{dead} following instruction(s) are statically "
                f"dead", instruction=dead_at)
        for j in range(dead_at + 1, len(self.instructions)):
            opcode = self.instructions[j].opcode
            if opcode in SWITCH_WRITING_OPCODES:
                self.diag(
                    "TPP012",
                    f"{opcode.name} is relationally unreachable "
                    f"(behind the statically-false CEXEC at "
                    f"instruction {dead_at}): it can never execute",
                    instruction=j)

    # -- certificate ---------------------------------------------------- #

    def certificate(self, capacity: Optional[int]) -> VerifiedProgram:
        """Build the per-execution safety guard for a clean program."""
        word, memlen = self.word, self.memory_len
        guard_lo, guard_hi = 0, GUARD_MAX
        if self.hop_mode:
            for _, offset in self.hop_relative:
                if self.perhop > 0:
                    guard_hi = min(guard_hi,
                                   (memlen - offset - word) // self.perhop)
                elif offset + word > memlen:  # unreachable: TPP004 above
                    guard_hi = -1
        else:
            for j in self.pushes:
                guard_hi = min(guard_hi, memlen - word - self.prefix[j])
            for j in self.pops:
                guard_lo = max(guard_lo, word - self.prefix[j])
                guard_hi = min(guard_hi, memlen - self.prefix[j])
        max_hops = self.max_hops
        if max_hops is None:
            max_hops = capacity if capacity is not None else HOP_SCAN_LIMIT
        reads, writes, claims = collect_sram_accesses(self.instructions)
        fences = collect_constant_fences(
            self.instructions, mode=self.mode, word_size=word,
            memory_len=memlen, perhop_len_bytes=self.perhop,
            initial_memory=self.initial_memory, max_hops=self.max_hops,
            memory_map=self.memory_map)
        return VerifiedProgram(
            program_key=program_key_of(self.instructions, self.mode,
                                       self.word),
            mode=self.mode,
            word_size=word,
            n_instructions=len(self.instructions),
            memory_len=memlen,
            perhop_len_bytes=self.perhop,
            max_hops=max_hops,
            guard_lo=max(guard_lo, 0),
            guard_hi=max(min(guard_hi, GUARD_MAX), -1),
            has_cexec=any(i.opcode == Opcode.CEXEC
                          for i in self.instructions),
            task_id=self.task_id,
            sram_reads=reads,
            sram_writes=writes,
            sram_claims=claims,
            sram_fences=fences,
            sram_relational=self.relational,
        )
