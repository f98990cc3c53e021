"""Compile-once, execute-many TPP execution (the fast path).

The paper's execution model is *tiny and repetitive*: the same
5-instruction program is carried by millions of probes and executed at
every hop ("Millions of Little Minions" makes this execute-many model
explicit — the ASIC decodes a TPP once into its pipeline and then simply
re-runs it).  The interpreter in :mod:`repro.core.tcpu` instead re-decodes
the opcode and re-resolves every memory-mapped address on every single
instruction of every execution.

This module removes that per-execution work in two layers:

- :func:`compile_program` turns a decoded instruction list into a flat
  tuple of specialized per-opcode closures.  Each closure has its operands
  — word size, packet-memory offsets, and the switch's pre-resolved
  getter/setter for the instruction's virtual address (see
  :meth:`repro.core.mmu.MMU.reader_for`) — bound at compile time, so the
  per-hop cost is one Python call per instruction.
- :class:`ProgramCache` is a bounded LRU keyed by the TPP's
  *program key* (the instruction wire bytes plus addressing mode and word
  size, :attr:`repro.core.tpp.TPPSection.program_key`), so a program is
  compiled once per switch and every later execution — of any packet
  carrying the same program — skips decode and address resolution
  entirely.

Compiled closures are bit-compatible with the interpreter: same fault
codes in the same order, same packet-memory bytes, same
:class:`~repro.core.tcpu.ExecutionReport` contents.  The differential
test suite (``tests/core/test_fastpath_differential.py``) runs both paths
side by side on every opcode and fault path to enforce this.

The static verifier (:mod:`repro.core.verifier`) adds a third layer on
top: :func:`compile_program` called with a
:class:`~repro.core.verifier.VerifiedProgram` certificate emits *elided*
closures with the per-instruction packet-memory bounds and stack
over/underflow checks removed — the certificate proved them dead.  The
TCPU stores both variants in a :class:`CompiledEntry` and re-checks the
certificate's per-execution guard (memory length, per-hop stride,
hop/SP-counter interval) before each execution, falling back to the
checked closures whenever the guard fails, so behaviour stays
bit-identical even for corrupted or replayed sections.  Switch-side
protection (unmapped addresses, read-only statistics, SRAM domains) is
never elided: those checks live inside the MMU accessors and depend on
per-switch state the verifier cannot see.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.exceptions import FaultCode, TCPUFault
from repro.core.isa import HOP_RELATIVE_OPCODES, Instruction, Opcode
from repro.core.mmu import MMU
from repro.core.tpp import AddressingMode

#: One compiled instruction: ``step(tpp, ctx, report) -> enabled`` with the
#: exact raise/return contract of ``TCPU._step``.
Step = Callable[..., bool]

#: Default LRU capacity of a per-TCPU program cache.  An experiment runs a
#: handful of distinct programs (the paper's apps use one or two each), so
#: this is generous; it exists to bound a hostile workload, not to be hit.
DEFAULT_PROGRAM_CACHE_CAPACITY = 128

#: Pre-compiled big-endian codecs per supported word size
#: (``SUPPORTED_WORD_SIZES``).  ``pack_into``/``unpack_from`` write and
#: read packet memory in place — byte-identical to
#: ``int.to_bytes(word, "big")`` on masked values, without the
#: intermediate ``bytes`` object per instruction.
_WORD_STRUCTS = {4: struct.Struct(">I"), 8: struct.Struct(">Q")}

_ARITHMETIC = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.MIN: min,
    Opcode.MAX: max,
}


def _bounds_message(byte_offset: int, memory_len: int) -> str:
    """The exact message ``TPPSection._check_bounds`` raises with."""
    return (f"word access at byte {byte_offset} outside packet memory "
            f"of {memory_len} bytes")


class CompiledEntry:
    """One cached compilation unit of a program on one switch.

    Always carries the fully-checked closures; when the TCPU holds a
    verifier certificate for the program it also carries the elided
    closures plus the certificate's per-execution guard facts, inlined
    here so the execute hot path touches one object.  ``verified_steps``
    may only be used for an execution whose section matches
    ``memory_len``/``perhop_len_bytes`` exactly and whose hop/SP counter
    lies in ``[guard_lo, guard_hi]`` — the TCPU checks this per
    execution and otherwise runs ``steps``.
    """

    __slots__ = ("steps", "verified_steps", "guard_lo", "guard_hi",
                 "memory_len", "perhop_len_bytes", "has_cexec")

    def __init__(self, steps: Tuple[Step, ...],
                 verified_steps: Optional[Tuple[Step, ...]] = None,
                 certificate: Any = None) -> None:
        self.steps = steps
        self.verified_steps = verified_steps
        if certificate is not None:
            self.guard_lo: int = certificate.guard_lo
            self.guard_hi: int = certificate.guard_hi
            self.memory_len: int = certificate.memory_len
            self.perhop_len_bytes: int = certificate.perhop_len_bytes
            self.has_cexec: bool = certificate.has_cexec
        else:
            # An empty guard interval: the verified path can never match.
            self.guard_lo, self.guard_hi = 0, -1
            self.memory_len = -1
            self.perhop_len_bytes = -1
            self.has_cexec = True


class ProgramCache:
    """Bounded LRU of compiled programs with hit/miss accounting.

    Keys are opaque program fingerprints (byte strings).  Two programs of
    the same length but different instruction bytes necessarily have
    different keys, so a collision can only mean byte-identical programs —
    which compile identically.
    """

    __slots__ = ("capacity", "hits", "misses", "evictions",
                 "invalidations", "_entries")

    def __init__(self,
                 capacity: int = DEFAULT_PROGRAM_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._entries: "OrderedDict[bytes, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: bytes) -> bool:
        return key in self._entries

    def get(self, key: bytes) -> Any:
        """Compiled entry for ``key``, or ``None`` (counts hit/miss)."""
        entries = self._entries
        entry = entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: bytes, entry: Any) -> None:
        """Insert (or refresh) an entry, evicting the LRU past capacity."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = entry
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1

    def discard(self, key: bytes) -> None:
        """Drop one entry without counters (a certificate arrived for the
        program, so it must recompile with the verified closures)."""
        self._entries.pop(key, None)

    def clear(self) -> None:
        """Drop every entry (switch address-space layout changed)."""
        if self._entries:
            self._entries.clear()
        self.invalidations += 1

    def stats(self) -> Dict[str, int]:
        """Counter snapshot for reporting."""
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }


def compile_program(instructions: List[Instruction], mode: AddressingMode,
                    word_size: int, mmu: MMU,
                    certificate: Any = None) -> Tuple[Step, ...]:
    """Compile a program into per-opcode closures bound to one MMU.

    The result is valid until the MMU's address-space layout changes
    (:attr:`repro.core.mmu.MMU.layout_version`); the TCPU clears its
    program cache when it observes a version bump.

    ``certificate`` (a :class:`repro.core.verifier.VerifiedProgram` for
    exactly this program) elides the per-instruction packet-memory
    bounds and stack over/underflow checks the certificate proved dead.
    The caller owns the per-execution guard: elided closures are only
    safe for sections matching the certificate's memory length and
    per-hop stride whose hop/SP counter is inside
    ``[guard_lo, guard_hi]``.  Switch-side protection faults are raised
    by the MMU accessors either way.
    """
    hop_mode = mode == AddressingMode.HOP
    verified = certificate is not None
    return tuple(
        _compile_instruction(instruction, hop_mode, word_size, mmu,
                             verified)
        for instruction in instructions)


def _compile_instruction(instruction: Instruction, hop_mode: bool,
                         word: int, mmu: MMU,
                         verified: bool = False) -> Step:
    opcode = instruction.opcode
    addr = instruction.addr
    offset_bytes = instruction.offset * word
    mask = (1 << (8 * word)) - 1
    hop_relative = hop_mode and opcode in HOP_RELATIVE_OPCODES
    codec = _WORD_STRUCTS[word]
    pack_into = codec.pack_into
    unpack_from = codec.unpack_from

    if opcode == Opcode.NOP:
        return _step_nop

    if opcode == Opcode.PUSH:
        read = mmu.reader_for(addr)

        if verified:
            def step_push(tpp, ctx, report) -> bool:
                value = read(ctx)
                sp = tpp.hop_or_sp
                pack_into(tpp.memory, sp, value & mask)
                tpp.hop_or_sp = sp + word
                tpp._wire_cache = None
                return True
        else:
            def step_push(tpp, ctx, report) -> bool:
                value = read(ctx)
                sp = tpp.hop_or_sp
                memory = tpp.memory
                if sp + word > len(memory):
                    raise TCPUFault(
                        FaultCode.STACK_OVERFLOW,
                        f"PUSH at SP={sp} past {len(memory)} bytes")
                pack_into(memory, sp, value & mask)
                tpp.hop_or_sp = sp + word
                tpp._wire_cache = None
                return True

        return step_push

    if opcode == Opcode.POP:
        write = mmu.writer_for(addr)

        if verified:
            def step_pop(tpp, ctx, report) -> bool:
                sp = tpp.hop_or_sp - word
                tpp.hop_or_sp = sp
                tpp._wire_cache = None
                value = unpack_from(tpp.memory, sp)[0]
                write(ctx, value)
                report.switch_writes.append((addr, value))
                return True
        else:
            def step_pop(tpp, ctx, report) -> bool:
                sp = tpp.hop_or_sp
                if sp < word:
                    raise TCPUFault(FaultCode.STACK_UNDERFLOW,
                                    f"POP with SP={sp}")
                sp -= word
                tpp.hop_or_sp = sp
                tpp._wire_cache = None
                memory = tpp.memory
                if sp + word > len(memory):
                    raise IndexError(_bounds_message(sp, len(memory)))
                value = unpack_from(memory, sp)[0]
                write(ctx, value)
                report.switch_writes.append((addr, value))
                return True

        return step_pop

    if opcode == Opcode.LOAD:
        read = mmu.reader_for(addr)

        if verified:
            def step_load(tpp, ctx, report) -> bool:
                value = read(ctx)
                if hop_relative:
                    ea = (tpp.hop_or_sp * tpp.perhop_len_bytes
                          + offset_bytes)
                else:
                    ea = offset_bytes
                pack_into(tpp.memory, ea, value & mask)
                tpp._wire_cache = None
                return True
        else:
            def step_load(tpp, ctx, report) -> bool:
                value = read(ctx)
                if hop_relative:
                    ea = (tpp.hop_or_sp * tpp.perhop_len_bytes
                          + offset_bytes)
                else:
                    ea = offset_bytes
                memory = tpp.memory
                if ea + word > len(memory):
                    raise IndexError(_bounds_message(ea, len(memory)))
                pack_into(memory, ea, value & mask)
                tpp._wire_cache = None
                return True

        return step_load

    if opcode == Opcode.STORE:
        write = mmu.writer_for(addr)

        if verified:
            def step_store(tpp, ctx, report) -> bool:
                if hop_relative:
                    ea = (tpp.hop_or_sp * tpp.perhop_len_bytes
                          + offset_bytes)
                else:
                    ea = offset_bytes
                value = unpack_from(tpp.memory, ea)[0]
                write(ctx, value)
                report.switch_writes.append((addr, value))
                return True
        else:
            def step_store(tpp, ctx, report) -> bool:
                if hop_relative:
                    ea = (tpp.hop_or_sp * tpp.perhop_len_bytes
                          + offset_bytes)
                else:
                    ea = offset_bytes
                memory = tpp.memory
                if ea + word > len(memory):
                    raise IndexError(_bounds_message(ea, len(memory)))
                value = unpack_from(memory, ea)[0]
                write(ctx, value)
                report.switch_writes.append((addr, value))
                return True

        return step_store

    if opcode == Opcode.CSTORE:
        # CSTORE dst, cond, src — conditional operands use absolute word
        # offsets even in hop mode (see repro.core.isa module docs).
        read = mmu.reader_for(addr)
        write = mmu.writer_for(addr)
        cond_offset = offset_bytes
        src_offset = cond_offset + word

        if verified:
            def step_cstore(tpp, ctx, report) -> bool:
                memory = tpp.memory
                cond = unpack_from(memory, cond_offset)[0]
                src = unpack_from(memory, src_offset)[0]
                old = read(ctx)
                pack_into(memory, cond_offset, old & mask)
                tpp._wire_cache = None
                if old == cond:
                    write(ctx, src)
                    report.switch_writes.append((addr, src))
                return True
        else:
            def step_cstore(tpp, ctx, report) -> bool:
                memory = tpp.memory
                n = len(memory)
                if cond_offset + word > n:
                    raise IndexError(_bounds_message(cond_offset, n))
                cond = unpack_from(memory, cond_offset)[0]
                if src_offset + word > n:
                    raise IndexError(_bounds_message(src_offset, n))
                src = unpack_from(memory, src_offset)[0]
                old = read(ctx)
                pack_into(memory, cond_offset, old & mask)
                tpp._wire_cache = None
                if old == cond:
                    write(ctx, src)
                    report.switch_writes.append((addr, src))
                return True

        return step_cstore

    if opcode == Opcode.CEXEC:
        read = mmu.reader_for(addr)
        mask_offset = offset_bytes
        value_offset = mask_offset + word

        if verified:
            def step_cexec(tpp, ctx, report) -> bool:
                memory = tpp.memory
                mask_value = unpack_from(memory, mask_offset)[0]
                expected = unpack_from(memory, value_offset)[0]
                register = read(ctx)
                return (register & mask_value) == expected
        else:
            def step_cexec(tpp, ctx, report) -> bool:
                memory = tpp.memory
                n = len(memory)
                if mask_offset + word > n:
                    raise IndexError(_bounds_message(mask_offset, n))
                mask_value = unpack_from(memory, mask_offset)[0]
                if value_offset + word > n:
                    raise IndexError(_bounds_message(value_offset, n))
                expected = unpack_from(memory, value_offset)[0]
                register = read(ctx)
                return (register & mask_value) == expected

        return step_cexec

    operation = _ARITHMETIC.get(opcode)
    if operation is not None:
        read = mmu.reader_for(addr)

        if verified:
            def step_arithmetic(tpp, ctx, report) -> bool:
                if hop_relative:
                    ea = (tpp.hop_or_sp * tpp.perhop_len_bytes
                          + offset_bytes)
                else:
                    ea = offset_bytes
                memory = tpp.memory
                current = unpack_from(memory, ea)[0]
                operand = read(ctx)
                pack_into(memory, ea, operation(current, operand) & mask)
                tpp._wire_cache = None
                return True
        else:
            def step_arithmetic(tpp, ctx, report) -> bool:
                if hop_relative:
                    ea = (tpp.hop_or_sp * tpp.perhop_len_bytes
                          + offset_bytes)
                else:
                    ea = offset_bytes
                memory = tpp.memory
                if ea + word > len(memory):
                    raise IndexError(_bounds_message(ea, len(memory)))
                current = unpack_from(memory, ea)[0]
                operand = read(ctx)
                pack_into(memory, ea, operation(current, operand) & mask)
                tpp._wire_cache = None
                return True

        return step_arithmetic

    def step_bad(tpp, ctx, report) -> bool:
        raise TCPUFault(FaultCode.BAD_INSTRUCTION,
                        f"opcode {opcode!r} not implemented")

    return step_bad


def _step_nop(tpp, ctx, report) -> bool:
    return True
