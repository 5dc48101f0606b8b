"""A deliberately tiny 6502 interpreter: just enough to run the PRNG routine.

Entombed's generator is 21 instructions of straight-line 6502 code using
nine instruction forms (zero-page load/store/add/increment/rotate,
immediate load, accumulator shift, clear-carry, return). This module
models exactly that repertoire, instruction by instruction, so the
arithmetic in :mod:`entombed.prng` can be checked against what the silicon
would actually do, including the carry-flag behaviour responsible for the
bug. No other flags are modelled; the routine never branches and never
reads them. Decimal mode is assumed off, as it is in the game.

The same instruction list doubles as the source for the byte signature
used by :mod:`entombed.romscan`: assembling the routine with named cell
slots instead of concrete addresses yields the wildcard pattern that
matches the routine wherever a game placed its state variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Tuple, Union

Operand = Union[int, str]


class Mnemonic(Enum):
    LDA_ZP = "lda_zp"
    STA_ZP = "sta_zp"
    LDA_IMM = "lda_imm"
    ASL_A = "asl_a"
    ROL_ZP = "rol_zp"
    CLC = "clc"
    ADC_ZP = "adc_zp"
    INC_ZP = "inc_zp"
    RTS = "rts"


# Implied/accumulator forms take no operand; every other form takes one byte.
IMPLIED = frozenset({Mnemonic.ASL_A, Mnemonic.CLC, Mnemonic.RTS})

# Standard MOS 6502 opcode assignments for the forms above (publicly
# documented since the 1970s; zero-page unless noted).
OPCODES: Dict[Mnemonic, int] = {
    Mnemonic.LDA_ZP: 0xA5,
    Mnemonic.STA_ZP: 0x85,
    Mnemonic.LDA_IMM: 0xA9,
    Mnemonic.ASL_A: 0x0A,
    Mnemonic.ROL_ZP: 0x26,
    Mnemonic.CLC: 0x18,
    Mnemonic.ADC_ZP: 0x65,
    Mnemonic.INC_ZP: 0xE6,
    Mnemonic.RTS: 0x60,
}

_MNEMONIC_BY_OPCODE = {code: m for m, code in OPCODES.items()}


class UnmappedCellError(Exception):
    """A routine touched a zero-page cell the machine does not map."""


@dataclass(frozen=True)
class Instr:
    """One instruction; operand is a byte, or a slot name for templates."""

    mnemonic: Mnemonic
    operand: Operand | None = None

    def __post_init__(self) -> None:
        if self.mnemonic in IMPLIED:
            if self.operand is not None:
                raise ValueError(f"{self.mnemonic.name} takes no operand")
        else:
            if self.operand is None:
                raise ValueError(f"{self.mnemonic.name} requires an operand")
            if isinstance(self.operand, int) and not 0 <= self.operand <= 0xFF:
                raise ValueError(f"operand out of byte range: {self.operand!r}")
            if isinstance(self.operand, str) and not self.operand:
                raise ValueError("slot name must be non-empty")


@dataclass(frozen=True)
class Routine:
    """An ordered instruction list ending in RTS."""

    instrs: Tuple[Instr, ...]

    def __post_init__(self) -> None:
        if not self.instrs or self.instrs[-1].mnemonic is not Mnemonic.RTS:
            raise ValueError("routine must end with RTS")

    @property
    def is_concrete(self) -> bool:
        """True when every operand is a byte (so the routine can execute)."""
        return not any(isinstance(i.operand, str) for i in self.instrs)


@dataclass
class MicroMachine:
    """Accumulator, carry flag and a handful of addressable byte cells.

    Treated as a value: :func:`execute` never mutates its input.
    """

    acc: int = 0
    carry: int = 0
    mem: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0 <= self.acc <= 0xFF:
            raise ValueError(f"acc out of byte range: {self.acc!r}")
        if self.carry not in (0, 1):
            raise ValueError(f"carry must be 0 or 1: {self.carry!r}")
        for addr, value in self.mem.items():
            if not 0 <= addr <= 0xFF or not 0 <= value <= 0xFF:
                raise ValueError(f"cell {addr!r}={value!r} out of byte range")


def prng_routine(w: Operand, x: Operand, y: Operand, z: Operand) -> Routine:
    """The game's 21-instruction generator, bound to the given cells.

    ``w``/``x`` hold the high/low bytes of the state word; ``y``/``z`` are
    the scratch copy of it. Cells may be byte addresses or slot names (the
    latter produce a template for :func:`assemble`).
    """
    I, M = Instr, Mnemonic
    return Routine(
        (
            I(M.LDA_ZP, w),  # copy state word into scratch, low byte last
            I(M.STA_ZP, y),
            I(M.LDA_ZP, x),
            I(M.STA_ZP, z),
            I(M.ASL_A),      # state *= 2, low byte in acc, high via rotate
            I(M.ROL_ZP, w),
            I(M.ASL_A),      # and again: state *= 4
            I(M.ROL_ZP, w),
            I(M.CLC),
            I(M.ADC_ZP, z),  # low(4s) + low(s)
            I(M.STA_ZP, x),
            I(M.LDA_IMM, 0),
            I(M.ADC_ZP, w),  # high(4s) + low-add carry
            I(M.CLC),
            I(M.ADC_ZP, y),  # ... + high(s); carry now holds the multiply's
            I(M.STA_ZP, w),  #     high-byte overflow, and is never cleared
            I(M.LDA_IMM, 0),
            I(M.INC_ZP, x),  # the +1; INC leaves the carry flag alone
            I(M.ADC_ZP, w),  # so this adds the stale multiply carry instead
            I(M.STA_ZP, w),
            I(M.RTS),
        )
    )


def execute(machine: MicroMachine, routine: Routine, inc_sets_carry: bool = False) -> MicroMachine:
    """Run the routine to its RTS and return the resulting machine.

    ``inc_sets_carry`` selects the increment's carry behaviour: False is
    the real 6502 (INC leaves carry untouched), True is the counterfactual
    fix where INC sets carry exactly when the cell wraps to zero.
    """
    if not routine.is_concrete:
        raise ValueError("cannot execute a template routine with unresolved slots")
    acc = machine.acc
    carry = machine.carry
    mem = dict(machine.mem)
    M = Mnemonic
    for ins in routine.instrs:
        m = ins.mnemonic
        addr = ins.operand
        # Every operand except LDA_IMM's names a cell; fault before running.
        if addr is not None and addr not in mem and m is not M.LDA_IMM:
            raise UnmappedCellError(f"unmapped cell ${addr:02x}")
        if m is M.STA_ZP:
            mem[addr] = acc
        elif m is M.ADC_ZP:
            total = acc + mem[addr] + carry
            acc = total & 0xFF
            carry = total >> 8
        elif m is M.LDA_ZP:
            acc = mem[addr]
        elif m is M.LDA_IMM:
            acc = addr
        elif m is M.ASL_A:
            carry = acc >> 7
            acc = (acc << 1) & 0xFF
        elif m is M.ROL_ZP:
            old = mem[addr]
            mem[addr] = ((old << 1) | carry) & 0xFF
            carry = old >> 7
        elif m is M.CLC:
            carry = 0
        elif m is M.INC_ZP:
            value = (mem[addr] + 1) & 0xFF
            mem[addr] = value
            if inc_sets_carry:
                carry = 1 if value == 0 else 0
        elif m is M.RTS:
            break
    return MicroMachine(acc=acc, carry=carry, mem=mem)


# The game's own cell assignments; any four mapped cells give the same result.
W_CELL, X_CELL, Y_CELL, Z_CELL = 0xDD, 0xDE, 0xDF, 0xE0

_ORACLE_ROUTINE = prng_routine(W_CELL, X_CELL, Y_CELL, Z_CELL)


def oracle_prng_step(
    state: int,
    inc_sets_carry: bool = False,
    *,
    initial_acc: int = 0,
    initial_carry: int = 0,
) -> int:
    """Advance the state word by executing the routine on the interpreter.

    The result is independent of the initial accumulator and carry (both
    are overwritten before first use); they are parameters only so that
    independence can be demonstrated.
    """
    if not 0 <= state <= 0xFFFF:
        raise ValueError(f"state must be a 16-bit value, got {state!r}")
    machine = MicroMachine(
        acc=initial_acc,
        carry=initial_carry,
        mem={W_CELL: state >> 8, X_CELL: state & 0xFF, Y_CELL: 0, Z_CELL: 0},
    )
    out = execute(machine, _ORACLE_ROUTINE, inc_sets_carry)
    return (out.mem[W_CELL] << 8) | out.mem[X_CELL]


def assemble(routine: Routine) -> List[Operand]:
    """Encode a routine as bytes; slot-name operands stay as named wildcards.

    A fully concrete routine assembles to a plain byte list. A template
    (cells given as slot names) yields a mixed list where each wildcard
    position carries its slot name, ready to become a scan signature.
    """
    out: List[Operand] = []
    for ins in routine.instrs:
        out.append(OPCODES[ins.mnemonic])
        if ins.operand is not None:
            out.append(ins.operand)
    return out


def disassemble(elements: List[Operand]) -> Routine:
    """Decode :func:`assemble` output back into a routine.

    Raises ValueError on unknown opcodes, a wildcard in an opcode
    position, or a truncated instruction.
    """
    instrs: List[Instr] = []
    pos = 0
    while pos < len(elements):
        opcode = elements[pos]
        if not isinstance(opcode, int) or opcode not in _MNEMONIC_BY_OPCODE:
            raise ValueError(f"not an opcode at position {pos}: {opcode!r}")
        mnemonic = _MNEMONIC_BY_OPCODE[opcode]
        pos += 1
        if mnemonic in IMPLIED:
            instrs.append(Instr(mnemonic))
        else:
            if pos >= len(elements):
                raise ValueError(f"{mnemonic.name} missing its operand at end of input")
            instrs.append(Instr(mnemonic, elements[pos]))
            pos += 1
    return Routine(tuple(instrs))
