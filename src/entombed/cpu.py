"""The game's PRNG routine as data: compiled to run it, assembled to find it.

Entombed's generator is 21 instructions of straight-line 6502 code using
nine instruction forms (zero-page load/store/add/increment/rotate,
immediate load, accumulator shift, clear-carry, return). This module
models exactly that repertoire, so the arithmetic in :mod:`entombed.prng`
can be checked against what the silicon would actually do, including the
carry-flag behaviour responsible for the bug. No other flags are
modelled; the routine never branches and never reads them. Decimal mode
is assumed off, as it is in the game.

A concrete routine is compiled by :func:`_compile`, up to its first RTS,
into one straight-line Python function per carry mode, whose locals are
the zero-page cells it touches, named by address. Each routine keeps both
on itself, built on first read (:attr:`Routine.compiled`), and that is
the only way a routine runs: :func:`oracle_prng_step` runs the game's
routine through it.

The same instruction list doubles as the source for the byte signature
used by :mod:`entombed.romscan`: assembling the routine with named cell
slots instead of concrete addresses yields the wildcard pattern that
matches the routine wherever a game placed its state variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import index
from typing import Callable, Dict, List, Tuple, Union

from .prng import _check_word

Operand = Union[int, str]


# The nine instruction forms, each valued at its standard MOS 6502 opcode
# (publicly documented since the 1970s; zero-page unless noted).
class Mnemonic(Enum):
    LDA_ZP = 0xA5
    STA_ZP = 0x85
    LDA_IMM = 0xA9
    ASL_A = 0x0A
    ROL_ZP = 0x26
    CLC = 0x18
    ADC_ZP = 0x65
    INC_ZP = 0xE6
    RTS = 0x60


# Implied/accumulator forms take no operand; every other form takes one byte.
IMPLIED = frozenset({Mnemonic.ASL_A, Mnemonic.CLC, Mnemonic.RTS})


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
            if isinstance(self.operand, int):
                # a plain int, so no subclass's formatting reaches _compile's source
                object.__setattr__(self, "operand", index(self.operand))
                if not 0 <= self.operand <= 0xFF:
                    raise ValueError(f"operand out of byte range: {self.operand!r}")
            elif isinstance(self.operand, str):
                if not self.operand:
                    raise ValueError("slot name must be non-empty")
            else:
                raise ValueError(f"operand must be int or str, got {self.operand!r}")


@dataclass(frozen=True)
class Routine:
    """An ordered instruction list ending in RTS; it is copied into a tuple."""

    instrs: Tuple[Instr, ...]

    def __post_init__(self) -> None:
        instrs = tuple(self.instrs)
        if not all(isinstance(ins, Instr) for ins in instrs):
            raise ValueError("routine elements must be Instr values")
        if not instrs or instrs[-1].mnemonic is not Mnemonic.RTS:
            raise ValueError("routine must end with RTS")
        object.__setattr__(self, "instrs", instrs)

    @cached_property
    def compiled(self) -> Tuple[Tuple[Callable, Tuple[int, ...]], ...]:
        """:func:`_compile`'s ``(run, cells)``, indexed by carry mode; built on first read."""
        return (_compile(self, False), _compile(self, True))


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


# One line of Python per instruction form; {a} is the operand, a cell
# address (local m{a}) or LDA_IMM's byte.
_TEMPLATES = {
    Mnemonic.STA_ZP: "m{a} = acc",
    Mnemonic.ADC_ZP: "acc += m{a} + carry; carry, acc = acc >> 8, acc & 0xFF",
    Mnemonic.LDA_ZP: "acc = m{a}",
    Mnemonic.LDA_IMM: "acc = {a}",
    Mnemonic.ASL_A: "carry, acc = acc >> 7, (acc << 1) & 0xFF",
    Mnemonic.ROL_ZP: "m{a}, carry = ((m{a} << 1) | carry) & 0xFF, m{a} >> 7",
    Mnemonic.CLC: "carry = 0",
    Mnemonic.INC_ZP: "m{a} = (m{a} + 1) & 0xFF",
}
_INC_SETS_CARRY = "carry = int(m{a} == 0)"


def _compile(routine: Routine, inc_sets_carry: bool) -> Tuple[Callable, Tuple[int, ...]]:
    """Compile a concrete routine, up to its first RTS, into ``(run, cells)``.

    ``cells`` are the addresses the code touches, in first-use order, and
    ``run(acc, carry, *values) -> (acc, carry, *values)`` takes and returns
    their values in that order, as the locals ``m{addr}``. The body is one
    template line per instruction, with no loop and no dispatch; this is
    exact because the repertoire never branches. A template routine is
    refused here, so the source holds only :class:`Instr`'s plain,
    range-checked ints, as :mod:`dataclasses` builds its methods. Nothing
    after the first RTS is compiled.
    """
    if any(isinstance(ins.operand, str) for ins in routine.instrs):
        raise ValueError("cannot execute a template routine with unresolved slots")
    cells: Dict[int, None] = {}  # insertion-ordered set
    body = []
    for ins in routine.instrs:
        if ins.mnemonic is Mnemonic.RTS:
            break
        if ins.operand is not None and ins.mnemonic is not Mnemonic.LDA_IMM:
            cells[ins.operand] = None
        body.append(_TEMPLATES[ins.mnemonic].format(a=ins.operand))
        if ins.mnemonic is Mnemonic.INC_ZP and inc_sets_carry:
            body.append(_INC_SETS_CARRY.format(a=ins.operand))
    values = "".join(f"m{addr}, " for addr in cells)
    lines = [f"def run(acc, carry, {values}):", *body, f"return acc, carry, {values}"]
    namespace: dict = {}
    exec("\n    ".join(lines), namespace)
    return namespace["run"], tuple(cells)


# The game's own cell assignments; any four distinct cells give the same result.
W_CELL, X_CELL, Y_CELL, Z_CELL = 0xDD, 0xDE, 0xDF, 0xE0

_ORACLE_ROUTINE = prng_routine(W_CELL, X_CELL, Y_CELL, Z_CELL)  # touches W, Y, X, Z in that order


def oracle_prng_step(state: int, inc_sets_carry: bool = False) -> int:
    """Advance the state word by executing the game's compiled routine.

    The routine starts from a zero accumulator and carry; it overwrites
    both before first reading them, so any other start gives the same word.
    """
    _check_word(state)
    run = _ORACLE_ROUTINE.compiled[bool(inc_sets_carry)][0]
    _, _, w, _, x, _ = run(0, 0, state >> 8, 0, state & 0xFF, 0)
    return (w << 8) | x


def assemble(routine: Routine) -> List[Operand]:
    """Encode a routine as bytes; slot-name operands stay as named wildcards.

    A fully concrete routine assembles to a plain byte list. A template
    (cells given as slot names) yields a mixed list where each wildcard
    position carries its slot name, ready to become a scan signature.
    """
    out: List[Operand] = []
    for ins in routine.instrs:
        out.append(ins.mnemonic.value)
        if ins.operand is not None:
            out.append(ins.operand)
    return out

