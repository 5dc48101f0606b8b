"""The game's PRNG routine as data: compiled to run it, assembled to find it.

Entombed's generator is 21 instructions of straight-line 6502 code using
nine instruction forms (zero-page load/store/add/increment/rotate,
immediate load, accumulator shift, clear-carry, return).
:data:`PRNG_ROUTINE` lists them as ``(Mnemonic, operand)`` pairs, each
zero-page operand given as the name of the cell it reads or writes
(``"W"``, ``"X"``, ``"Y"``, ``"Z"``), not as an address: each game that
reused the routine kept the four cells at its own addresses, and the
arithmetic depends only on their being distinct. Only the carry flag is
modelled; the routine never branches and never reads the others.
Decimal mode is assumed off, as it is in the game.

:func:`_compile` turns a routine, up to its first RTS, into one
straight-line Python function whose locals are the cells it touches, so
the arithmetic in :mod:`entombed.prng` can be checked against what the
silicon would do, including the carry behaviour responsible for the bug.
:func:`oracle_prng_step` runs :data:`PRNG_ROUTINE` that way, compiling it
once per carry mode on first use; :func:`prng_lanes` runs it over all 65536
states at once, for the successor tables that :mod:`entombed.prng` and the
maze model read. :func:`assemble` encodes the same list as the byte
signature :mod:`entombed.romscan` scans for, cell operands left as wildcards.
"""

from __future__ import annotations

import sys
from array import array
from enum import Enum
from functools import cache
from typing import Callable, Dict, List, Tuple, Union


def _check_word(value: int, name: str = "state") -> None:
    if not isinstance(value, int) or not 0 <= value <= 0xFFFF:
        raise ValueError(f"{name} must be a 16-bit value, got {value!r}")


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


# The game's 21-instruction generator. W/X hold the high/low bytes of the
# state word, Y/Z the scratch copy of it; the game keeps them at $DD, $DE,
# $DF and $E0. Implied forms carry None, LDA_IMM its byte.
PRNG_ROUTINE = (
    (Mnemonic.LDA_ZP, "W"),  # copy state word into scratch, low byte last
    (Mnemonic.STA_ZP, "Y"),
    (Mnemonic.LDA_ZP, "X"),
    (Mnemonic.STA_ZP, "Z"),
    (Mnemonic.ASL_A, None),  # state *= 2, low byte in acc, high via rotate
    (Mnemonic.ROL_ZP, "W"),
    (Mnemonic.ASL_A, None),  # and again: state *= 4
    (Mnemonic.ROL_ZP, "W"),
    (Mnemonic.CLC, None),
    (Mnemonic.ADC_ZP, "Z"),  # low(4s) + low(s)
    (Mnemonic.STA_ZP, "X"),
    (Mnemonic.LDA_IMM, 0),
    (Mnemonic.ADC_ZP, "W"),  # high(4s) + low-add carry
    (Mnemonic.CLC, None),
    (Mnemonic.ADC_ZP, "Y"),  # ... + high(s); carry now holds the multiply's
    (Mnemonic.STA_ZP, "W"),  #     high-byte overflow, and is never cleared
    (Mnemonic.LDA_IMM, 0),
    (Mnemonic.INC_ZP, "X"),  # the +1; INC leaves the carry flag alone
    (Mnemonic.ADC_ZP, "W"),  # so this adds the stale multiply carry instead
    (Mnemonic.STA_ZP, "W"),
    (Mnemonic.RTS, None),
)


# One line of Python per instruction form; {a} is the operand, a cell
# (local m{a}) or LDA_IMM's byte. ONE is 1 and M8 is 0xFF in every field;
# on plain bytes they are rendered away (_SCALAR), so a call pays no mask.
_TEMPLATES = {
    Mnemonic.STA_ZP: "m{a} = acc",
    Mnemonic.ADC_ZP: "acc += m{a} + carry; carry, acc = (acc >> 8) & ONE, acc & M8",
    Mnemonic.LDA_ZP: "acc = m{a}",
    Mnemonic.LDA_IMM: "acc = {a} * ONE",
    Mnemonic.ASL_A: "carry, acc = (acc >> 7) & ONE, (acc << 1) & M8",
    Mnemonic.ROL_ZP: "m{a}, carry = ((m{a} << 1) | carry) & M8, (m{a} >> 7) & ONE",
    Mnemonic.CLC: "carry = 0",
    Mnemonic.INC_ZP: "m{a} = (m{a} + ONE) & M8",
}
_INC_SETS_CARRY = "carry = (((m{a} + M8) >> 8) & ONE) ^ ONE"
_SCALAR = ((" & ONE", ""), (" * ONE", ""), ("ONE", "1"), ("M8", "0xFF"))


def _compile(routine, inc_sets_carry: bool, fields: int = 0) -> Tuple[Callable, Tuple]:
    """Compile ``(Mnemonic, operand)`` pairs, up to the first RTS, into ``(run, cells)``.

    ``cells`` are the cell operands the code touches, in first-use order,
    and ``run(acc, carry, *values) -> (acc, carry, *values)`` takes and
    returns their values in that order, as the locals ``m{cell}``. The
    body is one template line per instruction, with no loop and no
    dispatch; this is exact because the repertoire never branches. Only
    module data and test data reach it, so its operands are the slot
    names of :data:`PRNG_ROUTINE` or plain ints. With ``fields`` > 0, each
    value is one int of that many 16-bit fields, each field its own run.
    """
    cells: Dict[object, None] = {}  # insertion-ordered set
    body = []
    for mnemonic, a in routine:
        if mnemonic is Mnemonic.RTS:
            break
        if a is not None and mnemonic is not Mnemonic.LDA_IMM:
            cells[a] = None
        body.append(_TEMPLATES[mnemonic].format(a=a))
        if mnemonic is Mnemonic.INC_ZP and inc_sets_carry:
            body.append(_INC_SETS_CARRY.format(a=a))
    values = "".join(f"m{cell}, " for cell in cells)
    source = "\n    ".join([f"def run(acc, carry, {values}):", *body, f"return acc, carry, {values}"])
    for mask, text in () if fields else _SCALAR:
        source = source.replace(mask, text)
    one = int.from_bytes(b"\1\0" * fields, "little")
    namespace = {"ONE": one, "M8": 0xFF * one}
    exec(source, namespace)
    return namespace["run"], tuple(cells)


_RUNS: Dict[bool, Callable] = {}  # PRNG_ROUTINE's run per carry mode, compiled on first use


def oracle_prng_step(state: int, inc_sets_carry: bool = False) -> int:
    """Advance the state word by executing the game's compiled routine.

    The routine starts from a zero accumulator and carry; it overwrites
    both before first reading them, so any other start gives the same word.
    """
    _check_word(state)
    mode = bool(inc_sets_carry)
    run = _RUNS.get(mode)
    if run is None:
        run = _RUNS[mode] = _compile(PRNG_ROUTINE, mode)[0]
    _, _, w, _, x, _ = run(0, 0, state >> 8, 0, state & 0xFF, 0)  # cells W, Y, X, Z
    return (w << 8) | x


@cache
def prng_lanes(inc_sets_carry: bool) -> memoryview:
    """Every state's successor under :data:`PRNG_ROUTINE`, as a read-only view of 65536 ints.

    Run SWAR-wide (SIMD within a register: Lamport, CACM 1975) from a zero
    start, one 16-bit field per state, once per process and carry mode:
    the historical carry is ``buggy_step``, the fixed one ``correct_step``.
    """
    n = 4096  # states per run, so each int stays at 64 Kibit
    run = _compile(PRNG_ROUTINE, inc_sets_carry, n)[0]
    one = int.from_bytes(b"\1\0" * n, "little")
    # packed and unpacked in the array's own byte order, so each state keeps its place
    first = int.from_bytes(array("H", range(n)).tobytes(), sys.byteorder)
    table = array("H")
    for base in range(0, 0x10000, n):
        states = first + base * one
        _, _, w, _, x, _ = run(0, 0, (states >> 8) & (0xFF * one), 0, states & (0xFF * one), 0)
        table.frombytes(((w << 8) | x).to_bytes(2 * n, sys.byteorder))
    return memoryview(table).toreadonly()


def assemble() -> List[Union[int, str]]:
    """:data:`PRNG_ROUTINE` as its 37 bytes, each cell operand left as its slot name."""
    return [el for mnemonic, a in PRNG_ROUTINE for el in (mnemonic.value, a) if el is not None]
