"""Reference pieces of the 6502 model that the package no longer carries.

:func:`_run` is the instruction-by-instruction interpreter loop over a
routine's ``(Mnemonic, operand)`` pairs, on a dict of cells keyed by
operand. It is the reference semantics that ``entombed.cpu``'s compiled
straight-line functions are checked against, so it must never call the
compiled form. :func:`disassemble` decodes ``entombed.cpu.assemble``
output back into pairs, for round-trip checks of the assembler, and
:func:`routine_bytes` binds its slots to concrete cells, the bytes a game
would carry in its ROM.
"""

from typing import Dict, List, Tuple

from entombed.cpu import Mnemonic, assemble

IMPLIED = {Mnemonic.ASL_A, Mnemonic.CLC, Mnemonic.RTS}  # one byte, no operand


def _run(routine, acc: int, carry: int, mem: Dict, inc_sets_carry: bool) -> Tuple[int, int]:
    """Interpret ``routine`` up to its first RTS on ``mem`` in place; return (acc, carry).

    The reference semantics: :func:`_compile` must agree with it on every
    input, and no test oracle calls the compiled form.
    """
    for mnemonic, arg in routine:  # literal opcodes, most frequent in the PRNG routine first
        op = mnemonic.value
        if op == 0x85:  # STA_ZP
            mem[arg] = acc
        elif op == 0x65:  # ADC_ZP
            acc += mem[arg] + carry
            carry, acc = acc >> 8, acc & 0xFF
        elif op == 0xA5:  # LDA_ZP
            acc = mem[arg]
        elif op == 0xA9:  # LDA_IMM
            acc = arg
        elif op == 0x0A:  # ASL_A
            carry, acc = acc >> 7, (acc << 1) & 0xFF
        elif op == 0x26:  # ROL_ZP
            mem[arg], carry = ((mem[arg] << 1) | carry) & 0xFF, mem[arg] >> 7
        elif op == 0x18:  # CLC
            carry = 0
        elif op == 0xE6:  # INC_ZP
            mem[arg] = (mem[arg] + 1) & 0xFF
            if inc_sets_carry:
                carry = int(mem[arg] == 0)
        else:  # 0x60, RTS
            break
    return acc, carry


def disassemble(elements: List) -> List[Tuple]:
    """Decode :func:`assemble` output back into ``(Mnemonic, operand)`` pairs.

    Raises ValueError on unknown opcodes, a wildcard in an opcode
    position, or a truncated instruction.
    """
    pairs = []
    pos = 0
    while pos < len(elements):
        opcode = elements[pos]
        try:  # ints only: Mnemonic(165.0) would give LDA_ZP
            mnemonic = Mnemonic(opcode if isinstance(opcode, int) else None)
        except ValueError:
            raise ValueError(f"not an opcode at position {pos}: {opcode!r}") from None
        pos += 1
        if mnemonic in IMPLIED:
            pairs.append((mnemonic, None))
        else:
            if pos >= len(elements):
                raise ValueError(f"{mnemonic.name} missing its operand at end of input")
            pairs.append((mnemonic, elements[pos]))
            pos += 1
    return pairs


def routine_bytes(**cells: int) -> bytes:
    """The game's routine, RTS included, with each slot bound to its cell: ``routine_bytes(W=0xDD, ...)``."""
    return bytes(cells.get(el, el) for el in assemble())
