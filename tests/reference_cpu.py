"""Reference pieces of the 6502 model that the package no longer carries.

:func:`_run` is the instruction-by-instruction interpreter loop over a
lowered ``(opcode, operand)`` program. It is the reference semantics that
``entombed.cpu``'s compiled straight-line functions are checked against,
so it must never call the compiled form. :func:`disassemble` decodes
``entombed.cpu.assemble`` output back into a routine, for round-trip
checks of the assembler.
"""

from typing import List, Tuple

from entombed.cpu import IMPLIED, Instr, Mnemonic, Operand, Routine


def _run(program, acc: int, carry: int, cells: List[int], inc_sets_carry: bool) -> Tuple[int, int]:
    """Interpret a lowered program on ``cells`` in place; return (acc, carry).

    The reference semantics: :func:`_compile` must agree with it on every
    input, and no test oracle calls the compiled form.
    """
    for op, arg in program:  # literal opcodes, most frequent in the PRNG routine first
        if op == 0x85:  # STA_ZP
            cells[arg] = acc
        elif op == 0x65:  # ADC_ZP
            acc += cells[arg] + carry
            carry, acc = acc >> 8, acc & 0xFF
        elif op == 0xA5:  # LDA_ZP
            acc = cells[arg]
        elif op == 0xA9:  # LDA_IMM
            acc = arg
        elif op == 0x0A:  # ASL_A
            carry, acc = acc >> 7, (acc << 1) & 0xFF
        elif op == 0x26:  # ROL_ZP
            cells[arg], carry = ((cells[arg] << 1) | carry) & 0xFF, cells[arg] >> 7
        elif op == 0x18:  # CLC
            carry = 0
        else:  # 0xE6, INC_ZP
            cells[arg] = (cells[arg] + 1) & 0xFF
            if inc_sets_carry:
                carry = int(cells[arg] == 0)
    return acc, carry


def disassemble(elements: List[Operand]) -> Routine:
    """Decode :func:`assemble` output back into a routine.

    Raises ValueError on unknown opcodes, a wildcard in an opcode
    position, or a truncated instruction.
    """
    instrs: List[Instr] = []
    pos = 0
    while pos < len(elements):
        opcode = elements[pos]
        try:  # ints only: Mnemonic(165.0) would give LDA_ZP
            mnemonic = Mnemonic(opcode if isinstance(opcode, int) else None)
        except ValueError:
            raise ValueError(f"not an opcode at position {pos}: {opcode!r}") from None
        pos += 1
        if mnemonic in IMPLIED:
            instrs.append(Instr(mnemonic))
        else:
            if pos >= len(elements):
                raise ValueError(f"{mnemonic.name} missing its operand at end of input")
            instrs.append(Instr(mnemonic, elements[pos]))
            pos += 1
    return Routine(tuple(instrs))
