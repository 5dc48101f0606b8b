"""Reference pieces of the 6502 model that the package no longer carries.

:func:`_run` is the instruction-by-instruction interpreter loop over a
:class:`Routine`, on a dict of cells keyed by address. It is the
reference semantics that ``entombed.cpu``'s compiled straight-line
functions are checked against, so it must never call the compiled form.
:func:`disassemble` decodes ``entombed.cpu.assemble`` output back into a
routine, for round-trip checks of the assembler.
"""

from typing import Dict, List, Tuple

from entombed.cpu import IMPLIED, Instr, Mnemonic, Operand, Routine


def _run(routine: Routine, acc: int, carry: int, mem: Dict[int, int], inc_sets_carry: bool) -> Tuple[int, int]:
    """Interpret ``routine`` up to its first RTS on ``mem`` in place; return (acc, carry).

    The reference semantics: :func:`_compile` must agree with it on every
    input, and no test oracle calls the compiled form.
    """
    for ins in routine.instrs:  # literal opcodes, most frequent in the PRNG routine first
        op, arg = ins.mnemonic.value, ins.operand
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
