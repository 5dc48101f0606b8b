"""Tests for the compiled routine, the routine builder and the assembler."""

import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from entombed import cpu, prng
from entombed.cpu import Instr, Mnemonic, Routine

from reference_cpu import _run, disassemble


def run_routine(routine, acc=0, carry=0, mem=None, inc_sets_carry=False):
    """Run ``routine`` through its compiled form on a copy of ``mem``."""
    mem = dict(mem or {})
    run, cells = routine.compiled[inc_sets_carry]
    acc, carry, *values = run(acc, carry, *[mem[addr] for addr in cells])
    mem.update(zip(cells, values))
    return SimpleNamespace(acc=acc, carry=carry, mem=mem)


def run_one(instrs, **kwargs):
    return run_routine(Routine(tuple(instrs) + (Instr(Mnemonic.RTS),)), **kwargs)


class TestInstructionSemantics:
    def test_asl_shifts_bit7_into_carry(self):
        out = run_one([Instr(Mnemonic.ASL_A)], acc=0x80)
        assert out.acc == 0x00
        assert out.carry == 1

    def test_asl_clears_carry_when_bit7_clear(self):
        out = run_one([Instr(Mnemonic.ASL_A)], acc=0x41, carry=1)
        assert out.acc == 0x82
        assert out.carry == 0

    def test_rol_is_nine_bit_rotate(self):
        out = run_one([Instr(Mnemonic.ROL_ZP, 0x10)], carry=1, mem={0x10: 0x80})
        assert out.mem[0x10] == 0x01
        assert out.carry == 1

    def test_adc_adds_carry_and_sets_overflow(self):
        out = run_one([Instr(Mnemonic.ADC_ZP, 0x10)], acc=0xF0, carry=1, mem={0x10: 0x0F})
        assert out.acc == 0x00
        assert out.carry == 1

    def test_adc_clears_carry_without_overflow(self):
        out = run_one([Instr(Mnemonic.ADC_ZP, 0x10)], acc=0x01, carry=1, mem={0x10: 0x01})
        assert out.acc == 0x03
        assert out.carry == 0

    def test_clc(self):
        out = run_one([Instr(Mnemonic.CLC)], carry=1)
        assert out.carry == 0

    def test_lda_and_sta(self):
        out = run_one(
            [Instr(Mnemonic.LDA_ZP, 0x10), Instr(Mnemonic.STA_ZP, 0x11)],
            mem={0x10: 0x42, 0x11: 0x00},
        )
        assert out.acc == 0x42
        assert out.mem[0x11] == 0x42

    def test_lda_immediate(self):
        out = run_one([Instr(Mnemonic.LDA_IMM, 0x07)], acc=0xFF)
        assert out.acc == 0x07

    def test_inc_wraps_without_touching_carry(self):
        out = run_one([Instr(Mnemonic.INC_ZP, 0x10)], carry=1, mem={0x10: 0xFF})
        assert out.mem[0x10] == 0x00
        assert out.carry == 1

    def test_inc_with_carry_fix_sets_carry_on_wrap(self):
        out = run_one([Instr(Mnemonic.INC_ZP, 0x10)], mem={0x10: 0xFF}, inc_sets_carry=True)
        assert out.mem[0x10] == 0x00
        assert out.carry == 1
        out = run_one([Instr(Mnemonic.INC_ZP, 0x10)], carry=1, mem={0x10: 0x00}, inc_sets_carry=True)
        assert out.mem[0x10] == 0x01
        assert out.carry == 0

    def test_nothing_after_rts_is_compiled(self):
        routine = Routine((Instr(Mnemonic.RTS), Instr(Mnemonic.INC_ZP, 0x99), Instr(Mnemonic.RTS)))
        for run, cells in routine.compiled:
            assert cells == ()
            assert run(7, 1) == (7, 1)


class TestInstrValidation:
    def test_implied_forms_reject_operands(self):
        with pytest.raises(ValueError):
            Instr(Mnemonic.CLC, 0x10)

    def test_operand_forms_require_operands(self):
        with pytest.raises(ValueError):
            Instr(Mnemonic.LDA_ZP)

    def test_operand_range(self):
        with pytest.raises(ValueError):
            Instr(Mnemonic.LDA_ZP, 0x100)

    @pytest.mark.parametrize("operand", [1.5, 16.0, [0x10], b"\x10", ("W",)])
    def test_operand_must_be_a_byte_or_a_slot_name(self, operand):
        with pytest.raises(ValueError, match="operand must be int or str"):
            Instr(Mnemonic.LDA_ZP, operand)
        with pytest.raises(ValueError, match="operand must be int or str"):
            Instr(Mnemonic.LDA_IMM, operand)

    def test_an_int_subclass_operand_is_kept_as_a_plain_int(self):
        # its __format__ must not reach the source _compile runs
        class Hostile(int):
            def __format__(self, spec):
                return "0\n    carry = 'injected'"

        instrs = [Instr(Mnemonic.LDA_IMM, Hostile(5)), Instr(Mnemonic.STA_ZP, Hostile(0x10))]
        assert [type(i.operand) for i in instrs] == [int, int]
        out = run_one(instrs, carry=1, mem={0x10: 0})
        assert (out.acc, out.carry, dict(out.mem)) == (5, 1, {0x10: 5})

    def test_a_bool_operand_becomes_an_int(self):
        instr = Instr(Mnemonic.LDA_IMM, True)
        assert type(instr.operand) is int and instr == Instr(Mnemonic.LDA_IMM, 1)
        out = run_one([instr, Instr(Mnemonic.STA_ZP, 0x10)], mem={0x10: 0})
        assert (type(out.acc), type(out.mem[0x10])) == (int, int)
        assert (out.acc, out.mem[0x10]) == (1, 1)

    def test_routine_must_end_in_rts(self):
        with pytest.raises(ValueError):
            Routine((Instr(Mnemonic.CLC),))

    def test_routine_copies_a_list_into_a_tuple(self):
        instrs = [Instr(Mnemonic.CLC), Instr(Mnemonic.RTS)]
        routine = Routine(instrs)
        instrs.pop()
        assert routine.instrs == (Instr(Mnemonic.CLC), Instr(Mnemonic.RTS))
        assert hash(routine) == hash(Routine(tuple(routine.instrs)))
        assert run_routine(routine, carry=1).carry == 0

    @pytest.mark.parametrize("element", [0x18, "CLC", None, (Mnemonic.CLC,)])
    def test_routine_elements_must_be_instrs(self, element):
        with pytest.raises(ValueError, match="routine elements must be Instr values"):
            Routine((element, Instr(Mnemonic.RTS)))


class TestPrngRoutine:
    def test_has_21_instructions(self):
        routine = cpu.prng_routine(0xDD, 0xDE, 0xDF, 0xE0)
        assert len(routine.instrs) == 21
        assert routine.instrs[-1].mnemonic is Mnemonic.RTS

    def test_deterministic(self):
        a = cpu.prng_routine(0xDD, 0xDE, 0xDF, 0xE0)
        b = cpu.prng_routine(0xDD, 0xDE, 0xDF, 0xE0)
        assert a == b

    def test_known_buggy_run(self):
        # state 0x0033 collapses to zero on the shipped hardware behaviour
        routine = cpu.prng_routine(0x10, 0x11, 0x12, 0x13)
        out = run_routine(routine, mem={0x10: 0x00, 0x11: 0x33, 0x12: 0, 0x13: 0})
        assert (out.mem[0x10], out.mem[0x11]) == (0x00, 0x00)

    def test_template_routine_refuses_to_compile(self):
        routine = cpu.prng_routine("W", "X", "Y", "Z")
        with pytest.raises(ValueError, match="cannot compile a template routine"):
            routine.compiled


def oracle_from(state, acc, carry):
    """The game's routine on ``state``, run through its compiled form from the given registers."""
    run, cells = cpu._ORACLE_ROUTINE.compiled[False]
    mem = {cpu.W_CELL: state >> 8, cpu.X_CELL: state & 0xFF, cpu.Y_CELL: 0, cpu.Z_CELL: 0}
    _, _, *values = run(acc, carry, *[mem[addr] for addr in cells])
    out = dict(zip(cells, values))
    return (out[cpu.W_CELL] << 8) | out[cpu.X_CELL]


class TestOracleStep:
    def test_examples(self):
        assert cpu.oracle_prng_step(0x0000, False) == 0x0001
        assert cpu.oracle_prng_step(0x0033, False) == 0x0000
        assert cpu.oracle_prng_step(0x0033, True) == 0x0100

    def test_matches_buggy_step_exhaustively(self):
        for s in range(0x10000):
            assert cpu.oracle_prng_step(s, False) == prng.buggy_step(s)

    def test_matches_correct_step_exhaustively_with_carry_fix(self):
        for s in range(0x10000):
            assert cpu.oracle_prng_step(s, True) == prng.correct_step(s)

    # oracle_prng_step starts the routine from a zero accumulator and carry;
    # the compiled routine gives the same word from any other start

    def test_result_independent_of_initial_carry_exhaustive(self):
        for carry in (0, 1):
            for s in range(0x10000):
                assert oracle_from(s, acc=0, carry=carry) == cpu.oracle_prng_step(s, False)

    def test_result_independent_of_initial_acc_and_carry_sampled(self):
        rng = random.Random(0)
        states = [rng.randrange(0x10000) for _ in range(512)]
        for s in states:
            reference = cpu.oracle_prng_step(s, False)
            for acc in (0x00, 0xFF):
                for carry in (0, 1):
                    assert oracle_from(s, acc=acc, carry=carry) == reference

    def test_any_truthy_value_selects_the_carry_fix(self):
        for s in random.Random(1).sample(range(0x10000), 512):
            assert cpu.oracle_prng_step(s, 1) == cpu.oracle_prng_step(s, True)
            assert cpu.oracle_prng_step(s, 0) == cpu.oracle_prng_step(s, False)


class TestCompiledAgainstRun:
    """``_compile``'s straight-line function against the reference ``_run`` loop."""

    @pytest.mark.parametrize("inc_sets_carry", [False, True])
    def test_oracle_routine_touches_w_y_x_z_in_that_order(self, inc_sets_carry):
        cells = cpu._compile(cpu._ORACLE_ROUTINE, inc_sets_carry)[1]
        assert cells == (cpu.W_CELL, cpu.Y_CELL, cpu.X_CELL, cpu.Z_CELL)

    @pytest.mark.parametrize("inc_sets_carry", [False, True])
    @pytest.mark.parametrize("acc, carry", [(0x00, 0), (0xFF, 1)])
    def test_oracle_program_on_every_state(self, inc_sets_carry, acc, carry):
        routine = cpu._ORACLE_ROUTINE
        compiled, cells = cpu._compile(routine, inc_sets_carry)
        for s in range(0x10000):
            mem = {cpu.W_CELL: s >> 8, cpu.X_CELL: s & 0xFF, cpu.Y_CELL: 0, cpu.Z_CELL: 0}
            got = compiled(acc, carry, *[mem[addr] for addr in cells])
            expected = _run(routine, acc, carry, mem, inc_sets_carry)
            assert got == (*expected, *[mem[addr] for addr in cells])

    @pytest.mark.parametrize("inc_sets_carry", [False, True])
    @pytest.mark.parametrize("mnemonic", [m for m in Mnemonic if m is not Mnemonic.RTS])
    def test_each_instruction_form_at_byte_edges(self, mnemonic, inc_sets_carry):
        # the operand is cell 0x11 beside cell 0x10, so an address mix-up shows
        operand = 0x5A if mnemonic is Mnemonic.LDA_IMM else None if mnemonic in cpu.IMPLIED else 0x11
        routine = Routine((Instr(mnemonic, operand), Instr(Mnemonic.RTS)))
        compiled, cells = cpu._compile(routine, inc_sets_carry)
        assert cells == ((0x11,) if operand == 0x11 else ())
        edges = (0x00, 0x01, 0x7F, 0x80, 0xFE, 0xFF)
        for acc in edges:
            for carry in (0, 1):
                for value in edges:
                    mem = {0x10: 0x33, 0x11: value}
                    got = compiled(acc, carry, *[mem[addr] for addr in cells])
                    expected = _run(routine, acc, carry, mem, inc_sets_carry)
                    assert got == (*expected, *[mem[addr] for addr in cells])
                    assert mem[0x10] == 0x33

    @pytest.mark.parametrize("inc_sets_carry", [False, True])
    def test_random_routines_on_three_cells(self, inc_sets_carry):
        rng = random.Random(3)
        forms = [m for m in Mnemonic if m is not Mnemonic.RTS]
        for _ in range(300):
            instrs = []
            for _ in range(rng.randrange(1, 25)):
                m = rng.choice(forms)
                if m in cpu.IMPLIED:
                    instrs.append(Instr(m))
                elif m is Mnemonic.LDA_IMM:
                    instrs.append(Instr(m, rng.randrange(0x100)))
                else:
                    instrs.append(Instr(m, rng.choice((0x20, 0x21, 0x22))))
            routine = Routine(tuple(instrs) + (Instr(Mnemonic.RTS),))
            compiled, cells = cpu._compile(routine, inc_sets_carry)
            mem = {addr: rng.randrange(0x100) for addr in (0x20, 0x21, 0x22)}
            acc, carry = rng.randrange(0x100), rng.randrange(2)
            got = compiled(acc, carry, *[mem[addr] for addr in cells])
            expected = _run(routine, acc, carry, mem, inc_sets_carry)
            assert got == (*expected, *[mem[addr] for addr in cells])

    def test_nothing_is_compiled_at_import(self):
        src = str(Path(cpu.__file__).resolve().parents[1])
        code = (
            "import entombed.cli, entombed.cpu as c; "
            "print('compiled' in vars(c._ORACLE_ROUTINE))"
        )
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20, env=env)
        assert out.stdout == "False\n", out.stderr

    def test_a_compiled_routine_is_not_hashed_again(self, monkeypatch):
        routine = cpu.prng_routine(0x10, 0x11, 0x12, 0x13)
        mem = {0x10: 0x12, 0x11: 0x34, 0x12: 0, 0x13: 0}
        run_routine(routine, mem=mem)
        compiled = routine.compiled
        hashes = []
        instr_hash = Instr.__hash__

        def counting_hash(self):
            hashes.append(self)
            return instr_hash(self)

        monkeypatch.setattr(Instr, "__hash__", counting_hash)
        for inc_sets_carry in (False, True) * 50:
            run_routine(routine, mem=mem, inc_sets_carry=inc_sets_carry)
        assert hashes == []
        assert routine.compiled is compiled
        hash(routine)  # what a cache keyed by the routine would pay per call
        assert len(hashes) == 21


# Cell layouts other than the game's own 0xDD-0xE0: consecutive low cells,
# and the scattered layout with a gap between the state and scratch words.
OTHER_CELLS = [(0x10, 0x11, 0x12, 0x13), (0x80, 0x81, 0x90, 0x91)]


class TestCompiledOnOtherCells:
    @pytest.mark.parametrize("cells", OTHER_CELLS)
    @pytest.mark.parametrize(
        "inc_sets_carry, step", [(False, prng.buggy_step), (True, prng.correct_step)]
    )
    def test_matches_step_exhaustively(self, cells, inc_sets_carry, step):
        w, x, y, z = cells
        run, touched = cpu.prng_routine(w, x, y, z).compiled[inc_sets_carry]
        for s in range(0x10000):
            mem = {w: s >> 8, x: s & 0xFF, y: 0, z: 0}
            _, _, *values = run(0, 0, *[mem[addr] for addr in touched])
            out = dict(zip(touched, values))
            assert (out[w] << 8) | out[x] == step(s)

    @pytest.mark.parametrize("cells", OTHER_CELLS)
    def test_untouched_cells_come_back_unchanged(self, cells):
        w, x, y, z = cells
        routine = cpu.prng_routine(w, x, y, z)
        # untouched cells before, between and after the routine's own
        mem = {0x00: 0xA5, w: 0x12, x: 0x34, 0x50: 0x5A, y: 0xFF, z: 0x01, 0xFF: 0xC3}
        assert routine.compiled[False][1] == (w, y, x, z)
        out = run_routine(routine, acc=0x77, carry=1, mem=mem)
        assert {a: out.mem[a] for a in (0x00, 0x50, 0xFF)} == {0x00: 0xA5, 0x50: 0x5A, 0xFF: 0xC3}
        assert set(out.mem) == set(mem)
        assert (out.mem[w] << 8) | out.mem[x] == prng.buggy_step(0x1234)

    def test_untouched_cell_unchanged_by_single_instructions(self):
        for instr in (
            Instr(Mnemonic.STA_ZP, 0x10),
            Instr(Mnemonic.ADC_ZP, 0x10),
            Instr(Mnemonic.ROL_ZP, 0x10),
            Instr(Mnemonic.INC_ZP, 0x10),
            Instr(Mnemonic.LDA_IMM, 0x11),
        ):
            out = run_one([instr], acc=0x80, carry=1, mem={0x11: 0x3C, 0x10: 0xFF})
            assert out.mem[0x11] == 0x3C


class TestOracleStepRangeChecks:
    """The state word is checked by oracle_prng_step."""

    @pytest.mark.parametrize("state", [-1, 0x10000, 1.5, "1"])
    def test_state_out_of_word_range(self, state):
        with pytest.raises(ValueError):
            cpu.oracle_prng_step(state)


class TestAssembler:
    def test_concrete_routine_is_37_bytes(self):
        out = cpu.assemble(cpu.prng_routine(0xDD, 0xDE, 0xDF, 0xE0))
        assert len(out) == 37
        assert all(isinstance(b, int) for b in out)

    def test_prng_routine_bytes(self):
        # the game's routine as listed byte by byte, independent of Mnemonic
        expected = bytes.fromhex(
            "a5 dd 85 df a5 de 85 e0 0a 26 dd 0a 26 dd 18 65"
            " e0 85 de a9 00 65 dd 18 65 df 85 dd a9 00 e6 de 65 dd 85 dd 60"
        )
        assert cpu.assemble(cpu.prng_routine(0xDD, 0xDE, 0xDF, 0xE0)) == list(expected)

    def test_template_has_14_slots(self):
        out = cpu.assemble(cpu.prng_routine("W", "X", "Y", "Z"))
        assert len(out) == 37
        slots = [el for el in out if isinstance(el, str)]
        assert len(slots) == 14
        assert slots.count("W") == 7
        assert slots.count("X") == 3
        assert slots.count("Y") == 2
        assert slots.count("Z") == 2

    def test_implied_instruction_is_one_byte(self):
        out = cpu.assemble(Routine((Instr(Mnemonic.CLC), Instr(Mnemonic.RTS))))
        assert out == [0x18, 0x60]

    def test_round_trip_of_prng_routine(self):
        routine = cpu.prng_routine(0xDD, 0xDE, 0xDF, 0xE0)
        assert disassemble(cpu.assemble(routine)) == routine

    def test_round_trip_of_random_routines(self):
        rng = random.Random(1)
        operand_forms = [m for m in Mnemonic if m not in cpu.IMPLIED]
        for _ in range(200):
            instrs = []
            for _ in range(rng.randrange(1, 30)):
                if rng.random() < 0.4:
                    m = rng.choice((Mnemonic.ASL_A, Mnemonic.CLC))
                    instrs.append(Instr(m))
                else:
                    instrs.append(Instr(rng.choice(operand_forms), rng.randrange(0x100)))
            routine = Routine(tuple(instrs) + (Instr(Mnemonic.RTS),))
            assert disassemble(cpu.assemble(routine)) == routine

    def test_encoding_is_injective_over_random_pairs(self):
        rng = random.Random(2)

        def random_routine():
            instrs = []
            for _ in range(rng.randrange(1, 12)):
                m = rng.choice(list(Mnemonic))
                if m is Mnemonic.RTS:
                    continue
                if m in cpu.IMPLIED:
                    instrs.append(Instr(m))
                else:
                    instrs.append(Instr(m, rng.randrange(0x100)))
            return Routine(tuple(instrs) + (Instr(Mnemonic.RTS),))

        for _ in range(300):
            a, b = random_routine(), random_routine()
            if a != b:
                assert cpu.assemble(a) != cpu.assemble(b)

    def test_disassemble_rejects_wildcard_opcode(self):
        with pytest.raises(ValueError):
            disassemble(["W", 0x60])

    def test_disassemble_rejects_truncated_instruction(self):
        with pytest.raises(ValueError):
            disassemble([0xA5])
