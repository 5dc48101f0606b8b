"""Tests for the game's routine as data: compiled, run and assembled."""

import functools
import os
import random
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from entombed import cpu, prng
from entombed.cpu import PRNG_ROUTINE, Mnemonic

from reference_cpu import IMPLIED, _run, disassemble, routine_bytes


def run_routine(routine, acc=0, carry=0, mem=None, inc_sets_carry=False):
    """Run ``routine`` through its compiled form on a copy of ``mem``."""
    mem = dict(mem or {})
    run, cells = cpu._compile(routine, inc_sets_carry)
    acc, carry, *values = run(acc, carry, *[mem[addr] for addr in cells])
    mem.update(zip(cells, values))
    return SimpleNamespace(acc=acc, carry=carry, mem=mem)


def run_fields(routine, inc_sets_carry, inputs):
    """Run ``routine`` SWAR-wide, one 16-bit field per ``(acc, carry, mem)`` input.

    Returns one ``(acc, carry, *values)`` tuple per input, unpacked field by field.
    """
    run, cells = cpu._compile(routine, inc_sets_carry, len(inputs))
    layout = f"<{len(inputs)}H"  # field i at bit 16 * i

    def pack(values):
        return int.from_bytes(struct.pack(layout, *values), "little")

    columns = [[acc for acc, _, _ in inputs], [carry for _, carry, _ in inputs]]
    columns += [[mem[cell] for _, _, mem in inputs] for cell in cells]
    out = run(*map(pack, columns))
    return list(zip(*(struct.unpack(layout, value.to_bytes(2 * len(inputs), "little")) for value in out)))


def run_one(instrs, **kwargs):
    return run_routine((*instrs, (Mnemonic.RTS, None)), **kwargs)


def on_cells(w, x, y, z):
    """PRNG_ROUTINE with its slots W, X, Y, Z renamed to the given cells."""
    cells = {"W": w, "X": x, "Y": y, "Z": z}
    return tuple((mnemonic, cells.get(a, a)) for mnemonic, a in PRNG_ROUTINE)


class TestInstructionSemantics:
    def test_asl_shifts_bit7_into_carry(self):
        out = run_one([(Mnemonic.ASL_A, None)], acc=0x80)
        assert out.acc == 0x00
        assert out.carry == 1

    def test_asl_clears_carry_when_bit7_clear(self):
        out = run_one([(Mnemonic.ASL_A, None)], acc=0x41, carry=1)
        assert out.acc == 0x82
        assert out.carry == 0

    def test_rol_is_nine_bit_rotate(self):
        out = run_one([(Mnemonic.ROL_ZP, 0x10)], carry=1, mem={0x10: 0x80})
        assert out.mem[0x10] == 0x01
        assert out.carry == 1

    def test_adc_adds_carry_and_sets_overflow(self):
        out = run_one([(Mnemonic.ADC_ZP, 0x10)], acc=0xF0, carry=1, mem={0x10: 0x0F})
        assert out.acc == 0x00
        assert out.carry == 1

    def test_adc_clears_carry_without_overflow(self):
        out = run_one([(Mnemonic.ADC_ZP, 0x10)], acc=0x01, carry=1, mem={0x10: 0x01})
        assert out.acc == 0x03
        assert out.carry == 0

    def test_clc(self):
        out = run_one([(Mnemonic.CLC, None)], carry=1)
        assert out.carry == 0

    def test_lda_and_sta(self):
        out = run_one(
            [(Mnemonic.LDA_ZP, 0x10), (Mnemonic.STA_ZP, 0x11)],
            mem={0x10: 0x42, 0x11: 0x00},
        )
        assert out.acc == 0x42
        assert out.mem[0x11] == 0x42

    def test_lda_immediate(self):
        out = run_one([(Mnemonic.LDA_IMM, 0x07)], acc=0xFF)
        assert out.acc == 0x07

    def test_inc_wraps_without_touching_carry(self):
        out = run_one([(Mnemonic.INC_ZP, 0x10)], carry=1, mem={0x10: 0xFF})
        assert out.mem[0x10] == 0x00
        assert out.carry == 1

    def test_inc_with_carry_fix_sets_carry_on_wrap(self):
        out = run_one([(Mnemonic.INC_ZP, 0x10)], mem={0x10: 0xFF}, inc_sets_carry=True)
        assert out.mem[0x10] == 0x00
        assert out.carry == 1
        out = run_one([(Mnemonic.INC_ZP, 0x10)], carry=1, mem={0x10: 0x00}, inc_sets_carry=True)
        assert out.mem[0x10] == 0x01
        assert out.carry == 0

    def test_nothing_after_rts_is_compiled(self):
        routine = ((Mnemonic.RTS, None), (Mnemonic.INC_ZP, 0x99), (Mnemonic.RTS, None))
        for inc_sets_carry in (False, True):
            run, cells = cpu._compile(routine, inc_sets_carry)
            assert cells == ()
            assert run(7, 1) == (7, 1)


class TestPrngRoutine:
    def test_has_21_instructions(self):
        assert len(PRNG_ROUTINE) == 21
        assert PRNG_ROUTINE[-1] == (Mnemonic.RTS, None)

    def test_known_buggy_run(self):
        # state 0x0033 collapses to zero on the shipped hardware behaviour
        routine = on_cells(0x10, 0x11, 0x12, 0x13)
        out = run_routine(routine, mem={0x10: 0x00, 0x11: 0x33, 0x12: 0, 0x13: 0})
        assert (out.mem[0x10], out.mem[0x11]) == (0x00, 0x00)


@functools.cache
def compiled_routine(inc_sets_carry):
    """PRNG_ROUTINE's ``(run, cells)``, compiled once for this module's tests."""
    return cpu._compile(PRNG_ROUTINE, inc_sets_carry)


def oracle_from(state, acc, carry):
    """The game's routine on ``state``, run through its compiled form from the given registers."""
    run, cells = compiled_routine(False)
    mem = {"W": state >> 8, "X": state & 0xFF, "Y": 0, "Z": 0}
    _, _, *values = run(acc, carry, *[mem[cell] for cell in cells])
    out = dict(zip(cells, values))
    return (out["W"] << 8) | out["X"]


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
        cells = cpu._compile(PRNG_ROUTINE, inc_sets_carry)[1]
        assert cells == ("W", "Y", "X", "Z")

    @pytest.mark.parametrize("inc_sets_carry", [False, True])
    @pytest.mark.parametrize("acc, carry", [(0x00, 0), (0xFF, 1)])
    def test_oracle_program_on_every_state(self, inc_sets_carry, acc, carry):
        # the single-field form, the SWAR form on all states at once, and the
        # lanes' successor table (run from a zero start) against _run, state by state
        compiled, cells = cpu._compile(PRNG_ROUTINE, inc_sets_carry)
        mems = [{"W": s >> 8, "X": s & 0xFF, "Y": 0, "Z": 0} for s in range(0x10000)]
        fields = run_fields(PRNG_ROUTINE, inc_sets_carry, [(acc, carry, mem) for mem in mems])
        lanes = cpu.prng_lanes(inc_sets_carry)
        assert len(lanes) == len(fields) == 0x10000
        for s, mem in enumerate(mems):
            got = compiled(acc, carry, *[mem[cell] for cell in cells])
            expected = _run(PRNG_ROUTINE, acc, carry, mem, inc_sets_carry)
            assert got == fields[s] == (*expected, *[mem[cell] for cell in cells])
            assert lanes[s] == (mem["W"] << 8) | mem["X"]

    @pytest.mark.parametrize("inc_sets_carry", [False, True])
    @pytest.mark.parametrize("mnemonic", [m for m in Mnemonic if m is not Mnemonic.RTS])
    def test_each_instruction_form_at_byte_edges(self, mnemonic, inc_sets_carry):
        # the operand is cell 0x11 beside cell 0x10, so an address mix-up shows
        operand = 0x5A if mnemonic is Mnemonic.LDA_IMM else None if mnemonic in IMPLIED else 0x11
        routine = ((mnemonic, operand), (Mnemonic.RTS, None))
        compiled, cells = cpu._compile(routine, inc_sets_carry)
        assert cells == ((0x11,) if operand == 0x11 else ())
        edges = (0x00, 0x01, 0x7F, 0x80, 0xFE, 0xFF)
        inputs = [(acc, carry, {0x10: 0x33, 0x11: value}) for acc in edges for carry in (0, 1) for value in edges]
        fields = run_fields(routine, inc_sets_carry, inputs)  # every edge case at once, one field each
        for (acc, carry, mem), field in zip(inputs, fields):
            got = compiled(acc, carry, *[mem[addr] for addr in cells])
            expected = _run(routine, acc, carry, mem, inc_sets_carry)
            assert got == field == (*expected, *[mem[addr] for addr in cells])
            assert mem[0x10] == 0x33

    @pytest.mark.parametrize("inc_sets_carry", [False, True])
    def test_random_routines_on_three_cells(self, inc_sets_carry):
        rng = random.Random(3)
        forms = [m for m in Mnemonic if m is not Mnemonic.RTS]
        for _ in range(300):
            routine = []
            for _ in range(rng.randrange(1, 25)):
                m = rng.choice(forms)
                if m in IMPLIED:
                    routine.append((m, None))
                elif m is Mnemonic.LDA_IMM:
                    routine.append((m, rng.randrange(0x100)))
                else:
                    routine.append((m, rng.choice((0x20, 0x21, 0x22))))
            routine.append((Mnemonic.RTS, None))
            compiled, cells = cpu._compile(routine, inc_sets_carry)
            inputs = [
                (rng.randrange(0x100), rng.randrange(2), {addr: rng.randrange(0x100) for addr in (0x20, 0x21, 0x22)})
                for _ in range(16)
            ]
            fields = run_fields(routine, inc_sets_carry, inputs)  # 16 inputs at once, one field each
            for (acc, carry, mem), field in zip(inputs, fields):
                got = compiled(acc, carry, *[mem[addr] for addr in cells])
                expected = _run(routine, acc, carry, mem, inc_sets_carry)
                assert got == field == (*expected, *[mem[addr] for addr in cells])

    def test_nothing_is_compiled_at_import(self):
        # no successor table, and so no compiled run, before the first command runs
        src = str(Path(cpu.__file__).resolve().parents[1])
        code = "import entombed.cli as cli, entombed.cpu as c; cli.build_parser(); print(c.prng_lanes.cache_info())"
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20, env=env)
        assert out.stdout == "CacheInfo(hits=0, misses=0, maxsize=None, currsize=0)\n", out.stderr

    def test_compiled_once_per_carry_mode(self):
        # in a fresh interpreter, 2 x 65536 steps compile the routine and build its table once per mode
        src = str(Path(cpu.__file__).resolve().parents[1])
        code = (
            "import entombed.cpu as c\n"
            "compiles, compile_ = [], c._compile\n"
            "def counting_compile(routine, inc_sets_carry, *fields):\n"
            "    compiles.append(inc_sets_carry)\n"
            "    return compile_(routine, inc_sets_carry, *fields)\n"
            "c._compile = counting_compile\n"
            "for inc_sets_carry in (False, True):\n"
            "    for s in range(0x10000):\n"
            "        c.oracle_prng_step(s, inc_sets_carry)\n"
            "print(compiles, c.prng_lanes.cache_info())"
        )
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
        assert out.stdout == "[False, True] CacheInfo(hits=131070, misses=2, maxsize=None, currsize=2)\n", out.stderr


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
        run, touched = cpu._compile(on_cells(w, x, y, z), inc_sets_carry)
        for s in range(0x10000):
            mem = {w: s >> 8, x: s & 0xFF, y: 0, z: 0}
            _, _, *values = run(0, 0, *[mem[addr] for addr in touched])
            out = dict(zip(touched, values))
            assert (out[w] << 8) | out[x] == step(s)

    @pytest.mark.parametrize("cells", OTHER_CELLS)
    def test_untouched_cells_come_back_unchanged(self, cells):
        w, x, y, z = cells
        routine = on_cells(w, x, y, z)
        # untouched cells before, between and after the routine's own
        mem = {0x00: 0xA5, w: 0x12, x: 0x34, 0x50: 0x5A, y: 0xFF, z: 0x01, 0xFF: 0xC3}
        assert cpu._compile(routine, False)[1] == (w, y, x, z)
        out = run_routine(routine, acc=0x77, carry=1, mem=mem)
        assert {a: out.mem[a] for a in (0x00, 0x50, 0xFF)} == {0x00: 0xA5, 0x50: 0x5A, 0xFF: 0xC3}
        assert set(out.mem) == set(mem)
        assert (out.mem[w] << 8) | out.mem[x] == prng.buggy_step(0x1234)

    def test_untouched_cell_unchanged_by_single_instructions(self):
        for instr in (
            (Mnemonic.STA_ZP, 0x10),
            (Mnemonic.ADC_ZP, 0x10),
            (Mnemonic.ROL_ZP, 0x10),
            (Mnemonic.INC_ZP, 0x10),
            (Mnemonic.LDA_IMM, 0x11),
        ):
            out = run_one([instr], acc=0x80, carry=1, mem={0x11: 0x3C, 0x10: 0xFF})
            assert out.mem[0x11] == 0x3C


class TestOracleStepRangeChecks:
    """The state word is checked by oracle_prng_step."""

    @pytest.mark.parametrize("state", [-1, 0x10000, 1.5, "1", True, False])
    def test_state_out_of_word_range(self, state):
        with pytest.raises(ValueError, match=r"state must be an int in \[0, 65535\], got "):
            cpu.oracle_prng_step(state)


def test_the_int_rule_is_written_only_in_cpu():
    # every other module calls cpu._check_int, so no copy of the rule can drift
    package = Path(cpu.__file__).resolve().parent
    copies = {path.name: path.read_text().count("is not int") for path in sorted(package.glob("*.py"))}
    assert {name: n for name, n in copies.items() if n} == {"cpu.py": 1}


class TestAssembler:
    def test_concrete_routine_is_37_bytes(self):
        out = routine_bytes(W=0xDD, X=0xDE, Y=0xDF, Z=0xE0)
        assert len(cpu.assemble()) == len(out) == 37

    def test_prng_routine_bytes(self):
        # the game's bytes with each cell operand replaced by its slot name
        assert cpu.assemble() == [
            0xA5, "W", 0x85, "Y", 0xA5, "X", 0x85, "Z", 0x0A, 0x26, "W", 0x0A, 0x26, "W", 0x18, 0x65,
            "Z", 0x85, "X", 0xA9, 0x00, 0x65, "W", 0x18, 0x65, "Y", 0x85, "W", 0xA9, 0x00, 0xE6, "X",
            0x65, "W", 0x85, "W", 0x60,
        ]
        # bound to the game's cells $DD-$E0, the routine as listed byte by byte
        assert routine_bytes(W=0xDD, X=0xDE, Y=0xDF, Z=0xE0) == bytes.fromhex(
            "a5 dd 85 df a5 de 85 e0 0a 26 dd 0a 26 dd 18 65"
            " e0 85 de a9 00 65 dd 18 65 df 85 dd a9 00 e6 de 65 dd 85 dd 60"
        )

    def test_template_has_14_slots(self):
        out = cpu.assemble()
        assert len(out) == 37
        slots = [el for el in out if isinstance(el, str)]
        assert len(slots) == 14
        assert slots.count("W") == 7
        assert slots.count("X") == 3
        assert slots.count("Y") == 2
        assert slots.count("Z") == 2

    def test_implied_instruction_is_one_byte(self):
        # ASL A, CLC and RTS are followed directly by the next opcode
        out = cpu.assemble()
        pos = 0
        for mnemonic, _ in PRNG_ROUTINE:
            assert out[pos] == mnemonic.value
            pos += 1 if mnemonic in IMPLIED else 2
        assert pos == len(out)

    def test_round_trip_of_prng_routine(self):
        assert tuple(disassemble(cpu.assemble())) == PRNG_ROUTINE
        concrete = disassemble(list(routine_bytes(W=0x80, X=0x81, Y=0x90, Z=0x91)))
        assert tuple(concrete) == on_cells(0x80, 0x81, 0x90, 0x91)

    def test_disassemble_rejects_wildcard_opcode(self):
        with pytest.raises(ValueError):
            disassemble(["W", 0x60])

    def test_disassemble_rejects_truncated_instruction(self):
        with pytest.raises(ValueError):
            disassemble([0xA5])
