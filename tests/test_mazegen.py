"""Tests for the row generator, the context table and the bit sources."""

import dataclasses
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import entombed.mazegen
from entombed.mazegen import (
    CellRule,
    ConstantBitSource,
    DrawKind,
    ModelBitSource,
    MysteryTable,
    PostprocessRule,
    SeededBitSource,
    default_table,
    generate_maze,
)

from reference_maze import reference_maze, tape_from_traces
from reference_mazegen import generate_row, postprocess

L, R, M = "left", "right", "mid"  # a tape's kinds, as reference_maze reads them


class Replay:
    """Draws a recorded ``(kind, bit)`` tape in order and fails on a draw of
    another kind, so a replayed run also checks the draw order."""

    def __init__(self, tape):
        self.tape = list(tape)
        self.used = 0

    def draw(self, kind):
        recorded, bit = self.tape[self.used]
        assert recorded == kind.value, f"draw {self.used} is {kind.value}, recorded {recorded}"
        self.used += 1
        return bit


class Count(int):
    """An int subclass, which a count must not be."""


class TestTable:
    def test_spot_entries(self):
        table = default_table()
        assert table.rules[(0b00 << 3) | 0b000] is CellRule.WALL
        assert table.rules[(0b11 << 3) | 0b111] is CellRule.OPEN
        assert table.rules[(0b00 << 3) | 0b011] is CellRule.RANDOM

    def test_exactly_32_entries(self):
        assert len(default_table().rules) == 32

    def test_rejects_missing_entries(self):
        for length in (0, 31, 33):
            with pytest.raises(ValueError, match="32 CellRule members"):
                MysteryTable((CellRule.WALL,) * length)

    @pytest.mark.parametrize("member", ["wall", "W", None, 0])
    def test_rejects_a_member_that_is_not_a_cell_rule(self, member):
        rules = list(default_table().rules)
        rules[5] = member
        with pytest.raises(ValueError, match="32 CellRule members"):
            MysteryTable(rules)

    def test_rejects_the_context_mapping(self):
        # a dict keyed by (last_two, three_above) is refused, not read as its keys
        mapping = {(i >> 3, i & 0b111): rule for i, rule in enumerate(default_table().rules)}
        with pytest.raises(ValueError, match="32 CellRule members"):
            MysteryTable(mapping)

    def test_entries_are_read_only(self):
        table = default_table()
        with pytest.raises(TypeError):
            table.rules[0] = CellRule.OPEN
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.rules = (CellRule.OPEN,) * 32
        assert table == default_table()

    def test_entries_are_copied_at_construction(self):
        rules = list(default_table().rules)
        table = MysteryTable(rules)
        rules[0] = CellRule.OPEN
        assert type(table.rules) is tuple
        assert table.rules[0] is CellRule.WALL

    def test_equal_tables_hash_equal(self):
        a, b = default_table(), MysteryTable(list(default_table().rules))
        assert a == b and hash(a) == hash(b)
        assert {a: "game"}[b] == "game"
        assert len({a, b}) == 1
        other = list(a.rules)
        other[0] = CellRule.OPEN
        assert len({a, MysteryTable(other)}) == 2


class TestGenerateRow:
    def test_blank_row_no_pad_bits(self):
        # context stays in the wall/random alternation; two mid draws of 0
        row, trace = generate_row([0x00], Replay([(L, 0), (R, 0), (M, 0), (M, 0)]), default_table())
        assert row == 0xDB
        assert trace.mid_bits == [0, 0]

    def test_blank_row_all_ones_draws(self):
        row, trace = generate_row(
            [0x00], Replay([(L, 1), (R, 1), (M, 1), (M, 1), (M, 1), (M, 1)]), default_table()
        )
        assert row == 0x7E
        assert trace.mid_bits == [1, 1, 1, 1]

    def test_right_pad_bit_can_be_absorbed(self):
        # both (01,001) and (01,000) map to wall, so the right bit changes nothing
        row, _ = generate_row([0x00], Replay([(L, 0), (R, 1), (M, 0), (M, 0)]), default_table())
        assert row == 0xDB

    def test_draw_order_is_left_right_then_mids(self):
        source = Replay([(L, 0), (R, 0), (M, 0), (M, 0)])
        generate_row([0x00], source, default_table())
        assert source.used == len(source.tape)

    def test_history_must_be_non_empty(self):
        with pytest.raises(ValueError):
            generate_row([], ConstantBitSource(), default_table())

    def test_trace_counts_random_lookups(self):
        rng = random.Random(5)
        table = default_table()
        for _ in range(50):
            prev = rng.randrange(0x100)
            source = SeededBitSource(rng.randrange(10000))
            row, trace = generate_row([prev], source, table)
            # replay the context walk and count the random rules hit
            padded = (trace.left_bit << 9) | (prev << 1) | trace.right_bit
            last_two = 0b10
            expected_mids = 0
            bit_index = 0
            for i in range(7, -1, -1):
                rule = table.rules[(last_two << 3) | ((padded >> i) & 0b111)]
                if rule is CellRule.RANDOM:
                    bit = trace.mid_bits[expected_mids]
                    expected_mids += 1
                else:
                    bit = 1 if rule is CellRule.WALL else 0
                assert (row >> i) & 1 == bit
                last_two = ((last_two << 1) | bit) & 0b11
                bit_index += 1
            assert len(trace.mid_bits) == expected_mids

    def test_non_random_rules_never_consult_the_source(self):
        # with no random entries the produced row cannot depend on the source
        all_wall = MysteryTable((CellRule.WALL,) * 32)
        for prev in (0x00, 0xFF, 0xA5):
            row_a, trace_a = generate_row([prev], ConstantBitSource(), all_wall)
            row_b, trace_b = generate_row([prev], TapeSource([1, 1]), all_wall)
            assert row_a == row_b == 0xFF
            assert trace_a.mid_bits == trace_b.mid_bits == []


class TestPostprocess:
    def test_condition1_clears_left_hugging_wall(self):
        rows, fired = postprocess([0x70] * 11)
        assert fired is PostprocessRule.CONDITION1
        assert rows[-1] == 0x00

    def test_condition1_needs_full_high_nibbles(self):
        rows, fired = postprocess([0x70] * 10 + [0x00])
        assert fired is None

    def test_condition1_blocked_by_bit7(self):
        rows, fired = postprocess([0x70] * 10 + [0xF0])
        assert fired is None

    def test_condition2_all_ones_column(self):
        rows, fired = postprocess([0x01] * 11)
        assert fired is PostprocessRule.CONDITION2
        assert rows[-1] == 0x00

    def test_condition2_comparator_bit_zero(self):
        rows, fired = postprocess([0x02] * 11)
        assert fired is PostprocessRule.CONDITION2
        assert rows[-1] == 0x00

    def test_condition2_keeps_high_nibble(self):
        # bit 7 set everywhere blocks condition 1; the centre column still matches
        rows, fired = postprocess([0x81] * 11)
        assert fired is PostprocessRule.CONDITION2
        assert rows[-1] == 0x80

    def test_condition2_requires_nine_rows(self):
        rows, fired = postprocess([0x01] * 8)
        assert fired is None
        assert rows[-1] == 0x01

    def test_condition2_mismatched_column_does_not_fire(self):
        rows, fired = postprocess([0x01] * 4 + [0x03, 0x02] + [0x01] * 5)
        assert fired is None

    def test_no_fire_on_mixed_history(self):
        rows, fired = postprocess([0x00, 0x12, 0x34])
        assert fired is None
        assert rows == [0x00, 0x12, 0x34]

    def test_condition1_precludes_condition2(self):
        # FF-free high nibbles with bit7 clear fire condition 1, which zeroes
        # the row; the emptied low nibble then blocks condition 2's guard
        rows, fired = postprocess([0x71] * 11)
        assert fired is PostprocessRule.CONDITION1
        assert rows[-1] == 0x00

    def test_input_not_mutated(self):
        history = [0x70] * 11
        postprocess(history)
        assert history == [0x70] * 11

    def test_matches_the_nibble_list_rules_on_random_windows(self):
        rng = random.Random(11)
        pools = [
            range(0x10, 0x80),  # condition 1
            [r for r in range(0x10, 0x80) if r & 1],  # condition 1 where 2 would fire
            [r for r in range(0x100) if r & 1],  # condition 2 on a column of ones
            [r for r in range(0x100) if r & 0x0F and not r & 1],  # ... of zeros
            range(0x100),
        ]
        seen = Counter()
        for _ in range(20000):
            p = rng.randrange(len(pools))
            history = [rng.choice(pools[p]) for _ in range(rng.randint(1, 11))]
            if rng.random() < 0.2:
                history[rng.randrange(len(history))] = rng.randrange(0x100)
            before = list(history)
            got = postprocess(history)
            assert got == nibble_list_postprocess(history), history
            assert history == before
            seen[p, len(history) >= 9, got[1]] += 1
        c1, c2 = PostprocessRule.CONDITION1, PostprocessRule.CONDITION2
        assert seen[0, False, c1] and seen[1, True, c1]
        assert seen[2, True, c2] and seen[3, True, c2]
        assert seen[2, False, None] and seen[3, False, None]  # under nine rows
        assert seen[2, True, None] and seen[4, True, None]


def nibble_list_postprocess(history):
    """The two rules as first written, over lists of nibbles, kept as an
    independent check on :func:`postprocess`."""
    rows = list(history)
    fired = None

    high_nibbles = [r & 0xF0 for r in rows]
    if 0 not in high_nibbles and all(r & 0x80 == 0 for r in rows):
        rows[-1] = 0
        fired = PostprocessRule.CONDITION1

    low_nibbles = [r & 0x0F for r in rows[-7:]]
    if 0 not in low_nibbles and len(rows) >= 9:
        comparator = rows[-9]
        if sum(r & 1 for r in low_nibbles) == (comparator & 1) * 7:
            rows[-1] &= 0xF0
            if fired is None:
                fired = PostprocessRule.CONDITION2

    return rows, fired


class TestSources:
    def test_model_source_is_deterministic(self):
        a = ModelBitSource(0x1234)
        b = ModelBitSource(0x1234)
        bits_a = [a.draw(DrawKind.MID) for _ in range(64)]
        bits_b = [b.draw(DrawKind.MID) for _ in range(64)]
        assert bits_a == bits_b
        assert set(bits_a) == {0, 1}

    def test_model_source_seed_range(self):
        for bad in (0x10000, -1, 1.5, "1"):
            with pytest.raises(ValueError):
                ModelBitSource(bad)


class TestGenerateMaze:
    def test_row_count(self):
        rows, traces = generate_maze(ModelBitSource(1), 60)
        assert len(rows) == 60
        assert len(traces) == 60

    def test_rows_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_maze(ModelBitSource(1), 0)
        for rows in (2.5, 60.0, "60", None, True, False, Count(60)):
            with pytest.raises(ValueError, match="rows must be an int"):
                generate_maze(ModelBitSource(1), rows)

    def test_zeros_source_is_reproducible(self):
        rows_a, _ = generate_maze(ConstantBitSource(), 60)
        rows_b, _ = generate_maze(ConstantBitSource(), 60)
        assert rows_a == rows_b

    def test_identical_streams_identical_mazes(self):
        rows_a, traces = generate_maze(ModelBitSource(0xBEEF), 60)
        tape = tape_from_traces(traces)
        rows_b, traces_b = generate_maze(Replay(tape), 60)
        assert rows_a == rows_b
        assert tape_from_traces(traces_b) == tape

    def test_record_replay_round_trip_consumes_everything(self):
        _, traces = generate_maze(ModelBitSource(7), 60)
        source = Replay(tape_from_traces(traces))
        generate_maze(source, 60)
        assert source.used == len(source.tape)

    def test_traces_expose_postprocess_fires(self):
        # seeds known to fire each rule within 60 rows
        _, traces = generate_maze(ModelBitSource(986), 60)
        assert PostprocessRule.CONDITION1 in {t.postprocess_fired for t in traces}
        _, traces = generate_maze(ModelBitSource(6), 60)
        assert PostprocessRule.CONDITION2 in {t.postprocess_fired for t in traces}


class TestAgainstReference:
    def test_reference_agrees_on_model_runs(self):
        for seed in (1, 2, 0xB5B5, 0x00FF):
            rows, traces = generate_maze(ModelBitSource(seed), 60)
            pre, post, leftover = reference_maze(tape_from_traces(traces), 60)
            assert post == rows
            assert pre == [t.row_before_postprocess for t in traces]
            assert leftover == 0

    def test_reference_agrees_on_adversarial_random_streams(self):
        rng = random.Random(42)
        for _ in range(30):
            source = SeededBitSource(rng.randrange(1 << 30))
            rows, traces = generate_maze(source, 60)
            pre, post, leftover = reference_maze(tape_from_traces(traces), 60)
            assert post == rows
            assert leftover == 0


def windowed_maze(source, rows, table):
    """The loop :func:`generate_maze` replaced, kept as the reference for its
    run counters: each row rescans the last 11 through :func:`postprocess`."""
    history, out, traces = [0x00], [], []
    for _ in range(rows):
        row, trace = generate_row(history, source, table)
        history, trace.postprocess_fired = postprocess(history[-10:] + [row])
        out.append(history[-1])
        traces.append(trace)
    return out, traces


ALL_WALL = MysteryTable((CellRule.WALL,) * 32)
ALL_RANDOM = MysteryTable((CellRule.RANDOM,) * 32)
C1, C2 = PostprocessRule.CONDITION1, PostprocessRule.CONDITION2


def random_table_tape(rows):
    """A tape that makes :data:`ALL_RANDOM` generate exactly ``rows``."""
    tape = []
    for row in rows:
        tape += [(L, 0), (R, 1)] + [(M, (row >> i) & 1) for i in range(7, -1, -1)]
    return tape


class TestRunCounters:
    """``generate_maze``'s counters against the windowed ``postprocess`` loop."""

    def assert_same(self, make_source, rows, table=None):
        table = table or default_table()
        got = generate_maze(make_source(), rows, table)
        want = windowed_maze(make_source(), rows, table)
        assert got == want
        return got[1]

    def fired_at(self, traces):
        return {i: t.postprocess_fired for i, t in enumerate(traces) if t.postprocess_fired}

    def test_every_model_phase(self):
        fired = Counter()
        for phase in range(256):
            traces = self.assert_same(lambda: ModelBitSource(phase), 60)
            fired.update(t.postprocess_fired for t in traces)
        assert fired[C1] and fired[C2]

    def test_seeded_mazes(self):
        fired = Counter()
        for seed in range(2000):
            traces = self.assert_same(lambda: SeededBitSource(seed), 60)
            fired.update(t.postprocess_fired for t in traces)
        assert fired[C1] and fired[C2]

    def test_windows_shorter_than_eleven_rows(self):
        for rows in range(1, 13):
            for seed in range(40):
                self.assert_same(lambda: SeededBitSource(seed), rows)
            self.assert_same(lambda: TapeSource([1] * 2 * rows), rows, ALL_WALL)
            self.assert_same(lambda: Replay(random_table_tape([0x02] * rows)), rows, ALL_RANDOM)

    def test_condition1_on_exactly_the_eleventh_row_in_range(self):
        rows = [0x80, 0x20] + [0x70] * 9 + [0x10, 0x40]
        traces = self.assert_same(lambda: Replay(random_table_tape(rows)), len(rows), ALL_RANDOM)
        assert self.fired_at(traces) == {11: C1}

    def test_condition1_fires_again_after_eleven_more_rows(self):
        rows = [0x30] * 22
        traces = self.assert_same(lambda: Replay(random_table_tape(rows)), len(rows), ALL_RANDOM)
        assert self.fired_at(traces) == {10: C1, 21: C1}

    def test_condition2_with_exactly_nine_rows_in_the_window(self):
        # the blank first row is the comparator, with bit 0 clear
        traces = self.assert_same(lambda: Replay(random_table_tape([0x02] * 8)), 8, ALL_RANDOM)
        assert self.fired_at(traces) == {7: C2}
        traces = self.assert_same(lambda: Replay(random_table_tape([0x01] * 8)), 8, ALL_RANDOM)
        assert self.fired_at(traces) == {}

    def test_condition2_ignores_the_row_between_comparator_and_run(self):
        rows = [0x01, 0x00] + [0x01] * 7
        traces = self.assert_same(lambda: Replay(random_table_tape(rows)), len(rows), ALL_RANDOM)
        assert self.fired_at(traces) == {8: C2}

    def test_condition2_misses_when_only_the_comparator_differs(self):
        # row 8 misses on row 0's bit 0; row 9 compares with row 1 and fires
        rows = [0x02] + [0x01] * 9
        traces = self.assert_same(lambda: Replay(random_table_tape(rows)), len(rows), ALL_RANDOM)
        assert self.fired_at(traces) == {9: C2}

    def test_all_wall_table(self):
        tape = [(kind, 1) for _ in range(30) for kind in (L, R)]
        traces = self.assert_same(lambda: Replay(tape), 30, ALL_WALL)
        assert set(self.fired_at(traces).values()) == {C2}


class TapeSource:
    """A bare list of bits, drawn in order whatever the kind: no checks, so
    the exhaustive sweep below stays fast."""

    def __init__(self, bits):
        self.bits = bits
        self.used = 0

    def draw(self, kind):
        bit = self.bits[self.used]
        self.used += 1
        return bit


def walk_nibbles(table, padded, mids):
    """Walk ``table.nibbles`` as :func:`generate_maze` does: (row, mid bits drawn)."""
    row, used = 0b10, 0
    for six_above in (padded >> 4, padded & 0x3F):
        node = table.nibbles[((row & 0b11) << 6) | six_above]
        while type(node) is tuple:
            node = node[mids[used]]
            used += 1
        row = (row << 4) | node
    return row & 0xFF, used


def leaves(node):
    return 1 if type(node) is int else leaves(node[0]) + leaves(node[1])


MID_TAPES = [[(tape >> i) & 1 for i in range(7, -1, -1)] for tape in range(256)]


def assert_nibbles_match_reference(table, padded, tapes):
    """The compiled trees against :func:`generate_row`'s per-bit loop, which
    reads ``table.rules`` one cell at a time."""
    history = [(padded >> 1) & 0xFF]
    pads = [padded >> 9, padded & 1]
    for mids in tapes:
        source = TapeSource(pads + mids)
        row, trace = generate_row(history, source, table)
        used = source.used - 2
        assert walk_nibbles(table, padded, mids) == (row, used), (padded, mids)
        assert trace.mid_bits == mids[:used]


def one_entry_away(index):
    """The game's table with entry ``index`` set to each of the other two rules."""
    for rule in CellRule:
        if rule is not default_table().rules[index]:
            rules = list(default_table().rules)
            rules[index] = rule
            yield MysteryTable(rules)


class TestNibbles:
    """The compiled row trees against the per-bit reference loop."""

    def test_default_table_every_context_and_tape(self):
        table = default_table()
        for padded in range(1 << 10):
            assert_nibbles_match_reference(table, padded, MID_TAPES)

    @pytest.mark.parametrize(
        "table", [ALL_WALL, MysteryTable((CellRule.OPEN,) * 32), ALL_RANDOM],
        ids=["wall", "open", "random"],
    )
    def test_uniform_tables_every_context(self, table):
        rng = random.Random(20)
        for padded in range(1 << 10):
            assert_nibbles_match_reference(table, padded, rng.sample(MID_TAPES, 4))

    @pytest.mark.parametrize("index", range(32))
    def test_tables_one_entry_away_every_context(self, index):
        rng = random.Random(index)
        for table in one_entry_away(index):
            for padded in range(1 << 10):
                assert_nibbles_match_reference(table, padded, [rng.choice(MID_TAPES)])

    def test_cost_is_bounded_for_any_table(self):
        # A row walks the 64 trees after 0b10, then any of the 256: an
        # all-RANDOM table reaches the 4-cell bound of 16 leaves in each.
        trees = ALL_RANDOM.nibbles
        assert len(trees) == 256
        assert sum(map(leaves, trees[0x80:0xC0])) == 1024
        assert sum(map(leaves, trees)) == 4096
        game = default_table().nibbles
        assert (sum(map(leaves, game[0x80:0xC0])), sum(map(leaves, game))) == (162, 698)

    def test_default_table_is_one_shared_instance(self):
        assert default_table() is default_table()
        assert default_table().nibbles is default_table().nibbles

    def test_a_custom_table_is_used_as_given(self):
        equal = MysteryTable(default_table().rules)
        assert equal == default_table() and equal is not default_table()
        assert "nibbles" not in vars(equal)
        assert generate_maze(SeededBitSource(3), 60, equal) == generate_maze(SeededBitSource(3), 60)
        assert "nibbles" in vars(equal)

    def test_nothing_is_compiled_at_import(self):
        code = (
            "import entombed.cli, entombed.mazegen as m; "
            "print('nibbles' in vars(m.default_table()))"
        )
        src = str(Path(entombed.mazegen.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20, env=env)
        assert out.stdout == "False\n", out.stderr
