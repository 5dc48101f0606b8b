"""Tests for playfield expansion, rendering, solvability and surveys."""

import dataclasses
import random

import pytest

from entombed.maze_analysis import (
    SCREEN_ROWS,
    Grid,
    PatternStats,
    derived_seed,
    expand_row,
    is_solvable,
    maze_survey,
    parse_row,
    render_row,
    table_stats,
)
from entombed.mazegen import (
    CellRule,
    ModelBitSource,
    MysteryTable,
    PostprocessRule,
    default_table,
    generate_maze,
)
from entombed.prng import buggy_step


class Byte(int):
    """An int subclass, which a row must not be."""


class TestExpandRow:
    def test_empty_row(self):
        cells = expand_row(0x00)
        walls = {i for i, c in enumerate(cells) if c}
        assert walls == {0, 1, 2, 3, 36, 37, 38, 39}

    def test_full_row(self):
        assert expand_row(0xFF) == tuple([1] * 40)

    def test_single_leftmost_bit(self):
        cells = expand_row(0x80)
        walls = {i for i, c in enumerate(cells) if c}
        assert walls == {0, 1, 2, 3, 4, 5, 34, 35, 36, 37, 38, 39}

    def test_structure_holds_for_every_row_value(self):
        for row in range(0x100):
            cells = expand_row(row)
            assert len(cells) == 40
            assert cells[:4] == (1, 1, 1, 1) and cells[36:] == (1, 1, 1, 1)
            assert all(cells[39 - j] == cells[j] for j in range(20))
            assert all(cells[2 * j + 4] == cells[2 * j + 5] for j in range(8))

    def test_range_check(self):
        for bad in (0x100, -1, 1.5, "1", True, False, Byte(1)):
            for read in (expand_row, render_row):
                with pytest.raises(ValueError, match="row must be an 8-bit value"):
                    read(bad)


class TestRenderRow:
    def test_full_row(self):
        assert render_row(0xFF) == "XXXXXXXXXXXXXXXXXXXX XXXXXXXXXXXXXXXXXXXX"

    def test_empty_row(self):
        assert render_row(0x00) == "XXXX________________ ________________XXXX"

    def test_render_parse_identity_all_values(self):
        for row in range(0x100):
            line = render_row(row)
            assert len(line) == 41
            assert parse_row(line) == row

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_row("X" * 41)
        with pytest.raises(ValueError):
            parse_row(render_row(0x12)[:-1])
        with pytest.raises(ValueError):
            parse_row("XXXX_X______________ ______________X_XXXX")

    def test_parse_rejects_every_substitution_truncation_and_extension(self):
        for row in range(0x100):
            line = render_row(row)
            for i, old in enumerate(line):
                for new in "X_ ".replace(old, ""):
                    with pytest.raises(ValueError):
                        parse_row(line[:i] + new + line[i + 1 :])
            for bad in [line[:end] for end in range(len(line))] + [line + c for c in "X_ "]:
                with pytest.raises(ValueError):
                    parse_row(bad)


class TestGrid:
    def test_from_rows_shape(self):
        grid = Grid.from_rows([0x00, 0xFF])
        assert grid.width == 40
        assert grid.height == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Grid([])

    @pytest.mark.parametrize(
        "bad",
        [0x100, -1, 1.0, "1", None, expand_row(0x5A), True, False, Byte(1)],
        ids=["0x100", "-1", "1.0", "str", "None", "screen-row", "True", "False", "int-subclass"],
    )
    def test_rejects_a_row_that_is_not_an_8_bit_int(self, bad):
        with pytest.raises(ValueError, match="grid row 1 "):
            Grid.from_rows([0x00, bad])

    def test_rejects_structural_violations(self):
        cells = list(expand_row(0x00))
        cells[5] = 1  # break the doubled pair (4,5)
        with pytest.raises(ValueError, match="grid row 0 "):
            Grid([tuple(cells)])

    def test_accepts_every_screen_row(self):
        grid = Grid(range(256))
        assert grid.height == 256
        assert grid.cells == SCREEN_ROWS
        assert grid.cells is grid.cells  # the oracle reads cells[r][c] cell by cell

    def test_rejects_every_single_cell_flip(self):
        # No 40-cell row one flip away from a screen row is itself a screen
        # row, so no Grid's cells can hold one, and none is accepted as a row.
        screen_rows = set(SCREEN_ROWS)
        for row in range(0x100):
            cells = expand_row(row)
            for i in range(40):
                flipped = cells[:i] + (1 - cells[i],) + cells[i + 1 :]
                assert flipped not in screen_rows
                with pytest.raises(ValueError):
                    Grid([flipped])

    def test_rows_are_the_rows_each_screen_row_stands_for(self):
        grid = Grid(range(256))
        assert grid.rows == tuple(range(256))
        assert all(grid.cells[row] == expand_row(row) for row in grid.rows)
        assert Grid.from_rows([0x12, 0xFF, 0x00]).rows == (0x12, 0xFF, 0x00)

    def test_cannot_be_changed_after_construction(self):
        # Rows are validated once, at construction, so nothing may change
        # them later; a reassigned row used to reach is_solvable unchecked.
        g = Grid.from_rows([0, 0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.cells = [(0,) * 40, (0,) * 40]
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.rows = (0xFF, 0xFF)
        with pytest.raises(TypeError):
            g.cells[0] = (0,) * 40
        assert g.rows == (0, 0)
        assert is_solvable(g).solvable

    def test_stores_list_rows_as_a_tuple(self):
        rows = [0x00, 0x5A]
        grid = Grid(rows)
        rows[0] = 0xFF
        assert grid.rows == (0x00, 0x5A)
        assert grid == Grid.from_rows([0x00, 0x5A])


def union_find_solvable(grid: Grid) -> bool:
    """Independent connectivity oracle: union-find with virtual endpoints."""
    width, height = grid.width, grid.height
    top, bottom = width * height, width * height + 1
    parent = list(range(width * height + 2))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for r in range(height):
        for c in range(width):
            if grid.cells[r][c]:
                continue
            idx = r * width + c
            if r == 0:
                union(idx, top)
            if r == height - 1:
                union(idx, bottom)
            if r + 1 < height and grid.cells[r + 1][c] == 0:
                union(idx, (r + 1) * width + c)
            if c + 1 < width and grid.cells[r][c + 1] == 0:
                union(idx, r * width + c + 1)
    return find(top) == find(bottom)


class TestSolvability:
    def test_open_corridor(self):
        report = is_solvable(Grid.from_rows([0x00] * 10))
        assert report.solvable
        assert report.witness_path is not None

    def test_full_row_blocks(self):
        report = is_solvable(Grid.from_rows([0x00] * 5 + [0xFF] + [0x00] * 5))
        assert not report.solvable
        assert report.witness_path is None

    def test_witness_path_is_a_valid_walk(self):
        rng = random.Random(3)
        checked = 0
        while checked < 40:
            grid = Grid.from_rows([rng.randrange(0x100) for _ in range(20)])
            report = is_solvable(grid)
            if not report.solvable:
                continue
            checked += 1
            path = report.witness_path
            assert path[0][0] == 0
            assert path[-1][0] == grid.height - 1
            for (r, c) in path:
                assert grid.cells[r][c] == 0
            for (r1, c1), (r2, c2) in zip(path, path[1:]):
                assert abs(r1 - r2) + abs(c1 - c2) == 1

    def test_agrees_with_union_find_on_random_grids(self):
        rng = random.Random(7)
        for _ in range(300):
            height = rng.randrange(1, 61)
            # mix densities so both outcomes are exercised
            density = rng.choice((0.2, 0.5, 0.8))
            rows = [
                sum(((1 if rng.random() < density else 0) << b) for b in range(8))
                for _ in range(height)
            ]
            grid = Grid.from_rows(rows)
            assert is_solvable(grid).solvable == union_find_solvable(grid)

    def test_verdict_never_reads_the_screen_cells(self):
        class RowsOnly(Grid):
            @property
            def cells(self):
                raise AssertionError("the verdict read grid.cells")

        solvable = is_solvable(RowsOnly.from_rows([0x00] * 60))
        assert solvable.solvable
        unsolvable = is_solvable(RowsOnly.from_rows([0x00] * 5 + [0xFF]))
        assert not unsolvable.solvable
        assert unsolvable.witness_path is None

    def test_witness_is_searched_once_and_kept(self):
        report = is_solvable(Grid.from_rows([0x81, 0x00, 0x3C]))
        assert report.witness_path is report.witness_path
        assert report.witness_path[-1][0] == 2

    def test_single_row_grid(self):
        assert is_solvable(Grid.from_rows([0x00])).solvable
        assert not is_solvable(Grid.from_rows([0xFF])).solvable

    @pytest.mark.parametrize(
        "rows",
        [[0xFE], [0x00] * 60, [0x00] * 59 + [0xFF], [0x00] * 30 + [0xFF] * 30],
        ids=["1-row-one-cell", "60-all-open", "blocked-bottom", "blocked-half"],
    )
    def test_edge_grids_agree_with_union_find(self, rows):
        grid = Grid.from_rows(rows)
        assert is_solvable(grid).solvable == union_find_solvable(grid)


# Folded rows drawn left to right, bit 7 first: "#" wall, "." open.
# Each path must climb at least once between the top and the bottom row.
SERPENTINES = {
    "one-climb": [
        ".#######",
        ".#...###",
        ".#.#.###",
        ".#.#.###",
        "...#.###",
        "####.###",
        "####.###",
    ],
    "one-climb-by-the-centre": [
        "#######.",
        "###...#.",
        "###.#.#.",
        "###.#.#.",
        "###.#...",
        "###.####",
        "###.####",
    ],
    "two-climbs": [
        ".#######",
        ".#...###",
        ".#.#.###",
        ".#.#.###",
        "...#.###",
        "####.###",
        "####.###",
        "...#.###",
        ".#.#.###",
        ".#.#.###",
        ".#...###",
        ".#######",
        ".#######",
    ],
}


def _folded(picture):
    return [int(line.replace("#", "1").replace(".", "0"), 2) for line in picture]


def _top_down_sweep(rows):
    """A verdict that only ever moves down or sideways; wrong on serpentines."""
    reach = ~rows[0] & 0xFF
    for row in rows[1:]:
        opens, reach = ~row & 0xFF, reach & ~row & 0xFF
        for _ in range(8):
            reach |= ((reach << 1) | (reach >> 1)) & opens
    return reach != 0


class TestSerpentines:
    @pytest.mark.parametrize("name", sorted(SERPENTINES))
    def test_verdict_agrees_with_union_find(self, name):
        rows = _folded(SERPENTINES[name])
        grid = Grid.from_rows(rows)
        assert is_solvable(grid).solvable == union_find_solvable(grid) is True
        assert not _top_down_sweep(rows)

    @pytest.mark.parametrize("name", sorted(SERPENTINES))
    def test_blocking_the_climb_makes_it_unsolvable(self, name):
        rows = _folded(SERPENTINES[name])
        rows[-1] = 0xFF
        grid = Grid.from_rows(rows)
        assert is_solvable(grid).solvable == union_find_solvable(grid) is False

    @pytest.mark.parametrize("name", sorted(SERPENTINES))
    def test_witness_climbs(self, name):
        path = is_solvable(Grid.from_rows(_folded(SERPENTINES[name]))).witness_path
        assert any(r2 < r1 for (r1, _), (r2, _) in zip(path, path[1:]))


def reference_surveys(n_mazes, rows_per_maze=60, *, seed, table=None):
    """The plain loop: generate and solve maze after maze, yielding the
    running tallies, so item ``k`` is the survey of the first ``k + 1``."""
    condition1 = condition2 = unsolvable = 0
    for i in range(n_mazes):
        rows, traces = generate_maze(ModelBitSource(derived_seed(seed, i)), rows_per_maze, table)
        for trace in traces:
            condition1 += trace.postprocess_fired is PostprocessRule.CONDITION1
            condition2 += trace.postprocess_fired is PostprocessRule.CONDITION2
        unsolvable += not is_solvable(Grid.from_rows(rows)).solvable
        yield PatternStats(
            rows_generated=(i + 1) * rows_per_maze,
            condition1_fires=condition1,
            condition2_fires=condition2,
            mazes_generated=i + 1,
            unsolvable_count=unsolvable,
        )


def reference_survey(n_mazes, rows_per_maze=60, *, seed, table=None):
    for stats in reference_surveys(n_mazes, rows_per_maze, seed=seed, table=table):
        pass
    return stats


class TestSurveyMatchesReference:
    @pytest.mark.parametrize("seed", [0, 1, 0xFF00, 0xFFFF])
    def test_around_one_full_cycle_of_phases(self, seed):
        reference = list(reference_surveys(257, seed=seed))
        for n_mazes in (1, 255, 256, 257):
            assert maze_survey(n_mazes, seed=seed) == reference[n_mazes - 1], n_mazes

    def test_5000_mazes(self):
        assert maze_survey(5000, seed=1) == reference_survey(5000, seed=1)

    def test_past_the_derived_seed_wrap(self):
        # Index 65536 reuses index 0's derived seed; short mazes keep this cheap.
        expected = reference_survey(65537, 2, seed=3)
        assert maze_survey(65537, 2, seed=3) == expected

    def test_custom_table(self):
        rules = list(default_table().rules)
        rules[::3] = [CellRule.RANDOM] * len(rules[::3])
        table = MysteryTable(rules)
        assert maze_survey(300, 30, seed=7, table=table) == reference_survey(
            300, 30, seed=7, table=table
        )
        assert maze_survey(300, 30, seed=7, table=table) != maze_survey(300, 30, seed=7)

    def test_low_byte_follows_its_own_lcg(self):
        # The fact the survey rests on: the model source's draws (bit 7 of
        # the low byte) depend only on the seed's low byte.
        for state in range(0x10000):
            assert buggy_step(state) & 0xFF == (5 * (state & 0xFF) + 1) & 0xFF

    @pytest.mark.parametrize("rows_per_maze", [2, 60])
    @pytest.mark.parametrize("seed, r", [(1, 1), (0, 100), (0xFFFF, 255), (0x1234, 77)])
    def test_a_million_cycles_of_phases(self, seed, r, rows_per_maze):
        # Indices 256 m + j share index j's seed low byte, so 256 m + r mazes
        # are m whole 256-maze surveys plus the survey of the first r.
        m = 10**6
        whole = maze_survey(256, rows_per_maze, seed=seed)
        part = maze_survey(r, rows_per_maze, seed=seed)
        assert maze_survey(256 * m + r, rows_per_maze, seed=seed) == PatternStats(
            rows_generated=(256 * m + r) * rows_per_maze,
            condition1_fires=m * whole.condition1_fires + part.condition1_fires,
            condition2_fires=m * whole.condition2_fires + part.condition2_fires,
            mazes_generated=256 * m + r,
            unsolvable_count=m * whole.unsolvable_count + part.unsolvable_count,
        )
        assert whole.unsolvable_count > 0
        if rows_per_maze == 60:
            assert whole.condition1_fires > 0 and whole.condition2_fires > 0

    def test_all_65536_indices(self):
        stats = maze_survey(65536, seed=1)
        assert (stats.condition1_fires, stats.condition2_fires, stats.unsolvable_count) == (
            256,
            66048,
            62208,
        )


class TestSurvey:
    def test_generated_mazes_include_unsolvable_ones(self):
        stats = maze_survey(200, seed=1)
        assert stats.mazes_generated == 200
        assert stats.unsolvable_count >= 1

    def test_reproducible_for_fixed_seed(self):
        a = maze_survey(25, seed=9)
        b = maze_survey(25, seed=9)
        assert a == b

    def test_counts_are_bounded(self):
        stats = maze_survey(10, seed=2)
        assert stats.rows_generated == 600
        assert stats.condition1_fires + stats.condition2_fires <= stats.rows_generated
        assert stats.unsolvable_count <= stats.mazes_generated

    def test_n_mazes_must_be_positive(self):
        with pytest.raises(ValueError):
            maze_survey(0, seed=1)
        for n_mazes in (1.5, 5.0, "5", None):
            with pytest.raises(ValueError, match="n_mazes must be an int"):
                maze_survey(n_mazes, seed=1)
        for rows_per_maze in (0, 2.5, 60.0, "60"):
            with pytest.raises(ValueError, match="rows must be an int"):
                maze_survey(5, rows_per_maze, seed=1)

    @pytest.mark.parametrize("seed", [70000, 0x10000, -1, 1.5, "1"])
    def test_seed_must_be_a_word(self, seed):
        # the model source and the CLI refuse these too; none may be wrapped
        with pytest.raises(ValueError, match="seed must be a 16-bit value"):
            maze_survey(5, seed=seed)


class TestDerivedSeed:
    def test_wraps_past_65536(self):
        assert derived_seed(0xFFFF, 1) == buggy_step(0)
        # only the index wraps: a seed outside the word is refused
        for seed in (70000, 0x10000, -1, 1.5):
            with pytest.raises(ValueError, match="seed must be a 16-bit value"):
                derived_seed(seed, 0)

    def test_period_is_65536_in_the_index(self):
        for seed in (0, 1, 0xFF00, 0xFFFF):
            for index in (0, 1, 255, 0xFFFF):
                assert derived_seed(seed, index + 0x10000) == derived_seed(seed, index)


class TestTableStats:
    def test_default_table_counts(self):
        assert table_stats(default_table()) == {"wall": 11, "open": 13, "random": 8}

    def test_counts_sum_to_32(self):
        assert sum(table_stats(default_table()).values()) == 32

    def test_all_wall_table(self):
        table = MysteryTable((CellRule.WALL,) * 32)
        assert table_stats(table) == {"wall": 32, "open": 0, "random": 0}
