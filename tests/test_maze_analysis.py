"""Tests for playfield expansion, rendering, solvability and surveys."""

import random

import pytest

from entombed.maze_analysis import (
    Grid,
    derived_seed,
    expand_row,
    is_solvable,
    maze_survey,
    parse_row,
    render_row,
    table_stats,
)
from entombed.mazegen import CellRule, MysteryTable, _DEFAULT_RULES, default_table
from entombed.prng import buggy_step


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
        with pytest.raises(ValueError):
            expand_row(0x100)


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

    def test_rejects_structural_violations(self):
        cells = [list(expand_row(0x00))]
        cells[0][5] = 1  # break the doubled pair (4,5)
        with pytest.raises(ValueError):
            Grid([tuple(cells[0])])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Grid([])

    def test_accepts_every_screen_row(self):
        assert Grid([expand_row(row) for row in range(0x100)]).height == 256

    def test_rejects_every_single_cell_flip(self):
        for row in range(0x100):
            cells = expand_row(row)
            for i in range(40):
                with pytest.raises(ValueError):
                    Grid([cells[:i] + (1 - cells[i],) + cells[i + 1 :]])

    def test_rejects_rows_of_the_wrong_type_width_or_values(self):
        cells = expand_row(0x5A)
        bad_rows = [
            list(cells),
            cells[:39],
            cells + (1,),
            cells[:10] + (2,) + cells[11:],
            cells[:10] + ([1],) + cells[11:],
        ]
        for bad in bad_rows:
            with pytest.raises(ValueError):
                Grid([expand_row(0x00), bad])


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

    def test_single_row_grid(self):
        assert is_solvable(Grid.from_rows([0x00])).solvable
        assert not is_solvable(Grid.from_rows([0xFF])).solvable


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


class TestDerivedSeed:
    def test_wraps_past_65536(self):
        assert derived_seed(0xFFFF, 1) == buggy_step(0)

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
        table = MysteryTable({k: CellRule.WALL for k in _DEFAULT_RULES})
        assert table_stats(table) == {"wall": 32, "open": 0, "random": 0}
