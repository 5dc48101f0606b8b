"""From 8-bit rows to the 40-column screen, plus solvability and statistics.

On screen each generated bit is doubled, a four-bit wall is glued to the
left, and the whole half is mirrored across the centre, so one 8-bit row
becomes 40 columns with fixed walls at both edges. The analyses here work
on that expanded grid.

"Solvable" is an analytic proxy, not a game rule: the real game scrolls
continuously and has no fixed entrance, so we ask whether any open cell
in the top row reaches any open cell in the bottom row moving between
4-neighbour open cells. The game demonstrably produces mazes with no such
path; that is what the make-break pickup exists to fix.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .mazegen import (
    CellRule,
    ModelBitSource,
    MysteryTable,
    PostprocessRule,
    default_table,
    generate_maze,
)
from .prng import buggy_step

GRID_WIDTH = 40


def _screen_row(row: int) -> Tuple[int, ...]:
    half = (1, 1, 1, 1) + tuple((row >> (7 - j // 2)) & 1 for j in range(16))
    return half + half[::-1]


# The screen format, stated once: the 256 possible screen rows, indexed by
# the 8-bit row. Rendering, parsing and Grid validation all derive from it.
SCREEN_ROWS: Tuple[Tuple[int, ...], ...] = tuple(_screen_row(row) for row in range(0x100))
_SCREEN_TEXT: Dict[Tuple[int, ...], str] = {
    cells: " ".join("".join("_X"[c] for c in half) for half in (cells[:20], cells[20:]))
    for cells in SCREEN_ROWS
}
_ROW_BY_TEXT = {_SCREEN_TEXT[cells]: row for row, cells in enumerate(SCREEN_ROWS)}


def expand_row(row: int) -> Tuple[int, ...]:
    """One 8-bit row as 40 wall bits: side wall, doubled bits, mirror."""
    if not 0 <= row <= 0xFF:
        raise ValueError(f"row must be an 8-bit value, got {row!r}")
    return SCREEN_ROWS[row]


def render_row(row: int) -> str:
    """Text for a row: 20 cells per half (``X`` wall, ``_`` open), one space between."""
    return _SCREEN_TEXT[expand_row(row)]


def parse_row(line: str) -> int:
    """Invert :func:`render_row`; raises ValueError on any other line."""
    row = _ROW_BY_TEXT.get(line)
    if row is None:
        raise ValueError(f"not a rendered screen row: {line!r}")
    return row


@dataclass
class Grid:
    """A wall matrix with the screen's structure baked in.

    Every row must be one of the 256 :data:`SCREEN_ROWS` as a tuple, which
    fixes its width, side walls, mirror symmetry and bit doubling. Build
    one from 8-bit rows with :meth:`from_rows`.
    """

    cells: List[Tuple[int, ...]]

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("grid must have at least one row")
        for r, row in enumerate(self.cells):
            try:
                valid = row in _SCREEN_TEXT  # keyed by exactly the SCREEN_ROWS
            except TypeError:  # unhashable, e.g. a list row
                valid = False
            if not valid:
                raise ValueError(f"grid row {r} is not one of the 256 screen rows")

    @classmethod
    def from_rows(cls, rows: Sequence[int]) -> "Grid":
        return cls([expand_row(r) for r in rows])

    @property
    def width(self) -> int:
        return GRID_WIDTH

    @property
    def height(self) -> int:
        return len(self.cells)


@dataclass
class SolvabilityReport:
    solvable: bool
    witness_path: Optional[List[Tuple[int, int]]] = None


def is_solvable(grid: Grid) -> SolvabilityReport:
    """Breadth-first search from every open top-row cell toward the bottom.

    Movement is between 4-neighbour open cells. When a bottom-row cell is
    reached the report carries one witness path, top to bottom.
    """
    # Every row mirrors across the centre, so reflecting a path's right-half
    # cells gives a left-half path between the same rows: search columns 0-19.
    height, width = grid.height, GRID_WIDTH // 2
    cells = grid.cells
    parents: Dict[Tuple[int, int], Optional[Tuple[int, int]]] = {}
    queue: deque = deque()
    for c in range(width):
        if cells[0][c] == 0:
            parents[(0, c)] = None
            queue.append((0, c))
    while queue:
        r, c = queue.popleft()
        if r == height - 1:
            path = []
            node: Optional[Tuple[int, int]] = (r, c)
            while node is not None:
                path.append(node)
                node = parents[node]
            path.reverse()
            return SolvabilityReport(solvable=True, witness_path=path)
        for nr, nc in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if 0 <= nr < height and 0 <= nc < width and cells[nr][nc] == 0:
                if (nr, nc) not in parents:
                    parents[(nr, nc)] = (r, c)
                    queue.append((nr, nc))
    return SolvabilityReport(solvable=False)


@dataclass
class PatternStats:
    """Tallies from a batch of generated mazes."""

    rows_generated: int
    condition1_fires: int
    condition2_fires: int
    mazes_generated: int
    unsolvable_count: int


def derived_seed(seed: int, index: int) -> int:
    """Per-maze source seed: base seed plus maze index, through the PRNG."""
    return buggy_step((seed + index) & 0xFFFF)


def maze_survey(
    n_mazes: int,
    rows_per_maze: int = 60,
    *,
    seed: int,
    table: Optional[MysteryTable] = None,
) -> PatternStats:
    """Generate ``n_mazes`` mazes with the model source and tally behaviour.

    Maze ``i`` uses a model source seeded with :func:`derived_seed`, so a
    fixed ``seed`` reproduces the whole batch exactly.
    """
    if n_mazes < 1:
        raise ValueError(f"n_mazes must be >= 1, got {n_mazes!r}")
    if table is None:
        table = default_table()
    condition1 = 0
    condition2 = 0
    unsolvable = 0
    for i in range(n_mazes):
        source = ModelBitSource(derived_seed(seed, i))
        rows, traces = generate_maze(source, rows_per_maze, table)
        for trace in traces:
            if trace.postprocess_fired is PostprocessRule.CONDITION1:
                condition1 += 1
            elif trace.postprocess_fired is PostprocessRule.CONDITION2:
                condition2 += 1
        if not is_solvable(Grid.from_rows(rows)).solvable:
            unsolvable += 1
    return PatternStats(
        rows_generated=n_mazes * rows_per_maze,
        condition1_fires=condition1,
        condition2_fires=condition2,
        mazes_generated=n_mazes,
        unsolvable_count=unsolvable,
    )


def table_stats(table: MysteryTable) -> Dict[str, int]:
    """Count the rule variants across the 32 table entries."""
    counts = {rule.value: 0 for rule in CellRule}
    for rule in table.entries.values():
        counts[rule.value] += 1
    return counts
