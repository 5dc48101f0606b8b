"""From 8-bit rows to the 40-column screen, plus solvability and statistics.

On screen each generated bit is doubled, a four-bit wall is glued to the
left, and the whole half is mirrored across the centre, so one 8-bit row
becomes 40 columns with fixed walls at both edges. The analyses here work
on the 8-bit rows; the 40-column form is derived only when it is read.

"Solvable" is an analytic proxy, not a game rule: the real game scrolls
continuously and has no fixed entrance, so we ask whether any open cell
in the top row reaches any open cell in the bottom row moving between
4-neighbour open cells. The game demonstrably produces mazes with no such
path; that is what the make-break pickup exists to fix.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .mazegen import (
    CellRule,
    ModelBitSource,
    MysteryTable,
    PostprocessRule,
    default_table,
    generate_maze,
)
from .prng import _check_word, buggy_step

GRID_WIDTH = 40


def _screen_row(row: int) -> Tuple[int, ...]:
    half = (1, 1, 1, 1) + tuple((row >> (7 - j // 2)) & 1 for j in range(16))
    return half + half[::-1]


# The screen format, stated once: the 256 possible screen rows, indexed by
# the 8-bit row. Rendering, parsing and Grid.cells all derive from it.
SCREEN_ROWS: Tuple[Tuple[int, ...], ...] = tuple(_screen_row(row) for row in range(0x100))
_SCREEN_TEXT: Tuple[str, ...] = tuple(
    " ".join("".join("_X"[c] for c in half) for half in (cells[:20], cells[20:]))
    for cells in SCREEN_ROWS
)
_ROW_BY_TEXT = {text: row for row, text in enumerate(_SCREEN_TEXT)}


def _check_row(row: int) -> int:
    if type(row) is not int or not 0 <= row <= 0xFF:  # no bool or other int subclass
        raise ValueError(f"row must be an 8-bit value, got {row!r}")
    return row


def expand_row(row: int) -> Tuple[int, ...]:
    """One 8-bit row as 40 wall bits: side wall, doubled bits, mirror."""
    return SCREEN_ROWS[_check_row(row)]


def render_row(row: int) -> str:
    """Text for a row: 20 cells per half (``X`` wall, ``_`` open), one space between."""
    return _SCREEN_TEXT[_check_row(row)]


def parse_row(line: str) -> int:
    """Invert :func:`render_row`; raises ValueError on any other line."""
    row = _ROW_BY_TEXT.get(line)
    if row is None:
        raise ValueError(f"not a rendered screen row: {line!r}")
    return row


@dataclass(frozen=True)
class Grid:
    """A frozen maze: the 8-bit rows generate_maze returns; ``cells`` is derived on first read."""

    rows: Tuple[int, ...]
    width = GRID_WIDTH

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        if not rows:
            raise ValueError("grid must have at least one row")
        for r, row in enumerate(rows):
            if type(row) is not int or not 0 <= row <= 0xFF:  # no bool or other int subclass
                raise ValueError(f"grid row {r} must be an 8-bit int, got {row!r}")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_rows(cls, rows: Sequence[int]) -> "Grid":
        return cls(rows)

    @cached_property
    def cells(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(SCREEN_ROWS[row] for row in self.rows)

    @property
    def height(self) -> int:
        return len(self.rows)


def _spread(reach: int, opens: int) -> int:
    """Grow ``reach`` sideways through the open cells of one 8-bit row."""
    while True:
        grown = (reach | (reach << 1) | (reach >> 1)) & opens
        if grown == reach:
            return reach
        reach = grown


def _reaches_bottom(rows: Sequence[int]) -> bool:
    """Flood fill over the folded rows, one 8-bit open mask per row.

    Folding loses no path: each doubled pair of screen columns is one cell,
    and the left half mirrors the right, so bit ``7 - j`` is the pair at
    columns ``4 + 2j`` and ``5 + 2j`` and the two centre pairs are the same
    cell (bit 0).
    """
    opens = [~row & 0xFF for row in rows]
    last = len(opens) - 1
    reach = [0] * len(opens)
    reach[0] = opens[0]
    pending = [0]
    while pending:
        r = pending.pop()
        for nr in (r - 1, r + 1):  # popped downward first
            if 0 <= nr <= last and reach[r] & opens[nr] & ~reach[nr]:
                reach[nr] = _spread(reach[nr] | (reach[r] & opens[nr]), opens[nr])
                pending.append(nr)
    return reach[last] != 0


@dataclass(frozen=True)
class SolvabilityReport:
    """Whether an open top-row cell of ``grid`` reaches its bottom row.

    ``solvable`` is computed from ``grid.rows`` at construction, so it cannot
    disagree with the grid; ``witness_path`` is searched on first read.
    """

    grid: Grid
    solvable: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "solvable", _reaches_bottom(self.grid.rows))

    @cached_property
    def witness_path(self) -> Optional[List[Tuple[int, int]]]:
        """One top-to-bottom path of open screen cells, or None if unsolvable."""
        if not self.solvable:
            return None
        # Every row mirrors across the centre, so reflecting a path's right-half
        # cells gives a left-half path between the same rows: search columns 0-19.
        height, width = self.grid.height, GRID_WIDTH // 2
        cells = self.grid.cells
        parents: Dict[Tuple[int, int], Optional[Tuple[int, int]]] = {}
        queue: deque = deque()
        for c in range(width):
            if cells[0][c] == 0:
                parents[(0, c)] = None
                queue.append((0, c))
        while True:  # the flood fill found a path, so the bottom row is reached
            r, c = queue.popleft()
            if r == height - 1:
                path = []
                node: Optional[Tuple[int, int]] = (r, c)
                while node is not None:
                    path.append(node)
                    node = parents[node]
                path.reverse()
                return path
            for nr, nc in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
                if 0 <= nr < height and 0 <= nc < width and cells[nr][nc] == 0:
                    if (nr, nc) not in parents:
                        parents[(nr, nc)] = (r, c)
                        queue.append((nr, nc))


def is_solvable(grid: Grid) -> SolvabilityReport:
    """Whether 4-neighbour moves lead from the top row to the bottom: a flood fill over rows."""
    return SolvabilityReport(grid)


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
    _check_word(seed, "seed")
    return buggy_step((seed + index) & 0xFFFF)


def maze_survey(
    n_mazes: int,
    rows_per_maze: int = 60,
    *,
    seed: int,
    table: Optional[MysteryTable] = None,
) -> PatternStats:
    """Tally ``n_mazes`` model-source mazes, generating one per phase.

    Maze ``i`` uses a model source seeded with :func:`derived_seed`, so a
    fixed ``seed`` reproduces the whole batch exactly. The model source
    draws bit 7 of the low state byte, and that byte evolves on its own:
    ``buggy_step(s) & 0xFF == (5 * (s & 0xFF) + 1) & 0xFF`` for every
    ``s``, a full-period LCG mod 256 (the carry defect only reaches the high
    byte). So every draw, and the whole maze, depends only on the seed's
    phase ``seed & 0xFF``. The survey counts how often each phase occurs in
    closed form, generates and solves one maze per phase, and weights its
    condition 1 fires, condition 2 fires and verdict by that count: at most
    256 mazes, and O(256) work, for any ``n_mazes``.
    """
    if not isinstance(n_mazes, int) or n_mazes < 1:
        raise ValueError(f"n_mazes must be an int >= 1, got {n_mazes!r}")
    if table is None:
        table = default_table()
    condition1 = condition2 = unsolvable = 0
    for i in range(min(n_mazes, 0x100)):
        # Indices i, i + 256, i + 512, ... share the seed low byte, so the phase.
        count = n_mazes // 0x100 + (i < n_mazes % 0x100)
        rows, traces = generate_maze(ModelBitSource(derived_seed(seed, i)), rows_per_maze, table)
        fired = Counter(trace.postprocess_fired for trace in traces)
        condition1 += count * fired[PostprocessRule.CONDITION1]
        condition2 += count * fired[PostprocessRule.CONDITION2]
        if not is_solvable(Grid.from_rows(rows)).solvable:
            unsolvable += count
    return PatternStats(
        rows_generated=n_mazes * rows_per_maze,
        condition1_fires=condition1,
        condition2_fires=condition2,
        mazes_generated=n_mazes,
        unsolvable_count=unsolvable,
    )


def table_stats(table: MysteryTable) -> Dict[str, int]:
    """Count the rule variants across the table's 32 rules."""
    counts = {rule.value: 0 for rule in CellRule}
    for rule in table.rules:
        counts[rule.value] += 1
    return counts
