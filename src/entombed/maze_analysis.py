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

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Tuple

from .cpu import _check_int, prng_lanes
from .mazegen import ModelBitSource, PostprocessRule, generate_maze

# The screen format, stated once: the text of each of the 256 rows. A half
# is four wall cells, then bits 7..0 each doubled; the right half mirrors it.
_SCREEN_TEXT: Tuple[str, ...] = tuple(
    f"{half} {half[::-1]}"
    for half in ("XXXX" + f"{row:08b}".replace("0", "__").replace("1", "XX") for row in range(0x100))
)


def render_row(row: int) -> str:
    """Text for a row: 20 cells per half (``X`` wall, ``_`` open), one space between."""
    return _SCREEN_TEXT[_check_int(row, "row", 0xFF)]


@dataclass(frozen=True)
class Grid:
    """A frozen maze: the 8-bit rows generate_maze returns, each checked at construction."""

    rows: Tuple[int, ...]

    def __post_init__(self) -> None:
        rows = tuple(self.rows)
        if not rows:
            raise ValueError("grid must have at least one row")
        for r, row in enumerate(rows):
            _check_int(row, "grid row ", 0xFF, 0, r)  # r is formatted only on failure
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_rows(cls, rows: Sequence[int]) -> "Grid":
        return cls(rows)


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


class SolvabilityReport(NamedTuple):
    """Whether an open top-row cell of ``grid`` reaches its bottom row, as :func:`is_solvable` found."""

    grid: Grid
    solvable: bool


def is_solvable(grid: Grid) -> SolvabilityReport:
    """Whether 4-neighbour moves lead from the top row to the bottom: a flood fill over rows.

    Computes ``solvable`` from ``grid.rows``, so the report it returns cannot
    disagree with the grid.
    """
    return SolvabilityReport(grid, _reaches_bottom(grid.rows))


class PatternStats(NamedTuple):
    """Tallies from a batch of generated mazes."""

    rows_generated: int
    condition1_fires: int
    condition2_fires: int
    mazes_generated: int
    unsolvable_count: int


def derived_seed(seed: int, index: int) -> int:
    """Per-maze source seed: base seed plus maze index (an int >= 0, wrapping), through the buggy PRNG's table."""
    _check_int(seed, "seed", 0xFFFF)
    return prng_lanes(False)[(seed + _check_int(index, "index")) & 0xFFFF]


def maze_survey(n_mazes: int, rows_per_maze: int = 60, *, seed: int) -> PatternStats:
    """Tally ``n_mazes`` model-source mazes on the game's table, generating one per phase.

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
    _check_int(n_mazes, "n_mazes", low=1)
    condition1 = condition2 = unsolvable = 0
    for i in range(min(n_mazes, 0x100)):
        # Indices i, i + 256, i + 512, ... share the seed low byte, so the phase.
        count = n_mazes // 0x100 + (i < n_mazes % 0x100)
        rows, traces = generate_maze(ModelBitSource(derived_seed(seed, i)), rows_per_maze)
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
