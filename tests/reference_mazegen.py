"""One-row generation and the windowed pattern-breaking rules.

``entombed.mazegen.generate_maze`` walks the table compiled into one
decision tree per nibble and runs the two rules on run counters.
:func:`generate_row` is the per-bit loop the trees replaced: it reads
``table.rules`` itself, one lookup per cell, as the game does, and is the
reference for the trees. :func:`postprocess` is the rescanned 11-row
window the counters replaced, kept as the reference for those counters.
"""

from typing import List, Optional, Sequence, Tuple

from entombed.mazegen import (
    CellRule, DrawKind, MysteryTable, PostprocessRule, RandomBitSource, RowTrace,
)


def generate_row(
    history: Sequence[int], source: RandomBitSource, table: MysteryTable
) -> Tuple[int, RowTrace]:
    """Produce the next 8-bit row from the newest row in ``history``.

    Bit 7 of the result is the leftmost generated cell (the one beside the
    fixed side wall), bit 0 the centremost. 1 is wall, 0 is open.
    """
    if not history:
        raise ValueError("history must contain at least one row")
    rules, draw = table.rules, source.draw
    left = draw(DrawKind.LEFT)
    right = draw(DrawKind.RIGHT)
    padded = (left << 9) | ((history[-1] & 0xFF) << 1) | right
    row = 0b10  # the seeded last two bits; each generated bit shifts in below
    mids: List[int] = []
    for shift in (7, 6, 5, 4, 3, 2, 1, 0):
        rule = rules[((row & 0b11) << 3) | ((padded >> shift) & 0b111)]
        if rule is CellRule.RANDOM:
            bit = draw(DrawKind.MID)
            mids.append(bit)
            row = (row << 1) | bit
        else:
            row = (row << 1) | (rule is CellRule.WALL)
    row &= 0xFF
    return row, RowTrace(left, right, mids, row)


def postprocess(history: Sequence[int]) -> Tuple[List[int], Optional[PostprocessRule]]:
    """Apply the two pattern-breaking rules to the newest row.

    Expects the newest row already appended and the history trimmed to at
    most 11 rows; returns a new list. Condition 1: every row has a non-empty
    high nibble with bit 7 clear (``0x10 <= r < 0x80``), and the newest row
    is zeroed. Condition 2: of at least nine rows, the newest seven all have
    a non-empty low nibble and bit 0 equal to that of the ninth-last row,
    and the newest row's low nibble is cleared. Condition 1 empties the
    low-nibble window, so condition 2 can never fire on top of it.
    """
    rows = list(history)
    if all(0x10 <= r < 0x80 for r in rows):
        rows[-1] = 0
        return rows, PostprocessRule.CONDITION1
    if len(rows) >= 9 and all(r & 0x0F and r & 1 == rows[-9] & 1 for r in rows[-7:]):
        rows[-1] &= 0xF0
        return rows, PostprocessRule.CONDITION2
    return rows, None
