"""Entombed's streaming maze generator, reproduced row by row.

The game never stores a whole maze. It keeps the previous 8-bit row,
pads it with one random bit on each side, and emits the next row one bit
at a time, left to right. Each new bit is chosen by looking up five bits
of wall context in a 32-entry table: the two bits already generated to
the left (seeded as 1,0 at the row start) and the three padded bits
above. A table entry says wall, open, or "ask the PRNG". No closed-form
structure for the table is known; it behaves like hand-tuned data, and it
is reproduced here entry for entry.

After each row the game scans the recent rows for two degenerate
patterns and, on a hit, blanks all or part of the newest row:

* condition 1: the high nibble has been non-empty with a clear top bit
  for the whole 11-row window, i.e. a wall hugging the left side without
  ever touching it; the new row is cleared outright.
* condition 2: the newest seven centre columns (low-nibble bit 0) all
  match the centre bit of the ninth-last row; the new row's low nibble is
  cleared. The two-row gap means this actually catches four related
  stripe patterns.

Draws from the random source are tagged by role (left pad, right pad, or
mid-row decision) so a run can be recorded and replayed bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Mapping, Optional, Protocol, Sequence, Tuple

from .prng import _check_word, buggy_step


class CellRule(Enum):
    """What the context table dictates for one cell."""

    WALL = "wall"
    OPEN = "open"
    RANDOM = "random"


class DrawKind(Enum):
    """Why a random bit is being drawn; recorded traces keep the tag."""

    LEFT = "left"
    RIGHT = "right"
    MID = "mid"


class PostprocessRule(Enum):
    """Which pattern-breaking rule rewrote the newest row."""

    CONDITION1 = "condition1"
    CONDITION2 = "condition2"


class BitUnderflowError(Exception):
    """A replayed bit source ran out of recorded bits."""


class TraceDesyncError(Exception):
    """A replayed draw asked for a different kind than was recorded."""


# The wall-context table as it sits in the game ROM: one symbol per
# context, in context order index = (last two generated bits << 3) | three
# padded bits above, so each group of eight shares its last two bits.
# W wall, O open, R random; 11 wall, 13 open, 8 random.
_TABLE_SYMBOLS = "WWWROORR" "WWWWROOO" "WWWROOOO" "ROWRROOO"
_SYMBOL_RULES = {"W": CellRule.WALL, "O": CellRule.OPEN, "R": CellRule.RANDOM}
_DEFAULT_RULES: Dict[Tuple[int, int], CellRule] = {
    (index >> 3, index & 0b111): _SYMBOL_RULES[symbol]
    for index, symbol in enumerate(_TABLE_SYMBOLS)
}


@dataclass(frozen=True)
class MysteryTable:
    """The 32-entry map from 5-bit wall context to a cell rule."""

    entries: Mapping[Tuple[int, int], CellRule]

    def __post_init__(self) -> None:
        if set(self.entries) != _DEFAULT_RULES.keys():
            raise ValueError("table must map exactly the 32 (2-bit, 3-bit) contexts")
        if any(not isinstance(v, CellRule) for v in self.entries.values()):
            raise ValueError("table values must be CellRule members")

    def rule(self, last_two: int, three_above: int) -> CellRule:
        return self.entries[(last_two, three_above)]


def default_table() -> MysteryTable:
    """The table exactly as the game ships it."""
    return MysteryTable(dict(_DEFAULT_RULES))


class RandomBitSource(Protocol):
    """Anything that can answer a tagged draw with a 0/1 bit."""

    def draw(self, kind: DrawKind) -> int: ...


class ModelBitSource:
    """Bit source backed by the game's buggy PRNG.

    Each draw advances the 16-bit generator once and returns bit 7 of the
    low state byte. Which bit of its generator the original game actually
    samples for maze decisions has not been established, so this source is
    a documented, deterministic model rather than a claim of fidelity.
    (Bit 0 is unusable for modelling: with an odd multiplier and increment
    it strictly alternates every step.)
    """

    def __init__(self, seed: int):
        _check_word(seed, "seed")
        self.state = seed

    def draw(self, kind: DrawKind) -> int:
        self.state = buggy_step(self.state)
        return (self.state >> 7) & 1


class ReplayBitSource:
    """Replays a recorded (kind, bit) tape, enforcing kind agreement.

    Raises :class:`TraceDesyncError` when a draw's kind differs from the
    recording and :class:`BitUnderflowError` when the tape runs out.
    ``remaining`` exposes the leftover count so a consumer can confirm a
    replayed run used every recorded bit.
    """

    def __init__(self, records: Sequence[Tuple[DrawKind, int]]):
        self.records = list(records)
        self.position = 0

    @property
    def remaining(self) -> int:
        return len(self.records) - self.position

    def draw(self, kind: DrawKind) -> int:
        if self.position >= len(self.records):
            raise BitUnderflowError(f"bit underflow after {self.position} draws")
        recorded_kind, bit = self.records[self.position]
        if recorded_kind is not kind:
            raise TraceDesyncError(
                f"trace desync at draw {self.position}: "
                f"recorded {recorded_kind.value}, requested {kind.value}"
            )
        self.position += 1
        return bit


class SeededBitSource:
    """Independent pseudo-random bits for tests; not the game's generator."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def draw(self, kind: DrawKind) -> int:
        return self._rng.getrandbits(1)


class ConstantBitSource:
    """Always the same bit; handy for deterministic fixtures."""

    def __init__(self, bit: int = 0):
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        self.bit = bit

    def draw(self, kind: DrawKind) -> int:
        return self.bit


@dataclass
class RowTrace:
    """Everything consumed and produced while generating one row."""

    left_bit: int
    right_bit: int
    mid_bits: List[int]
    row_before_postprocess: int
    postprocess_fired: Optional[PostprocessRule] = None

    def records(self) -> List[Tuple[DrawKind, int]]:
        """The row's draws in draw order, ready for a replay source."""
        out = [(DrawKind.LEFT, self.left_bit), (DrawKind.RIGHT, self.right_bit)]
        out.extend((DrawKind.MID, bit) for bit in self.mid_bits)
        return out


def records_from_traces(traces: Sequence[RowTrace]) -> List[Tuple[DrawKind, int]]:
    """Flatten per-row traces into one replayable tape."""
    out: List[Tuple[DrawKind, int]] = []
    for trace in traces:
        out.extend(trace.records())
    return out


def generate_row(
    history: Sequence[int], source: RandomBitSource, table: MysteryTable
) -> Tuple[int, RowTrace]:
    """Produce the next 8-bit row from the newest row in ``history``.

    Bit 7 of the result is the leftmost generated cell (the one beside the
    fixed side wall), bit 0 the centremost. 1 is wall, 0 is open.
    """
    if not history:
        raise ValueError("history must contain at least one row")
    left = source.draw(DrawKind.LEFT)
    right = source.draw(DrawKind.RIGHT)
    padded = (left << 9) | ((history[-1] & 0xFF) << 1) | right
    last_two = 0b10
    row = 0
    mids: List[int] = []
    for i in range(7, -1, -1):
        rule = table.rule(last_two, (padded >> i) & 0b111)
        if rule is CellRule.RANDOM:
            bit = source.draw(DrawKind.MID)
            mids.append(bit)
        elif rule is CellRule.WALL:
            bit = 1
        else:
            bit = 0
        row = (row << 1) | bit
        last_two = ((last_two << 1) | bit) & 0b11
    return row, RowTrace(left_bit=left, right_bit=right, mid_bits=mids, row_before_postprocess=row)


def postprocess(history: Sequence[int]) -> Tuple[List[int], Optional[PostprocessRule]]:
    """Apply the two pattern-breaking rules to the newest row.

    Expects the newest row already appended and the history trimmed to at
    most 11 rows. Both rules are checked in order; condition 1 zeroes the
    newest row, which then empties the low-nibble window, so condition 2
    can never fire on top of it.
    """
    rows = list(history)
    fired: Optional[PostprocessRule] = None

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


def generate_maze(
    source: RandomBitSource,
    rows: int = 60,
    table: Optional[MysteryTable] = None,
) -> Tuple[List[int], List[RowTrace]]:
    """Stream ``rows`` maze rows from a blank first row.

    Returns the rows as the game would keep them (after postprocessing)
    together with one trace per row. Output is a pure function of the
    source's bit stream, the row count and the table.
    """
    if rows < 1:
        raise ValueError(f"rows must be >= 1, got {rows!r}")
    if table is None:
        table = default_table()
    history: List[int] = [0x00]
    out_rows: List[int] = []
    traces: List[RowTrace] = []
    for _ in range(rows):
        row, trace = generate_row(history, source, table)
        history.append(row)
        history = history[-11:]
        history, fired = postprocess(history)
        trace.postprocess_fired = fired
        out_rows.append(history[-1])
        traces.append(trace)
    return out_rows, traces
