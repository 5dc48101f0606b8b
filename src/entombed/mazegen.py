"""Entombed's streaming maze generator, reproduced row by row.

The game never stores a whole maze. It keeps the previous 8-bit row,
pads it with one random bit on each side, and emits the next row one bit
at a time, left to right. Each new bit is chosen by looking up five bits
of wall context in a 32-entry table: the two bits already generated to
the left (seeded as 1,0 at the row start) and the three padded bits
above. A table entry says wall, open, or "ask the PRNG". No closed-form
structure for the table is known; it is reproduced here entry for entry,
as data, and compiled on first use into one decision tree per nibble, so
a row costs its random draws and two tree walks, not eight lookups.

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
mid-row decision), and each row's trace keeps the bits it drew, so a run's
draws can be read back in order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from typing import List, Optional, Protocol, Tuple

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


# The wall-context table as it sits in the game ROM: one symbol per
# context, in context order index = (last two generated bits << 3) | three
# padded bits above, so each group of eight shares its last two bits.
# W wall, O open, R random; 11 wall, 13 open, 8 random.
_TABLE_SYMBOLS = "WWWROORR" "WWWWROOO" "WWWROOOO" "ROWRROOO"
_SYMBOL_RULES = {"W": CellRule.WALL, "O": CellRule.OPEN, "R": CellRule.RANDOM}


def _nibble(rules: Tuple[CellRule, ...], above: int, bits: int, cell: int = 3):
    """Cells ``cell``..0 under ``above`` after ``bits``: a nibble, or a RANDOM pair (if 0, if 1)."""
    if cell < 0:
        return bits & 0xF
    rule = rules[((bits & 0b11) << 3) | ((above >> cell) & 0b111)]
    if rule is CellRule.RANDOM:
        return tuple(_nibble(rules, above, (bits << 1) | bit, cell - 1) for bit in (0, 1))
    return _nibble(rules, above, (bits << 1) | (rule is CellRule.WALL), cell - 1)


@dataclass(frozen=True)
class MysteryTable:
    """The 32-entry map from 5-bit wall context to a cell rule.

    ``rules`` holds one :class:`CellRule` per context, in context order
    ``(last_two << 3) | three_above``. It is copied into a tuple and
    checked at construction, so the table cannot change afterwards, and
    equal tables hash equal. :attr:`nibbles` is its compiled form.
    """

    rules: Tuple[CellRule, ...]

    def __post_init__(self) -> None:
        rules = tuple(self.rules)
        if len(rules) != 32 or not all(isinstance(rule, CellRule) for rule in rules):
            raise ValueError("table must hold 32 CellRule members, one per context")
        object.__setattr__(self, "rules", rules)

    @cached_property
    def nibbles(self) -> tuple:
        """Four-cell trees ``[(last_two << 6) | six_above]``, 4096 leaves at most, built on
        first read; a row walks one per nibble, the high one after the seeded ``0b10``."""
        return tuple(_nibble(self.rules, i & 0x3F, i >> 6) for i in range(256))


@cache
def default_table() -> MysteryTable:
    """The table exactly as the game ships it: one shared instance, so compiled once."""
    return MysteryTable(tuple(_SYMBOL_RULES[symbol] for symbol in _TABLE_SYMBOLS))


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

    The low byte steps on its own, ``(5 * low + 1) & 0xFF`` under either
    generator: a full-period LCG mod 2^8 by Hull-Dobell (Knuth, TAOCP
    Vol. 2, 3.2.1.2). Bit k of an LCG mod a power of two has period
    2^(k+1) (3.2.1.1, 3.6), so the draws cycle with period exactly 256 and
    the seed only picks the phase ``seed & 0xFF``: seeds that share a low
    byte draw the same bits, and no draw shows the carry defect.
    """

    def __init__(self, seed: int):
        _check_word(seed, "seed")
        self.state = seed

    def draw(self, kind: DrawKind) -> int:
        self.state = buggy_step(self.state)
        return (self.state >> 7) & 1


class SeededBitSource:
    """Independent pseudo-random bits for tests; not the game's generator."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)

    def draw(self, kind: DrawKind) -> int:
        return self._rng.getrandbits(1)


class ConstantBitSource:
    """Always draws 0: the all-zeros source behind ``--source zeros``."""

    def draw(self, kind: DrawKind) -> int:
        return 0


@dataclass
class RowTrace:
    """Everything consumed and produced while generating one row."""

    left_bit: int
    right_bit: int
    mid_bits: List[int]
    row_before_postprocess: int
    postprocess_fired: Optional[PostprocessRule] = None


# Module aliases: the row loop reads a global instead of an enum attribute.
_LEFT, _RIGHT, _MID = DrawKind.LEFT, DrawKind.RIGHT, DrawKind.MID


def generate_maze(
    source: RandomBitSource,
    rows: int = 60,
    table: Optional[MysteryTable] = None,
) -> Tuple[List[int], List[RowTrace]]:
    """Stream ``rows`` maze rows from a blank first row.

    Returns the rows as the game would keep them (after postprocessing)
    together with one trace per row. Output is a pure function of the
    source's bit stream, the row count and the table. Bit 7 of a row is
    the leftmost generated cell (the one beside the fixed side wall), bit
    0 the centremost; 1 is wall, 0 is open.

    The two pattern-breaking rules run on two counters of consecutive kept
    rows, ending with the previous one, instead of a rescanned 11-row
    window; the blank first row counts as kept:

    * ``high_run`` counts rows in ``0x10..0x7F`` (the blank row ends a
      run). Condition 1 fires on a new row in range after 10 of them.
    * ``low_run`` counts rows with a non-empty low nibble and one bit 0.
      Condition 2 fires, when condition 1 did not, on a new row with a
      non-empty low nibble and the previous row's bit 0 after 6 of them,
      if at least 8 kept rows precede it and the kept row 8 back has that
      bit 0 too; only that row is read back.
    """
    if type(rows) is not int or rows < 1:  # no bool or other int subclass
        raise ValueError(f"rows must be an int >= 1, got {rows!r}")
    if table is None:
        table = default_table()
    nibbles = table.nibbles
    draw = source.draw
    kept = [0x00]
    traces: List[RowTrace] = []
    above = 0x00
    high_run = low_run = 0
    for _ in range(rows):
        left, right = draw(_LEFT), draw(_RIGHT)
        padded = (left << 9) | (above << 1) | right
        mids: List[int] = []
        node = nibbles[0x80 | (padded >> 4)]  # 0x80: the seeded last two bits 0b10 << 6
        while type(node) is tuple:
            mids.append(bit := draw(_MID))
            node = node[bit]
        row = node << 4
        node = nibbles[((node & 0b11) << 6) | (padded & 0x3F)]
        while type(node) is tuple:
            mids.append(bit := draw(_MID))
            node = node[bit]
        row |= node
        trace = RowTrace(left, right, mids, row)
        if 0x10 <= row < 0x80 and high_run >= 10:
            row = 0
            trace.postprocess_fired = PostprocessRule.CONDITION1
        elif (
            low_run >= 6 and row & 0x0F and len(kept) >= 8
            and ((row ^ above) | (row ^ kept[-8])) & 1 == 0
        ):
            row &= 0xF0
            trace.postprocess_fired = PostprocessRule.CONDITION2
        high_run = high_run + 1 if 0x10 <= row < 0x80 else 0
        if not row & 0x0F:
            low_run = 0
        elif (row ^ above) & 1:
            low_run = 1
        else:
            low_run += 1
        kept.append(row)
        traces.append(trace)
        above = row
    return kept[1:], traces
