"""Independent reference maze generator used only for cross-checking.

This is a deliberately flat, single-function reimplementation of the
row-streaming algorithm, written directly against the reverse-engineered
behaviour and kept free of any library imports so the two codebases can
only agree by computing the same thing. It consumes a recorded tape of
(kind, bit) draws and returns the rows it generates.

Kinds are plain strings here ("left", "right", "mid") to stay decoupled
from the library's enum; :func:`tape_from_traces` reads a tape off the
library's row traces.
"""

# 5-bit wall context -> 1 (wall), 0 (open), None (take a random bit).
# Keyed by (two bits generated to the left, three padded bits above).
MAGIC = {
    (0b00, 0b000): 1,
    (0b00, 0b001): 1,
    (0b00, 0b010): 1,
    (0b00, 0b011): None,
    (0b00, 0b100): 0,
    (0b00, 0b101): 0,
    (0b00, 0b110): None,
    (0b00, 0b111): None,
    (0b01, 0b000): 1,
    (0b01, 0b001): 1,
    (0b01, 0b010): 1,
    (0b01, 0b011): 1,
    (0b01, 0b100): None,
    (0b01, 0b101): 0,
    (0b01, 0b110): 0,
    (0b01, 0b111): 0,
    (0b10, 0b000): 1,
    (0b10, 0b001): 1,
    (0b10, 0b010): 1,
    (0b10, 0b011): None,
    (0b10, 0b100): 0,
    (0b10, 0b101): 0,
    (0b10, 0b110): 0,
    (0b10, 0b111): 0,
    (0b11, 0b000): None,
    (0b11, 0b001): 0,
    (0b11, 0b010): 1,
    (0b11, 0b011): None,
    (0b11, 0b100): None,
    (0b11, 0b101): 0,
    (0b11, 0b110): 0,
    (0b11, 0b111): 0,
}


def tape_from_traces(traces):
    """The tape a run drew, in draw order, from its per-row traces."""
    tape = []
    for trace in traces:
        tape += [("left", trace.left_bit), ("right", trace.right_bit)]
        tape += [("mid", bit) for bit in trace.mid_bits]
    return tape


def reference_maze(records, rows):
    """Generate ``rows`` rows from a tape of ("left"|"right"|"mid", bit).

    Returns (pre_rows, post_rows, leftover) where pre_rows are the raw
    generated rows, post_rows the rows after the two pattern-breaking
    rules, and leftover how many tape entries went unconsumed. Raises
    AssertionError if a draw's kind disagrees with the tape.
    """
    position = 0

    def take(kind):
        nonlocal position
        recorded_kind, bit = records[position]
        assert recorded_kind == kind, f"tape desync at {position}: {recorded_kind} != {kind}"
        position += 1
        return bit

    lastrows = [0]
    pre_rows = []
    post_rows = []
    for _ in range(rows):
        lastrowpadded = take("left")
        lastrowpadded <<= 8
        lastrowpadded |= lastrows[-1]
        lastrowpadded <<= 1
        lastrowpadded |= take("right")

        lasttwo = 0b10
        newrow = 0
        for i in range(7, -1, -1):
            threeabove = (lastrowpadded >> i) & 0b111
            newbit = MAGIC[(lasttwo, threeabove)]
            if newbit is None:
                newbit = take("mid")
            newrow = (newrow << 1) | newbit
            lasttwo = ((lasttwo << 1) | newbit) & 0b11
        pre_rows.append(newrow)

        lastrows.append(newrow)
        lastrows = lastrows[-11:]

        history = [b & 0xF0 for b in lastrows]
        if 0 not in history:
            if sum(b & 0x80 for b in history) == 0:
                lastrows[-1] = 0

        history = [b & 0x0F for b in lastrows[-7:]]
        if 0 not in history:
            if len(lastrows) >= 9:
                comparator = lastrows[-9]
                if sum(b & 1 for b in history) == (comparator & 1) * 7:
                    lastrows[-1] &= 0xF0

        post_rows.append(lastrows[-1])
    return pre_rows, post_rows, len(records) - position
