"""Entombed's 16-bit pseudo-random number generator, bug included.

The game keeps a 16-bit word (high byte and low byte in two zero-page
cells) and advances it with what was evidently intended to be the linear
congruential generator

    next = (5 * state + 1) mod 65536

The 6502 routine computes ``5 * state`` as ``4 * state + state`` using
shifts and byte-wide adds, then finishes with a 16-bit increment. The
increment uses ``INC`` on the low byte, and ``INC`` does not touch the
carry flag, so the +1 never carries into the high byte. Instead the
``ADC #$00`` that was supposed to propagate that carry picks up a stale
carry left over from the multiply. :func:`buggy_step` reproduces the
shipped behaviour exactly; :func:`correct_step` is the generator the code
was aiming for.

All arithmetic here is explicitly modular (mod 256 per byte, mod 65536
per word); nothing relies on native integer width. Every function is
pure, so the module is safe to use from any number of threads.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable, List

WORD_COUNT = 0x10000


def _check_word(value: int, name: str = "state") -> None:
    if not isinstance(value, int) or not 0 <= value <= 0xFFFF:
        raise ValueError(f"{name} must be a 16-bit value, got {value!r}")


def correct_step(state: int) -> int:
    """Advance the intended generator: (5 * state + 1) mod 65536.

    Its period is the full 65536 from every seed. That follows from the
    Hull-Dobell theorem (Knuth, TAOCP Vol. 2, 3.2.1.2): the increment
    c = 1 is odd, and a - 1 = 4 is divisible by 4, the only prime factor
    of the modulus. The tests also check it exhaustively.
    """
    _check_word(state)
    return (5 * state + 1) & 0xFFFF


def buggy_step(state: int) -> int:
    """Advance the generator the way the shipped routine actually does.

    The low byte is always ``(5 * state + 1) mod 256``: the final increment
    wraps inside the byte and its carry is lost. The high byte of
    ``5 * state`` is correct, but where the increment's carry should have
    been added, the routine adds the carry still sitting in the flag from
    the high-byte addition of the multiply. That stale carry is nonzero
    only when ``5 * state`` overflows 16 bits, and even then it reflects
    the shifted-and-truncated operands rather than the true sum, so about
    half of all steps come out one high-byte unit away from the correct
    generator.
    """
    _check_word(state)
    # The routine's byte adds, carry out in bit 8. CLC; ADC z: low(4s) + low(s)
    low_sum = ((state << 2) & 0xFF) + (state & 0xFF)
    # LDA #0; ADC w: high(4s) + that carry; CLC; ADC y: ... + high(s)
    high_sum = ((((state >> 6) & 0xFF) + (low_sum >> 8)) & 0xFF) + (state >> 8)
    # INC x leaves the carry alone, so ADC w adds high_sum's stale carry
    high = ((high_sum & 0xFF) + (high_sum >> 8)) & 0xFF
    return (high << 8) | ((low_sum + 1) & 0xFF)


def canonical_seed(b: int) -> int:
    """Build a seed the way the game does: one byte duplicated into both halves."""
    if type(b) is not int or not 0 <= b <= 0xFF:  # no bool or other int subclass
        raise ValueError(f"seed byte must be in [0, 255], got {b!r}")
    return (b << 8) | b


@dataclass
class AgreementReport:
    """Exhaustive comparison of the two step functions over all 65536 states."""

    fraction_equal: float
    mismatch_count: int
    low_bytes_equal_count: int  # mismatches whose low bytes agree
    high_delta_plus_one: int
    high_delta_minus_one: int


def compare_all_steps() -> AgreementReport:
    """Compare buggy_step against correct_step for every 16-bit state; deterministic."""
    mismatch = low_equal = plus_one = minus_one = 0
    for state in range(WORD_COUNT):
        b, c = buggy_step(state), correct_step(state)
        if b != c:
            delta = ((b >> 8) - (c >> 8)) & 0xFF
            mismatch += 1
            low_equal += (b ^ c) & 0xFF == 0
            plus_one += delta == 0x01
            minus_one += delta == 0xFF
    return AgreementReport(1 - mismatch / WORD_COUNT, mismatch, low_equal, plus_one, minus_one)


@dataclass(frozen=True)
class OrbitStats:
    """What one seed's whole forward orbit looks like.

    ``distinct_values`` counts the seed itself as visited, so it equals
    tail length plus cycle length. ``distinct_generated`` counts only
    values the generator produced, which is the same number minus one
    whenever the orbit never comes back to the seed.
    """

    seed: int
    distinct_values: int
    returns_to_seed: bool

    @property
    def distinct_generated(self) -> int:
        return self.distinct_values - (0 if self.returns_to_seed else 1)


# Labels a state carries in the tail table while the decomposition runs.
_UNSEEN = -1
_ON_PATH = -2


@dataclass(frozen=True)
class RhoDecomposition:
    """The functional graph of a 16-bit step map, labelled state by state.

    Every orbit of a map on a finite set is rho-shaped: a tail of distinct
    states leading into a cycle (Flajolet & Odlyzko, "Random Mapping
    Statistics", EUROCRYPT '89). ``successor[state]`` is ``step(state)``;
    ``tail[state]`` is the number of steps before the state's orbit enters
    its cycle (0 for a state on a cycle); ``cycle[state]`` is that cycle's
    length. The orbit from ``state`` thus holds ``tail + cycle`` distinct
    values, the state itself included.
    """

    successor: array
    tail: array
    cycle: array

    def cycle_lengths(self) -> List[int]:
        """Length of every cycle, one entry per cycle, in ascending order."""
        # A cycle of length L holds exactly L states with tail 0.
        on_cycle = Counter(c for t, c in zip(self.tail, self.cycle) if t == 0)
        return [length for length in sorted(on_cycle) for _ in range(on_cycle[length] // length)]


def rho_decomposition(step: Callable[[int], int] = buggy_step) -> RhoDecomposition:
    """Label all 65536 states of ``step`` with their tail and cycle lengths.

    One pass, O(65536) time and memory, no recursion: ``step`` is called
    once per state to build the successor table, then each unlabelled
    state is walked forward, marking the states on the walk, until it
    meets a labelled state (the walk joins a known tree or cycle) or a
    marked one (the walk has closed a new cycle); the walk's states are
    then labelled back to front. Every state is walked exactly once.

    Raises ``ValueError`` naming the state if ``step`` maps a state
    outside [0, 0xFFFF].
    """
    successor = array("H", bytes(2 * WORD_COUNT))
    for state in range(WORD_COUNT):
        nxt = step(state)
        if not 0 <= nxt <= 0xFFFF:
            raise ValueError(f"step maps state 0x{state:04x} to {nxt!r}, outside [0, 0xFFFF]")
        successor[state] = nxt
    tail = array("l", [_UNSEEN]) * WORD_COUNT
    cycle = array("l", [0]) * WORD_COUNT
    path = array("H")
    for start in range(WORD_COUNT):
        if tail[start] != _UNSEEN:
            continue
        state = start
        while tail[state] == _UNSEEN:
            tail[state] = _ON_PATH
            path.append(state)
            state = successor[state]
        if tail[state] == _ON_PATH:
            entry = path.index(state)
            length = len(path) - entry
            for member in path[entry:]:
                tail[member] = 0
                cycle[member] = length
            del path[entry:]
        distance, length = tail[state], cycle[state]
        for member in reversed(path):
            distance += 1
            tail[member] = distance
            cycle[member] = length
        del path[:]
    return RhoDecomposition(successor, tail, cycle)


def canonical_seed_survey(step: Callable[[int], int] = buggy_step) -> List[OrbitStats]:
    """Size the whole orbit of each of the 256 canonical seeds under ``step``.

    Reads each seed off one :func:`rho_decomposition` of ``step`` (O(65536))
    instead of walking 256 orbits: a seed with tail ``t`` and cycle ``c``
    first revisits a value at step ``t + c``, so its orbit has ``t + c``
    distinct values and returns to the seed exactly when ``t == 0``. For
    :func:`correct_step` every seed comes back after 65536 steps, as
    Hull-Dobell predicts (see its docstring).
    """
    rho = rho_decomposition(step)
    seeds = [canonical_seed(b) for b in range(256)]
    return [OrbitStats(s, rho.tail[s] + rho.cycle[s], rho.tail[s] == 0) for s in seeds]


def max_distinct_over_canonical_seeds(surveys: List[OrbitStats]) -> tuple[int, int]:
    """Largest number of distinct values any seed's orbit in ``surveys`` produces.

    ``surveys`` is what :func:`canonical_seed_survey` returns. Counts values
    emitted by the generator (the seed itself only counts if the orbit
    revisits it). Returns the maximum and the first seed achieving it.
    """
    best = max(surveys, key=lambda s: s.distinct_generated)
    return best.distinct_generated, best.seed
