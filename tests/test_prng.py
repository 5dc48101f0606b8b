"""Tests for the buggy and corrected step functions and the orbit analyses."""

import random
import re
from array import array
from functools import cache

import pytest

from entombed import prng
from entombed.cpu import prng_lanes
from entombed.mazegen import DrawKind, ModelBitSource

from reference_prng import orbit_survey


def test_correct_step_examples():
    assert prng.correct_step(0x0000) == 0x0001
    # 5 * 0x3333 = 0xFFFF, +1 wraps the full word to zero
    assert prng.correct_step(0x3333) == 0x0000
    # 5 * 0x33 + 1 = 0x100
    assert prng.correct_step(0x0033) == 0x0100


def test_buggy_step_examples():
    assert prng.buggy_step(0x0000) == 0x0001
    # low byte 0xFF + 1 wraps and the carry is lost
    assert prng.buggy_step(0x0033) == 0x0000
    # low byte wraps, high byte stays 0xFF where correct would give 0x0000
    assert prng.buggy_step(0x3333) == 0xFF00


@pytest.mark.parametrize("func", [prng.correct_step, prng.buggy_step])
def test_step_rejects_out_of_range(func):
    for bad in (-1, 0x10000, 1.5, "1", True, False):
        with pytest.raises(ValueError):
            func(bad)


def test_low_bytes_always_agree_exhaustive():
    for s in range(0x10000):
        assert prng.buggy_step(s) & 0xFF == prng.correct_step(s) & 0xFF


def test_high_byte_delta_at_most_one_exhaustive():
    for s in range(0x10000):
        delta = ((prng.buggy_step(s) >> 8) - (prng.correct_step(s) >> 8)) & 0xFF
        assert delta in (0x00, 0x01, 0xFF)


def test_agreement_when_product_small_and_no_low_wrap():
    # no 16-bit overflow and no low-byte 0xFF means the bug cannot show
    for s in range(0x10000):
        if 5 * s <= 0xFFFF and (5 * s) & 0xFF != 0xFF:
            assert prng.buggy_step(s) == prng.correct_step(s)


def test_correct_step_is_a_bijection():
    image = {prng.correct_step(s) for s in range(0x10000)}
    assert len(image) == 0x10000


@pytest.fixture(scope="module")
def report():
    return prng.compare_all_steps()


class TestCompareAllSteps:

    def test_fraction_near_half(self, report):
        assert report.fraction_equal == pytest.approx(0.503, abs=0.001)

    def test_fraction_is_exact_count(self, report):
        assert report.fraction_equal == (0x10000 - report.mismatch_count) / 0x10000

    def test_mismatches_all_have_equal_low_bytes(self, report):
        assert report.low_bytes_equal_count == report.mismatch_count

    def test_mismatch_high_delta_is_plus_or_minus_one(self, report):
        assert report.high_delta_plus_one + report.high_delta_minus_one == report.mismatch_count

    def test_deterministic_across_runs(self, report):
        assert prng.compare_all_steps() == report

    def test_counts_agree_with_a_plain_loop(self, report):
        mismatch = low_equal = plus_one = minus_one = 0
        for s in range(0x10000):
            b, c = prng.buggy_step(s), prng.correct_step(s)
            if b != c:
                mismatch += 1
                low_equal += b % 256 == c % 256
                plus_one += (b // 256 - c // 256) % 256 == 1
                minus_one += (b // 256 - c // 256) % 256 == 255
        assert (
            report.mismatch_count,
            report.low_bytes_equal_count,
            report.high_delta_plus_one,
            report.high_delta_minus_one,
        ) == (mismatch, low_equal, plus_one, minus_one)
        assert report.fraction_equal == (0x10000 - mismatch) / 0x10000


class TestOrbitSurvey:
    def test_single_step_counts_seed_and_successor(self):
        stats = orbit_survey(0x0000, 1)
        assert stats.distinct_values == 2
        assert not stats.returns_to_seed

    def test_short_chain_from_0x0033(self):
        # buggy chain: 0x0033 -> 0x0000 -> 0x0001 -> 0x0006
        assert prng.buggy_step(0x0033) == 0x0000
        assert prng.buggy_step(0x0000) == 0x0001
        assert prng.buggy_step(0x0001) == 0x0006
        stats = orbit_survey(0x0033, 3)
        assert stats.distinct_values == 4

    def test_correct_generator_full_period(self):
        stats = orbit_survey(0x1234, 0x10000, step=prng.correct_step)
        assert stats.distinct_values == 0x10000
        assert stats.returns_to_seed

    def test_walk_matches_naive_walk(self):
        for seed, steps in [(0xB5B5, 2000), (0x0000, 500), (0x00FF, 1)]:
            stats = orbit_survey(seed, steps)
            values = [seed]
            v = seed
            for _ in range(steps):
                v = prng.buggy_step(v)
                values.append(v)
            assert stats.distinct_values == len(set(values))
            assert stats.returns_to_seed == (seed in values[1:])

    def test_generated_count_excludes_unrevisited_seed(self):
        stats = orbit_survey(0x0000, 1)
        assert stats.distinct_generated == 1

    def test_steps_must_be_positive(self):
        with pytest.raises(ValueError):
            orbit_survey(0, 0)


class TestMaxDistinct:
    def test_buggy_maximum_matches_observed_game_behaviour(self):
        max_distinct, argmax = prng.max_distinct_over_canonical_seeds(prng.canonical_seed_survey())
        assert max_distinct == 1200
        assert argmax == 0xB5B5

    def test_correct_generator_reaches_full_period(self):
        surveys = prng.canonical_seed_survey(step=prng.correct_step)
        max_distinct, _ = prng.max_distinct_over_canonical_seeds(surveys)
        assert max_distinct == 0x10000


def _low_byte_square_plus_one(state):
    """A map with 256 separate 2-cycles (one per high byte) and tails up to 5."""
    return (state & 0xFF00) | (((state & 0xFF) ** 2 + 1) & 0xFF)


CANONICAL_SEEDS = [(b << 8) | b for b in range(256)]

# 0 <-> 1, 2 -> 3 -> 4 -> 2, every other state is a fixed point
# except 0xFFFF, which feeds into the 3-cycle.
_MIXED_MOVES = {0: 1, 1: 0, 2: 3, 3: 4, 4: 2, 0xFFFF: 2}


@cache
def _table(name):
    """The successor table the tests decompose, by name."""
    if name in ("buggy", "correct"):
        return prng_lanes(name == "correct")
    if name == "low_byte_square_plus_one":
        return [_low_byte_square_plus_one(s) for s in range(0x10000)]
    return [_MIXED_MOVES.get(s, s) for s in range(0x10000)]


@cache
def _full_rho(name):
    return prng.rho_decomposition(_table(name))


def _survey(step):
    """``canonical_seed_survey(step)``, or for any other map each canonical seed's
    ``tail + cycle`` from ``rho_decomposition`` of its table, as the survey reads them."""
    if step is not _low_byte_square_plus_one:
        return prng.canonical_seed_survey(step)
    rho = _full_rho("low_byte_square_plus_one")
    return [prng.OrbitStats(s, rho.tail[s] + rho.cycle[s], rho.tail[s] == 0) for s in CANONICAL_SEEDS]


# Both sides of the buggy generator's tail (max 451) and orbit (max 1201
# values) boundaries, and of the full period 65536.
FULL_PERIOD = [65535, 65536, 65537]
SURVEY_STEPS = [1, 2, 450, 451, 452, 1199, 1200, 1201, 1202] + FULL_PERIOD


@pytest.fixture(scope="module")
def correct_step_walks():
    """One walk per canonical seed to the longest horizon, which the correct
    generator's full-period cases share instead of walking 65536 states thrice."""
    return [orbit_survey((b << 8) | b, max(FULL_PERIOD), prng.correct_step) for b in range(256)]


def _at_horizon(stats, steps):
    """What orbit_survey reports after ``steps``, read off a walk at least that long.

    The walk stops at its first revisit, at step ``distinct_values``; a
    horizon from there on reads the same walk, and a shorter one revisits
    nothing.
    """
    if stats.distinct_values <= steps:
        return stats
    return prng.OrbitStats(stats.seed, steps + 1, False)


class TestCanonicalSeedSurvey:
    @pytest.mark.parametrize("steps", SURVEY_STEPS)
    @pytest.mark.parametrize(
        "step", [prng.buggy_step, prng.correct_step, _low_byte_square_plus_one]
    )
    def test_matches_walking_oracle(self, step, steps, request):
        # The survey sizes whole orbits; cut at each horizon, it must read what
        # a walk of that many steps reads, and at 65536 steps and beyond every
        # walk sees its whole orbit.
        if step is prng.correct_step and steps in FULL_PERIOD:
            walks = request.getfixturevalue("correct_step_walks")
            walked = [_at_horizon(walk, steps) for walk in walks]
        else:
            walked = [orbit_survey((b << 8) | b, steps, step) for b in range(256)]
        surveyed = _survey(step)
        assert [_at_horizon(stats, steps) for stats in surveyed] == walked
        if steps >= 0x10000:
            assert surveyed == walked

    def test_other_steps_are_refused(self):
        with pytest.raises(ValueError, match="buggy_step or correct_step"):
            prng.canonical_seed_survey(step=_low_byte_square_plus_one)

    @pytest.mark.parametrize("step, reads", [(prng.buggy_step, 8626), (prng.correct_step, 0x10000)])
    def test_reads_only_the_seeds_orbits(self, step, reads, monkeypatch):
        # the work bound as a count, not a timing: one table read per state on
        # the 256 seeds' orbits, which under the shipped step is 8626 states
        surveyed = prng.canonical_seed_survey(step)
        counting = _CountingTable(prng_lanes(step is prng.correct_step))
        monkeypatch.setattr(prng, "prng_lanes", lambda fixed: counting)
        assert prng.canonical_seed_survey(step) == surveyed
        assert counting.reads == reads

    @pytest.mark.parametrize(
        "step, state",
        [
            (lambda s: s + 1, "0xffff"),
            (lambda s: s - 1, "0x0000"),
            (lambda s: s << 4, "0x1000"),
            # a float once raised TypeError from array, and True was stored as 1
            pytest.param(lambda s: s + 0.5, "0x0000", id="float-0x0000"),
            pytest.param(lambda s: True, "0x0000", id="bool-0x0000"),
        ],
    )
    def test_step_out_of_range_names_the_state(self, step, state):
        # each step leaves [0, 0xFFFF] first at ``state``; the survey refuses
        # it by name before calling it, so no value it returns is ever read
        for earlier in range(int(state, 16)):
            assert type(step(earlier)) is int and 0 <= step(earlier) <= 0xFFFF
        value = step(int(state, 16))
        assert type(value) is not int or not 0 <= value <= 0xFFFF
        calls = []
        with pytest.raises(ValueError, match="buggy_step or correct_step"):
            prng.canonical_seed_survey(step=lambda s: calls.append(s) or step(s))
        with pytest.raises(ValueError, match="buggy_step or correct_step"):
            prng.canonical_seed_survey(step=step)
        assert calls == []


def _walked_tail_and_cycle(step, state):
    position = {}
    value = state
    while value not in position:
        position[value] = len(position)
        value = step(value)
    return position[value], len(position) - position[value]


class TestRhoDecomposition:
    def test_multi_cycle_map_matches_per_state_walks(self):
        rho = _full_rho("low_byte_square_plus_one")
        for state in range(0x10000):
            assert (rho.tail[state], rho.cycle[state]) == _walked_tail_and_cycle(
                _low_byte_square_plus_one, state
            )
        assert rho.cycle_lengths() == [2] * 256
        assert max(rho.tail) == 5

    def test_cycle_lengths_of_mixed_cycles(self):
        rho = _full_rho("mixed_cycles")
        assert rho.cycle_lengths() == [1] * (0x10000 - 6) + [2, 3]
        assert (rho.tail[0xFFFF], rho.cycle[0xFFFF]) == (1, 3)


class _CountingTable:
    """A successor table that counts the entries read from it."""

    def __init__(self, table):
        self.table, self.reads = table, 0

    def __getitem__(self, state):
        self.reads += 1
        return self.table[state]


def _orbit_union(table, starts):
    """Every state on the orbit of a start, walked one state at a time."""
    seen = set()
    for state in starts:
        while state not in seen:
            seen.add(state)
            state = table[state]
    return seen


class TestPartialRhoDecomposition:
    """``rho_decomposition(table, starts)`` against the decomposition of all states."""

    @pytest.mark.parametrize(
        "starts",
        [
            CANONICAL_SEEDS,
            random.Random(33).sample(range(0x10000), 24),
            [0xFFFF, 2, 0xFFFF, 0x1234, 2],  # repeats, and a state feeding a 3-cycle
        ],
        ids=["canonical-seeds", "random-starts", "repeated-starts"],
    )
    @pytest.mark.parametrize("name", ["buggy", "correct", "low_byte_square_plus_one", "mixed_cycles"])
    def test_labels_the_starts_orbits_as_the_full_decomposition_does(self, name, starts):
        table, full = _table(name), _full_rho(name)
        on_orbits = _orbit_union(table, starts)
        partial = prng.rho_decomposition(table, starts)
        assert list(partial.tail) == [full.tail[s] if s in on_orbits else -1 for s in range(0x10000)]
        assert list(partial.cycle) == [full.cycle[s] if s in on_orbits else 0 for s in range(0x10000)]

    @pytest.mark.parametrize("name, labelled", [("buggy", 8626), ("correct", 0x10000)])
    def test_canonical_seeds_orbits_cover_8626_states_under_the_bug(self, name, labelled):
        # a structural fact: the 256 canonical orbits of the shipped step share
        # 8626 states; the intended generator's one orbit holds all 65536
        partial = prng.rho_decomposition(_table(name), CANONICAL_SEEDS)
        assert sum(t != -1 for t in partial.tail) == labelled
        assert len(_orbit_union(_table(name), CANONICAL_SEEDS)) == labelled

    def test_repeated_starts_and_any_iterable_give_the_same_labels(self):
        once = prng.rho_decomposition(_table("buggy"), CANONICAL_SEEDS)
        twice = prng.rho_decomposition(_table("buggy"), iter(CANONICAL_SEEDS + CANONICAL_SEEDS[::-1]))
        assert once == twice

    @pytest.mark.parametrize(
        "starts", [[0xFFFF, -1], [-1], [0x10000], [1.0], [True]], ids=["after-a-word", "-1", "0x10000", "float", "bool"]
    )
    def test_a_start_that_is_not_a_word_raises_naming_it(self, starts):
        # -1 used to be read as state 0xFFFF through the array's negative index
        bad = re.escape(repr(starts[-1]))
        with pytest.raises(ValueError, match=rf"^start must be an int in \[0, 65535\], got {bad}$"):
            prng.rho_decomposition(_table("buggy"), starts)

    def test_no_starts_label_nothing_and_read_nothing(self):
        counting = _CountingTable(_table("buggy"))
        rho = prng.rho_decomposition(counting, [])
        assert set(rho.tail) == {-1} and set(rho.cycle) == {0}
        assert rho.cycle_lengths() == []
        assert counting.reads == 0


def _plain_agreement(buggy, correct):
    """The tests' own count of two tables' agreement: one comparison per state."""
    mismatch = low_equal = plus_one = minus_one = 0
    for b, c in zip(buggy, correct):
        if b != c:
            mismatch += 1
            low_equal += b % 256 == c % 256
            plus_one += (b // 256 - c // 256) % 256 == 1
            minus_one += (b // 256 - c // 256) % 256 == 255
    return prng.AgreementReport((0x10000 - mismatch) / 0x10000, mismatch, low_equal, plus_one, minus_one)


def _random_table(rng):
    return array("H", (rng.getrandbits(16) for _ in range(0x10000)))


class TestAgreementCounting:
    """The SWAR counts of ``compare_all_steps`` on tables other than the generators'."""

    @staticmethod
    def check(buggy, correct):
        report = prng._agreement(buggy, correct)
        assert report == _plain_agreement(buggy, correct)
        return report

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_tables(self, seed):
        rng = random.Random(seed)
        buggy = _random_table(rng)
        self.check(buggy, _random_table(rng))
        # near copies: about half the states one high-byte unit off either
        # way, some with a different low byte, so every count is large
        near = array("H", buggy)
        for s in range(0x10000):
            if rng.random() < 0.5:
                near[s] = (near[s] + rng.choice((0x0100, 0xFF00, 0x0101, 0x0001))) & 0xFFFF
        report = self.check(buggy, near)
        assert min(report.high_delta_plus_one, report.high_delta_minus_one) > 1000
        assert report.low_bytes_equal_count < report.mismatch_count

    @pytest.mark.parametrize(
        "b, c",
        [(0x0000, 0xFFFF), (0x00FF, 0x0100), (0xFF00, 0x0000), (0xFFFF, 0x0000), (0x0100, 0x00FF), (0x0000, 0xFF00)],
    )
    @pytest.mark.parametrize("layout", ["every-state", "among-equal-states"])
    def test_edge_words(self, b, c, layout):
        # all-ones and all-zero fields test the borrow guard of the non-zero
        # test; 0xFF00 against 0x0000 and 0x0100 against 0x00FF are -1 and +1 mod 256
        if layout == "every-state":
            self.check(array("H", [b]) * 0x10000, array("H", [c]) * 0x10000)
        else:
            buggy = array("H", [b, 0xFFFF, b, 0x0000]) * 0x4000
            correct = array("H", [c, 0xFFFF, b, 0x0000]) * 0x4000
            self.check(buggy, correct)

    @pytest.mark.parametrize("states", [[0], [4095], [4096], [65535], [0, 4095, 4096, 65535]])
    @pytest.mark.parametrize("offset", [0x0100, 0xFF00, 0x0001, 0x8000, 0x8080])
    def test_differences_at_run_boundaries(self, states, offset):
        buggy = array("H", prng_lanes(False))
        correct = array("H", buggy)
        for s in states:
            correct[s] = (correct[s] + offset) & 0xFFFF
        report = self.check(buggy, correct)
        assert report.mismatch_count == len(states)

    @pytest.mark.parametrize("state, word", [(0, 0x0000), (0x0033, 0xFF00), (0x3333, 0xFF00), (0xB5B5, 0x1234)])
    def test_one_mutated_entry_of_the_real_tables(self, state, word):
        correct = array("H", prng_lanes(True))
        correct[state] = word
        report = self.check(prng_lanes(False), correct)
        assert report != prng.compare_all_steps()


class TestSuccessorTable:
    """The routine's tables, ``prng_lanes``, against the step functions they replace."""

    @pytest.mark.parametrize("step", [prng.buggy_step, prng.correct_step])
    def test_generator_table_is_its_step_function_built_once(self, step):
        # the table comes from the routine's lanes; the step functions are the oracle
        table = prng_lanes(step is prng.correct_step)
        assert list(table) == [step(s) for s in range(0x10000)]
        assert prng_lanes(step is prng.correct_step) is table

    @pytest.mark.parametrize("step", [prng.buggy_step, prng.correct_step])
    def test_no_caller_can_write_to_a_table(self, step, report):
        table = prng_lanes(step is prng.correct_step)
        with pytest.raises(TypeError):
            table[0x0033] = 0x1234
        assert table[0x0033] == step(0x0033)
        # a later comparison and model draw read the routine's table unchanged
        assert prng.compare_all_steps() == report
        source = ModelBitSource(0x0033)
        source.draw(DrawKind.MID)
        assert source.state == prng.buggy_step(0x0033)
