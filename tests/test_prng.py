"""Tests for the buggy and corrected step functions and the orbit analyses."""

import pytest

from entombed import prng
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


def test_canonical_seed():
    assert prng.canonical_seed(0x00) == 0x0000
    assert prng.canonical_seed(0xAB) == 0xABAB
    assert prng.canonical_seed(0xFF) == 0xFFFF


@pytest.mark.parametrize("func", [prng.correct_step, prng.buggy_step])
def test_step_rejects_out_of_range(func):
    for bad in (-1, 0x10000, 1.5, "1"):
        with pytest.raises(ValueError):
            func(bad)


def test_canonical_seed_rejects_out_of_range():
    for bad in (256, -1, 1.5, "1", True, False):
        with pytest.raises(ValueError):
            prng.canonical_seed(bad)


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


# Both sides of the buggy generator's tail (max 451) and orbit (max 1201
# values) boundaries, and of the full period 65536.
FULL_PERIOD = [65535, 65536, 65537]
SURVEY_STEPS = [1, 2, 450, 451, 452, 1199, 1200, 1201, 1202] + FULL_PERIOD


@pytest.fixture(scope="module")
def correct_step_walks():
    """One walk per canonical seed to the longest horizon, which the correct
    generator's full-period cases share instead of walking 65536 states thrice."""
    return [orbit_survey(prng.canonical_seed(b), max(FULL_PERIOD), prng.correct_step) for b in range(256)]


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
            walked = [orbit_survey(prng.canonical_seed(b), steps, step) for b in range(256)]
        surveyed = prng.canonical_seed_survey(step)
        assert [_at_horizon(stats, steps) for stats in surveyed] == walked
        if steps >= 0x10000:
            assert surveyed == walked

    @pytest.mark.parametrize(
        "step, state",
        [(lambda s: s + 1, "0xffff"), (lambda s: s - 1, "0x0000"), (lambda s: s << 4, "0x1000")],
    )
    def test_step_out_of_range_names_the_state(self, step, state):
        with pytest.raises(ValueError, match=state):
            prng.canonical_seed_survey(step=step)
        with pytest.raises(ValueError, match=state):
            prng.rho_decomposition(step)


def _walked_tail_and_cycle(step, state):
    position = {}
    value = state
    while value not in position:
        position[value] = len(position)
        value = step(value)
    return position[value], len(position) - position[value]


class TestRhoDecomposition:
    def test_multi_cycle_map_matches_per_state_walks(self):
        rho = prng.rho_decomposition(_low_byte_square_plus_one)
        for state in range(0x10000):
            assert rho.successor[state] == _low_byte_square_plus_one(state)
            assert (rho.tail[state], rho.cycle[state]) == _walked_tail_and_cycle(
                _low_byte_square_plus_one, state
            )
        assert rho.cycle_lengths() == [2] * 256
        assert max(rho.tail) == 5

    def test_cycle_lengths_of_mixed_cycles(self):
        # 0 <-> 1, 2 -> 3 -> 4 -> 2, every other state is a fixed point
        # except 0xFFFF, which feeds into the 3-cycle.
        moves = {0: 1, 1: 0, 2: 3, 3: 4, 4: 2, 0xFFFF: 2}
        rho = prng.rho_decomposition(lambda s: moves.get(s, s))
        assert rho.cycle_lengths() == [1] * (0x10000 - 6) + [2, 3]
        assert (rho.tail[0xFFFF], rho.cycle[0xFFFF]) == (1, 3)


class TestSuccessorTable:
    @pytest.mark.parametrize("step", [prng.buggy_step, prng.correct_step])
    def test_generator_table_is_its_step_function_built_once(self, step):
        # the table comes from the routine's lanes; the step functions are the oracle
        table = prng.successor_table(step)
        assert list(table) == [step(s) for s in range(0x10000)]
        assert prng.successor_table(step) is table
        assert prng.rho_decomposition(step).successor is table

    def test_other_steps_are_called_once_per_state(self):
        calls = []
        table = prng.successor_table(lambda s: calls.append(s) or _low_byte_square_plus_one(s))
        assert calls == list(range(0x10000))
        assert list(table) == [_low_byte_square_plus_one(s) for s in range(0x10000)]

    @pytest.mark.parametrize("step", [prng.buggy_step, prng.correct_step, _low_byte_square_plus_one])
    def test_no_caller_can_write_to_a_table(self, step, report):
        for table in (prng.successor_table(step), prng.rho_decomposition(step).successor):
            with pytest.raises(TypeError):
                table[0x0033] = 0x1234
            assert table[0x0033] == step(0x0033)
        # a later decomposition, comparison and model draw read the routine's table unchanged
        assert prng.rho_decomposition().successor[0x0033] == prng.buggy_step(0x0033)
        assert prng.compare_all_steps() == report
        source = ModelBitSource(0x0033)
        source.draw(DrawKind.MID)
        assert source.state == prng.buggy_step(0x0033)
