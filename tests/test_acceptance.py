"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured values. The maze criteria share one 5000-maze run
(300,000 rows) generated once per session.

Criterion 12 needs a user-supplied 4 KiB Entombed ROM image (not
distributed here); point ENTOMBED_ROM at it, or drop it at
``assets/entombed.bin``. The test skips when the image is absent or is
not the expected dump.
"""

import os
import random
import time
from collections import Counter

import pytest

from entombed import cpu, prng
from entombed.maze_analysis import derived_seed, maze_survey
from entombed.mazegen import CellRule, ModelBitSource, default_table, generate_maze
from entombed.romscan import md5_of, prng_signature, scan_bytes, scan_corpus

from reference_maze import reference_maze, tape_from_traces
from reference_romscan import brute_force_scan

WORDS = 0x10000
SURVEY_SEED = 1
ENTOMBED_MD5 = "6b683be69f92958abe0e2a9945157ad5"


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


# The context table frozen independently of both the library and the
# reference generator: 32 symbols indexed by the 5 context bits.
_EXPECTED_TABLE = "WWWROORR" "WWWWROOO" "WWWROOOO" "ROWRROOO"
_SYMBOL_TO_RULE = {"W": CellRule.WALL, "O": CellRule.OPEN, "R": CellRule.RANDOM}


def _contexts_looked_up(rows, traces):
    """The (last two, three above) table contexts a maze's rows looked up.

    Rebuilt from each trace alone: the padded row above is the trace's pad
    bits around the previous kept row, and the generated bits before
    postprocessing give the last two bits, seeded 1,0 at the row start.
    """
    used = set()
    above = 0x00
    for row, trace in zip(rows, traces):
        padded = (trace.left_bit << 9) | (above << 1) | trace.right_bit
        generated = (0b10 << 8) | trace.row_before_postprocess
        for shift in range(7, -1, -1):
            used.add(((generated >> (shift + 1)) & 0b11, (padded >> shift) & 0b111))
        above = row
    return used


@pytest.fixture(scope="module")
def maze_run():
    """5000 model-source mazes of 60 rows: rows, traces, table coverage."""
    mazes = []
    started = time.perf_counter()
    for i in range(5000):
        source = ModelBitSource(derived_seed(SURVEY_SEED, i))
        rows, traces = generate_maze(source, 60)
        mazes.append((rows, traces))
    elapsed = time.perf_counter() - started
    coverage = set()
    for rows, traces in mazes:
        coverage |= _contexts_looked_up(rows, traces)
    return {"mazes": mazes, "coverage": coverage, "generation_seconds": elapsed}


@pytest.fixture(scope="module")
def survey_5000():
    return maze_survey(5000, 60, seed=SURVEY_SEED)


@pytest.fixture(scope="module")
def survey_1000():
    return maze_survey(1000, 60, seed=SURVEY_SEED)


def test_criterion_01_oracle_equivalence_buggy():
    started = time.perf_counter()
    mismatches = sum(
        1 for s in range(WORDS) if cpu.oracle_prng_step(s, False) != prng.buggy_step(s)
    )
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 5.0
    _report(1, ok, f"instruction-level vs direct buggy step, 65536 states, "
                   f"{mismatches} mismatches, {elapsed:.2f}s (< 5s)")
    assert mismatches == 0
    assert elapsed < 5.0


def test_criterion_02_counterfactual_carry_fix():
    mismatches = sum(
        1 for s in range(WORDS) if cpu.oracle_prng_step(s, True) != prng.correct_step(s)
    )
    ok = mismatches == 0
    _report(2, ok, f"carry-fixed routine vs intended LCG, 65536 states, "
                   f"{mismatches} mismatches")
    assert mismatches == 0


def test_criterion_03_full_period_from_every_canonical_seed():
    started = time.perf_counter()
    surveys = prng.canonical_seed_survey(step=prng.correct_step)
    elapsed = time.perf_counter() - started
    bad = [s.seed for s in surveys if s.distinct_values != WORDS]
    ok = not bad and elapsed < 30.0
    _report(3, ok, f"corrected generator full period from all 256 canonical seeds, "
                   f"{len(bad)} short orbits, {elapsed:.2f}s (< 30s)")
    assert bad == []
    assert elapsed < 30.0


def test_criterion_04_buggy_orbit_maximum():
    surveys = prng.canonical_seed_survey()
    max_distinct, argmax = prng.max_distinct_over_canonical_seeds(surveys)
    ok = max_distinct == 1200
    detail = f"max distinct generated values {max_distinct} at seed 0x{argmax:04X}"
    if not ok:
        histogram = {f"0x{s.seed:04X}": s.distinct_generated for s in surveys}
        detail += f"; per-seed histogram: {histogram}"
    _report(4, ok, detail)
    assert max_distinct == 1200, detail


def test_criterion_05_agreement_fraction_and_mismatch_structure():
    report = prng.compare_all_steps()
    fraction_ok = abs(report.fraction_equal - 0.503) <= 0.001
    pairs = ((prng.buggy_step(s), prng.correct_step(s)) for s in range(WORDS))
    mismatches = [(b, c) for b, c in pairs if b != c]
    structure_ok = len(mismatches) == report.mismatch_count and all(
        (b ^ c) & 0xFF == 0 and ((b >> 8) - (c >> 8)) & 0xFF in (0x01, 0xFF)
        for b, c in mismatches
    )
    ok = fraction_ok and structure_ok
    _report(5, ok, f"agreement fraction {report.fraction_equal:.6f} (0.503 +/- 0.001), "
                   f"{report.mismatch_count} mismatches all off by one in the high byte: "
                   f"{structure_ok}")
    assert fraction_ok
    assert structure_ok


def test_criterion_06_maze_reference_equivalence_300k_rows(maze_run):
    started = time.perf_counter()
    rows_compared = 0
    leftover_total = 0
    mismatched_mazes = 0
    for rows, traces in maze_run["mazes"]:
        pre, post, leftover = reference_maze(tape_from_traces(traces), 60)
        if post != rows or pre != [t.row_before_postprocess for t in traces]:
            mismatched_mazes += 1
        leftover_total += leftover
        rows_compared += len(rows)
    elapsed = maze_run["generation_seconds"] + (time.perf_counter() - started)
    ok = rows_compared >= 300000 and mismatched_mazes == 0 and leftover_total == 0 and elapsed < 60.0
    _report(6, ok, f"{rows_compared} rows vs independent reference, "
                   f"{mismatched_mazes} mismatched mazes, {leftover_total} leftover bits, "
                   f"{elapsed:.1f}s (< 60s)")
    assert rows_compared >= 300000
    assert mismatched_mazes == 0
    assert leftover_total == 0
    assert elapsed < 60.0


def test_criterion_07_table_integrity():
    table = default_table()
    wrong = []
    for index in range(32):  # (last_two << 3) | three_above
        expected = _SYMBOL_TO_RULE[_EXPECTED_TABLE[index]]
        if table.rules[index] is not expected:
            wrong.append(index)
    stats = dict(Counter(rule.value for rule in table.rules))
    stats_ok = stats == {"wall": 11, "open": 13, "random": 8}
    ok = not wrong and stats_ok
    _report(7, ok, f"32 table entries verified, {len(wrong)} wrong; stats {stats}")
    assert wrong == []
    assert stats_ok


def test_criterion_08_postprocessing_and_table_coverage(maze_run):
    condition1 = condition2 = 0
    for _, traces in maze_run["mazes"]:
        for trace in traces:
            if trace.postprocess_fired is not None:
                if trace.postprocess_fired.value == "condition1":
                    condition1 += 1
                else:
                    condition2 += 1
    coverage = maze_run["coverage"]
    full = {(ab, cde) for ab in range(4) for cde in range(8)}
    ok = condition1 >= 1 and condition2 >= 1 and coverage == full
    _report(8, ok, f"condition1 fired {condition1}x, condition2 fired {condition2}x, "
                   f"{len(coverage)}/32 table entries exercised over 300000 rows")
    assert condition1 >= 1
    assert condition2 >= 1
    assert coverage == full


def test_criterion_09_pattern_frequencies(survey_5000):
    c1, c2 = survey_5000.condition1_fires, survey_5000.condition2_fires
    ok = 2000 <= c2 <= 7000 and 1 <= c1 <= 100
    _report(9, ok, f"over 5000 mazes (300000 rows): condition2 fired {c2}x "
                   f"(window [2000, 7000]), condition1 fired {c1}x (window [1, 100])")
    assert 2000 <= c2 <= 7000
    assert 1 <= c1 <= 100


def test_criterion_10_unsolvable_mazes_occur(survey_1000):
    unsolvable = survey_1000.unsolvable_count
    fraction = unsolvable / survey_1000.mazes_generated
    ok = unsolvable >= 1
    _report(10, ok, f"{unsolvable}/1000 generated mazes unsolvable "
                    f"(fraction {fraction:.3f})")
    assert unsolvable >= 1


def test_criterion_11_scanner_soundness_and_completeness():
    rng = random.Random(0xE47)
    sig = prng_signature()
    siglen = len(sig)

    missed = 0
    wrong_bindings = 0
    for _ in range(1000):
        size = rng.randrange(256, 4096)
        offset = rng.randrange(0, size - siglen + 1)
        bindings = {name: rng.randrange(0x100) for name in ("W", "X", "Y", "Z")}
        noise = rng.randbytes(size)
        plant = bytes(cpu.assemble(cpu.prng_routine(*(bindings[slot] for slot in "WXYZ"))))
        buf = noise[:offset] + plant + noise[offset + siglen :]
        hits = {(h.offset, tuple(sorted(h.bindings.items()))) for h in scan_bytes(buf, sig)}
        if (offset, tuple(sorted(bindings.items()))) not in hits:
            missed += 1
            exact = [h for h in scan_bytes(buf, sig) if h.offset == offset]
            if exact:
                wrong_bindings += 1

    false_positives = 0
    clean_buffers = 0
    while clean_buffers < 200:
        noise = rng.randbytes(4096)
        if brute_force_scan(noise, sig):
            continue  # astronomically unlikely; regenerate to keep the contract
        clean_buffers += 1
        false_positives += len(scan_bytes(noise, sig))

    ok = missed == 0 and false_positives == 0
    _report(11, ok, f"1000 planted signatures: {missed} missed; "
                    f"{false_positives} false positives over {clean_buffers} "
                    f"brute-force-verified clean buffers")
    assert missed == 0
    assert false_positives == 0


def _find_rom_image():
    candidates = []
    env = os.environ.get("ENTOMBED_ROM")
    if env:
        candidates.append(env)
    here = os.path.dirname(os.path.abspath(__file__))
    candidates.append(os.path.join(here, os.pardir, "assets", "entombed.bin"))
    for path in candidates:
        if os.path.isfile(path):
            return path
    return None


def test_criterion_12_real_image_scan_if_supplied():
    path = _find_rom_image()
    if path is None:
        print("criterion 12 SKIP: no Entombed image supplied "
              "(set ENTOMBED_ROM or add assets/entombed.bin)")
        pytest.skip("Entombed ROM image not supplied")
    with open(path, "rb") as fh:
        data = fh.read()
    if md5_of(data) != ENTOMBED_MD5:
        print(f"criterion 12 SKIP: {path} is not the expected dump "
              f"(md5 {md5_of(data)}, want {ENTOMBED_MD5})")
        pytest.skip("supplied image is not the expected Entombed dump")
    report = scan_corpus([path], prng_signature())
    hits = [(h.offset, h.bindings) for h in report.hits]
    expected = [(0x0CA5, {"W": 0xDD, "X": 0xDE, "Y": 0xDF, "Z": 0xE0})]
    ok = hits == expected
    _report(12, ok, f"real image scan: hits {hits}")
    assert hits == expected
