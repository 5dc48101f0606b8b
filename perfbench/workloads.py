"""The three workloads: their inputs, one op each, and the checks on its output.

Every op is run by one client in a closed loop: a single process, no
threads, each op starting after the previous one finished. An op returns
the wall time of each of its parts and a list of problems; an op with any
problem (a wrong output, an exception, a non-zero exit code) is failed.

With a tracer, the same op records spans around the calls it makes into
each layer (see ``tracing.py``). The checks here never call the code
being timed to compute an expected value: expected values are facts of
the paper, values recorded from the package's first release, or computed
by the benchmark's own code.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import statistics
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Dict, List, Optional, Tuple

from entombed import cli, cpu, maze_analysis, mazegen, prng, romscan

import corpus
from tracing import END, NAME, START, Tracer

HERE = Path(__file__).resolve().parent
MIB = corpus.MIB


def run_cli(argv: List[str], tracer: Optional[Tracer], targets, problems: List[str]) -> Tuple[float, dict, int]:
    """Run ``entombed.cli.main`` in-process, stdout captured.

    Returns (seconds, the envelope's ``results`` or {} with a problem
    recorded, stdout bytes). With a tracer, the call is a ``cli.main``
    span and ``targets`` (see ``Tracer.patched``) are traced inside it.
    """
    out = io.StringIO()
    patch = tracer.patched(targets) if tracer else contextlib.nullcontext()
    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    start = perf_counter()
    with patch, span, contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a usage error this way
            code = exc.code if isinstance(exc.code, int) else 1
    seconds = perf_counter() - start
    stdout = out.getvalue()
    results = {}
    if code != 0:
        problems.append(f"{' '.join(argv)}: exit code {code}")
    else:
        try:
            results = json.loads(stdout)["results"]
        except (ValueError, KeyError) as exc:
            problems.append(f"{' '.join(argv)}: unreadable output ({exc})")
    return seconds, results, len(stdout.encode())


def expect(problems: List[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


class Workload:
    name = ""
    parts: Tuple[str, ...] = ()
    # Statements a fresh interpreter runs, after importing the CLI and
    # building its parser, to build the objects this workload uses first.
    first_use = ""

    def __init__(self) -> None:
        self.stdout_bytes: List[int] = []

    def prepare(self, seed: int, tmp: str) -> None:
        pass

    def op(self, index: int, tracer: Optional[Tracer] = None) -> Tuple[Dict[str, float], List[str]]:
        raise NotImplementedError

    def metrics(self, samples: Dict[str, List[float]]) -> Dict[str, tuple]:
        """Workload metrics as name -> (samples, unit, transform of a time)."""
        raise NotImplementedError

    def properties(self) -> Dict[str, float]:
        return {}

    def layer_metrics(self, tracer: Tracer) -> Dict[str, Tuple[Optional[float], str]]:
        """Per-layer metrics as name -> (value or None when absent, unit)."""
        raise NotImplementedError


def _per(total_ns: int, count: int, scale: float) -> Optional[float]:
    return total_ns / count / scale if count else None


# -- prng-statespace -------------------------------------------------------

# Facts from the paper and the exhaustive analyses: the buggy generator
# emits at most 1200 distinct values (from seed 0xB5B5), agrees with the
# intended LCG on 32970 of 65536 states, and every disagreement is a
# high-byte difference of one.
MAX_DISTINCT, ARGMAX_SEED = 1200, 46517
AGREEING_STATES = 32970
STATES = 0x10000


class PrngStatespace(Workload):
    name = "prng-statespace"
    parts = ("survey", "compare", "oracle_check", "full_period")

    def op(self, index, tracer=None):
        problems: List[str] = []
        parts = {}
        walks = [(prng, "canonical_seed_survey", False), (prng, "max_distinct_over_canonical_seeds", False)]
        parts["survey"], r, n = run_cli(["prng", "--mode", "survey"], tracer, walks, problems)
        self.stdout_bytes.append(n)
        if r:
            expect(problems, "survey steps", r.get("steps"), STATES)
            expect(problems, "survey max_distinct", r.get("max_distinct"), MAX_DISTINCT)
            expect(problems, "survey argmax_seed", r.get("argmax_seed"), ARGMAX_SEED)
            expect(problems, "survey seeds", len(r.get("per_seed_distinct", ())), 256)

        targets = [(prng, "compare_all_steps", False)]
        parts["compare"], r, n = run_cli(["prng", "--mode", "compare"], tracer, targets, problems)
        self.stdout_bytes.append(n)
        if r:
            mismatches = STATES - AGREEING_STATES
            expect(problems, "compare fraction_equal", r.get("fraction_equal"), AGREEING_STATES / STATES)
            expect(problems, "compare mismatch_count", r.get("mismatch_count"), mismatches)
            expect(problems, "compare low bytes equal", r.get("all_mismatch_low_bytes_equal"), True)
            expect(
                problems,
                "compare high deltas of +1 and -1",
                r.get("high_delta_plus_one", 0) + r.get("high_delta_minus_one", 0),
                mismatches,
            )

        targets = [(cpu, "oracle_prng_step", True)]
        parts["oracle_check"], r, n = run_cli(["prng", "--mode", "oracle-check"], tracer, targets, problems)
        self.stdout_bytes.append(n)
        if r:
            expect(problems, "oracle states_checked", r.get("states_checked"), STATES)
            expect(problems, "oracle buggy flag", r.get("historical_carry_matches_buggy"), True)
            expect(problems, "oracle fixed flag", r.get("fixed_carry_matches_correct"), True)

        # Criterion 3: every canonical seed returns to itself after exactly
        # 65536 steps of the corrected generator.
        span = tracer.span("prng.canonical_seed_survey(correct_step)") if tracer else contextlib.nullcontext()
        start = perf_counter()
        with span:
            surveys = prng.canonical_seed_survey(step=prng.correct_step)
        parts["full_period"] = perf_counter() - start
        self.orbit_steps = sum(s.distinct_values for s in surveys)
        expect(problems, "full-period seeds", [s.seed for s in surveys], [(b << 8) | b for b in range(256)])
        bad = [s.seed for s in surveys if not (s.returns_to_seed and s.distinct_values == STATES)]
        expect(problems, "seeds without a full period", bad, [])
        return parts, problems

    def metrics(self, samples):
        return {
            "survey_s": (samples["survey"], "s", None),
            "compare_s": (samples["compare"], "s", None),
            "oracle_check_s": (samples["oracle_check"], "s", None),
            "full_period_s": (samples["full_period"], "s", None),
        }

    def layer_metrics(self, tracer):
        n, walk = tracer.total_ns("prng.canonical_seed_survey", parent_name="cli.main")
        m, best = tracer.total_ns("prng.max_distinct_over_canonical_seeds")
        f, full = tracer.total_ns("prng.canonical_seed_survey(correct_step)")
        c, compare = tracer.total_ns("prng.compare_all_steps")
        calls, oracle = tracer.tally_total("cpu.oracle_prng_step")
        return {
            "prng.survey_walk_s": (_per(walk, n, 1e9), "s"),
            "prng.max_distinct_s": (_per(best, m, 1e9), "s"),
            "prng.full_period_walk_s": (_per(full, f, 1e9), "s"),
            "prng.orbit_steps": (self.orbit_steps, "count"),
            "prng.compare_all_s": (_per(compare, c, 1e9), "s"),
            "prng.buggy_step_ns": (step_ns(getattr(prng, "buggy_step", None)), "ns"),
            "prng.correct_step_ns": (step_ns(getattr(prng, "correct_step", None)), "ns"),
            "cpu.oracle_step_us": (_per(oracle, calls, 1e3), "us"),
            "cpu.oracle_calls": (_per(calls, f, 1) if calls else None, "count"),
        }


def step_ns(step, passes: int = 5) -> Optional[float]:
    """Median time of one call of ``step``, over all 65536 states per pass."""
    if step is None:
        return None
    times = []
    for _ in range(passes):
        start = perf_counter_ns()
        for state in range(STATES):
            step(state)
        times.append((perf_counter_ns() - start) / STATES)
    return sorted(times)[passes // 2]


# -- maze ------------------------------------------------------------------

MAZES = 500
ROWS = 60


def _open_mask(row: int) -> int:
    """Open cells of one screen row as a 40-bit mask, bit c for column c.

    Four fixed wall columns, each generated bit doubled (bit 7 first), then
    the 20-column half mirrored onto the right.
    """
    half = [1, 1, 1, 1]
    for i in range(7, -1, -1):
        half += [(row >> i) & 1] * 2
    cells = half + half[::-1]
    return sum(1 << c for c, wall in enumerate(cells) if not wall)


_OPEN = [_open_mask(r) for r in range(256)]


def flood_fill_solvable(rows: List[int]) -> bool:
    """Whether an open top-row cell reaches the bottom row through open cells."""
    opens = [_OPEN[r] for r in rows]
    reach = [0] * len(opens)
    reach[0] = opens[0]
    pending = [0]
    while pending:
        r = pending.pop()
        for nr in (r - 1, r + 1):
            if not 0 <= nr < len(opens):
                continue
            cells = reach[nr] | (reach[r] & opens[nr])
            while True:  # spread sideways along the open run
                grown = (cells | (cells << 1) | (cells >> 1)) & opens[nr]
                if grown == cells:
                    break
                cells = grown
            if cells != reach[nr]:
                reach[nr] = cells
                pending.append(nr)
    return reach[-1] != 0


class TimedDraws:
    """A bit source that times each draw of the source it wraps."""

    def __init__(self, source, tracer: Tracer):
        self.source = source
        self.tracer = tracer

    def draw(self, kind):
        start = perf_counter_ns()
        bit = self.source.draw(kind)
        self.tracer.tally("mazegen.draw", perf_counter_ns() - start)
        return bit


class Maze(Workload):
    """Two halves over the same generator and solver code.

    ``model`` is ``stats --mazes 500`` on the game's PRNG source, whose
    streams all fall into one 768-state cycle, so a batch holds only 251
    distinct mazes; ``fresh`` is 500 mazes from independent seeded sources,
    all distinct. A gain from sharing work shows on the first only.
    """

    name = "maze"
    parts = ("model", "fresh")
    first_use = "import entombed.mazegen as m; m.default_table()"

    def prepare(self, seed, tmp):
        recorded = json.loads((HERE / "model_survey_expected.json").read_text())
        if (recorded["mazes"], recorded["rows"]) != (MAZES, ROWS):
            raise ValueError("model_survey_expected.json was recorded for another batch size")
        self.batches = random.Random(f"model:{seed}").sample(recorded["batches"], len(recorded["batches"]))
        self.fresh_rng = random.Random(f"fresh:{seed}")
        self.last_fresh_distinct = None
        self.distinct = {"model": [], "fresh": []}
        self.fires: Dict[str, int] = {}
        self.mazes = self.unsolvable = 0

    def run_mazes(self, sources, tracer) -> Tuple[List[List[int]], List[bool], List[int]]:
        """Generate and solve one maze per source, as ``maze_survey`` does."""
        table = mazegen.default_table()
        span = tracer.span if tracer else lambda _name: contextlib.nullcontext()
        build = getattr(maze_analysis, "Grid", None)
        mazes, verdicts, fires = [], [], [0, 0]
        for source in sources:
            if tracer:
                source = TimedDraws(source, tracer)
            with span("mazegen.generate_maze"):
                rows, traces = mazegen.generate_maze(source, ROWS, table)
            for trace in traces:
                if trace.postprocess_fired is mazegen.PostprocessRule.CONDITION1:
                    fires[0] += 1
                elif trace.postprocess_fired is mazegen.PostprocessRule.CONDITION2:
                    fires[1] += 1
            if build is not None:
                with span("maze_analysis.Grid.from_rows"):
                    grid = build.from_rows(rows)
            else:
                grid = rows
            with span("maze_analysis.is_solvable"):
                verdicts.append(maze_analysis.is_solvable(grid).solvable)
            mazes.append(rows)
        return mazes, verdicts, fires

    def op(self, index, tracer=None):
        problems: List[str] = []
        parts = {}
        batch = self.batches[index % len(self.batches)]
        argv = ["stats", "--mazes", str(MAZES), "--seed", str(batch["seed"])]
        targets = [(maze_analysis, "maze_survey", False)]
        seconds, r, n = run_cli(argv, tracer, targets, problems)
        self.stdout_bytes.append(n)
        for key, want in batch["results"].items():
            expect(problems, f"stats --seed {batch['seed']} {key}", r.get(key), want)
        if tracer is None:
            parts["model"] = seconds
        else:
            # Replay maze_survey's loop from its public calls, so each
            # call gets a span; its tallies must equal the CLI's.
            seed = batch["seed"]
            start = perf_counter()
            sources = (mazegen.ModelBitSource(maze_analysis.derived_seed(seed, i)) for i in range(MAZES))
            mazes, verdicts, fires = self.run_mazes(sources, tracer)
            parts["model"] = perf_counter() - start
            replay = {
                "rows_generated": len(mazes) * ROWS,
                "condition1_fires": fires[0],
                "condition2_fires": fires[1],
                "mazes_generated": len(mazes),
                "unsolvable_count": verdicts.count(False),
            }
            for key, got in replay.items():
                expect(problems, f"replay of stats --seed {seed} {key}", got, r.get(key))
            self._tally("model", mazes, verdicts, fires)

        seeds = [self.fresh_rng.getrandbits(64) for _ in range(MAZES)]
        start = perf_counter()
        mazes, verdicts, fires = self.run_mazes((mazegen.SeededBitSource(s) for s in seeds), tracer)
        parts["fresh"] = perf_counter() - start
        expect(problems, "fresh maze count", len(mazes), MAZES)
        for rows, verdict in zip(mazes, verdicts):
            if len(rows) != ROWS or any(not 0 <= row <= 0xFF for row in rows):
                problems.append(f"fresh maze is not {ROWS} 8-bit rows: {rows!r}")
            elif flood_fill_solvable(rows) != verdict:
                problems.append(f"fresh maze solvability {verdict} disagrees with flood fill: {rows!r}")
        self.last_fresh_distinct = len({tuple(m) for m in mazes}) / len(mazes)
        if tracer:
            self._tally("fresh", mazes, verdicts, fires)
        return parts, problems

    def _tally(self, half, mazes, verdicts, fires):
        self.distinct[half].append(len({tuple(m) for m in mazes}) / len(mazes))
        if half == "model" and not self.fires:
            self.fires = {"condition1": fires[0], "condition2": fires[1]}
        self.mazes += len(mazes)
        self.unsolvable += verdicts.count(False)

    def metrics(self, samples):
        per_s = lambda seconds: MAZES / seconds  # noqa: E731
        return {
            "model_mazes_per_s": (samples["model"], "1/s", per_s),
            "fresh_mazes_per_s": (samples["fresh"], "1/s", per_s),
        }

    def properties(self):
        return {
            "maze_analysis.distinct_maze_share.model": statistics.fmean(
                b["distinct_mazes"] / MAZES for b in self.batches
            ),
            "maze_analysis.distinct_maze_share.fresh": self.last_fresh_distinct,
        }

    def layer_metrics(self, tracer):
        g, generate_self = tracer.self_ns("mazegen.generate_maze")
        draws, draw_ns = tracer.tally_total("mazegen.draw")
        b, build = tracer.total_ns("maze_analysis.Grid.from_rows")
        s, solve = tracer.total_ns("maze_analysis.is_solvable")
        return {
            "mazegen.generate_maze_us": (_per(generate_self, g, 1e3), "us"),
            "mazegen.draw_ns": (_per(draw_ns, draws, 1), "ns"),
            "mazegen.draws_per_row": (_per(draws, g * ROWS, 1), "count"),
            "mazegen.condition1_fires": (self.fires.get("condition1"), "count"),
            "mazegen.condition2_fires": (self.fires.get("condition2"), "count"),
            "maze_analysis.grid_build_us": (_per(build, b, 1e3), "us"),
            "maze_analysis.solve_us": (_per(solve, s, 1e3), "us"),
            "maze_analysis.unsolvable_share": (_per(self.unsolvable, self.mazes, 1), "share"),
            "maze_analysis.distinct_maze_share.model": (self.distinct["model"][0], "share"),
            "maze_analysis.distinct_maze_share.fresh": (self.distinct["fresh"][0], "share"),
        }


# -- rom-scan --------------------------------------------------------------


class RomScan(Workload):
    """``scan --dir`` over a sparse and a dense corpus (see ``corpus.py``)."""

    name = "rom-scan"
    parts = ("sparse", "dense")
    first_use = "import entombed.romscan as r; r.prng_signature()"

    def prepare(self, seed, tmp):
        self.halves = {"sparse": corpus.build_sparse(tmp, seed), "dense": corpus.build_dense(tmp, seed)}
        self.scan_ns = {"sparse": 0, "dense": 0}
        self.traced_bytes = {"sparse": 0, "dense": 0}
        self.first_counts: Dict[str, int] = {}

    def op(self, index, tracer=None):
        problems: List[str] = []
        parts = {}
        counts = {"files": 0, "errors": 0, "hits": 0}
        targets = [(romscan, "scan_corpus", False), (romscan, "md5_of", False), (romscan, "scan_bytes", False)]
        for name, half in self.halves.items():
            first_span = len(tracer.spans) if tracer else 0
            argv = ["scan", "--dir", half.directory]
            parts[name], r, n = run_cli(argv, tracer, targets, problems)
            self.stdout_bytes.append(n)
            if tracer:
                self.traced_bytes[name] += half.total_bytes
                self.scan_ns[name] += sum(
                    s[END] - s[START] for s in tracer.spans[first_span:] if s[NAME] == "romscan.scan_bytes"
                )
            if not r:
                continue
            hits = {
                (os.path.relpath(h["source"], half.directory), h["offset"], tuple(sorted(h["bindings"].items())))
                for h in r.get("hits", ())
            }
            expect(problems, f"{name} hits", sorted(hits), sorted(half.planted))
            checksums = {os.path.relpath(p, half.directory): v for p, v in r.get("checksums", {}).items()}
            expect(problems, f"{name} checksums", checksums, half.checksums)
            expect(problems, f"{name} errors", r.get("errors"), {})
            expect(problems, f"{name} files_scanned", r.get("files_scanned"), half.files)
            counts["files"] += r.get("files_scanned", 0)
            counts["errors"] += len(r.get("errors", ()))
            counts["hits"] += len(r.get("hits", ()))
        if tracer and not self.first_counts:
            self.first_counts = counts
        return parts, problems

    def mib(self, half: str) -> float:
        return self.halves[half].total_bytes / MIB

    def metrics(self, samples):
        return {
            "scan_sparse_mib_per_s": (samples["sparse"], "MiB/s", lambda s: self.mib("sparse") / s),
            "scan_dense_mib_per_s": (samples["dense"], "MiB/s", lambda s: self.mib("dense") / s),
        }

    def properties(self):
        return {
            f"romscan.anchor_candidates_per_kib.{name}": half.anchors_per_kib
            for name, half in self.halves.items()
        }

    def layer_metrics(self, tracer):
        mib = sum(self.traced_bytes.values()) / MIB
        c, corpus_self = tracer.self_ns("romscan.scan_corpus")
        m, md5 = tracer.total_ns("romscan.md5_of")
        s, scan = tracer.total_ns("romscan.scan_bytes")
        candidates = sum(h.anchor_bytes for h in self.halves.values())
        ms_per_mib = lambda ns, mib, present: ns / 1e6 / mib if present else None  # noqa: E731
        out = {
            "romscan.read_ms_per_mib": (ms_per_mib(corpus_self, mib, c), "ms/MiB"),
            "romscan.md5_ms_per_mib": (ms_per_mib(md5, mib, m), "ms/MiB"),
            "romscan.scan_bytes_ms_per_mib": (ms_per_mib(scan, mib, s), "ms/MiB"),
        }
        for name in self.halves:
            out[f"romscan.scan_bytes_ms_per_mib.{name}"] = (
                ms_per_mib(self.scan_ns[name], self.traced_bytes[name] / MIB, s),
                "ms/MiB",
            )
        for name, value in self.properties().items():
            out[name] = (value, "1/KiB")
        out["romscan.match_share"] = (self.first_counts.get("hits", 0) / candidates, "share")
        out["romscan.files"] = (self.first_counts.get("files"), "count")
        out["romscan.errors"] = (self.first_counts.get("errors"), "count")
        return out


WORKLOADS = {w.name: w for w in (PrngStatespace, Maze, RomScan)}
