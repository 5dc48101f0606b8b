"""Tests for the command-line surface: formats, determinism, exit codes."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from entombed import __version__, cli, cpu, prng, romscan


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_child(*argv):
    """Run the CLI in a subprocess under a timeout, so a blocking open fails the test."""
    src = str(Path(cli.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    return subprocess.run(
        [sys.executable, "-m", "entombed.cli", *argv],
        capture_output=True, text=True, timeout=20, env=env,
    )


def parse_envelope(out: str) -> dict:
    envelope = json.loads(out)
    assert set(envelope) == {"command", "parameters", "results", "version"}
    assert envelope["version"] == __version__
    return envelope


class TestMazeRender:
    def test_ascii_has_rows_times_41_chars(self, capsys):
        code, out, _ = run_cli(capsys, "maze-render", "--seed", "1", "--rows", "60")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 60
        assert all(len(line) == 41 for line in lines)
        assert all(set(line) <= {"X", "_", " "} for line in lines)

    def test_zeros_source_repeats_byte_identically(self, capsys):
        _, out_a, _ = run_cli(capsys, "maze-render", "--source", "zeros", "--rows", "10")
        _, out_b, _ = run_cli(capsys, "maze-render", "--source", "zeros", "--rows", "10")
        assert out_a == out_b

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "maze-render", "--seed", "0x0b5b", "--rows", "5", "--format", "json"
        )
        assert code == 0
        envelope = parse_envelope(out)
        assert envelope["command"] == "maze-render"
        assert envelope["parameters"]["seed"] == 0x0B5B
        assert len(envelope["results"]["rows"]) == 5
        assert len(envelope["results"]["traces"]) == 5
        trace = envelope["results"]["traces"][0]
        assert set(trace) == {
            "left_bit",
            "right_bit",
            "mid_bits",
            "row_before_postprocess",
            "postprocess_fired",
        }

    # No golden maze fires a rule, so these seeds pin how a fired rule is written.
    @pytest.mark.parametrize("seed, rule", [("986", "condition1"), ("6", "condition2")])
    def test_json_names_a_fired_postprocess_rule(self, capsys, seed, rule):
        code, out, _ = run_cli(capsys, "maze-render", "--seed", seed, "--format", "json")
        assert code == 0
        fired = {t["postprocess_fired"] for t in parse_envelope(out)["results"]["traces"]}
        assert rule in fired
        assert fired <= {None, "condition1", "condition2"}

    def test_rows_zero_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["maze-render", "--rows", "0"])
        assert exc.value.code == 2

    def test_bad_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["maze-render", "--seed", "70000"])
        assert exc.value.code == 2


class TestPrng:
    def test_survey_reports_observed_maximum(self, capsys):
        code, out, _ = run_cli(capsys, "prng", "--mode", "survey")
        assert code == 0
        results = parse_envelope(out)["results"]
        assert results["max_distinct"] == 1200
        assert results["argmax_seed"] == 0xB5B5
        assert len(results["per_seed_distinct"]) == 256

    def test_survey_decomposes_the_map_once(self, capsys, monkeypatch):
        calls = []
        decompose = prng.rho_decomposition

        def counting(*args, **kwargs):
            calls.append(args)
            return decompose(*args, **kwargs)

        monkeypatch.setattr(prng, "rho_decomposition", counting)
        code, out, _ = run_cli(capsys, "prng", "--mode", "survey")
        assert code == 0
        assert len(calls) == 1
        golden = Path(__file__).with_name("golden") / "prng_survey.json"
        assert out == golden.read_text(encoding="utf-8")

    def test_compare_reports_agreement(self, capsys):
        code, out, _ = run_cli(capsys, "prng", "--mode", "compare")
        assert code == 0
        results = parse_envelope(out)["results"]
        assert abs(results["fraction_equal"] - 0.503) < 0.001
        assert results["all_mismatch_low_bytes_equal"] is True
        assert results["mismatch_count"] == (
            results["high_delta_plus_one"] + results["high_delta_minus_one"]
        )

    def test_oracle_check_reports_equivalence(self, capsys):
        code, out, _ = run_cli(capsys, "prng", "--mode", "oracle-check")
        assert code == 0
        results = parse_envelope(out)["results"]
        assert results == {
            "states_checked": 65536,
            "historical_carry_matches_buggy": True,
            "fixed_carry_matches_correct": True,
        }

    def test_graph_reports_functional_graph_of_both_steps(self, capsys):
        code, out, _ = run_cli(capsys, "prng", "--mode", "graph")
        assert code == 0
        envelope = parse_envelope(out)
        assert envelope["parameters"] == {"mode": "graph"}
        results = envelope["results"]
        assert results["states"] == 65536
        expected = {
            "buggy": (prng.buggy_step, [768], 13209, 451),
            "correct": (prng.correct_step, [65536], 0, 0),
        }
        for name, (step, cycle_lengths, without_preimage, max_tail) in expected.items():
            graph = results[name]
            image_size = len({step(s) for s in range(65536)})
            assert graph["image_size"] == image_size == 65536 - without_preimage
            assert graph["states_without_preimage"] == without_preimage
            assert graph["cycle_lengths"] == cycle_lengths
            assert graph["cycle_count"] == len(cycle_lengths)
            assert graph["max_tail"] == max_tail
            histogram = graph["tail_histogram"]
            assert len(histogram) == max_tail + 1
            assert sum(histogram) == 65536
            # tail 0 holds exactly the states on cycles
            assert histogram[0] == sum(cycle_lengths)
            assert histogram[-1] > 0

    def test_mode_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["prng"])
        assert exc.value.code == 2


class TestScan:
    @pytest.fixture()
    def corpus(self, tmp_path):
        rng = random.Random(200)
        blob = bytes(cpu.assemble(cpu.prng_routine(0xDD, 0xDE, 0xDF, 0xE0)))
        plant_offsets = {}
        for i in range(5):
            noise = bytes(rng.randrange(0x100) for _ in range(512))
            data = noise
            if i < 3:
                offset = 32 + i * 100
                data = noise[:offset] + blob + noise[offset + len(blob) :]
                plant_offsets[f"rom{i}.bin"] = offset
            (tmp_path / f"rom{i}.bin").write_bytes(data)
        return tmp_path, plant_offsets

    def test_scan_dir_finds_planted(self, capsys, corpus):
        tmp_path, plant_offsets = corpus
        code, out, _ = run_cli(capsys, "scan", "--dir", str(tmp_path))
        assert code == 0
        results = parse_envelope(out)["results"]
        assert results["files_scanned"] == 5
        found = {hit["source"].rsplit("/", 1)[-1]: hit["offset"] for hit in results["hits"]}
        assert found == plant_offsets
        for hit in results["hits"]:
            assert hit["bindings"] == {"W": 0xDD, "X": 0xDE, "Y": 0xDF, "Z": 0xE0}
            assert hit["bindings_distinct"] is True
            assert hit["bindings_consecutive"] is True

    def test_scan_single_empty_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        code, out, _ = run_cli(capsys, "scan", "--file", str(empty))
        assert code == 0
        results = parse_envelope(out)["results"]
        assert results["hits"] == []

    def test_missing_dir_is_runtime_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "scan", "--dir", str(tmp_path / "absent"))
        assert code == 1
        assert "no such directory" in err

    def test_dir_on_a_regular_file_says_not_a_directory(self, capsys, tmp_path):
        rom = tmp_path / "rom.bin"
        rom.write_bytes(b"\x00" * 64)
        code, out, err = run_cli(capsys, "scan", "--dir", str(rom))
        assert (code, out) == (1, "")
        assert err == f"error: not a directory: {rom}\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
    def test_dir_on_a_fifo_says_not_a_directory(self, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        done = run_cli_child("scan", "--dir", str(pipe))
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == f"error: not a directory: {pipe}\n"

    def test_missing_file_is_runtime_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "scan", "--file", str(tmp_path / "absent.bin"))
        assert code == 1

    def test_custom_signature_file(self, capsys, tmp_path):
        sig_file = tmp_path / "sig.txt"
        sig_file.write_text("01 ?a 02 ?a")
        target = tmp_path / "data.bin"
        target.write_bytes(bytes([0x01, 0x55, 0x02, 0x55, 0x01, 0x55, 0x02, 0x56]))
        code, out, _ = run_cli(
            capsys, "scan", "--file", str(target), "--signature", str(sig_file)
        )
        assert code == 0
        results = parse_envelope(out)["results"]
        assert [(h["offset"], h["bindings"]) for h in results["hits"]] == [(0, {"a": 0x55})]

    def test_a_signature_file_named_builtin_loads_as_dot_slash(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "builtin").write_text("01 ?a 02")
        (tmp_path / "data.bin").write_bytes(bytes([0x01, 0x55, 0x02]))
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "scan", "--file", "data.bin", "--signature", "./builtin")
        envelope = parse_envelope(out)
        assert code == 0 and envelope["parameters"]["signature"] == "./builtin"
        assert envelope["results"]["signature_length"] == 3
        assert [(h["offset"], h["bindings"]) for h in envelope["results"]["hits"]] == [
            (0, {"a": 0x55})
        ]
        code, out, _ = run_cli(capsys, "scan", "--file", "data.bin", "--signature", "builtin")
        envelope = parse_envelope(out)
        assert code == 0 and envelope["parameters"]["signature"] == "builtin"
        assert envelope["results"]["signature_length"] == len(romscan.prng_signature())
        assert envelope["results"]["hits"] == []

    def test_signature_help_names_the_dot_slash_escape(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["scan", "--help"])
        assert "use ./builtin for a file of that name" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize(
        "text", ["not hex tokens!", "+1 ?w a5"], ids=["not-hex", "signed-byte"]
    )
    def test_bad_signature_file_is_runtime_error(self, capsys, tmp_path, text):
        sig_file = tmp_path / "sig.txt"
        sig_file.write_text(text)
        target = tmp_path / "data.bin"
        target.write_bytes(b"\x00")
        code, _, err = run_cli(capsys, "scan", "--file", str(target), "--signature", str(sig_file))
        assert code == 1

    def test_dir_and_file_are_mutually_exclusive(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["scan", "--dir", str(tmp_path), "--file", "x"])
        assert exc.value.code == 2

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
    def test_scan_dir_skips_a_fifo_instead_of_blocking(self, tmp_path):
        # Opening a FIFO for reading blocks until a writer appears, so run the
        # CLI in a subprocess under a timeout: a hang fails instead of stalling.
        os.mkfifo(tmp_path / "pipe")
        (tmp_path / "rom.bin").write_bytes(b"\x00" * 64)
        done = run_cli_child("scan", "--dir", str(tmp_path))
        assert done.returncode == 0, done.stderr
        results = parse_envelope(done.stdout)["results"]
        assert results["files_scanned"] == 1
        assert list(results["checksums"]) == [str(tmp_path / "rom.bin")]
        assert results["errors"] == {str(tmp_path / "pipe"): "not a regular file"}

    def test_missing_file_names_the_cause(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "scan", "--file", str(tmp_path / "absent.bin"))
        assert code == 1
        assert err == f"error: no such file: {tmp_path / 'absent.bin'}\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
    def test_scan_file_on_a_fifo_says_not_a_regular_file(self, tmp_path):
        # A subprocess under a timeout, so a regression that opens the FIFO
        # fails instead of stalling the suite.
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        done = run_cli_child("scan", "--file", str(pipe))
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == f"error: not a regular file: {pipe}\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
    def test_signature_on_a_fifo_is_refused(self, tmp_path):
        pipe = tmp_path / "sig"
        os.mkfifo(pipe)
        target = tmp_path / "rom.bin"
        target.write_bytes(b"\x00" * 64)
        done = run_cli_child("scan", "--dir", str(tmp_path), "--signature", str(pipe))
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == f"error: cannot load signature: not a regular file: {pipe}\n"

    def test_missing_signature_keeps_the_os_error(self, capsys, tmp_path):
        absent = tmp_path / "absent.txt"
        code, _, err = run_cli(capsys, "scan", "--dir", str(tmp_path), "--signature", str(absent))
        assert code == 1
        assert err.startswith("error: cannot load signature: [Errno 2]")


class TestStats:
    def test_small_survey(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "--mazes", "3", "--seed", "1")
        assert code == 0
        results = parse_envelope(out)["results"]
        assert results["mazes_generated"] == 3
        assert results["rows_generated"] == 180
        assert results["condition1_fires"] + results["condition2_fires"] <= 180
        assert 0.0 <= results["unsolvable_fraction"] <= 1.0

    def test_derived_seeds_wrap_past_the_top_seed(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "--mazes", "3", "--seed", "0xFFFF")
        assert code == 0
        assert parse_envelope(out)["results"]["mazes_generated"] == 3

    def test_byte_identical_across_runs(self, capsys):
        _, out_a, _ = run_cli(capsys, "stats", "--mazes", "2", "--seed", "7")
        _, out_b, _ = run_cli(capsys, "stats", "--mazes", "2", "--seed", "7")
        assert out_a == out_b

    def test_mazes_required_and_positive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["stats", "--mazes", "0"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["stats"])
        assert exc.value.code == 2


class TestNumberArguments:
    @pytest.mark.parametrize("option", ["--mazes", "--rows", "--seed"])
    @pytest.mark.parametrize(
        "text",
        ["+3", "-0", "1_0", " 2", "2 ", "\t2", "\u0663", "\uff12", "+0x1_0", "0x", "0b11", "0o7", ""],
        ids=["plus", "minus-zero", "underscore", "lead-space", "trail-space", "tab",
             "arabic-digit", "fullwidth-digit", "signed-hex", "bare-0x", "binary", "octal", "empty"],
    )
    def test_rejects_anything_but_ascii_decimal_or_hex(self, capsys, option, text):
        argv = ["stats", "--mazes", "1", option, text]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "not a number" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--mazes", "--rows"])
    @pytest.mark.parametrize("text", ["0x10", "0X10"])
    def test_counts_take_no_hex(self, capsys, option, text):
        with pytest.raises(SystemExit) as exc:
            cli.main(["stats", "--mazes", "1", option, text])
        assert exc.value.code == 2

    @pytest.mark.parametrize("text", ["16", "0x10", "0X10", "0x0010"])
    def test_seed_takes_decimal_and_hex(self, capsys, text):
        code, out, _ = run_cli(capsys, "stats", "--mazes", "1", "--seed", text)
        assert code == 0
        assert parse_envelope(out)["parameters"]["seed"] == 16


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_reader_closing_early_exits_quietly(self, unbuffered):
        # The read end closes before the child writes, so every write meets
        # a broken pipe; the timeout turns a hang into a failure.
        src = str(Path(cli.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": pythonpath, "PYTHONUNBUFFERED": unbuffered}
        proc = subprocess.Popen(
            [sys.executable, "-m", "entombed.cli", "stats", "--mazes", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=20)
        finally:
            proc.kill()
        assert (proc.returncode, err) == (0, b"")


class TestEnvelope:
    @pytest.mark.parametrize(
        "argv",
        [
            ["maze-render", "--rows", "3", "--format", "json"],
            ["stats", "--mazes", "1", "--seed", "3"],
            ["prng", "--mode", "graph"],
        ],
    )
    def test_json_round_trips_byte_identically(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        reparsed = json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        assert reparsed == out

    def test_unknown_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
