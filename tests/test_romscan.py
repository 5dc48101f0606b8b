"""Tests for signature templates, scanning and corpus reporting."""

import builtins
import errno
import functools
import hashlib
import os
import random
import re
import threading

import pytest

from entombed import romscan
from entombed.cpu import assemble
from entombed.romscan import (
    CorpusReport,
    ScanHit,
    SignatureTemplate,
    md5_of,
    prng_signature,
    scan_bytes,
    scan_corpus,
)

from reference_cpu import routine_bytes
from reference_romscan import brute_force_scan

ENTOMBED_BINDINGS = {"W": 0xDD, "X": 0xDE, "Y": 0xDF, "Z": 0xE0}


def noise_without_hits(rng: random.Random, size: int, sig: SignatureTemplate) -> bytes:
    """Random bytes verified hit-free by the brute-force matcher."""
    while True:
        buf = bytes(rng.randrange(0x100) for _ in range(size))
        if not brute_force_scan(buf, sig):
            return buf


class TestSignatureTemplate:
    def test_builtin_shape(self):
        sig = prng_signature()
        assert len(sig) == 37
        assert sum(isinstance(el, str) for el in sig.elements) == 14

    def test_needs_a_fixed_byte(self):
        with pytest.raises(ValueError):
            SignatureTemplate(("a", "b"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SignatureTemplate(())

    @pytest.mark.parametrize("bad", [True, False, 256, -1, 1.5])
    def test_rejects_a_fixed_byte_that_is_not_a_byte(self, bad):
        # True used to be taken as byte 0x01
        with pytest.raises(ValueError, match=r"fixed byte must be an int in \[0, 255\], got "):
            SignatureTemplate((bad, "W", 0xA9))

    def test_a_list_is_copied_into_a_tuple(self):
        elements = [0xA9, "W"]
        sig = SignatureTemplate(elements)
        elements.append(999)
        assert sig.elements == (0xA9, "W")
        with pytest.raises(AttributeError):
            sig.elements.append(999)
        assert [h.bindings for h in scan_bytes(bytes([0xA9, 7]), sig)] == [{"W": 7}]

    def test_is_hashable(self):
        assert hash(SignatureTemplate([0xA9])) == hash(SignatureTemplate((0xA9,)))

    def test_text_format(self):
        sig = SignatureTemplate((0xA5, "cell", 0x60))
        assert SignatureTemplate.from_text("A5 ?cell 60") == sig

    def test_text_rejects_bad_tokens(self):
        with pytest.raises(ValueError):
            SignatureTemplate.from_text("zz")
        with pytest.raises(ValueError):
            SignatureTemplate.from_text("a5 ?")
        with pytest.raises(ValueError):
            SignatureTemplate.from_text("0xa5")
        # int(token, 16) takes a sign and any Unicode digit; a byte token may not
        for token in ("+1", "-0", "+f", "\u0661\u0662", "\uff11\uff12"):
            with pytest.raises(ValueError):
                SignatureTemplate.from_text(token)


class TestScanBytes:
    def test_planted_signature_found(self):
        rng = random.Random(100)
        sig = prng_signature()
        bindings = {"W": 0x10, "X": 0x11, "Y": 0x12, "Z": 0x13}
        noise = noise_without_hits(rng, 4096, sig)
        buf = noise[:100] + routine_bytes(**bindings) + noise[100 + 37 :]
        hits = scan_bytes(buf, sig)
        assert [(h.offset, h.bindings) for h in hits] == [(100, bindings)]

    def test_corrupted_opcode_kills_the_match(self):
        rng = random.Random(101)
        sig = prng_signature()
        noise = noise_without_hits(rng, 4096, sig)
        blob = bytearray(routine_bytes(**ENTOMBED_BINDINGS))
        blob[0] ^= 0xFF  # first fixed byte
        buf = noise[:100] + bytes(blob) + noise[100 + 37 :]
        assert scan_bytes(buf, sig) == []

    def test_inconsistent_slot_bytes_kill_the_match(self):
        sig = SignatureTemplate((0x01, "s", 0x02, "s"))
        assert scan_bytes(bytes([0x01, 0xAA, 0x02, 0xAA]), sig) != []
        assert scan_bytes(bytes([0x01, 0xAA, 0x02, 0xAB]), sig) == []

    def test_buffer_shorter_than_template(self):
        assert scan_bytes(b"\xa5", prng_signature()) == []

    def test_overlapping_matches_all_reported(self):
        sig = SignatureTemplate((0x01, "a"))
        buf = bytes([0x01, 0x01, 0x01, 0x02])
        offsets = [h.offset for h in scan_bytes(buf, sig)]
        assert offsets == [0, 1, 2]

    def test_slot_before_first_fixed_byte(self):
        sig = SignatureTemplate(("a", 0x42, "a"))
        buf = bytes([0x07, 0x42, 0x07, 0x42, 0x08])
        hits = scan_bytes(buf, sig)
        assert [(h.offset, h.bindings) for h in hits] == [(0, {"a": 0x07})]

    def test_matches_brute_force_on_random_buffers(self):
        rng = random.Random(102)
        sig = SignatureTemplate((0x01, "a", "b", "a"))
        for _ in range(200):
            buf = bytes(rng.randrange(4) for _ in range(64))
            got = [(h.offset, h.bindings) for h in scan_bytes(buf, sig)]
            assert got == brute_force_scan(buf, sig)

    @pytest.mark.parametrize(
        "elements, buf",
        [
            # slot-only stretch before the anchor, so the anchor index is above 0
            (("1", "a-b", 0x2E, 0x5C, "1"), bytes([0x0A, 0x5C, 0x2E, 0x5C, 0x0A, 0x2E, 0x5C] * 3)),
            # the only fixed byte is the last element
            (("\u00fc", "g0", "\u00fc", 0x0A), bytes([0x2E, 0x0A, 0x2E, 0x0A, 0x0A, 0x0A, 0x0A])),
            # tied longest runs: the first one anchors, hits need both
            (
                (0x01, "a", 0x0A, 0x2E, "a", 0x5C, 0x01),
                bytes([0x01, 0x0A, 0x0A, 0x2E, 0x0A, 0x5C, 0x01] * 2),
            ),
            # anchor occurrences overlap: 01 01 in 01 01 01 ...
            ((0x01, 0x01, "g0", "1"), bytes([0x01] * 9)),
            # bindings keys in first-appearance order, not sorted
            (("z", 0x5C, "a", "m", "z"), bytes([0x2E, 0x5C, 0x0A, 0x01, 0x2E, 0x5C])),
        ],
        ids=["slots-first", "fixed-only-last", "tied-runs", "overlapping-anchor", "key-order"],
    )
    def test_edge_templates_match_brute_force(self, elements, buf):
        sig = SignatureTemplate(elements)
        got = [(h.offset, list(h.bindings.items())) for h in scan_bytes(buf, sig)]
        want = [(offset, list(b.items())) for offset, b in brute_force_scan(buf, sig)]
        assert got == want and want

    def test_every_byte_as_a_self_overlapping_anchor_matches_brute_force(self):
        # the anchor is a compiled literal: NUL, newline and every regex metacharacter
        # among the fixed bytes must each match only itself
        for byte in range(0x100):
            sig = SignatureTemplate((byte, byte, "x"))
            # checked first: an unescaped "$$" matches empty at the end, so the scan would not stop
            assert sig.plan[1].pattern == re.escape(bytes([byte, byte])), hex(byte)
            buf = bytes([byte] * 5 + [byte ^ 1] + [byte] * 3)
            got = [(h.offset, dict(h.bindings)) for h in scan_bytes(buf, sig)]
            want = [(offset, {"x": buf[offset + 2]}) for offset in (0, 1, 2, 3, 6)]
            assert got == brute_force_scan(buf, sig) == want, hex(byte)

    def test_random_templates_match_brute_force(self):
        rng = random.Random(106)
        # regex metacharacters (\n . \\) as fixed bytes and as slot values
        alphabet = [0x01, 0x0A, 0x2E, 0x5C]
        names = ["1", "a-b", "\u00fc", "g0"]
        hits = 0
        for _ in range(2000):
            elements = [rng.choice(alphabet + names) for _ in range(rng.randrange(1, 8))]
            elements[rng.randrange(len(elements))] = rng.choice(alphabet)
            sig = SignatureTemplate(tuple(elements))
            buf = bytes(rng.choice(alphabet) for _ in range(rng.randrange(48)))
            got = [(h.offset, list(h.bindings.items())) for h in scan_bytes(buf, sig)]
            want = [(offset, list(b.items())) for offset, b in brute_force_scan(buf, sig)]
            assert got == want, sig.elements
            hits += len(want)
        assert hits > 1000

    def test_hits_reverify_against_the_buffer(self):
        rng = random.Random(105)
        sig = prng_signature()
        bindings = {"W": 0xDD, "X": 0xDE, "Y": 0xDF, "Z": 0xE0}
        noise = noise_without_hits(rng, 1024, sig)
        buf = noise[:200] + routine_bytes(**bindings) + noise[200 + 37 :]
        for hit in scan_bytes(buf, sig, source="buf"):
            assert hit.source == "buf"
            assert buf[hit.offset : hit.offset + 37] == routine_bytes(**hit.bindings)

    def test_randomized_plants_always_found(self):
        rng = random.Random(103)
        sig = prng_signature()
        for _ in range(100):
            size = rng.randrange(64, 2048)
            offset = rng.randrange(0, size - 37 + 1)
            bindings = {name: rng.randrange(0x100) for name in ("W", "X", "Y", "Z")}
            noise = noise_without_hits(rng, size, sig)
            buf = noise[:offset] + routine_bytes(**bindings) + noise[offset + 37 :]
            hits = scan_bytes(buf, sig)
            assert (offset, bindings) in [(h.offset, h.bindings) for h in hits]


class TestScanPlan:
    def test_prng_signature_anchors_on_a9_00_65(self):
        anchor_index, anchor, _, _ = prng_signature().plan
        assert (anchor_index, anchor.pattern) == (19, re.escape(bytes([0xA9, 0x00, 0x65])))

    def test_tied_runs_anchor_on_the_first(self):
        anchor_index, anchor, _, _ = SignatureTemplate(("a", 0x01, 0x02, "b", 0x03, 0x04)).plan
        assert (anchor_index, anchor.pattern) == (1, re.escape(bytes([0x01, 0x02])))

    def test_pattern_is_compiled_once_per_template(self, tmp_path, monkeypatch):
        compiled = []
        compile_ = re.compile

        def counting_compile(*args):
            compiled.append(args)
            return compile_(*args)

        monkeypatch.setattr(re, "compile", counting_compile)
        counts = []  # re.compile calls made by scanning 1 and 4 files, each with a new template
        for files in (1, 4):
            directory = tmp_path / f"files{files}"
            directory.mkdir()
            for i in range(files):
                (directory / f"rom{i}.bin").write_bytes(bytes([0xA9, 0x00, 0x65] * 40))
            before = len(compiled)
            report = scan_corpus(sorted(str(p) for p in directory.iterdir()), prng_signature())
            assert report.files_scanned == files
            counts.append(len(compiled) - before)
        assert counts[0] == counts[1] > 0


class TestScanHitAnnotations:
    def test_distinct_and_consecutive(self):
        hit = ScanHit("x", 0, dict(ENTOMBED_BINDINGS))
        assert hit.bindings_distinct()
        assert hit.bindings_consecutive()

    def test_repeated_cell(self):
        hit = ScanHit("x", 0, {"W": 0x10, "X": 0x10, "Y": 0x11, "Z": 0x12})
        assert not hit.bindings_distinct()
        assert not hit.bindings_consecutive()

    def test_scattered_cells(self):
        hit = ScanHit("x", 0, {"W": 0x10, "X": 0x20, "Y": 0x30, "Z": 0x40})
        assert hit.bindings_distinct()
        assert not hit.bindings_consecutive()


class TestScanHitValue:
    def test_is_hashable(self):
        a, b = ScanHit("x", 0, {"W": 1}), ScanHit("x", 0, {"W": 1})
        assert a == b and hash(a) == hash(b)
        assert len({a, b, ScanHit("x", 0, {"W": 2}), ScanHit("x", 1, {"W": 1})}) == 3

    def test_bindings_are_a_read_only_copy(self):
        bindings = {"W": 1}
        hit = ScanHit("x", 0, bindings)
        bindings["W"] = 2
        with pytest.raises(TypeError):
            hit.bindings["W"] = 3
        assert hit.bindings == {"W": 1}
        (found,) = scan_bytes(bytes([0xA9, 7]), SignatureTemplate((0xA9, "W")))
        with pytest.raises(TypeError):
            found.bindings["W"] = 8
        assert found.bindings == {"W": 7}


class TestMd5:
    def test_rfc_vectors(self):
        assert md5_of([]) == "d41d8cd98f00b204e9800998ecf8427e"
        assert md5_of([b"abc"]) == "900150983cd24fb0d6963f7d28e17f72"
        assert md5_of([b"a", b"", b"bc"]) == "900150983cd24fb0d6963f7d28e17f72"

    def test_several_chunks_hash_as_the_whole(self):
        data = random.Random(107).randbytes(3 * romscan._CHUNK + 5)
        chunks = (data[i : i + romscan._CHUNK] for i in range(0, len(data), romscan._CHUNK))
        assert md5_of(chunks) == hashlib.md5(data).hexdigest()


SEAM_CHUNKS = [1, 2, 7, 36, 37, 64]  # around the PRNG signature's 37 bytes and its 36-byte overlap


def scan_matches_reference(directory, files, sig):
    """Write ``files`` (name -> bytes), scan them, and compare with the references.

    Hits must equal ``brute_force_scan`` and checksums ``hashlib.md5``, each
    run on the whole file; returns the hits as ``(name, offset)`` pairs.
    """
    directory.mkdir(exist_ok=True)
    for name, data in files.items():
        (directory / name).write_bytes(data)
    report = scan_corpus([str(directory / name) for name in files], sig)
    want = [
        (str(directory / name), offset, list(bindings.items()))
        for name in sorted(files)
        for offset, bindings in brute_force_scan(files[name], sig)
    ]
    assert [(h.source, h.offset, list(h.bindings.items())) for h in report.hits] == want
    assert report.checksums == {str(directory / n): hashlib.md5(d).hexdigest() for n, d in files.items()}
    assert (report.files_scanned, report.errors) == (len(files), {})
    return {(os.path.basename(source), offset) for source, offset, _ in want}


@pytest.mark.parametrize("chunk", SEAM_CHUNKS)
class TestChunkSeams:
    """``scan_corpus`` with the chunk size cut down, so every file crosses seams."""

    @pytest.fixture(autouse=True)
    def _chunk(self, monkeypatch, chunk):
        monkeypatch.setattr(romscan, "_CHUNK", chunk)

    def test_routine_planted_at_every_offset_across_a_seam(self, tmp_path, chunk):
        sig = prng_signature()
        size = 2 * chunk + 38  # room for a routine that starts past the first seam
        noise = noise_without_hits(random.Random(108), size, sig)
        routine = routine_bytes(**ENTOMBED_BINDINGS)
        files = {
            f"at{offset:03d}.bin": noise[:offset] + routine + noise[offset + 37 :]
            for offset in range(size - 37 + 1)
        }
        found = scan_matches_reference(tmp_path, files, sig)
        assert {(f"at{offset:03d}.bin", offset) for offset in range(size - 37 + 1)} <= found

    def test_overlapping_matches_across_seams(self, tmp_path, chunk):
        ones = bytes([0x01] * (3 * chunk + 5))  # a hit at every offset: each seam cuts several
        for i, elements in enumerate([(0x01, "a"), (0x01, 0x01, "g0", "g0")]):
            sig = SignatureTemplate(elements)
            found = scan_matches_reference(tmp_path / f"sig{i}", {"rom.bin": ones}, sig)
            assert len(found) == len(ones) - len(sig) + 1
        rng = random.Random(109)
        mixed = bytes(rng.choice((1, 2)) for _ in range(3 * chunk + 40))
        sig = SignatureTemplate((0x01, "a", "b", "a"))
        assert scan_matches_reference(tmp_path / "mixed", {"rom.bin": mixed}, sig)

    def test_file_sizes_around_the_signature_and_the_chunk(self, tmp_path, chunk):
        sig = prng_signature()
        routine = routine_bytes(**ENTOMBED_BINDINGS)
        sizes = sorted({0, 36, 37, chunk - 1, chunk, chunk + 1})
        noise = noise_without_hits(random.Random(110), max(sizes), sig)
        # the routine, where it fits, ends the file: its last byte is the last one read
        files = {
            f"size{size:03d}.bin": noise[: size - 37] + routine if size >= 37 else noise[:size]
            for size in sizes
        }
        found = scan_matches_reference(tmp_path, files, sig)
        assert {(f"size{size:03d}.bin", size - 37) for size in sizes if size >= 37} <= found

    def test_signature_longer_than_a_chunk(self, tmp_path, chunk):
        sig = SignatureTemplate(assemble() * 2)  # 74 bytes, longer than every chunk tried
        assert len(sig) > chunk
        routine = routine_bytes(**ENTOMBED_BINDINGS)
        noise = noise_without_hits(random.Random(111), 3 * chunk + 100, prng_signature())
        files = {
            f"at{offset:03d}.bin": noise[:offset] + routine * 2 + noise[offset + 74 :]
            for offset in (0, chunk + 3, 2 * chunk + 9, len(noise) - 74)
        }
        assert len(scan_matches_reference(tmp_path, files, sig)) == 4

    def test_one_byte_signature_reports_each_hit_once(self, tmp_path, chunk):
        # the overlap is empty: window[-0:] as the tail would rescan each window whole
        data = bytes(random.Random(112).choice((0, 1)) for _ in range(4 * chunk + 3))
        found = scan_matches_reference(tmp_path, {"rom.bin": data}, SignatureTemplate((0x01,)))
        assert len(found) == data.count(1)


class FailingFile:
    """An open file whose read number ``fail_at`` (from 0) raises ``error()``.

    ``failed`` records whether the failing read was reached.
    """

    def __init__(self, fh, fail_at, error):
        self.fh, self.fail_at, self.error = fh, fail_at, error
        self.reads, self.failed = 0, False

    def read(self, size):
        if self.reads == self.fail_at:
            self.failed = True
            raise self.error()
        self.reads += 1
        return self.fh.read(size)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


EIO = functools.partial(OSError, errno.EIO, "Input/output error")


class Boom(Exception):
    """An error that is not an ``OSError``, so the scan may not take it for a read failure."""


class TestReadFailure:
    """Each file is opened once; a failing read on its one handle decides that file's fate."""

    @pytest.fixture
    def corpus(self, tmp_path, monkeypatch):
        monkeypatch.setattr(romscan, "_CHUNK", 16)  # 100 bytes: 7 reads and one at the end
        rng = random.Random(113)
        paths = []
        for name in ("a.bin", "b.bin", "c.bin"):
            noise = noise_without_hits(rng, 100, prng_signature())
            (tmp_path / name).write_bytes(noise[:40] + routine_bytes(**ENTOMBED_BINDINGS) + noise[77:])
            paths.append(str(tmp_path / name))
        clean = scan_corpus(paths, prng_signature())
        assert len(clean.hits) == 3
        return paths, clean

    @staticmethod
    def failing_open(monkeypatch, bad, fail_at, error):
        """Make ``bad``'s handle fail at read ``fail_at``; returns the paths opened, in order, and each handle it wrapped."""
        opened, failing = [], []

        def failing_open(path, *args, **kwargs):
            opened.append(path)
            fh = builtins.open(path, *args, **kwargs)
            if path != bad:
                return fh
            failing.append(FailingFile(fh, fail_at, error))
            return failing[-1]

        monkeypatch.setattr(romscan, "open", failing_open, raising=False)
        return opened, failing

    @pytest.mark.parametrize("fail_at", range(8))
    def test_a_read_failing_partway_drops_only_that_file(self, corpus, monkeypatch, fail_at):
        paths, clean = corpus
        bad = paths[1]
        opened, failing = self.failing_open(monkeypatch, bad, fail_at, EIO)
        assert scan_corpus(paths, prng_signature()) == CorpusReport(
            files_scanned=2,
            hits=[h for h in clean.hits if h.source != bad],
            checksums={p: c for p, c in clean.checksums.items() if p != bad},
            errors={bad: "[Errno 5] Input/output error"},
        )
        assert opened == paths and [f.failed for f in failing] == [True]

    @pytest.mark.parametrize("error", [Boom, KeyboardInterrupt])
    def test_another_error_while_reading_propagates_and_no_later_file_is_opened(self, corpus, monkeypatch, error):
        paths, _ = corpus
        for k, bad in enumerate(paths):
            for fail_at in (0, 3, 7):
                opened, failing = self.failing_open(monkeypatch, bad, fail_at, functools.partial(error, "read"))
                with pytest.raises(error, match="read"):
                    scan_corpus(paths, prng_signature())
                assert opened == paths[: k + 1] and failing[0].failed, (k, fail_at)


class TestWorkerLifecycle:
    @pytest.fixture
    def paths(self, tmp_path):
        for i in range(3):
            (tmp_path / f"rom{i}.bin").write_bytes(bytes([0xA9, 0x00, 0x65]) * (i + 1))
        return sorted(str(p) for p in tmp_path.iterdir())

    def test_a_normal_call_leaves_no_thread_behind(self, paths):
        before = set(threading.enumerate())
        assert scan_corpus(paths, prng_signature()).files_scanned == 3
        assert set(threading.enumerate()) <= before

    @pytest.mark.parametrize("target", ["md5_of", "_scanned_chunks"])
    def test_another_error_from_hashing_or_scanning_propagates_and_leaves_no_thread(self, paths, monkeypatch, target):
        def boom(*args):
            raise Boom(target)

        monkeypatch.setattr(romscan, target, boom)
        before = set(threading.enumerate())
        with pytest.raises(Boom, match=target):
            scan_corpus(paths, prng_signature())
        assert set(threading.enumerate()) <= before


class TestScanCorpus:
    def test_empty_corpus(self):
        report = scan_corpus([], prng_signature())
        assert report.files_scanned == 0
        assert report.hits == []

    def test_synthetic_corpus(self, tmp_path):
        rng = random.Random(104)
        sig = prng_signature()
        planted = {}
        for i in range(10):
            noise = noise_without_hits(rng, 1024, sig)
            if i < 3:
                offset = rng.randrange(0, 1024 - 37)
                bindings = {"W": 0x40 + i, "X": 0x50 + i, "Y": 0x60 + i, "Z": 0x70 + i}
                data = noise[:offset] + routine_bytes(**bindings) + noise[offset + 37 :]
                planted[str(tmp_path / f"rom{i}.bin")] = (offset, bindings)
            else:
                data = noise
            (tmp_path / f"rom{i}.bin").write_bytes(data)
        paths = sorted(str(p) for p in tmp_path.iterdir())
        report = scan_corpus(paths, sig)
        assert report.files_scanned == 10
        assert len(report.checksums) == 10
        assert {h.source: (h.offset, h.bindings) for h in report.hits} == planted
        assert [h.source for h in report.hits] == sorted(h.source for h in report.hits)

    def test_unreadable_file_reported_not_fatal(self, tmp_path):
        good = tmp_path / "good.bin"
        good.write_bytes(b"\x00" * 64)
        missing = str(tmp_path / "missing.bin")
        report = scan_corpus([str(good), missing], prng_signature())
        assert report.files_scanned == 1
        assert missing in report.errors
        assert str(good) in report.checksums

    def test_checksums_are_md5(self, tmp_path):
        f = tmp_path / "f.bin"
        f.write_bytes(b"abc")
        report = scan_corpus([str(f)], prng_signature())
        assert report.checksums[str(f)] == "900150983cd24fb0d6963f7d28e17f72"

    def test_directory_is_reported_not_opened(self, tmp_path):
        report = scan_corpus([str(tmp_path)], prng_signature())
        assert report.files_scanned == 0
        assert report.checksums == {}
        assert report.errors == {str(tmp_path): "not a regular file"}

    def test_each_regular_file_is_opened_once(self, tmp_path, monkeypatch):
        paths = []
        for i in range(3):
            (tmp_path / f"rom{i}.bin").write_bytes(bytes([0xA9, 0x00, 0x65]) * 30000)  # two chunks
            paths.append(str(tmp_path / f"rom{i}.bin"))
        (tmp_path / "sub").mkdir()
        opened = []

        def counting_open(path, *args, **kwargs):
            opened.append(path)
            return builtins.open(path, *args, **kwargs)

        monkeypatch.setattr(romscan, "open", counting_open, raising=False)
        report = scan_corpus(paths + [str(tmp_path / "sub")], prng_signature())
        assert report.files_scanned == 3
        assert opened == paths

    def test_a_path_listed_twice_counts_twice(self, tmp_path):
        rom = tmp_path / "rom.bin"
        rom.write_bytes(b"\x00" * 40 + routine_bytes(**ENTOMBED_BINDINGS) + b"\x00" * 40)
        once = scan_corpus([str(rom)], prng_signature())
        twice = scan_corpus([str(rom), str(rom)], prng_signature())
        assert (once.files_scanned, len(once.hits)) == (1, 1)
        assert twice.files_scanned == 2
        assert twice.hits == once.hits * 2
        assert twice.checksums == once.checksums and twice.errors == {}

    def test_one_stat_per_regular_file(self, tmp_path, monkeypatch):
        paths = []
        for i in range(3):
            (tmp_path / f"rom{i}.bin").write_bytes(bytes([i]) * 64)
            paths.append(str(tmp_path / f"rom{i}.bin"))
        stats = []
        stat = os.stat

        def counting_stat(path, *args, **kwargs):
            stats.append(path)
            return stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", counting_stat)
        report = scan_corpus(paths, prng_signature())
        assert report.files_scanned == 3
        assert stats == paths  # isfile's stat; exists is asked only of a non-file

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="no symlinks on this platform")
    def test_broken_symlink_keeps_the_open_error_text(self, tmp_path):
        link = tmp_path / "dangling.bin"
        os.symlink(tmp_path / "absent.bin", link)
        with pytest.raises(OSError) as exc:
            open(link, "rb")
        report = scan_corpus([str(link)], prng_signature())
        assert report.files_scanned == 0
        assert report.errors == {str(link): str(exc.value)}
