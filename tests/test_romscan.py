"""Tests for signature templates, scanning and corpus reporting."""

import os
import random
import re

import pytest

from entombed.romscan import (
    ScanHit,
    SignatureTemplate,
    md5_of,
    prng_signature,
    scan_bytes,
    scan_corpus,
)

from entombed.cpu import assemble, prng_routine

from reference_romscan import brute_force_scan

ENTOMBED_BINDINGS = {"W": 0xDD, "X": 0xDE, "Y": 0xDF, "Z": 0xE0}


def routine_bytes(bindings) -> bytes:
    """The game's routine, RTS included, assembled on the cells ``bindings`` names."""
    return bytes(assemble(prng_routine(*(bindings[slot] for slot in "WXYZ"))))


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

    def test_builtin_without_rts(self):
        sig = prng_signature(include_rts=False)
        assert len(sig) == 36
        # RTS is the only dropped element
        assert sig.elements == prng_signature().elements[:-1]

    def test_needs_a_fixed_byte(self):
        with pytest.raises(ValueError):
            SignatureTemplate(("a", "b"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SignatureTemplate(())

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
        buf = noise[:100] + routine_bytes(bindings) + noise[100 + 37 :]
        hits = scan_bytes(buf, sig)
        assert [(h.offset, h.bindings) for h in hits] == [(100, bindings)]

    def test_corrupted_opcode_kills_the_match(self):
        rng = random.Random(101)
        sig = prng_signature()
        noise = noise_without_hits(rng, 4096, sig)
        blob = bytearray(routine_bytes(ENTOMBED_BINDINGS))
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
        buf = noise[:200] + routine_bytes(bindings) + noise[200 + 37 :]
        for hit in scan_bytes(buf, sig, source="buf"):
            assert hit.source == "buf"
            assert buf[hit.offset : hit.offset + 37] == routine_bytes(hit.bindings)

    def test_randomized_plants_always_found(self):
        rng = random.Random(103)
        sig = prng_signature()
        for _ in range(100):
            size = rng.randrange(64, 2048)
            offset = rng.randrange(0, size - 37 + 1)
            bindings = {name: rng.randrange(0x100) for name in ("W", "X", "Y", "Z")}
            noise = noise_without_hits(rng, size, sig)
            buf = noise[:offset] + routine_bytes(bindings) + noise[offset + 37 :]
            hits = scan_bytes(buf, sig)
            assert (offset, bindings) in [(h.offset, h.bindings) for h in hits]


class TestScanPlan:
    @pytest.mark.parametrize("include_rts", [True, False])
    def test_prng_signature_anchors_on_a9_00_65(self, include_rts):
        anchor_index, anchor, _, _ = prng_signature(include_rts=include_rts).plan
        assert (anchor_index, anchor) == (19, bytes([0xA9, 0x00, 0x65]))

    def test_tied_runs_anchor_on_the_first(self):
        anchor_index, anchor, _, _ = SignatureTemplate(("a", 0x01, 0x02, "b", 0x03, 0x04)).plan
        assert (anchor_index, anchor) == (1, bytes([0x01, 0x02]))

    def test_pattern_is_compiled_once_per_template(self, tmp_path, monkeypatch):
        compiled = []
        compile_ = re.compile

        def counting_compile(*args):
            compiled.append(args)
            return compile_(*args)

        monkeypatch.setattr(re, "compile", counting_compile)
        for i in range(4):
            (tmp_path / f"rom{i}.bin").write_bytes(bytes([0xA9, 0x00, 0x65] * 40))
        report = scan_corpus(sorted(str(p) for p in tmp_path.iterdir()), prng_signature())
        assert report.files_scanned == 4
        assert len(compiled) == 1


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
        assert md5_of(b"") == "d41d8cd98f00b204e9800998ecf8427e"
        assert md5_of(b"abc") == "900150983cd24fb0d6963f7d28e17f72"


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
                data = noise[:offset] + routine_bytes(bindings) + noise[offset + 37 :]
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

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="no symlinks on this platform")
    def test_broken_symlink_keeps_the_open_error_text(self, tmp_path):
        link = tmp_path / "dangling.bin"
        os.symlink(tmp_path / "absent.bin", link)
        with pytest.raises(OSError) as exc:
            open(link, "rb")
        report = scan_corpus([str(link)], prng_signature())
        assert report.files_scanned == 0
        assert report.errors == {str(link): str(exc.value)}
