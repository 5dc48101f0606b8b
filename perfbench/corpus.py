"""Seeded ROM corpora for the `rom-scan` workload, with their expected scan.

Two halves, written under a directory the caller owns:

* ``sparse``: ROM-sized images (2-32 KiB) of random bytes plus one large
  image, a few carrying the PRNG routine planted with random distinct
  zero-page bindings. Reading, hashing and per-file work dominate.
* ``dense``: 6502-like code in which ``LDA zp`` (0xA5, the signature's
  first byte) is common, with planted routines, planted near-misses that
  fail late, and a stretch of 0xA5 fill. Candidate verification dominates.

File sizes and planted counts are fixed; only contents and positions
depend on the seed, so every seed gives the same amount of work.

The generator keeps its own copy of the signature and its own matcher, so
the expected hits do not come from the code being measured. It checks
every offset of the dense half with that matcher and refuses a corpus
whose full matches are not exactly the planted ones.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

# The 37-byte routine as a template, recorded from the package's first
# release: hh is a fixed byte, ?N a zero-page cell slot.
SIGNATURE_TEXT = (
    "a5 ?W 85 ?Y a5 ?X 85 ?Z 0a 26 ?W 0a 26 ?W 18 65 ?Z 85 ?X a9 00 65 ?W "
    "18 65 ?Y 85 ?W a9 00 e6 ?X 65 ?W 85 ?W 60"
)
SIGNATURE = tuple(t[1:] if t.startswith("?") else int(t, 16) for t in SIGNATURE_TEXT.split())
SIG_LEN = len(SIGNATURE)
ANCHOR = SIGNATURE[0]
SLOTS = ("W", "X", "Y", "Z")
_FIXED = [(i, b) for i, b in enumerate(SIGNATURE) if isinstance(b, int)]
_SLOT_POSITIONS = {n: [i for i, e in enumerate(SIGNATURE) if e == n] for n in SLOTS}
# Near-misses break the template late: a fixed byte from index 28 on, or a
# repeat of a slot whose first use was much earlier.
_DEEP_FIXED = [i for i, b in _FIXED if i >= 28]
_LATE_REPEATS = [i for n in SLOTS for i in _SLOT_POSITIONS[n][1:] if i >= 25]

KIB = 1024
MIB = 1024 * KIB
SPARSE_SIZES_KIB = (2, 4, 8, 16, 32)
SPARSE_FILES = 240
SPARSE_HIT_EVERY = 8  # every 8th small image carries one routine
LARGE_MIB = 24
LARGE_HITS = 2
DENSE_FILES = 8
DENSE_FILE_KIB = 128
DENSE_HITS_PER_FILE = 4
DENSE_NEAR_MISSES_PER_FILE = 64
FILL_KIB = 48  # 0xA5 fill, in the first dense file

# 6502 instruction forms for code-like bytes: (opcode, operand kind, weight).
# LDA zp's weight gives about 70 anchor bytes per KiB, as in the code the
# scanner was sized on.
_CODE = [
    (0xA5, "zp", 14), (0x85, "zp", 12), (0xA9, "imm", 8), (0x0A, None, 4),
    (0x26, "zp", 3), (0x18, None, 4), (0x65, "zp", 5), (0xE6, "zp", 4),
    (0x60, None, 2), (0x4C, "abs", 3), (0x20, "abs", 4), (0xD0, "rel", 5),
    (0xF0, "rel", 4), (0xA2, "imm", 4), (0x86, "zp", 4), (0xC9, "imm", 4),
    (0xE8, None, 3), (0xCA, None, 3), (0x29, "imm", 3), (0xA0, "imm", 3),
    (0x84, "zp", 3), (0x4A, None, 2),
]


def brute_force_matches(buf: bytes) -> List[Tuple[int, Dict[str, int]]]:
    """Every offset where the template matches, tried one offset at a time."""
    found = []
    for offset in range(len(buf) - SIG_LEN + 1):
        if buf[offset] != ANCHOR:
            continue
        if any(buf[offset + i] != b for i, b in _FIXED):
            continue
        bindings = {}
        for name, positions in _SLOT_POSITIONS.items():
            values = {buf[offset + i] for i in positions}
            if len(values) != 1:
                break
            bindings[name] = values.pop()
        else:
            found.append((offset, bindings))
    return found


def instantiate(bindings: Dict[str, int]) -> bytes:
    return bytes(bindings[e] if isinstance(e, str) else e for e in SIGNATURE)


def _bindings(rng: random.Random) -> Dict[str, int]:
    return dict(zip(SLOTS, rng.sample(range(0x80, 0x100), len(SLOTS))))


def _near_miss(rng: random.Random) -> bytes:
    out = bytearray(instantiate(_bindings(rng)))
    index = rng.choice(_DEEP_FIXED + _LATE_REPEATS)
    out[index] = (out[index] + rng.randrange(1, 256)) & 0xFF
    return bytes(out)


def _code(rng: random.Random, size: int) -> bytearray:
    weights = [c[2] for c in _CODE]
    out = bytearray()
    while len(out) < size:
        for opcode, kind, _w in rng.choices(_CODE, weights, k=4096):
            out.append(opcode)
            if kind == "zp":
                out.append(rng.randrange(0x80, 0x100))
            elif kind in ("imm", "rel"):
                out.append(rng.randrange(0x100))
            elif kind == "abs":
                out.append(rng.randrange(0x100))
                out.append(rng.randrange(0xF0, 0x100))
    del out[size:]
    return out


@dataclass
class Half:
    """One half of the corpus and what a correct scan of it reports."""

    directory: str
    files: int = 0
    total_bytes: int = 0
    anchor_bytes: int = 0
    checksums: Dict[str, str] = field(default_factory=dict)  # relative path -> md5
    planted: Set[Tuple[str, int, Tuple[Tuple[str, int], ...]]] = field(default_factory=set)

    def add(self, rel: str, data: bytes) -> None:
        with open(os.path.join(self.directory, rel), "wb") as fh:
            fh.write(data)
        self.files += 1
        self.total_bytes += len(data)
        self.anchor_bytes += data.count(ANCHOR)
        self.checksums[rel] = hashlib.md5(data).hexdigest()

    def plant(self, rel: str, buf: bytearray, offset: int, bindings: Dict[str, int]) -> None:
        buf[offset : offset + SIG_LEN] = instantiate(bindings)
        self.planted.add((rel, offset, tuple(sorted(bindings.items()))))

    @property
    def anchors_per_kib(self) -> float:
        return self.anchor_bytes / (self.total_bytes / KIB)


def _slots(rng: random.Random, size: int, count: int, stride: int, exclude=None) -> List[int]:
    """``count`` non-overlapping offsets for planted blocks, on a ``stride`` grid."""
    grid = [o for o in range(0, size - SIG_LEN, stride)]
    if exclude is not None:
        lo, hi = exclude
        grid = [o for o in grid if o + SIG_LEN <= lo or o >= hi]
    return sorted(rng.sample(grid, count))


def build_sparse(root: str, seed: int) -> Half:
    rng = random.Random(f"sparse:{seed}")
    half = Half(os.path.join(root, "sparse"))
    os.makedirs(half.directory)
    for i in range(SPARSE_FILES):
        rel = f"rom{i:03d}.bin"
        buf = bytearray(rng.randbytes(SPARSE_SIZES_KIB[i % len(SPARSE_SIZES_KIB)] * KIB))
        if i % SPARSE_HIT_EVERY == 0:
            half.plant(rel, buf, rng.randrange(len(buf) - SIG_LEN + 1), _bindings(rng))
        half.add(rel, bytes(buf))
    # The large image is written a MiB at a time so the generator itself
    # never holds it whole; peak memory then reflects the scanner.
    rel = "large.bin"
    md5 = hashlib.md5()
    hit_chunks = sorted(rng.sample(range(LARGE_MIB), LARGE_HITS))
    with open(os.path.join(half.directory, rel), "wb") as fh:
        for chunk in range(LARGE_MIB):
            buf = bytearray(rng.randbytes(MIB))
            if chunk in hit_chunks:
                offset = rng.randrange(MIB - SIG_LEN + 1)
                bindings = _bindings(rng)
                buf[offset : offset + SIG_LEN] = instantiate(bindings)
                half.planted.add((rel, chunk * MIB + offset, tuple(sorted(bindings.items()))))
            fh.write(buf)
            md5.update(buf)
            half.anchor_bytes += buf.count(ANCHOR)
    half.files += 1
    half.total_bytes += LARGE_MIB * MIB
    half.checksums[rel] = md5.hexdigest()
    return half


def build_dense(root: str, seed: int) -> Half:
    rng = random.Random(f"dense:{seed}")
    half = Half(os.path.join(root, "dense"))
    os.makedirs(half.directory)
    size = DENSE_FILE_KIB * KIB
    for i in range(DENSE_FILES):
        rel = f"code{i}.bin"
        buf = _code(rng, size)
        fill = None
        if i == 0:
            start = rng.randrange(size - FILL_KIB * KIB)
            fill = (start, start + FILL_KIB * KIB)
            buf[start : fill[1]] = bytes([ANCHOR]) * (FILL_KIB * KIB)
        offsets = _slots(rng, size, DENSE_HITS_PER_FILE + DENSE_NEAR_MISSES_PER_FILE, 64, fill)
        rng.shuffle(offsets)
        for offset in offsets[:DENSE_HITS_PER_FILE]:
            half.plant(rel, buf, offset, _bindings(rng))
        for offset in offsets[DENSE_HITS_PER_FILE:]:
            buf[offset : offset + SIG_LEN] = _near_miss(rng)
        data = bytes(buf)
        found = {(rel, o, tuple(sorted(b.items()))) for o, b in brute_force_matches(data)}
        expected = {p for p in half.planted if p[0] == rel}
        if found != expected:
            raise RuntimeError(
                f"dense corpus {rel}: brute-force matches {sorted(found - expected)} "
                f"are not planted, planted {sorted(expected - found)} do not match"
            )
        half.add(rel, data)
    return half
