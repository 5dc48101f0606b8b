"""Wildcard byte signatures and corpus scanning for ROM images.

The PRNG routine's opcode sequence is distinctive, but each game that
reused the code kept its four state cells at different zero-page
addresses. A signature therefore mixes fixed bytes with named wildcard
slots; every position sharing a slot name must match the same byte, which
pins down each game's cell assignment as a side effect of matching.

Scanning is an exact byte-level sliding window over the raw image (no
instruction-flow analysis), read in fixed-size chunks so memory does not
grow with the file. Each file is opened and read once: every chunk is
scanned and then hashed, and files are identified by MD5 so results can
be tied to a specific dump without distributing it.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import BinaryIO, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Tuple, Union

from .cpu import _check_int, assemble

Element = Union[int, str]

_CHUNK = 1 << 16  # bytes per read when hashing and scanning a file


@dataclass(frozen=True)
class SignatureTemplate:
    """An ordered mix of fixed bytes and named wildcard slots, copied into a tuple."""

    elements: Tuple[Element, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        if not self.elements:
            raise ValueError("signature must not be empty")
        fixed = 0
        for el in self.elements:
            if isinstance(el, str):
                if not el:
                    raise ValueError("slot name must be non-empty")
            else:
                _check_int(el, "fixed byte", 0xFF)
                fixed += 1
        if fixed == 0:
            raise ValueError("signature needs at least one fixed byte")

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def plan(self):
        """Anchor index and literal pattern (the first longest fixed run), verifier, slot first indices."""
        start = length = run = 0
        parts: List[bytes] = []
        firsts: Dict[str, int] = {}
        for i, el in enumerate(self.elements):
            run = run + 1 if isinstance(el, int) else 0
            if run > length:
                start, length = i - run + 1, run
            if isinstance(el, int):
                parts.append(re.escape(bytes((el,))))
            elif el in firsts:
                parts.append(b"(?P=g%d)" % firsts[el])
            else:  # generated group names: a slot name need not be a valid one
                parts.append(b"(?P<g%d>.)" % i)
                firsts[el] = i
        anchor = re.compile(b"".join(parts[start : start + length]))
        pattern = re.compile(b"".join(parts), re.DOTALL)
        return start, anchor, pattern, tuple(firsts.items())

    @classmethod
    def from_text(cls, text: str) -> "SignatureTemplate":
        """Parse whitespace-separated ``hh`` (fixed byte) and ``?name`` (slot) tokens."""
        elements: List[Element] = []
        for token in text.split():
            if token.startswith("?"):
                if len(token) < 2:
                    raise ValueError("slot token must be ?name")
                elements.append(token[1:])
            # int(token, 16) alone would also take "+1", "-0" and non-ASCII digits
            elif len(token) == 2 and all(c in "0123456789abcdefABCDEF" for c in token):
                elements.append(int(token, 16))
            else:
                raise ValueError(f"token must be two ASCII hex digits or ?name: {token!r}")
        return cls(tuple(elements))


def prng_signature() -> SignatureTemplate:
    """The PRNG routine as a 37-byte signature, RTS included; 14 bytes are W/X/Y/Z cell slots."""
    return SignatureTemplate(assemble())


@dataclass(frozen=True)
class ScanHit:
    """One match location and the byte each slot was bound to, kept as a read-only copy."""

    source: str
    offset: int
    bindings: Mapping[str, int] = field(hash=False)  # equal hits share source and offset

    def __post_init__(self) -> None:
        object.__setattr__(self, "bindings", MappingProxyType(dict(self.bindings)))

    def bindings_distinct(self) -> bool:
        """Whether all slots bound to pairwise different bytes."""
        values = list(self.bindings.values())
        return len(set(values)) == len(values)

    def bindings_consecutive(self) -> bool:
        """Whether the bound cells sit at consecutive addresses (in some order)."""
        values = sorted(self.bindings.values())
        return len(values) > 0 and all(
            values[i + 1] == values[i] + 1 for i in range(len(values) - 1)
        )


def scan_bytes(buf: bytes, sig: SignatureTemplate, source: str = "<bytes>") -> List[ScanHit]:
    """Every offset where the signature matches, in ascending order.

    Overlapping matches are all reported. Candidate offsets come from a
    compiled literal pattern of the signature's longest run of fixed bytes
    (``a9 00 65`` in the PRNG signature), not of its first byte: ``0xA5``
    (LDA zp) is one of the most common bytes in 6502 code. ``re`` searches
    a literal with a tight first-byte loop, which for a needle this short
    beats the skip loop of ``bytes.find``. Each candidate is verified with
    a pattern compiled once per template; the result is identical to a
    brute-force match of the template at every offset, the reference the
    tests check it against.
    """
    hits: List[ScanHit] = []
    anchor_index, anchor, pattern, firsts = sig.plan
    found = anchor.search(buf, anchor_index)
    while found:
        pos = found.start()
        offset = pos - anchor_index
        if pattern.match(buf, offset):
            bindings = {name: buf[offset + i] for name, i in firsts}
            hits.append(ScanHit(source=source, offset=offset, bindings=bindings))
        found = anchor.search(buf, pos + 1)
    return hits


def md5_of(chunks: Iterable[bytes]) -> str:
    """Lowercase hex MD5 digest of the concatenated ``chunks``."""
    digest = hashlib.md5()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _scanned_chunks(fh: BinaryIO, sig: SignatureTemplate, source: str, hits: List[ScanHit]) -> Iterator[bytes]:
    """Each chunk of an open binary file, yielded once its hits of ``sig`` are added to ``hits``.

    Each chunk is scanned as a window that starts with the last
    ``len(sig) - 1`` bytes read before it. A match found in one window ends
    inside it, so it starts before the next window does: every match is
    found exactly once, and memory stays one chunk plus that overlap.
    """
    keep = len(sig) - 1
    tail = b""
    base = 0  # file offset of the window's first byte
    for chunk in iter(lambda: fh.read(_CHUNK), b""):
        window = tail + chunk
        hits.extend(ScanHit(source, base + h.offset, h.bindings) for h in scan_bytes(window, sig, source))
        tail = window[max(len(window) - keep, 0) :]  # not window[-keep:], which is all of it for keep 0
        base += len(window) - len(tail)
        yield chunk


class CorpusReport(NamedTuple):
    """Outcome of scanning a set of files for one signature."""

    files_scanned: int
    hits: List[ScanHit]
    checksums: Dict[str, str]
    errors: Dict[str, str]


def scan_corpus(paths: Iterable[str], sig: SignatureTemplate) -> CorpusReport:
    """Scan each file, recording hits, MD5s, and per-file read errors.

    Each regular file is opened once and read once, one chunk at a time:
    :func:`md5_of` hashes each chunk after the chunk's window is scanned.
    Memory stays one chunk plus ``len(sig) - 1`` bytes, whatever the
    file's size. A file that cannot be opened or read to its end is
    reported in ``errors`` with no hits or checksum, and does not abort
    the scan; paths that exist but are not regular files (a FIFO would
    block) are reported without being opened. Any other exception
    propagates at once, and no later file is opened.
    Hits come back ordered by (path, offset) regardless of input order.
    """
    hits: List[ScanHit] = []
    checksums: Dict[str, str] = {}
    errors: Dict[str, str] = {}
    scanned = 0
    for path in paths:
        if not os.path.isfile(path) and os.path.exists(path):  # one stat for a regular file
            errors[str(path)] = "not a regular file"
            continue
        file_hits: List[ScanHit] = []
        try:
            with open(path, "rb", buffering=0) as fh:  # each read asks for a whole chunk
                checksums[str(path)] = md5_of(_scanned_chunks(fh, sig, str(path), file_hits))
        except OSError as exc:
            errors[str(path)] = str(exc)
            continue
        scanned += 1
        hits.extend(file_hits)
    hits.sort(key=lambda h: (h.source, h.offset))
    return CorpusReport(files_scanned=scanned, hits=hits, checksums=checksums, errors=errors)
