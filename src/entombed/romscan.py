"""Wildcard byte signatures and corpus scanning for ROM images.

The PRNG routine's opcode sequence is distinctive, but each game that
reused the code kept its four state cells at different zero-page
addresses. A signature therefore mixes fixed bytes with named wildcard
slots; every position sharing a slot name must match the same byte, which
pins down each game's cell assignment as a side effect of matching.

Scanning is an exact byte-level sliding window over the raw image (no
instruction-flow analysis). Files are identified by MD5 so results can be
tied to a specific dump without distributing it.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Tuple, Union

from .cpu import assemble, prng_routine

Element = Union[int, str]


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
            if isinstance(el, int):
                if not 0 <= el <= 0xFF:
                    raise ValueError(f"fixed byte out of range: {el!r}")
                fixed += 1
            elif isinstance(el, str):
                if not el:
                    raise ValueError("slot name must be non-empty")
            else:
                raise ValueError(f"element must be int or str, got {el!r}")
        if fixed == 0:
            raise ValueError("signature needs at least one fixed byte")

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def plan(self):
        """Anchor index and bytes (the first longest fixed run), verifier, slot first indices."""
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
        pattern = re.compile(b"".join(parts), re.DOTALL)
        return start, bytes(self.elements[start : start + length]), pattern, tuple(firsts.items())

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


def prng_signature(include_rts: bool = True) -> SignatureTemplate:
    """The PRNG routine as a signature with W/X/Y/Z cell slots.

    37 bytes with the terminating RTS (14 of them wildcards), 36 without.
    RTS is included by default: it is part of the routine and sharpens
    the pattern.
    """
    elements = assemble(prng_routine("W", "X", "Y", "Z"))
    if not include_rts:
        elements = elements[:-1]
    return SignatureTemplate(elements)


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

    Overlapping matches are all reported. Candidate offsets come from
    ``bytes.find`` on the signature's longest run of fixed bytes (``a9 00
    65`` in the PRNG signature), not on its first byte: ``0xA5`` (LDA zp)
    is one of the most common bytes in 6502 code. Each candidate is
    verified with a pattern compiled once per template; the result is
    identical to a brute-force match of the template at every offset, the
    reference the tests check it against.
    """
    hits: List[ScanHit] = []
    anchor_index, anchor, pattern, firsts = sig.plan
    pos = buf.find(anchor, anchor_index)
    while pos != -1:
        offset = pos - anchor_index
        if pattern.match(buf, offset):
            bindings = {name: buf[offset + i] for name, i in firsts}
            hits.append(ScanHit(source=source, offset=offset, bindings=bindings))
        pos = buf.find(anchor, pos + 1)
    return hits


def md5_of(buf: bytes) -> str:
    """Lowercase hex MD5 digest of a byte buffer."""
    return hashlib.md5(buf).hexdigest()


@dataclass
class CorpusReport:
    """Outcome of scanning a set of files for one signature."""

    files_scanned: int
    hits: List[ScanHit]
    checksums: Dict[str, str]
    errors: Dict[str, str]


def scan_corpus(paths: Iterable[str], sig: SignatureTemplate) -> CorpusReport:
    """Scan each file, recording hits, MD5s, and per-file read errors.

    Unreadable files are reported in ``errors`` and do not abort the scan;
    paths that exist but are not regular files (a FIFO would block) are
    reported without being opened.
    Hits come back ordered by (path, offset) regardless of input order.
    """
    hits: List[ScanHit] = []
    checksums: Dict[str, str] = {}
    errors: Dict[str, str] = {}
    scanned = 0
    for path in paths:
        if os.path.exists(path) and not os.path.isfile(path):
            errors[str(path)] = "not a regular file"
            continue
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            errors[str(path)] = str(exc)
            continue
        scanned += 1
        checksums[str(path)] = md5_of(data)
        hits.extend(scan_bytes(data, sig, source=str(path)))
    hits.sort(key=lambda h: (h.source, h.offset))
    return CorpusReport(files_scanned=scanned, hits=hits, checksums=checksums, errors=errors)
