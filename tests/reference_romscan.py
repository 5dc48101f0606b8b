"""The brute-force signature matcher, kept as the reference for the scanner.

``entombed.romscan.scan_bytes`` finds candidates through the signature's
longest fixed run and verifies each with one compiled pattern;
:func:`brute_force_scan` tries the template at every offset, element by
element, so the two can only agree by computing the same thing.
"""

from entombed.romscan import SignatureTemplate


def brute_force_scan(buf: bytes, sig: SignatureTemplate):
    """Reference matcher: try every offset, no anchoring, no shortcuts."""
    hits = []
    for offset in range(len(buf) - len(sig.elements) + 1):
        bindings = {}
        ok = True
        for i, el in enumerate(sig.elements):
            b = buf[offset + i]
            if isinstance(el, int):
                if b != el:
                    ok = False
                    break
            elif el in bindings:
                if bindings[el] != b:
                    ok = False
                    break
            else:
                bindings[el] = b
        if ok:
            hits.append((offset, bindings))
    return hits
