"""The brute-force signature matcher, kept as the reference for the scanner.

``entombed.romscan.scan_bytes`` finds candidates through the signature's
longest fixed run and verifies each with one compiled pattern;
:func:`brute_force_scan` tries the template at every offset, element by
element, so the two can only agree by computing the same thing.
"""

from entombed.romscan import SignatureTemplate


def brute_force_scan(buf: bytes, sig: SignatureTemplate):
    """Reference matcher: try every offset, with no ``find`` and no anchor.

    A fixed first element is tested before anything else at each offset,
    as the element loop would test it first, so most offsets stop there.
    """
    first = sig.elements[0]
    first_is_fixed = isinstance(first, int)
    hits = []
    for offset in range(len(buf) - len(sig.elements) + 1):
        if first_is_fixed and buf[offset] != first:
            continue
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
