"""The per-seed orbit walk, kept as the reference for the survey.

``entombed.prng.canonical_seed_survey`` reads every canonical seed's
orbit off one decomposition of the whole state space; :func:`orbit_survey`
walks one seed at a time, so the two can only agree by computing the same
thing.
"""

from typing import Callable

from entombed.prng import OrbitStats, _check_word, buggy_step


def orbit_survey(seed: int, steps: int, step: Callable[[int], int] = buggy_step) -> OrbitStats:
    """Walk ``steps`` applications of ``step`` from ``seed`` and size the orbit.

    The walk stops early at the first revisited value: the map is
    deterministic, so no new values can appear after that and whether the
    seed recurs is already decided. The reported numbers are exactly those
    of the full walk.
    """
    _check_word(seed, "seed")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps!r}")
    seen = {seed}
    value = seed
    for i in range(1, steps + 1):
        value = step(value)
        if value in seen:
            return OrbitStats(seed=seed, distinct_values=i, returns_to_seed=value == seed)
        seen.add(value)
    return OrbitStats(seed=seed, distinct_values=len(seen), returns_to_seed=False)
