"""Algorithms recovered from Entombed (Atari 2600, 1982), rebuilt bit for bit.

The package covers three things the game is known for:

* its pseudo-random number generator, which was meant to be the LCG
  ``next = (5 * state + 1) mod 65536`` but ships with a carry-propagation
  defect (:mod:`entombed.prng`), plus the original 6502 routine as data,
  compiled to straight-line Python and run as ground truth
  (:mod:`entombed.cpu`);
* the table-driven, row-streaming maze generator and its two
  pattern-breaking postprocessing rules (:mod:`entombed.mazegen`), with
  playfield expansion, solvability analysis and survey statistics
  (:mod:`entombed.maze_analysis`);
* a wildcard byte-signature scanner that finds the PRNG routine inside
  binary ROM images regardless of which zero-page cells a game assigned
  to its state variables (:mod:`entombed.romscan`).

Everything is deterministic and dependency-free; the command line lives in
:mod:`entombed.cli`.
"""

__version__ = "0.1.0"

from .prng import buggy_step, canonical_seed, correct_step
from .mazegen import ModelBitSource, default_table, generate_maze
from .romscan import prng_signature, scan_bytes, scan_corpus

__all__ = [
    "__version__",
    "buggy_step",
    "correct_step",
    "canonical_seed",
    "default_table",
    "generate_maze",
    "ModelBitSource",
    "prng_signature",
    "scan_bytes",
    "scan_corpus",
]
