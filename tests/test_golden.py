"""Byte-exact CLI output, frozen in ``tests/golden/``.

Each fixture is the stdout of one command, recorded before the
maze-analysis and interpreter refactors and never edited since. A change
that alters any of these bytes is a behaviour change, not a refactor.
"""

from pathlib import Path

import pytest

from entombed import cli, romscan

from reference_cpu import routine_bytes

GOLDEN = Path(__file__).with_name("golden")

CASES = {
    "maze_render_seed1.txt": ["maze-render", "--seed", "1"],
    "maze_render_seed1.json": ["maze-render", "--seed", "1", "--format", "json"],
    "maze_render_zeros.json": ["maze-render", "--source", "zeros", "--format", "json"],
    "stats_200_seed1.json": ["stats", "--mazes", "200", "--seed", "1"],
    "stats_5000_seed1.json": ["stats", "--mazes", "5000", "--seed", "1"],
    "prng_compare.json": ["prng", "--mode", "compare"],
    "prng_survey.json": ["prng", "--mode", "survey"],
    "prng_graph.json": ["prng", "--mode", "graph"],
    "prng_oracle_check.json": ["prng", "--mode", "oracle-check"],
    "scan_corpus.json": ["scan", "--dir", "corpus"],
}


def _fill(size: int, salt: int) -> bytearray:
    """Deterministic filler bytes: a fixed arithmetic formula, no RNG."""
    return bytearray((i * 151 + salt * 29 + (i >> 7)) & 0xFF for i in range(size))


def write_corpus(root: Path) -> None:
    """A small ROM corpus under ``root/corpus`` with planted signature hits."""
    sig = romscan.prng_signature()
    corpus = root / "corpus"
    (corpus / "sub").mkdir(parents=True)

    a = _fill(4096, 1)  # the game's own cells, where the game keeps the routine
    a[0x0CA5 : 0x0CA5 + len(sig)] = routine_bytes(W=0xDD, X=0xDE, Y=0xDF, Z=0xE0)
    (corpus / "a.bin").write_bytes(a)

    b = _fill(2048, 2)  # scattered cells at the start, one repeated cell at the very end
    b[0 : len(sig)] = routine_bytes(W=0x80, X=0x81, Y=0x90, Z=0x91)
    b[-len(sig) :] = routine_bytes(W=0x42, X=0x42, Y=0x43, Z=0x44)
    (corpus / "b.bin").write_bytes(b)

    (corpus / "empty.bin").write_bytes(b"")
    (corpus / "sub" / "c.bin").write_bytes(_fill(1024, 3))

    d = _fill(512, 4)  # a plant cut short by the end of the image: no hit
    tail = routine_bytes(W=0x10, X=0x11, Y=0x12, Z=0x13)[:-1]
    d[-len(tail) :] = tail
    (corpus / "sub" / "d.bin").write_bytes(d)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys, tmp_path, monkeypatch):
    write_corpus(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert cli.main(CASES[name]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


def test_every_fixture_has_a_case():
    assert sorted(CASES) == sorted(path.name for path in GOLDEN.iterdir())
