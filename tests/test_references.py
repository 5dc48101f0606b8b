"""The reference modules must stay independent of the fast paths they check.

A reference that called the code under test would agree with it by
construction. Each ``reference_*.py`` is parsed, not imported, and every
name, attribute and imported name in it is compared with the fast paths
it is the reference for.
"""

import ast
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent

FORBIDDEN = {
    "reference_cpu": {
        "_compile", "_TEMPLATES", "_INC_SETS_CARRY", "oracle_prng_step", "prng_lanes",
    },
    "reference_prng": {"rho_decomposition", "canonical_seed_survey", "prng_lanes"},
    "reference_mazegen": {"generate_maze", "nibbles", "_nibble"},
    "reference_romscan": {"scan_bytes", "plan"},
}


def _tree(module):
    return ast.parse((HERE / f"{module}.py").read_text(), filename=f"{module}.py")


def _names(tree):
    """Every identifier the module reads, writes, imports or looks up."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            if node.asname:
                names.add(node.asname)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def _imported_modules(tree):
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
    return modules


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_reference_names_none_of_its_fast_paths(module):
    assert _names(_tree(module)) & FORBIDDEN[module] == set()


def test_every_forbidden_name_is_defined_in_the_package():
    # a name the package no longer has can never catch a reference calling it
    package = set()
    for path in sorted((HERE.parent / "src" / "entombed").glob("*.py")):
        package |= _names(ast.parse(path.read_text(), filename=path.name))
    for module, names in sorted(FORBIDDEN.items()):
        assert names - package == set(), module


def test_reference_maze_imports_nothing_from_the_package():
    modules = _imported_modules(_tree("reference_maze"))
    assert not any(m == "entombed" or m.startswith("entombed.") for m in modules), modules


def test_the_scan_sees_what_it_looks_for():
    tree = ast.parse(
        "from entombed.cpu import _compile\n"
        "import entombed.prng as p\n"
        "p.canonical_seed_survey(step)\n"
    )
    assert {"_compile", "canonical_seed_survey", "step"} <= _names(tree)
    assert "entombed.prng" in _imported_modules(tree)
