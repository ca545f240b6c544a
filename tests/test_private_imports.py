"""No module of the package imports another module's private helper, and
the oracles in conftest.py import none from netinfer, so an oracle never
runs the code it checks. Private constants, upper-case names such as
``_TIE_EPS``, are allowed."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "netinfer").glob("*.py"))


def _private_helpers(source, relative):
    """(line, name) of every private function or class a ``from ... import``
    takes from netinfer; with ``relative`` a relative import counts too."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        from_netinfer = (node.module or "").split(".")[0] == "netinfer"
        if not (from_netinfer or relative and node.level > 0):
            continue
        for alias in node.names:
            name = alias.name
            dunder = name.startswith("__") and name.endswith("__")
            if name.startswith("_") and not dunder and not name.isupper():
                found.append((node.lineno, name))
    return found


def test_guard_catches_a_private_import():
    oracle = "from netinfer.search import _TIE_EPS, _apply, _candidate_moves\n"
    assert _private_helpers(oracle, relative=False) == [
        (1, "_apply"), (1, "_candidate_moves")]
    module = "from . import __version__\nfrom .graph import Dag, _reach\n"
    assert _private_helpers(module, relative=True) == [(2, "_reach")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_a_private_helper(path):
    assert _private_helpers(path.read_text(encoding="utf-8"), relative=True) == []


def test_oracles_import_no_private_helper():
    conftest = pathlib.Path(__file__).with_name("conftest.py")
    assert _private_helpers(conftest.read_text(encoding="utf-8"),
                            relative=False) == []
