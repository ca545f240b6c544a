"""No module of the package imports a private name, helper or constant,
from another, and the oracles in conftest.py import no private helper from
netinfer, so an oracle never runs the code it checks. The oracles may read
private constants, upper-case names such as ``_TIE_EPS``."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "netinfer").glob("*.py"))


def _private_names(source, module):
    """(line, name) of every private name a ``from ... import`` takes from
    netinfer. With ``module``, as for the package's own modules, a relative
    import counts too and so does a private constant; without it, an
    upper-case constant is allowed."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        from_netinfer = (node.module or "").split(".")[0] == "netinfer"
        if not (from_netinfer or module and node.level > 0):
            continue
        for alias in node.names:
            name = alias.name
            dunder = name.startswith("__") and name.endswith("__")
            if name.startswith("_") and not dunder and (module or not name.isupper()):
                found.append((node.lineno, name))
    return found


def test_guard_catches_a_private_import():
    oracle = "from netinfer.search import _TIE_EPS, _apply, _candidate_moves\n"
    assert _private_names(oracle, module=False) == [
        (1, "_apply"), (1, "_candidate_moves")]
    module = "from . import __version__\nfrom .graph import Dag, _reach\n"
    assert _private_names(module, module=True) == [(2, "_reach")]
    constant = "from .timeseries import _BINCOUNT_CAP, EmbeddedView\n"
    assert _private_names(constant, module=True) == [(1, "_BINCOUNT_CAP")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_a_private_helper(path):
    assert _private_names(path.read_text(encoding="utf-8"), module=True) == []


def test_oracles_import_no_private_helper():
    conftest = pathlib.Path(__file__).with_name("conftest.py")
    assert _private_names(conftest.read_text(encoding="utf-8"),
                          module=False) == []
