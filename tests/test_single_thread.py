"""netinfer runs on the calling thread: no module imports a threading
library, and a greedy ``tee`` search, whose surrogate draws are most of
its work, starts no thread."""

import ast
import pathlib
import threading

import pytest

import netinfer as ni

from conftest import simulate_chain

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "netinfer").glob("*.py"))
THREADING = ("threading", "concurrent", "_thread")


def _thread_imports(source):
    """(line, module) of every import of a threading library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] in THREADING]
    return found


def test_guard_catches_a_thread_import():
    source = ("import os, threading\n"
              "from concurrent.futures import ThreadPoolExecutor\n"
              "from . import _threads\n")
    assert _thread_imports(source) == [(1, "threading"),
                                       (2, "concurrent.futures")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_a_threading_library(path):
    assert _thread_imports(path.read_text(encoding="utf-8")) == []


def _greedy_tee(estimator):
    obs = simulate_chain(3, seed=31, n=1000).observations
    if estimator == "discrete":
        obs, kind = ni.discretize(obs, 4), ni.EstimatorKind.discrete_plugin()
    else:
        kind = ni.EstimatorKind.box_kernel(0.1)
    view = ni.delay_embed(obs, ni.EmbeddingSpec.uniform(3, 1, 2))
    scorer = ni.Scorer(view, "tee", kind,
                       surrogates=ni.SurrogateConfig(19, seed=0))
    return ni.greedy_hill_climb(scorer, ni.SearchConfig(seed=0, restarts=1))


@pytest.mark.parametrize("estimator", ["discrete", "box-kernel"])
def test_greedy_tee_starts_no_thread(monkeypatch, estimator):
    free = _greedy_tee(estimator)
    assert free.trace  # the climb adds edges, so populations are drawn

    def refuse(self):
        raise AssertionError(f"thread {self.name} started")
    monkeypatch.setattr(threading.Thread, "start", refuse)
    guarded = _greedy_tee(estimator)
    assert guarded.best.parents == free.best.parents
    assert guarded.best_report.to_dict() == free.best_report.to_dict()
    assert guarded.trace == free.trace
    assert guarded.visited == free.visited
