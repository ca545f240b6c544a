import json
import os
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netinfer as ni
from netinfer.errors import DataFormatError, ValidationError
from netinfer.graph import creates_cycle, random_dag

from conftest import (
    labelled_dag_count,
    reference_enumerate_dags,
    reference_kahn_order,
    reference_reaches,
    reference_shd,
)


def test_empty_graph_is_acyclic():
    assert len(reference_kahn_order(ni.Dag.empty(3))) == 3


def test_two_cycle_is_not_acyclic():
    with pytest.raises(ValidationError, match="acyclic"):
        ni.Dag(2, ((1,), (0,)))


def test_chain_is_acyclic():
    g = ni.Dag.from_edges(3, [(0, 1), (1, 2)])
    assert len(reference_kahn_order(g)) == 3


def test_self_loop_rejected_at_construction():
    with pytest.raises(ValidationError, match="self-loop"):
        ni.Dag(2, ((0,), ()))


def test_duplicate_parent_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        ni.Dag(3, ((1, 1), (), ()))


def test_edge_editing():
    g = ni.Dag.from_edges(3, [(0, 1), (1, 2)])
    assert g.edges() == ((0, 1), (1, 2))
    assert creates_cycle(g, 2, 0)
    assert not creates_cycle(g, 0, 2)


@pytest.mark.parametrize("m,count", [(1, 1), (2, 3), (3, 25)])
def test_enumerate_dag_counts_small(m, count):
    graphs = list(ni.enumerate_dags(m))
    assert len(graphs) == count
    assert len({g.parents for g in graphs}) == count  # no duplicates
    assert all(len(reference_kahn_order(g)) == m for g in graphs)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_enumerate_matches_recurrence(m):
    assert sum(1 for _ in ni.enumerate_dags(m)) == labelled_dag_count(m)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_enumerate_matches_reference_order(m):
    graphs = list(ni.enumerate_dags(m))
    assert [g.parents for g in graphs] == [
        g.parents for g in reference_enumerate_dags(m)]
    for g in graphs:
        validated = ni.Dag(m, g.parents)
        assert g == validated and hash(g) == hash(validated)
        if m <= 4:
            # an enumerated graph walks its reach on the first ask, which
            # leaves its equality and hash as they were
            for src in range(m):
                for dst in range(m):
                    assert creates_cycle(g, src, dst) == (
                        src == dst or reference_reaches(g.parents, dst, src))
            assert g == validated and hash(g) == hash(validated)


def test_cycle_checks_match_reference_walks():
    rng = np.random.default_rng(6)
    cyclic = 0
    for _ in range(200):
        m = int(rng.integers(1, 7))
        parents = tuple(tuple(int(u) for u in range(m) if u != v and rng.random() < 0.3)
                        for v in range(m))
        # the oracle reads parent tuples only, so it takes a stand-in object
        kahn = reference_kahn_order(SimpleNamespace(m=m, parents=parents))
        if len(kahn) < m:
            cyclic += 1
            with pytest.raises(ValidationError, match="acyclic"):
                ni.Dag(m, parents)
            continue
        g = ni.Dag(m, parents)
        for src in range(m):
            for dst in range(m):
                assert creates_cycle(g, src, dst) == (
                    src == dst or reference_reaches(g.parents, dst, src))
    assert cyclic > 20


def test_enumerate_rejects_large_m():
    with pytest.raises(ValidationError, match="at most 6"):
        next(ni.enumerate_dags(7))


def test_random_dag_respects_cap_and_acyclicity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        g = random_dag(5, rng, max_parents=2)
        assert len(reference_kahn_order(g)) == 5
        assert all(len(ps) <= 2 for ps in g.parents)


def test_random_dag_parents_are_python_ints():
    # a restart's start graph reaches edges() and the search result
    for seed in range(20):
        g = random_dag(5, np.random.default_rng(seed), max_parents=2)
        assert all(type(p) is int for ps in g.parents for p in ps)
        json.dumps(g.parents)


# ---------------------------------------------------------------------------
# compare_graphs

def test_compare_identical():
    g = ni.Dag.from_edges(3, [(0, 1), (1, 2)])
    metrics = ni.compare_graphs(g, g)
    assert metrics == {"precision": 1.0, "recall": 1.0, "f1": 1.0, "shd": 0}


def test_compare_empty_vs_chain():
    truth = ni.Dag.from_edges(3, [(0, 1), (1, 2)])
    metrics = ni.compare_graphs(ni.Dag.empty(3), truth)
    assert metrics["recall"] == 0.0
    assert metrics["shd"] == 2


def test_compare_single_reversal():
    truth = ni.Dag.from_edges(2, [(0, 1)])
    inferred = ni.Dag.from_edges(2, [(1, 0)])
    metrics = ni.compare_graphs(inferred, truth)
    assert metrics["shd"] == 1
    assert metrics["precision"] == 0.0


def test_compare_mixed():
    truth = ni.Dag.from_edges(3, [(0, 1), (1, 2)])
    inferred = ni.Dag.from_edges(3, [(0, 1), (0, 2)])
    metrics = ni.compare_graphs(inferred, truth)
    assert metrics["precision"] == 0.5
    assert metrics["recall"] == 0.5
    assert metrics["shd"] == 2  # one missing, one spurious


def test_compare_graphs_matches_reference_shd():
    rng = np.random.default_rng(18)
    reversed_pairs = 0
    for m in range(1, 8):
        for _ in range(60):
            prob = float(rng.choice([0.2, 0.5, 0.9]))
            inferred = random_dag(m, rng, edge_prob=prob)
            truth = random_dag(m, rng, edge_prob=prob)
            reversed_pairs += any(truth.has_edge(b, a) for a, b in inferred.edges())
            assert ni.compare_graphs(inferred, truth)["shd"] == \
                reference_shd(inferred, truth)
    assert reversed_pairs > 100


def test_compare_vertex_count_mismatch():
    with pytest.raises(ValidationError):
        ni.compare_graphs(ni.Dag.empty(2), ni.Dag.empty(3))


# ---------------------------------------------------------------------------
# DOT round trip

def test_dot_round_trip():
    g = ni.Dag.from_edges(3, [(0, 1), (1, 2)])
    names = ["alpha", "beta", "gamma"]
    text = ni.write_dot(g, names)
    back, back_names = ni.dag_from_dot(text)
    assert back_names == names
    assert back.edges() == g.edges()


def test_dot_keeps_isolated_vertices():
    g = ni.Dag.empty(2)
    text = ni.write_dot(g, ["a", "b"])
    back, names = ni.dag_from_dot(text)
    assert names == ["a", "b"]
    assert back.n_edges == 0


def test_dot_name_remap_mismatch():
    text = ni.write_dot(ni.Dag.from_edges(2, [(0, 1)]), ["a", "b"])
    with pytest.raises(ValidationError, match="names do not match"):
        ni.dag_from_dot(text, names=["a", "c"])
    with pytest.raises(ValidationError, match="unique"):
        ni.dag_from_dot(text, names=["a", "a", "b"])


def test_dot_rejects_garbage():
    with pytest.raises(DataFormatError, match="line 2"):
        ni.parse_dot('digraph G {\nnot a line\n}')


@pytest.mark.parametrize("name", ['a"b', "a//b", "a\nb", "a\rb", "a\u2028b", "",
                                  " a", "a ", "\ta", "a\u00a0", "a\ud800"])
def test_dot_unsafe_names_rejected(name):
    with pytest.raises(ValidationError, match="cannot be written to DOT"):
        ni.TimeSeriesSet(np.zeros((2, 3)), (name, "ok"))


@pytest.mark.parametrize("names", [['a"b', "c"], ["a", "a"], ["a", 1], ["a"]])
def test_write_dot_writes_only_what_parse_dot_reads_back(names):
    with pytest.raises(ValidationError):
        ni.write_dot(ni.Dag.empty(2), names)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.text(st.one_of(st.characters(), st.sampled_from('"/\n\r\t ,;->{}')),
                        min_size=1, max_size=6),
                min_size=1, max_size=4, unique=True))
def test_dot_round_trips_accepted_names(names):
    """Every accepted name reads back unchanged from DOT and from a CSV
    header."""
    try:
        ts = ni.TimeSeriesSet(np.zeros((len(names), 2)), tuple(names))
    except ValidationError:
        return
    text = ni.write_dot(ni.Dag.empty(len(names)), names)
    assert ni.parse_dot(text) == (list(names), [])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        ni.write_csv(ts, path)
        assert ni.load_csv(path).names == tuple(names)


def test_integral_indices_of_any_spelling_are_stored_as_ints():
    g = ni.Dag(3, ((), (np.int64(2), 0.0), ()))
    assert g.parents == ((), (0, 2), ())
    assert all(type(p) is int for p in g.parents[1])
    assert g == ni.Dag.from_edges(3, [(0, 1), (2, 1)])
    assert g == ni.Dag.from_edges(3, [(0, 1.0), (2, np.int64(1))])


@pytest.mark.parametrize("edge", [(0, True), (0, 2), (0, -1), (0, 0.5)])
def test_from_edges_checks_each_head_by_the_parent_set_rule(edge):
    # a head is an index like any other: never a bool, never out of range
    with pytest.raises(ValidationError):
        ni.Dag.from_edges(2, [edge])

