from types import SimpleNamespace

import numpy as np
import pytest

import netinfer as ni
from netinfer import graph, scores, search, significance
from netinfer.errors import ValidationError
from netinfer.graph import random_dag
from netinfer.scores import LocalScore
from netinfer.search import (
    _TIE_EPS,
    MAX_RESTARTS,
    SearchConfig,
    _candidate_moves,
    _apply,
    exhaustive_search,
    greedy_hill_climb,
    move_bound,
    move_delta,
)

from conftest import (
    chain_dag,
    random_discrete_view,
    reference_climb,
    reference_exhaustive_search,
    reference_greedy,
    reference_kahn_order,
    reference_moves,
    simulate_chain,
)

DISCRETE = ni.EstimatorKind.discrete_plugin()


def _chain_view(m, seed, n):
    disc = ni.discretize(simulate_chain(m, seed=seed, n=n).observations, 4)
    return ni.delay_embed(disc, ni.EmbeddingSpec.uniform(m, 1, 2))


def _chain_scorer(score_kind="tea", seed=300, **kw):
    return ni.Scorer(_chain_view(3, seed, 4000), score_kind, DISCRETE, **kw)


def _periodic_view():
    # perfectly periodic data: every conditional entropy is exactly zero
    sym = np.tile([0, 1], 100)
    disc = ni.DiscretizedSeries(
        np.vstack([sym, sym, np.roll(sym, 1)]), (2, 2, 2))
    return ni.delay_embed(disc, ni.EmbeddingSpec.uniform(3, 1, 1))


def test_search_config_validation():
    with pytest.raises(ValidationError):
        SearchConfig(restarts=-1)
    assert SearchConfig(restarts=MAX_RESTARTS).restarts == MAX_RESTARTS
    with pytest.raises(ValidationError, match=f"restarts must be <= {MAX_RESTARTS}"):
        SearchConfig(restarts=MAX_RESTARTS + 1)
    assert SearchConfig().resolved_max_parents("te") == 3
    assert SearchConfig().resolved_max_parents("tee") is None
    assert SearchConfig(max_parents=None).resolved_max_parents("te") is None
    assert SearchConfig(max_parents=2).resolved_max_parents("tee") == 2


def test_exhaustive_recovers_chain():
    sc = _chain_scorer()
    result = exhaustive_search(sc)
    assert result.best.edges() == ((0, 1), (1, 2))
    assert result.visited == 25
    assert result.best_report.total == pytest.approx(
        sum(pv.local for pv in result.best_report.per_vertex), abs=1e-9)


def test_exhaustive_rejects_m_above_cap():
    view = random_discrete_view(7, 50, 2, seed=0)
    sc = ni.Scorer(view, "te", DISCRETE)
    with pytest.raises(ValidationError, match="greedy"):
        exhaustive_search(sc)


def test_exhaustive_tie_break_lexicographic():
    # all 25 DAGs tie at total 0 and the empty graph (smallest edge set) wins
    sc = ni.Scorer(_periodic_view(), "te", DISCRETE)
    result = exhaustive_search(sc)
    assert result.best.n_edges == 0


def test_greedy_on_zero_te_data_returns_empty():
    # periodic data: every transfer entropy is exactly zero, so the
    # penalized scores admit no positive move at all
    sym = np.tile([0, 1], 400)
    disc = ni.DiscretizedSeries(
        np.vstack([sym, np.roll(sym, 1), sym]), (2, 2, 2))
    view = ni.delay_embed(disc, ni.EmbeddingSpec.uniform(3, 1, 1))
    for kind, kw in (("tea", {"alpha": 0.95}),
                     ("tee", {"surrogates": ni.SurrogateConfig(19, seed=0)})):
        sc = ni.Scorer(view, kind, DISCRETE, **kw)
        result = greedy_hill_climb(sc, SearchConfig(seed=0))
        assert result.best.n_edges == 0
        assert result.trace == []


def test_greedy_recovers_chain():
    sc = _chain_scorer()
    result = greedy_hill_climb(sc, SearchConfig(seed=0, restarts=1))
    assert result.best.edges() == ((0, 1), (1, 2))


def test_raw_te_without_cap_returns_complete_dag():
    sc = _chain_scorer(score_kind="te")
    result = greedy_hill_climb(sc, SearchConfig(seed=0, max_parents=None))
    m = 3
    assert result.best.n_edges == m * (m - 1) // 2
    assert len(reference_kahn_order(result.best)) == m


def test_greedy_result_is_local_optimum():
    sc = _chain_scorer()
    cfg = SearchConfig(seed=0)
    result = greedy_hill_climb(sc, cfg)
    for move in _candidate_moves(result.best, cfg.resolved_max_parents("tea")):
        assert move_delta(sc, result.best, move) <= 0.0


def test_greedy_deterministic():
    sc1 = _chain_scorer()
    sc2 = _chain_scorer()
    r1 = greedy_hill_climb(sc1, SearchConfig(seed=9, restarts=3))
    r2 = greedy_hill_climb(sc2, SearchConfig(seed=9, restarts=3))
    assert r1.best.parents == r2.best.parents
    assert r1.trace == r2.trace
    assert r1.visited == r2.visited


def test_candidate_moves_respect_acyclicity_and_cap():
    g = chain_dag(3)
    moves = _candidate_moves(g, max_parents=1)
    labels = [label for label, _ in moves]
    assert "add 2->0" not in labels  # would close the cycle 0->1->2->0
    assert "add 0->2" not in labels  # vertex 2 already has its one parent
    # reversing 1->2 would give vertex 1 a second parent
    assert labels == ["delete 0->1", "delete 1->2", "reverse 0->1"]
    for move in moves:
        assert len(reference_kahn_order(_apply(g, move))) == 3


@pytest.mark.parametrize("max_parents", [None, 1, 2])
@pytest.mark.parametrize("m", [*range(1, 7), 10, 20, 30])
def test_candidate_moves_match_reference_moves(m, max_parents):
    # every legal move, in the climb's order, each with the graph the
    # validating constructor builds from its edges; fewer graphs at M >= 10,
    # where the oracle's per-move graphs grow costly
    rng = np.random.default_rng(100 + m)
    probs, repeats = (((0.2, 0.4, 0.6, 0.8, 1.0), 4) if m <= 6
                      else ((0.1, 0.2, 0.4), 1))
    graphs = [ni.Dag.empty(m)] + [random_dag(m, rng, edge_prob=p)
                                  for p in probs for _ in range(repeats)]
    for g in graphs:
        moves = _candidate_moves(g, max_parents)
        expected = reference_moves(g, max_parents)
        assert [label for label, _ in moves] == [label for label, _ in expected]
        assert [_apply(g, move) for move in moves] == [after for _, after in expected]
        for _, changes in moves:
            # sorted parent tuples: the memo's stored keys as they stand
            assert all(new == tuple(sorted(new)) for _, new in changes)


def _counted(fn, calls):
    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("m", [10, 20])
def test_candidate_moves_walk_no_reach(monkeypatch, m):
    # the validating constructor keeps each vertex's reach, and every
    # legality check reads a bit of it; a walk per check made 86 walks for
    # one listing at M=10 and 437 at M=20
    g = random_dag(m, np.random.default_rng(100 + m), edge_prob=0.2)
    walks = []
    monkeypatch.setattr(graph, "_reach", _counted(graph._reach, walks))
    for max_parents in (None, 1, 3):
        assert _candidate_moves(g, max_parents)
    assert walks == []


def test_climb_builds_one_graph_per_step(monkeypatch):
    # a tea bound is its exact delta, so on a climb with no tie the step's
    # window admits one move, whose graph is built once and climbed to
    applied = []
    monkeypatch.setattr(search, "_apply", _counted(_apply, applied))
    sc = ni.Scorer(_SEARCH_VIEWS["chain5"](), "tea", DISCRETE)
    result = greedy_hill_climb(sc, SearchConfig(seed=0))
    assert len(result.trace) >= 3
    assert len(applied) == len(result.trace)


def test_move_delta_matches_full_recompute_fuzz():
    view = random_discrete_view(4, 1000, 2, seed=2)
    sc = ni.Scorer(view, "tea", DISCRETE, alpha=0.95)
    rng = np.random.default_rng(3)

    def total(graph):
        return sum(sc.local(v, graph.parents[v]).local for v in range(graph.m))

    for _ in range(300):
        g = random_dag(4, rng)
        moves = _candidate_moves(g, None)
        if not moves:
            continue
        move = moves[rng.integers(0, len(moves))]
        delta = move_delta(sc, g, move)
        assert abs((total(g) + delta) - total(_apply(g, move))) < 1e-9


def test_greedy_close_to_exhaustive_on_seeded_datasets():
    wins = 0
    for seed in range(20):
        out = simulate_chain(3, seed=400 + seed, n=3000)
        disc = ni.discretize(out.observations, 4)
        view = ni.delay_embed(disc, ni.EmbeddingSpec.uniform(3, 1, 2))
        sc = ni.Scorer(view, "tea", DISCRETE, alpha=0.95)
        opt = exhaustive_search(sc).best_report.total
        greedy = greedy_hill_climb(sc, SearchConfig(seed=seed)).best_report.total
        if greedy >= 0.95 * opt:
            wins += 1
    assert wins >= 18


def test_every_enumerated_graph_acyclic_m4():
    assert all(len(reference_kahn_order(g)) == 4 for g in ni.enumerate_dags(4))


_SEARCH_VIEWS = {
    "chain3": lambda: _chain_view(3, 300, 4000),
    "periodic3": _periodic_view,
    "random4": lambda: random_discrete_view(4, 1000, 2, seed=2),
    "chain5": lambda: _chain_view(5, 301, 2000),
}


@pytest.mark.parametrize("score_kind", ["te", "tea", "tee", "bic"])
@pytest.mark.parametrize("dataset", sorted(_SEARCH_VIEWS))
def test_exhaustive_matches_reference_search(dataset, score_kind):
    kw = {"surrogates": ni.SurrogateConfig(19, seed=4)} if score_kind == "tee" else {}
    sc = ni.Scorer(_SEARCH_VIEWS[dataset](), score_kind, DISCRETE, **kw)
    ref_best, ref_visited = reference_exhaustive_search(sc, _TIE_EPS)
    result = exhaustive_search(sc)
    assert result.best.parents == ref_best.parents
    assert result.visited == ref_visited
    assert result.best_report.to_dict() == sc.score(ref_best).to_dict()


class _NearTieScorer:
    """A vertex scores 1 when its parents sum to 3 and 0 otherwise, plus a
    perturbation below the tie tolerance. The five optimal DAGs then differ
    in total by less than _TIE_EPS, and the first one enumerated is not the
    one with the smallest edge set."""

    class view:
        m_total = 4

    @staticmethod
    def local(vertex, parents):
        bump = (7 * vertex + 3 * sum(parents) + len(parents)) % 5
        return LocalScore(te=0.0, penalty=0.0,
                          local=float(sum(parents) == 3) + bump * _TIE_EPS / 25)

    @staticmethod
    def score(graph):
        return None


def test_exhaustive_near_ties_pick_smallest_edge_set():
    sc = _NearTieScorer()
    ref_best, ref_visited = reference_exhaustive_search(sc, _TIE_EPS)
    result = exhaustive_search(sc)
    assert result.best.parents == ref_best.parents
    assert result.visited == ref_visited == 543
    totals = {g: sum(sc.local(v, g.parents[v]).local for v in range(g.m))
              for g in ni.enumerate_dags(4)}
    top = max(totals.values())
    tied = [g for g, t in totals.items() if t >= top - _TIE_EPS]
    assert len(tied) == 5 and top - min(totals[g] for g in tied) > 0
    assert result.best.edges() == min(g.edges() for g in tied)
    assert totals[result.best] < top  # the winner is not the strict maximum


def test_exhaustive_scores_each_vertex_once_per_graph():
    # one Scorer.local lookup per vertex per graph, plus one per vertex for
    # the report of the best graph
    view = random_discrete_view(4, 1000, 2, seed=2)
    sc = ni.Scorer(view, "tea", DISCRETE)
    result = exhaustive_search(sc)
    assert result.visited == 543
    assert sc.cache.hits + sc.cache.misses == result.visited * 4 + 4


# ---------------------------------------------------------------------------
# the lazy climb against the climb that scores every candidate exactly

def _tee(view, estimator=DISCRETE):
    return ni.Scorer(view, "tee", estimator,
                     surrogates=ni.SurrogateConfig(19, seed=4))


def _reference_greedy(monkeypatch, scorer, cfg):
    with monkeypatch.context() as patch:
        patch.setattr(search, "_climb", reference_climb)
        return greedy_hill_climb(scorer, cfg)


def _assert_same_search(monkeypatch, make_scorer, cfg):
    ref = _reference_greedy(monkeypatch, make_scorer(), cfg)
    lazy = greedy_hill_climb(make_scorer(), cfg)
    assert lazy.best.parents == ref.best.parents
    assert lazy.trace == ref.trace
    assert lazy.visited == ref.visited
    assert lazy.best_report.to_dict() == ref.best_report.to_dict()


@pytest.mark.parametrize("score_kind", ["te", "tea", "tee", "bic"])
@pytest.mark.parametrize("dataset", sorted(_SEARCH_VIEWS))
def test_lazy_climb_matches_reference(monkeypatch, dataset, score_kind):
    kw = {"surrogates": ni.SurrogateConfig(19, seed=4)} if score_kind == "tee" else {}
    view = _SEARCH_VIEWS[dataset]()
    _assert_same_search(monkeypatch,
                        lambda: ni.Scorer(view, score_kind, DISCRETE, **kw),
                        SearchConfig(seed=0))


@pytest.mark.parametrize("dataset", ["chain5", "random4"])
def test_lazy_climb_matches_reference_with_restarts(monkeypatch, dataset):
    view = _SEARCH_VIEWS[dataset]()
    _assert_same_search(monkeypatch, lambda: _tee(view),
                        SearchConfig(seed=3, restarts=2))


class _PairScorer:
    """A vertex scores 1 with exactly two parents and 0 otherwise, plus a
    perturbation of up to _TIE_EPS, so the restarts' local optima differ in
    total by up to about 1.5 _TIE_EPS. With seed 13 and 1, 3 or 7 restarts
    the first restart's optimum wins on its smaller edge tuple though its
    total is not the largest; with 3 and 7 the largest comes after it, and
    with 7 one optimum falls outside the tie window."""

    score_kind = "tee"

    class view:
        m_total = 5

    def local(self, vertex, parents):
        bump = (7 * vertex + 3 * sum(parents) + len(parents)) % 5
        local = float(len(parents) == 2) + bump * _TIE_EPS / 4
        return LocalScore(te=local, penalty=0.0, local=local)

    def local_bound(self, vertex, parents):
        return self.local(vertex, parents).local

    @staticmethod
    def draw_chunk(vertex, parents):
        return False  # every bound is exact

    def score(self, graph):
        doc = {"parents": graph.parents,
               "locals": [self.local(v, ps).local for v, ps in enumerate(graph.parents)]}
        return SimpleNamespace(to_dict=lambda: doc)


_RESTART_SCORERS = {
    "pairs": _PairScorer,
    "random4-tee": lambda: _tee(_SEARCH_VIEWS["random4"]()),
}


@pytest.mark.parametrize("restarts", [0, 1, 3, 7])
@pytest.mark.parametrize("scorer", sorted(_RESTART_SCORERS))
def test_streamed_restarts_match_reference_loop(scorer, restarts):
    make_scorer = _RESTART_SCORERS[scorer]
    cfg = SearchConfig(seed=13, restarts=restarts)
    ref_best, ref_trace, ref_visited = reference_greedy(make_scorer(), cfg)
    result = greedy_hill_climb(make_scorer(), cfg)
    assert result.best.parents == ref_best.parents
    assert result.trace == ref_trace
    assert result.visited == ref_visited
    assert result.best_report.to_dict() == make_scorer().score(ref_best).to_dict()


def test_each_restart_start_is_drawn_just_before_its_climb(monkeypatch):
    events = []

    def draw(*args, **kwargs):
        events.append("draw")
        return random_dag(*args, **kwargs)

    def climb(*args, original=search._climb):
        events.append("climb")
        return original(*args)

    monkeypatch.setattr(search, "random_dag", draw)
    monkeypatch.setattr(search, "_climb", climb)
    greedy_hill_climb(_chain_scorer(), SearchConfig(seed=2, restarts=2))
    assert events == ["climb", "draw", "climb", "draw", "climb"]


def test_lazy_climb_matches_reference_linear_gaussian(monkeypatch):
    coupling = ((0.0, 0.0, 0.0, 0.0), (0.4, 0.0, 0.0, 0.0),
                (0.0, 0.4, 0.0, 0.0), (0.0, 0.3, 0.0, 0.0))
    cfg = ni.GdsConfig(
        graph=ni.Dag.from_edges(4, [(0, 1), (1, 2), (1, 3)]),
        model=ni.LinearGaussianModel(coupling=coupling, self_weight=0.5),
        process_noise_std=1.0, obs_noise_std=0.1, n=1500, burn_in=100, seed=5)
    view = ni.delay_embed(ni.simulate(cfg).observations,
                          ni.EmbeddingSpec.uniform(4, 1, 2))
    _assert_same_search(monkeypatch,
                        lambda: _tee(view, ni.EstimatorKind.linear_gaussian()),
                        SearchConfig(seed=0, restarts=1))


def test_lazy_climb_matches_reference_box_kernel(monkeypatch):
    out = simulate_chain(3, seed=302, n=400)
    view = ni.delay_embed(out.observations, ni.EmbeddingSpec.uniform(3, 1, 1))
    _assert_same_search(monkeypatch,
                        lambda: _tee(view, ni.EstimatorKind.box_kernel(0.1)),
                        SearchConfig(seed=0))


class _ClusterTieScorer:
    """From the empty 3-vertex graph, whose add moves come in edge order,
    the first three moves have exact deltas 1 - 1.2e, 1 - 0.3e and 1, with
    e = _TIE_EPS, and every bound is exact. The tie window of the largest
    delta holds the second and third moves, and the rule picks the second,
    whose edge tuple is smaller. The first lies below the window, so a lazy
    step stops at its bound without evaluating it."""

    score_kind = "tee"

    class view:
        m_total = 3

    _LOCALS = {(1, (0,)): 1.0 - 1.2 * _TIE_EPS,
               (2, (0,)): 1.0 - 0.3 * _TIE_EPS,
               (0, (1,)): 1.0}

    def local(self, vertex, parents):
        local = self._LOCALS.get((vertex, tuple(sorted(parents))), 0.0)
        return LocalScore(te=local, penalty=0.0, local=local)

    def local_bound(self, vertex, parents):
        return self.local(vertex, parents).local

    @staticmethod
    def draw_chunk(vertex, parents):
        return False  # every bound is exact

    @staticmethod
    def score(graph):
        return None


def test_lazy_climb_keeps_the_whole_tie_cluster(monkeypatch):
    ref = _reference_greedy(monkeypatch, _ClusterTieScorer(), SearchConfig())
    evaluated = []

    def delta(scorer, graph, move):
        evaluated.append((graph.edges(), move))
        return move_delta(scorer, graph, move)

    monkeypatch.setattr(search, "move_delta", delta)
    lazy = greedy_hill_climb(_ClusterTieScorer(), SearchConfig())
    assert ref.trace[0] == ("add 0->2", 1.0 - 0.3 * _TIE_EPS)
    assert lazy.trace == ref.trace
    assert lazy.best.parents == ref.best.parents
    assert lazy.visited == ref.visited
    first_step = [label for edges, (label, _) in evaluated if edges == ()]
    assert first_step == ["add 1->0", "add 0->2"]


class _DriftScorer:
    """Every local is 1, but for vertex 0 with parent set (1,), 1 + 0.3e, and
    vertex 2 with (1,), 1 + 0.9e, where e = _TIE_EPS. The maximum is 1->0
    plus 1->2, at 3 + 1.2e. A scan in enumeration order that replaces its
    incumbent by any graph within e of it with a smaller edge tuple takes
    that maximum, then 0->2, 1->0, 1->2 (0.9e lower), then 0->1, 2->0
    (0.3e lower again), and ends 1.2e below the maximum, outside its window.
    """

    score_kind = "tee"

    class view:
        m_total = 3

    _BUMPS = {(0, (1,)): 0.3, (2, (1,)): 0.9}

    def local(self, vertex, parents):
        bump = self._BUMPS.get((vertex, tuple(sorted(parents))), 0.0)
        return LocalScore(te=0.0, penalty=0.0, local=1.0 + bump * _TIE_EPS)

    def local_bound(self, vertex, parents):
        return self.local(vertex, parents).local

    @staticmethod
    def draw_chunk(vertex, parents):
        return False  # every bound is exact

    @staticmethod
    def score(graph):
        return None


@pytest.mark.parametrize("reverse", [False, True])
def test_tie_rule_does_not_drift_or_depend_on_order(monkeypatch, reverse):
    sc = _DriftScorer()
    ref_best, _ = reference_exhaustive_search(sc, _TIE_EPS)
    ref_greedy = greedy_hill_climb(sc)
    if reverse:
        dags, moves = search.enumerate_dags, search._candidate_moves
        monkeypatch.setattr(search, "enumerate_dags",
                            lambda m: reversed(list(dags(m))))
        monkeypatch.setattr(search, "_candidate_moves",
                            lambda graph, cap: moves(graph, cap)[::-1])
    best = exhaustive_search(sc).best
    assert best.parents == ref_best.parents
    assert best.edges() == ((0, 1), (1, 2))  # at 3 + 0.9e
    totals = {g: sum(sc.local(v, g.parents[v]).local for v in range(3))
              for g in ni.enumerate_dags(3)}
    assert totals[best] >= max(totals.values()) - _TIE_EPS
    greedy = greedy_hill_climb(sc)
    assert greedy.trace[0][0] == "add 1->0"  # of 1->0 and 1->2, both in the window
    assert greedy.trace == ref_greedy.trace
    assert greedy.best.parents == ref_greedy.best.parents


@pytest.mark.parametrize("dataset", sorted(_SEARCH_VIEWS))
def test_lazy_climb_deltas_within_bounds(monkeypatch, dataset):
    view = _SEARCH_VIEWS[dataset]()
    bounds = []

    def bound(scorer, graph, move):
        b = move_bound(scorer, graph, move)
        bounds.append((graph, move, b))
        return b

    monkeypatch.setattr(search, "move_bound", bound)
    greedy_hill_climb(_tee(view), SearchConfig(seed=1, restarts=2))
    # every bound the climb took, before and after its chunks tightened it,
    # holds the move's delta; some moves are dropped before any delta is
    # computed, so the deltas come from a fresh scorer
    fresh = _tee(view)
    pairs = [(move_delta(fresh, graph, move), b) for graph, move, b in bounds]
    assert pairs and all(d <= b for d, b in pairs)
    assert any(d < b for d, b in pairs)  # some bounds ran no surrogates


def test_lazy_climb_runs_fewer_populations_and_no_extra_entropies(monkeypatch):
    counts = []
    for climb in (reference_climb, search._climb):
        view = _SEARCH_VIEWS["chain5"]()  # a fresh entropy memo per climb
        calls = {"populations": 0}

        def counted(fn, name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        with monkeypatch.context() as patch:
            patch.setattr(search, "_climb", climb)
            patch.setattr(scores, "surrogate_te_samples",
                          counted(scores.surrogate_te_samples, "populations"))
            greedy_hill_climb(_tee(view), SearchConfig(seed=0))
        # each entropy the climb computed is one key of the view's memo
        calls["entropies"] = sum(isinstance(key[0], ni.EstimatorKind)
                                 for key in view._memo)
        counts.append(calls)
    ref, lazy = counts
    assert 0 < lazy["entropies"] <= ref["entropies"]
    assert 0 < lazy["populations"] < ref["populations"]


# ---------------------------------------------------------------------------
# sequential surrogate populations

def _gaussian_view():
    coupling = ((0.0, 0.0, 0.0), (0.4, 0.0, 0.0), (0.0, 0.4, 0.0))
    cfg = ni.GdsConfig(
        graph=ni.Dag.from_edges(3, [(0, 1), (1, 2)]),
        model=ni.LinearGaussianModel(coupling=coupling, self_weight=0.5),
        process_noise_std=1.0, obs_noise_std=0.1, n=800, burn_in=100, seed=6)
    return ni.delay_embed(ni.simulate(cfg).observations,
                          ni.EmbeddingSpec.uniform(3, 1, 2))


def _box_view():
    out = simulate_chain(3, seed=302, n=300)
    return ni.delay_embed(out.observations, ni.EmbeddingSpec.uniform(3, 1, 1))


_SEQUENTIAL_DATA = {
    "discrete": (lambda: _SEARCH_VIEWS["chain5"](), DISCRETE),
    "linear-gaussian": (_gaussian_view, ni.EstimatorKind.linear_gaussian()),
    "box-kernel": (_box_view, ni.EstimatorKind.box_kernel(0.1)),
}

# (surrogate count, alpha, method, restarts): the first chunk K - r + 1 is 10,
# 1 (the whole population), 2, 1 of 99, 1 and 1
_SEQUENTIAL_PLANS = {
    "K199": (199, 0.95, "permutation", 0),
    "K1": (1, 0.5, "permutation", 0),
    "alpha0.9": (19, 0.9, "permutation", 0),
    "alpha0.99": (99, 0.99, "permutation", 0),
    "bootstrap": (19, 0.95, "bootstrap", 0),
    "restarts": (19, 0.95, "permutation", 2),
}


def _sequential_scorer(data, plan):
    view_of, estimator = _SEQUENTIAL_DATA[data]
    count, alpha, method, _ = _SEQUENTIAL_PLANS[plan]
    view = view_of()
    cfg = ni.SurrogateConfig(count, method=method, seed=4)
    return lambda: ni.Scorer(view, "tee", estimator, alpha=alpha, surrogates=cfg)


@pytest.mark.parametrize("plan", sorted(_SEQUENTIAL_PLANS))
@pytest.mark.parametrize("data", sorted(_SEQUENTIAL_DATA))
def test_sequential_climb_matches_reference(monkeypatch, data, plan):
    restarts = _SEQUENTIAL_PLANS[plan][3]
    _assert_same_search(monkeypatch, _sequential_scorer(data, plan),
                        SearchConfig(seed=3, restarts=restarts))


@pytest.mark.parametrize("plan", ["K199", "alpha0.9", "restarts"])
@pytest.mark.parametrize("data", sorted(_SEQUENTIAL_DATA))
def test_dropped_moves_lie_below_their_threshold(monkeypatch, data, plan):
    # every move of a step that never got its exact delta has one, on a fresh
    # scorer, that is <= 0 or below the step's largest exact delta minus
    # _TIE_EPS, so the rule could not have picked it
    make_scorer = _sequential_scorer(data, plan)
    steps = []  # (graph, moves, {move: exact delta}) of each step
    real_step, real_delta = search._step, search.move_delta

    def step(scorer, graph, moves):
        steps.append((graph, moves, {}))
        return real_step(scorer, graph, moves)

    def delta(scorer, graph, move):
        steps[-1][2][move] = real_delta(scorer, graph, move)
        return steps[-1][2][move]

    monkeypatch.setattr(search, "_step", step)
    monkeypatch.setattr(search, "move_delta", delta)
    restarts = _SEQUENTIAL_PLANS[plan][3]
    greedy_hill_climb(make_scorer(), SearchConfig(seed=3, restarts=restarts))
    fresh = make_scorer()
    dropped = 0
    for graph, moves, evaluated in steps:
        top = max(evaluated.values(), default=-np.inf)
        for move in moves:
            if move not in evaluated:
                dropped += 1
                exact = real_delta(fresh, graph, move)
                assert exact <= 0.0 or exact < top - _TIE_EPS
    assert dropped


# surrogate draws and completed populations of the climbs in
# test_sequential_climb_matches_reference, as (draws, populations), measured
# with the earlier step that walked the moves in order of their first bound
# and re-bounded each one; the heap loop must not draw more
_SEQUENTIAL_WORK = {
    ("box-kernel", "K199"): (458, 2),
    ("box-kernel", "restarts"): (62, 3),
    ("discrete", "K199"): (926, 4),
    ("discrete", "restarts"): (241, 12),
    ("linear-gaussian", "K199"): (647, 3),
    ("linear-gaussian", "restarts"): (81, 4),
}


@pytest.mark.parametrize("data, plan", sorted(_SEQUENTIAL_WORK))
def test_sequential_climb_draws_no_more_than_recorded(monkeypatch, data, plan):
    # a guard against a step that draws more than it needs: the counts may
    # fall below the recorded ones, never rise above them
    counts = {"draws": 0, "populations": 0}
    real_draw, real_samples = significance.draw_surrogates, scores.surrogate_te_samples

    def draw(dest, sources, view, kind, cfg, start, stop):
        counts["draws"] += max(stop - start, 0)
        return real_draw(dest, sources, view, kind, cfg, start, stop)

    def samples(*args, **kwargs):
        counts["populations"] += 1
        return real_samples(*args, **kwargs)

    for module in (scores, significance):  # chunks, and population tails
        monkeypatch.setattr(module, "draw_surrogates", draw)
    monkeypatch.setattr(scores, "surrogate_te_samples", samples)
    restarts = _SEQUENTIAL_PLANS[plan][3]
    greedy_hill_climb(_sequential_scorer(data, plan)(),
                      SearchConfig(seed=3, restarts=restarts))
    draws, populations = _SEQUENTIAL_WORK[data, plan]
    assert 0 < counts["draws"] <= draws
    assert 0 < counts["populations"] <= populations
