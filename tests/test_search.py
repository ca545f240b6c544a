import numpy as np
import pytest

import netinfer as ni
from netinfer import estimators, scores, search
from netinfer.errors import ValidationError
from netinfer.graph import random_dag
from netinfer.scores import LocalScore
from netinfer.search import (
    _TIE_EPS,
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
    disc = ni.DiscretizedSeries.from_symbols(
        np.vstack([sym, sym, np.roll(sym, 1)]), (2, 2, 2))
    return ni.delay_embed(disc, ni.EmbeddingSpec.uniform(3, 1, 1))


def test_search_config_validation():
    with pytest.raises(ValidationError):
        SearchConfig(restarts=-1)
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
    disc = ni.DiscretizedSeries.from_symbols(
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
    assert ni.is_acyclic(result.best)


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
    assert ("add", 2, 0) not in moves  # would close the cycle 0->1->2->0
    assert ("add", 0, 2) not in moves  # vertex 2 already has its one parent
    for move in moves:
        assert ni.is_acyclic(_apply(g, move))


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
    assert all(ni.is_acyclic(g) for g in ni.enumerate_dags(4))


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
    e = _TIE_EPS, and every bound is exact. Scanned in candidate order,
    _better keeps the first over the second and takes the third. A search
    that stopped one e below the best delta would skip the first move, keep
    the second over the third, and pick the second."""

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
    def score(graph):
        return None


def test_lazy_climb_keeps_the_whole_tie_cluster(monkeypatch):
    ref = _reference_greedy(monkeypatch, _ClusterTieScorer(), SearchConfig())
    lazy = greedy_hill_climb(_ClusterTieScorer(), SearchConfig())
    assert ref.trace[0] == ("add 1->0", 1.0)
    assert lazy.trace == ref.trace
    assert lazy.best.parents == ref.best.parents
    assert lazy.visited == ref.visited


@pytest.mark.parametrize("dataset", sorted(_SEARCH_VIEWS))
def test_lazy_climb_deltas_within_bounds(monkeypatch, dataset):
    bounds, pairs = {}, []

    def bound(scorer, graph, move):
        b = bounds[graph.parents, move] = move_bound(scorer, graph, move)
        return b

    def delta(scorer, graph, move):
        d = move_delta(scorer, graph, move)
        pairs.append((d, bounds[graph.parents, move]))
        return d

    monkeypatch.setattr(search, "move_bound", bound)
    monkeypatch.setattr(search, "move_delta", delta)
    greedy_hill_climb(_tee(_SEARCH_VIEWS[dataset]()), SearchConfig(seed=1, restarts=2))
    assert pairs and all(d <= b for d, b in pairs)
    assert any(d < b for d, b in pairs)  # some bounds ran no surrogates


def test_lazy_climb_runs_fewer_populations_and_no_extra_entropies(monkeypatch):
    counts = []
    for climb in (reference_climb, search._climb):
        view = _SEARCH_VIEWS["chain5"]()  # a fresh entropy memo per climb
        calls = {"entropies": 0, "populations": 0}

        def counted(fn, name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        with monkeypatch.context() as patch:
            patch.setattr(search, "_climb", climb)
            patch.setattr(estimators, "_discrete_from_view",
                          counted(estimators._discrete_from_view, "entropies"))
            patch.setattr(scores, "surrogate_te_samples",
                          counted(scores.surrogate_te_samples, "populations"))
            greedy_hill_climb(_tee(view), SearchConfig(seed=0))
        counts.append(calls)
    ref, lazy = counts
    assert 0 < lazy["entropies"] <= ref["entropies"]
    assert 0 < lazy["populations"] < ref["populations"]
