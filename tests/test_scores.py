import itertools
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import netinfer as ni
from netinfer.errors import ValidationError
from netinfer.graph import random_dag
from netinfer.scores import _BOUND_SLACK
from netinfer.significance import derive_seed, te_statistic

from conftest import chain_dag, random_discrete_view

DISCRETE = ni.EstimatorKind.discrete_plugin()


def _tee_cfg(seed=0, count=19):
    return ni.SurrogateConfig(count=count, seed=seed)


# ---------------------------------------------------------------------------
# basic contracts

def test_public_names_resolve_and_removed_ones_are_gone():
    for name in ni.__all__:
        assert hasattr(ni, name), name
    removed = {"score_te", "score_tea", "score_tee", "score_ic",
               "EntropyResult", "LocalScoreCache"}
    assert not removed & set(ni.__all__)
    assert not any(hasattr(ni, name) for name in removed)


def test_empty_graph_scores_zero():
    view = random_discrete_view(3, 800, 3, seed=0)
    empty = ni.Dag.empty(3)
    assert ni.Scorer(view, "te", DISCRETE).score(empty).total == 0.0
    assert ni.Scorer(view, "tea", DISCRETE, alpha=0.95).score(empty).total == 0.0
    assert ni.Scorer(view, "tee", DISCRETE,
                     surrogates=_tee_cfg()).score(empty).total == 0.0


def test_te_score_penalty_is_zero_and_total_decomposes():
    view = random_discrete_view(3, 800, 3, seed=1)
    g = ni.Dag(3, ((), (0,), (0, 1)))
    report = ni.Scorer(view, "te", DISCRETE).score(g)
    assert all(pv.penalty == 0.0 for pv in report.per_vertex)
    assert report.total == pytest.approx(sum(pv.local for pv in report.per_vertex), abs=1e-9)


def test_te_score_adding_edge_never_lowers_total():
    view = random_discrete_view(3, 600, 3, seed=2)
    edges = []
    total = ni.Scorer(view, "te", DISCRETE).score(ni.Dag.empty(3)).total
    for edge in [(0, 1), (1, 2), (0, 2)]:
        edges.append(edge)
        g = ni.Dag.from_edges(3, edges)
        new_total = ni.Scorer(view, "te", DISCRETE).score(g).total
        assert new_total >= total - 1e-12
        total = new_total


def test_chain_scores_above_empty_on_coupled_data(chain3_discrete_view):
    view = chain3_discrete_view
    chain = chain_dag(3)
    assert ni.Scorer(view, "te", DISCRETE).score(chain).total > 0.1
    assert ni.Scorer(view, "tee", DISCRETE, surrogates=_tee_cfg()).score(chain).total > \
        ni.Scorer(view, "tee", DISCRETE,
                  surrogates=_tee_cfg()).score(ni.Dag.empty(3)).total


def test_scores_reject_cyclic_graph():
    # a cyclic graph never reaches a score: no Dag can hold one
    with pytest.raises(ValidationError, match="acyclic"):
        ni.Dag(2, ((1,), (0,)))


@pytest.mark.parametrize("kind", ["tea", "tee"])
@pytest.mark.parametrize("alpha", [7.0, 1.0])
def test_tea_and_tee_reject_alpha_outside_unit_interval(kind, alpha):
    view = random_discrete_view(2, 300, 2, seed=3)
    with pytest.raises(ValidationError, match="alpha must lie in"):
        ni.Scorer(view, kind, DISCRETE, alpha=alpha, surrogates=_tee_cfg())


def test_tee_reads_its_quantile_at_the_scorer_alpha():
    view = random_discrete_view(2, 500, 3, seed=18)
    cfg = _tee_cfg(seed=2)
    sc = ni.Scorer(view, "tee", DISCRETE, alpha=0.5, surrogates=cfg)
    assert sc.alpha == 0.5 and sc.score(ni.Dag.empty(2)).alpha == 0.5
    own = replace(cfg, seed=derive_seed(cfg.seed, "vertex", 1, (0,)))
    samples = ni.surrogate_te_samples(1, (0,), view, DISCRETE, own)
    assert sc.local(1, (0,)).penalty == ni.empirical_quantile(samples, 0.5)


def test_tee_scorer_warns_below_recommended_count():
    view = random_discrete_view(2, 300, 2, seed=1)
    with pytest.warns(UserWarning, match="recommended"):
        sc = ni.Scorer(view, "tee", DISCRETE, alpha=0.95, surrogates=_tee_cfg(count=5))
    with warnings.catch_warnings():  # once, at construction: not per population
        warnings.simplefilter("error")
        sc.local(1, (0,))
        ni.Scorer(view, "tee", DISCRETE, alpha=0.95, surrogates=_tee_cfg(count=19))


def test_tea_rejects_box_kernel():
    rng = np.random.default_rng(4)
    ts = ni.TimeSeriesSet(rng.standard_normal((2, 200)))
    view = ni.delay_embed(ts, ni.EmbeddingSpec.uniform(2, 1, 1))
    with pytest.raises(ValidationError, match="analytic null"):
        ni.Scorer(view, "tea", ni.EstimatorKind.box_kernel(0.2),
                  alpha=0.9).score(ni.Dag.empty(2))


# ---------------------------------------------------------------------------
# TEA calibration and penalty structure

def test_tea_null_local_score_negative():
    negatives = 0
    for trial in range(100):
        view = random_discrete_view(2, 1001, 2, seed=4000 + trial)
        sc = ni.Scorer(view, "tea", DISCRETE, alpha=0.95)
        negatives += sc.local(1, (0,)).local < 0
    assert negatives >= 90


def test_tea_penalty_non_decreasing_in_parent_set():
    view = random_discrete_view(4, 900, 3, seed=5)
    sc = ni.Scorer(view, "tea", DISCRETE, alpha=0.95)
    assert sc.local(0, ()).penalty == 0.0
    p1 = sc.local(0, (1,)).penalty
    p2 = sc.local(0, (1, 2)).penalty
    p3 = sc.local(0, (1, 2, 3)).penalty
    assert 0.0 < p1 <= p2 <= p3


def test_tea_max_penalty_ordering_matches_brute_force():
    # the descending embedded-alphabet sort must reproduce the brute-force
    # maximum over all parent orderings, for parent sets up to size 4
    rng = np.random.default_rng(6)
    for _ in range(30):
        m = int(rng.integers(2, 6))
        alphabet = [int(r) for r in rng.integers(2, 5, size=m)]
        kappa = [int(k) for k in rng.integers(1, 3, size=m)]
        dest = int(rng.integers(0, m))
        sources = [v for v in range(m) if v != dest][: int(rng.integers(1, 5))]
        alpha = 0.95

        def penalty(order):
            _, per = ni.te_degrees_of_freedom(dest, list(order), kappa, alphabet)
            return sum(ni.chi2_quantile(ni.Chi2Params(l, alpha)) for l in per)

        brute = max(penalty(p) for p in itertools.permutations(sources))
        sorted_order = sorted(sources, key=lambda j: (-(alphabet[j] ** kappa[j]), j))
        assert penalty(sorted_order) == pytest.approx(brute, rel=1e-12)


def test_tea_gaussian_pair_near_acceptance_boundary():
    # weakly correlated Gaussian pair: the measured statistic lands within
    # one penalty width of the acceptance threshold
    rho = 0.05
    w = rho / math.sqrt(1.0 - rho * rho)
    g = ni.Dag.from_edges(2, [(0, 1)])
    model = ni.LinearGaussianModel(coupling=((0.0, 0.0), (w, 0.0)),
                                   self_weight=0.0)
    cfg = ni.GdsConfig(graph=g, model=model, process_noise_std=1.0,
                       obs_noise_std=0.0, n=1000, burn_in=100, seed=7)
    out = ni.simulate(cfg)
    view = ni.delay_embed(out.observations, ni.EmbeddingSpec.uniform(2, 1, 1))
    sc = ni.Scorer(view, "tea", ni.EstimatorKind.linear_gaussian(), alpha=0.9)
    ls = sc.local(1, (0,))
    assert ls.penalty == pytest.approx(
        ni.chi2_quantile(ni.Chi2Params(1, 0.9)), abs=1e-9)
    stat = te_statistic(ls.te, view.rows)
    assert 0.0 < stat < 2.0 * ls.penalty
    assert abs(ls.local) < ls.penalty


# ---------------------------------------------------------------------------
# TEE

def test_tee_null_false_positive_rate_small_sample():
    rejections = 0
    trials = 100
    for trial in range(trials):
        view = random_discrete_view(2, 1000, 4, seed=9000 + trial)
        sc = ni.Scorer(view, "tee", DISCRETE, surrogates=_tee_cfg(seed=trial))
        rejections += sc.local(1, (0,)).local > 0
    assert 0.0 <= rejections / trials <= 0.12


def test_tee_true_edge_positive(chain3_discrete_view):
    sc = ni.Scorer(chain3_discrete_view, "tee", DISCRETE,
                   surrogates=_tee_cfg(seed=1))
    assert sc.local(1, (0,)).local > 0
    assert sc.local(2, (1,)).local > 0


def test_tee_deterministic_given_seed(chain3_discrete_view):
    a = ni.Scorer(chain3_discrete_view, "tee", DISCRETE,
                  surrogates=_tee_cfg(seed=5)).score(chain_dag(3))
    b = ni.Scorer(chain3_discrete_view, "tee", DISCRETE,
                  surrogates=_tee_cfg(seed=5)).score(chain_dag(3))
    c = ni.Scorer(chain3_discrete_view, "tee", DISCRETE,
                  surrogates=_tee_cfg(seed=6)).score(chain_dag(3))
    assert a.to_dict() == b.to_dict()
    assert a.to_dict() != c.to_dict()


def test_tea_tee_agree_on_null():
    agree = 0
    trials = 200
    for trial in range(trials):
        view = random_discrete_view(2, 800, 2, seed=20_000 + trial)
        tea = ni.Scorer(view, "tea", DISCRETE, alpha=0.95)
        tee = ni.Scorer(view, "tee", DISCRETE, surrogates=_tee_cfg(seed=trial))
        agree += (tea.local(1, (0,)).local > 0) == (tee.local(1, (0,)).local > 0)
    assert agree >= 0.9 * trials


# ---------------------------------------------------------------------------
# information criteria

def test_ml_ranking_matches_te_ranking():
    view = random_discrete_view(3, 2000, 2, seed=8)
    te_scorer = ni.Scorer(view, "te", DISCRETE)
    ml_scorer = ni.Scorer(view, "ml", DISCRETE)
    n = view.rows
    constants = []
    te_totals, ml_totals = [], []
    for g in ni.enumerate_dags(3):
        te_total = sum(te_scorer.local(v, g.parents[v]).local for v in range(3))
        ml_total = sum(ml_scorer.local(v, g.parents[v]).local for v in range(3))
        constants.append(ml_total - n * te_total)
        te_totals.append(te_total)
        ml_totals.append(ml_total)
    spread = max(constants) - min(constants)
    assert spread < 1e-9  # ml = const + N * te, so rankings coincide exactly
    assert np.argmax(te_totals) == np.argmax(ml_totals)


def test_bic_prefers_true_graph_over_complete(chain3_discrete_view):
    view = chain3_discrete_view
    truth = chain_dag(3)
    complete = ni.Dag(3, ((), (0,), (0, 1)))
    bic_truth = ni.Scorer(view, "bic").score(truth).total
    bic_complete = ni.Scorer(view, "bic").score(complete).total
    assert bic_truth > bic_complete


def test_ic_dimension_binary_chain():
    rng = np.random.default_rng(9)
    sym = rng.integers(0, 2, size=(2, 400))
    disc = ni.DiscretizedSeries(sym, (2, 2))
    view = ni.delay_embed(disc, ni.EmbeddingSpec.uniform(2, 1, 1))
    report = ni.Scorer(view, "aic").score(chain_dag(2))
    # aic has f(N) = 1, so the reported penalty is the parameter count
    assert report.per_vertex[0].penalty == 2.0   # (2-1) * 2
    assert report.per_vertex[1].penalty == 4.0   # (2-1) * 2 * 2
    assert report.f_of_n == 1.0


def test_ic_requires_discrete():
    rng = np.random.default_rng(10)
    ts = ni.TimeSeriesSet(rng.standard_normal((2, 200)))
    view = ni.delay_embed(ts, ni.EmbeddingSpec.uniform(2, 1, 1))
    with pytest.raises(ValidationError, match="discretized"):
        ni.Scorer(view, "bic").score(chain_dag(2))


# ---------------------------------------------------------------------------
# cache behaviour

def test_cache_hit_skips_recomputation():
    view = random_discrete_view(3, 500, 2, seed=11)
    sc = ni.Scorer(view, "te", DISCRETE)
    first = sc.local(1, (0, 2))
    misses = sc.cache.misses
    second = sc.local(1, (2, 0))  # permuted parent set, same canonical key
    assert second == first
    assert sc.cache.misses == misses
    assert sc.cache.hits >= 1


def test_local_returns_one_entry_for_every_spelling_of_a_parent_set():
    sc = ni.Scorer(random_discrete_view(3, 500, 2, seed=11), "tea", DISCRETE)
    first = sc.local(1, (0, 2))
    spellings = [(0, 2), (2, 0), [0, 2], [2, 0], (np.int64(0), np.int64(2)),
                 np.array([2, 0]), (0.0, 2)]
    for parents in spellings:
        assert sc.local(1, parents) is first
    # a rejected canonical tuple takes the miss path each time, never a hit
    for _ in range(2):
        with pytest.raises(ValidationError, match="self-loop"):
            sc.local(1, (1,))
    assert (sc.cache.hits, sc.cache.misses) == (len(spellings), 3)


@pytest.mark.parametrize("kind", ["te", "bic"])
@pytest.mark.parametrize("vertex, parents", [(3, ()), (-1, ()), (0, (3,)),
                                             (0, (-1,)), (1, (0, 3))])
def test_local_rejects_out_of_range_vertex_or_parent(kind, vertex, parents):
    sc = ni.Scorer(random_discrete_view(3, 300, 2, seed=16), kind, DISCRETE)
    with pytest.raises(ValidationError, match="out of range"):
        sc.local(vertex, parents)


@pytest.mark.parametrize("kind", ["te", "tea", "bic"])
def test_local_rejects_repeated_parents(kind):
    sc = ni.Scorer(random_discrete_view(3, 300, 2, seed=17), kind, DISCRETE)
    # twice each: a rejected key is never stored, so it never becomes a hit
    for parents in ((0, 0), (0, 0), (2, 0, 2), (2, 0, 2)):
        with pytest.raises(ValidationError, match="repeated parent"):
            sc.local(1, parents)
    assert sc.cache.hits == 0


@pytest.mark.parametrize("parents", [(0, 0), (1,), (3,), (-1,),
                                     (0.9,), (2.5,), ("0",), (False,)])
def test_parent_set_rule_shared_by_scores_estimators_and_tests(parents):
    # a non-integral index is rejected as it is given, never made an int
    view = random_discrete_view(3, 300, 2, seed=17)
    with pytest.raises(ValidationError) as expected:
        ni.Scorer(view, "te", DISCRETE).local(1, parents)
    for call in (
        lambda: ni.collective_transfer_entropy(1, parents, view, DISCRETE),
        lambda: ni.surrogate_te_samples(1, parents, view, DISCRETE, _tee_cfg()),
        lambda: ni.te_degrees_of_freedom(1, parents, (2, 2, 2), (4, 4, 4)),
        lambda: ni.Dag(3, ((), parents, ())),
        lambda: ni.Dag.from_edges(3, [(p, 1) for p in parents]),
    ):
        with pytest.raises(ValidationError) as got:
            call()
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("vertex, parents", [(1, (False,)), (True, (0,)),
                                             (1, (np.False_,))])
def test_stored_entry_answers_no_input_the_parent_set_rule_rejects(vertex, parents):
    # a tuple of bools equals the tuple of ints it was stored under, but is
    # rejected as a fresh scorer rejects it
    sc = ni.Scorer(random_discrete_view(3, 300, 2, seed=17), "te", DISCRETE)
    stored = (0,)
    sc.local(1, stored)
    with pytest.raises(ValidationError):
        sc.local(vertex, parents)
    assert sc.local(1, stored) is sc.local(1, [0])


# ---------------------------------------------------------------------------
# local bounds

def _parent_sets(m, vertex):
    others = [u for u in range(m) if u != vertex]
    return [ps for k in range(m) for ps in itertools.combinations(others, k)]


@pytest.mark.parametrize("view_of", [
    lambda: random_discrete_view(4, 600, 3, seed=0),
    lambda: random_discrete_view(4, 600, 2, seed=1, kappa=2),
    lambda: ni.delay_embed(ni.discretize(ni.simulate(ni.GdsConfig(
        graph=chain_dag(4), model=ni.CoupledLogisticModel(r=4.0, epsilon=0.4),
        process_noise_std=1e-3, obs_noise_std=1e-3, n=2000, burn_in=200,
        seed=3)).observations, 8), ni.EmbeddingSpec.uniform(4, 1, 2)),
])
def test_discrete_tee_local_bound_runs_no_surrogates_and_holds(monkeypatch, view_of):
    sc = ni.Scorer(view_of(), "tee", DISCRETE, surrogates=_tee_cfg(seed=2))
    populations = []
    monkeypatch.setattr(ni.scores, "surrogate_te_samples",
                        lambda *args: populations.append(args) or [0.0])
    bounds = {(v, ps): sc.local_bound(v, ps)
              for v in range(4) for ps in _parent_sets(4, v)}
    assert populations == []
    monkeypatch.undo()
    for (v, ps), bound in bounds.items():
        exact = sc.local(v, ps)
        assert exact.local <= bound
        assert bound == (exact.te + _BOUND_SLACK if ps else 0.0)
        assert sc.local_bound(v, ps) == exact.local  # memoised: exact


def test_tee_bound_then_local_computes_each_entropy_once(monkeypatch):
    counts = []
    cfg = _tee_cfg()
    for bound_first in (False, True):
        calls = []
        real = ni.estimators.discrete_cond_entropy
        monkeypatch.setattr(ni.estimators, "discrete_cond_entropy",
                            lambda *args: calls.append(args) or real(*args))
        view = random_discrete_view(3, 500, 2, seed=11)  # a fresh memo each
        sc = ni.Scorer(view, "tee", DISCRETE, surrogates=cfg)
        if bound_first:
            sc.local_bound(1, [2, 0])
        sc.local(1, (0, 2))
        monkeypatch.undo()
        counts.append(len(calls))
    # the own entropy and the full one, then one per surrogate
    assert counts == [2 + cfg.count] * 2


@pytest.mark.parametrize("estimator", [DISCRETE, ni.EstimatorKind.box_kernel(0.3)],
                         ids=["discrete", "box-kernel"])
def test_tee_bounds_after_a_chunk_look_up_no_entropy(monkeypatch, estimator):
    # a partial population keeps its te with its values, so neither the
    # bounds between chunks nor the completed local look up an entropy
    view = (random_discrete_view(3, 400, 3, seed=6) if estimator is DISCRETE
            else _real_view(6))
    cfg = _tee_cfg(seed=5, count=199)
    exact = ni.Scorer(view, "tee", estimator, surrogates=cfg).local(1, (0, 2))
    sc = ni.Scorer(view, "tee", estimator, surrogates=cfg)
    calls = []
    real = ni.scores.conditional_entropy
    monkeypatch.setattr(ni.scores, "conditional_entropy",
                        lambda *args: calls.append(args) or real(*args))
    assert sc.draw_chunk(1, (0, 2))
    assert len(calls) == 2  # the te: the own entropy and the full one
    bounds = [sc.local_bound(1, (0, 2))]
    while sc.draw_chunk(1, (0, 2)):
        bounds.append(sc.local_bound(1, (0, 2)))
    assert len(bounds) == 6  # chunks of 10, 20, 40, 80 and 160, then all 199
    assert sc.local(1, (0, 2)) == exact
    assert len(calls) == 2


def _real_view(seed):
    series = np.random.default_rng(seed).normal(size=(3, 300))
    return ni.delay_embed(ni.TimeSeriesSet(series, ("a", "b", "c")),
                          ni.EmbeddingSpec.uniform(3, 1, 1))


@pytest.mark.parametrize("estimator, kernel, per_surrogate", [
    (DISCRETE, "discrete_cond_entropy", 1),
    (ni.EstimatorKind.box_kernel(0.3), "_pair_counts", 1),
])
def test_tee_local_computes_two_entropies_population_included(
        monkeypatch, estimator, kernel, per_surrogate):
    view = (random_discrete_view(3, 500, 2, seed=11) if estimator is DISCRETE
            else _real_view(11))
    calls = []
    real = getattr(ni.estimators, kernel)
    monkeypatch.setattr(ni.estimators, kernel,
                        lambda *args: calls.append(args) or real(*args))
    cfg = _tee_cfg()
    ni.Scorer(view, "tee", estimator, surrogates=cfg).local(1, (0, 2))
    # the own entropy and the full one; the population reuses the own one
    assert len(calls) == 2 + per_surrogate * cfg.count


@pytest.mark.parametrize("kind, estimator", [
    ("te", DISCRETE), ("tea", DISCRETE), ("bic", DISCRETE),
    ("tee", ni.EstimatorKind.linear_gaussian()),
    ("tee", ni.EstimatorKind.box_kernel(0.3)),
])
def test_local_bound_is_exact_where_no_slack_is_proved(kind, estimator):
    # te, tea and bic bounds are exact; a linear-Gaussian or box-kernel tee
    # bound is inf until a chunk is drawn, and the local once it is memoised
    if estimator.method == "discrete-plugin":
        view = random_discrete_view(3, 400, 2, seed=5)
    else:
        view = _real_view(5)
    kw = {"surrogates": _tee_cfg()} if kind == "tee" else {}
    for v in range(3):
        for ps in _parent_sets(3, v):
            sc = ni.Scorer(view, kind, estimator, **kw)
            bound = sc.local_bound(v, ps)
            exact = sc.local(v, ps).local
            if kind == "tee":
                assert bound == (math.inf if ps else exact)
            else:
                assert bound == exact
            assert sc.local_bound(v, ps) == exact


@pytest.mark.parametrize("estimator", [
    DISCRETE, ni.EstimatorKind.linear_gaussian(),
    ni.EstimatorKind.box_kernel(0.3),
])
@pytest.mark.parametrize("count, alpha", [(19, 0.95), (40, 0.9), (199, 0.95)])
def test_draw_chunk_tightens_the_bound_to_the_exact_local(estimator, count, alpha):
    view = (random_discrete_view(3, 400, 3, seed=6) if estimator is DISCRETE
            else _real_view(6))
    cfg = _tee_cfg(seed=5, count=count)

    def scorer():
        return ni.Scorer(view, "tee", estimator, alpha=alpha, surrogates=cfg)

    sc = scorer()
    exact = scorer().local(1, (0, 2))
    first = count - ni.significance.quantile_rank(alpha, count) + 1

    def drawn():
        _, values = sc._drawn.get((1, (0, 2)), (exact.te, []))
        assert all(isinstance(x, float) for x in values)  # floats only
        return len(values)

    bounds = [sc.local_bound(1, [2, 0])]
    counts = [drawn()]
    while sc.draw_chunk(1, (2, 0)):
        counts.append(drawn())
        bounds.append(sc.local_bound(1, (0, 2)))
    # a bound draws nothing, and only the discrete one is finite before the
    # first chunk; each later chunk doubles the count, and a complete
    # population leaves
    assert counts[0] == 0
    assert (bounds[0] == math.inf) == (estimator is not DISCRETE)
    partial = [c for c in counts if c]
    assert partial == [first * 2 ** i for i in range(len(partial))]
    assert counts[-1] == 0 and 2 * partial[-1] >= count
    assert all(b >= exact.local for b in bounds)
    assert all(a >= b for a, b in zip(bounds, bounds[1:]))
    assert bounds[-1] == exact.local
    assert sc.local(1, (0, 2)) == exact
    assert sc.cache.misses == 1 and not sc._drawn


@pytest.mark.parametrize("count, alpha", [(1, 0.5), (19, 0.05), (20, 0.05)])
def test_first_chunk_of_the_whole_population_completes_it(monkeypatch,
                                                          count, alpha):
    # K - r + 1 = K: the first chunk is the population, drawn in one call
    sc = ni.Scorer(random_discrete_view(3, 400, 2, seed=7), "tee", DISCRETE,
                   alpha=alpha, surrogates=_tee_cfg(count=count))
    calls = []
    real = ni.scores.surrogate_te_samples
    monkeypatch.setattr(ni.scores, "surrogate_te_samples",
                        lambda *args, **kw: calls.append(kw) or real(*args, **kw))
    assert sc.draw_chunk(1, (0,))
    assert calls == [{"drawn": ()}]
    assert sc.local_bound(1, (0,)) == sc.local(1, (0,)).local
    assert not sc.draw_chunk(1, (0,))


def test_draw_chunk_has_nothing_to_draw_without_a_population():
    view = random_discrete_view(3, 300, 2, seed=8)
    for kind in ("te", "tea", "bic"):
        assert not ni.Scorer(view, kind, DISCRETE).draw_chunk(1, (0,))
    tee = ni.Scorer(view, "tee", DISCRETE, surrogates=_tee_cfg())
    assert not tee.draw_chunk(1, ())
    with pytest.raises(ValidationError):
        tee.draw_chunk(1, (1,))


def test_local_bound_checks_parents_like_local():
    sc = ni.Scorer(random_discrete_view(3, 300, 2, seed=17), "tee", DISCRETE,
                   surrogates=_tee_cfg())
    for parents in ((1,), (0, 0), (3,)):
        with pytest.raises(ValidationError):
            sc.local_bound(1, parents)


def test_decomposability_cached_equals_fresh():
    view = random_discrete_view(4, 700, 2, seed=13)
    shared = ni.Scorer(view, "tea", DISCRETE, alpha=0.95)
    rng = np.random.default_rng(14)
    for _ in range(100):
        g = random_dag(4, rng)
        cached_total = sum(shared.local(v, g.parents[v]).local for v in range(4))
        fresh = ni.Scorer(view, "tea", DISCRETE, alpha=0.95)
        fresh_total = fresh.score(g).total
        assert cached_total == pytest.approx(fresh_total, abs=1e-9)


# ---------------------------------------------------------------------------
# report serialization

def test_report_json_shape(chain3_discrete_view):
    report = ni.Scorer(chain3_discrete_view, "tee", DISCRETE,
                       surrogates=_tee_cfg(seed=3)).score(chain_dag(3))
    doc = json.loads(report.to_json())
    assert set(doc) >= {"score_kind", "estimator", "alpha", "seed", "total",
                        "per_vertex"}
    assert doc["score_kind"] == "tee"
    assert doc["seed"] == 3
    assert len(doc["per_vertex"]) == 3
    assert doc["per_vertex"][1]["parents"] == ["V1"]
    assert doc["total"] == pytest.approx(
        sum(pv["local"] for pv in doc["per_vertex"]), abs=1e-9)


def test_report_validates_against_schema(chain3_discrete_view):
    jsonschema = pytest.importorskip("jsonschema")
    import importlib.resources as resources

    schema = json.loads(
        resources.files("netinfer").joinpath("schemas/score_report.schema.json")
        .read_text())
    report = ni.Scorer(chain3_discrete_view, "tea", DISCRETE,
                       alpha=0.95).score(chain_dag(3))
    jsonschema.validate(json.loads(report.to_json()), schema)
