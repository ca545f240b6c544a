import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import netinfer as ni
from netinfer.errors import NumericError, ValidationError
from netinfer.estimators import history, next_value

from netinfer.estimators import (
    _BINCOUNT_CAP,
    _BOX_BLOCK,
    _block_ids,
    _box_counts,
    _box_pairs,
    _kept_pairs,
    _log2_table,
    _neighbour_chunks,
    _neighbour_lists,
    _pair_counts,
    box_cond_entropy,
)

from conftest import (
    brute_box_counts,
    chain_dag,
    cli_env,
    counting_cond_entropy,
    gaussian_cond_var,
    random_discrete_view,
    reference_box_cond_entropy,
    reference_box_counts,
    reference_conditional_entropy,
    simulate_chain,
    stationary_covariance,
)

DISCRETE = ni.EstimatorKind.discrete_plugin()
GAUSSIAN = ni.EstimatorKind.linear_gaussian()


def _pair_view(a, b, alphabet, kappa=1):
    disc = ni.DiscretizedSeries(np.vstack([a, b]), alphabet)
    return ni.delay_embed(disc, ni.EmbeddingSpec.uniform(2, 1, kappa))


# ---------------------------------------------------------------------------
# conditional entropy

def test_fair_coin_entropy_one_bit():
    rng = np.random.default_rng(1)
    coin = rng.integers(0, 2, 10001)
    other = rng.integers(0, 2, 10001)
    view = _pair_view(coin, other, (2, 2))
    res = ni.conditional_entropy(next_value(0), [history(1)], view, DISCRETE)
    assert isinstance(res, float) and abs(res - 1.0) < 0.05


def test_identical_target_and_conditioner_is_exactly_zero():
    rng = np.random.default_rng(2)
    a = rng.integers(0, 4, 500)
    view = _pair_view(a, a, (4, 4))
    res = ni.conditional_entropy(next_value(0), [next_value(1)], view, DISCRETE)
    assert res == 0.0


def test_gaussian_scalar_closed_form():
    rng = np.random.default_rng(3)
    z = rng.standard_normal(2000)
    view = ni.delay_embed(ni.TimeSeriesSet([z]),
                          ni.EmbeddingSpec.uniform(1, 1, 1))
    res = ni.conditional_entropy(next_value(0), [], view, GAUSSIAN)
    sample_var = np.var(view.target(0), ddof=1)
    expected = 0.5 * math.log2(2 * math.pi * math.e * sample_var)
    assert res == pytest.approx(expected, abs=1e-12)


def test_plugin_matches_counting_oracle():
    rng = np.random.default_rng(4)
    a = rng.integers(0, 3, 400)
    b = rng.integers(0, 3, 400)
    view = _pair_view(a, b, (3, 3))
    res = ni.conditional_entropy(next_value(0), [history(0), history(1)],
                                 view, DISCRETE)
    z_rows = view.target(0)[:, None]
    w_rows = np.hstack([view.history(0), view.history(1)])
    assert res == pytest.approx(counting_cond_entropy(z_rows, w_rows), abs=1e-12)


def _kernel_cases(view):
    """(target, conditioners) pairs: one to three sources, no conditioner,
    and the joint next step given every past."""
    m = view.m_total
    cases = [([next_value(0)], [history(0)] + [history(s) for s in range(1, 1 + k)])
             for k in range(1, m)]
    cases.append(([next_value(1)], []))
    cases.append(([next_value(s) for s in range(m)], [history(s) for s in range(m)]))
    return cases


@pytest.mark.parametrize("bins", [2, 4, 8, 16])
@pytest.mark.parametrize("kappa", [1, 2, 3])
def test_discrete_kernel_bit_identical_to_reference(bins, kappa):
    view = random_discrete_view(4, 3000, bins, seed=10 * bins + kappa, kappa=kappa)
    for target, conds in _kernel_cases(view):
        got = ni.conditional_entropy(target, conds, view, DISCRETE)
        assert got == reference_conditional_entropy(target, conds, view)


def test_discrete_kernel_bit_identical_on_chain_data(chain3_discrete_view):
    view = chain3_discrete_view
    for target, conds in _kernel_cases(view):
        got = ni.conditional_entropy(target, conds, view, DISCRETE)
        assert got == reference_conditional_entropy(target, conds, view)


def test_discrete_kernel_sort_fallback_bit_identical():
    # more distinct (past, past) rows than the bincount cap admits, so the
    # joint ids are counted by sorting
    view = random_discrete_view(2, 300_000, 16, seed=61, kappa=3)
    conds = [history(0), history(1)]
    joint = np.hstack([view.history(0), view.history(1)])
    assert len(np.unique(joint, axis=0)) > _BINCOUNT_CAP
    got = ni.conditional_entropy(next_value(0), conds, view, DISCRETE)
    assert got == reference_conditional_entropy([next_value(0)], conds, view)


def test_discrete_greedy_tee_sorts_no_ids_under_the_cap(monkeypatch):
    # every id space of this run stays within _BINCOUNT_CAP, so each id is
    # ranked from a presence table and counted by np.bincount, never sorted
    def search():
        view = random_discrete_view(3, 2000, 4, seed=62, kappa=2)
        scorer = ni.Scorer(view, "tee", DISCRETE,
                           surrogates=ni.SurrogateConfig(19, seed=0))
        return ni.greedy_hill_climb(scorer, ni.SearchConfig(seed=0, restarts=2))

    sorted_run = search()

    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called under the cap")
    monkeypatch.setattr(np, "unique", refuse)
    ranked_run = search()
    assert ranked_run.best.parents == sorted_run.best.parents
    assert ranked_run.best_report.to_dict() == sorted_run.best_report.to_dict()
    assert ranked_run.trace == sorted_run.trace
    assert ranked_run.visited == sorted_run.visited


def test_log2_table_matches_np_log2_bit_for_bit():
    # np.log2 of each count, taken alone and inside a shuffled array, has
    # the same bits as the table entry, wherever the count sits in a row
    rows = 200_000
    table = _log2_table(rows)
    counts = np.arange(1, rows + 1)
    assert table[0] == 0.0
    assert np.array_equal(table[1:].view(np.int64), np.log2(counts).view(np.int64))
    order = np.random.default_rng(0).permutation(rows)
    assert np.array_equal(table[counts[order]].view(np.int64),
                          np.log2(counts[order]).view(np.int64))
    alone = np.array([np.log2(c) for c in counts[:: 97]])
    assert np.array_equal(table[counts[:: 97]].view(np.int64), alone.view(np.int64))


@pytest.mark.parametrize("bins, kappa", [(2, 3), (4, 2), (8, 1)])
def test_plugin_multi_source_matches_counting_oracle(bins, kappa):
    view = random_discrete_view(4, 1500, bins, seed=bins + kappa, kappa=kappa)
    for target, conds in _kernel_cases(view):
        got = ni.conditional_entropy(target, conds, view, DISCRETE)
        z_rows = np.hstack([view.target(t.subsystem)[:, None] for t in target])
        w_rows = (np.hstack([view.history(c.subsystem) for c in conds]) if conds
                  else np.zeros((view.rows, 0), dtype=np.int64))
        assert got == pytest.approx(counting_cond_entropy(z_rows, w_rows), abs=1e-12)


def test_plugin_chain_rule_agreement():
    # H(Z|W) computed directly equals H(Z,W) - H(W)
    rng = np.random.default_rng(5)
    view = random_discrete_view(2, 2000, 3, seed=50)
    direct = ni.conditional_entropy(next_value(0), [history(0), history(1)],
                                    view, DISCRETE)
    joint = ni.conditional_entropy([next_value(0), history(0), history(1)],
                                   [], view, DISCRETE)
    marginal = ni.conditional_entropy([history(0), history(1)], [],
                                      view, DISCRETE)
    assert abs(direct - (joint - marginal)) < 1e-9


def test_degenerate_covariance_raises():
    ts = ni.TimeSeriesSet([np.arange(100.0), 2 * np.arange(100.0)])
    view = ni.delay_embed(ts, ni.EmbeddingSpec.uniform(2, 1, 2))
    with pytest.raises(NumericError, match="degenerate covariance"):
        ni.conditional_entropy(next_value(0), [history(0), history(1)],
                               view, GAUSSIAN)


def test_kind_data_mismatch_rejected():
    view = random_discrete_view(2, 100, 2, seed=0)
    with pytest.raises(ValidationError, match="real-valued"):
        ni.conditional_entropy(next_value(0), [], view, GAUSSIAN)
    ts = ni.TimeSeriesSet([np.random.default_rng(0).random(50)])
    cview = ni.delay_embed(ts, ni.EmbeddingSpec.uniform(1, 1, 1))
    with pytest.raises(ValidationError, match="discretized"):
        ni.conditional_entropy(next_value(0), [], cview, DISCRETE)


# ---------------------------------------------------------------------------
# the view's entropy memo

def _real_chain_view(seed):
    out = simulate_chain(3, seed=seed, n=500)
    return ni.delay_embed(out.observations, ni.EmbeddingSpec.uniform(3, 1, 2))


_MEMO_VIEWS = {
    "discrete-plugin": (DISCRETE, lambda: random_discrete_view(3, 600, 3, seed=61)),
    "linear-gaussian": (GAUSSIAN, lambda: _real_chain_view(62)),
    "box-kernel": (ni.EstimatorKind.box_kernel(0.2), lambda: _real_chain_view(63)),
}


def _memoised_entropies(view):
    return {key: h for key, h in view._memo.items()
            if isinstance(key[0], ni.EstimatorKind)}


@pytest.mark.parametrize("method", sorted(_MEMO_VIEWS))
def test_view_memo_holds_what_a_fresh_view_computes(method, monkeypatch):
    kind, make_view = _MEMO_VIEWS[method]
    tables = []
    monkeypatch.setattr(ni.estimators, "_log2_table",
                        lambda rows: tables.append(rows) or _log2_table(rows))
    view = make_view()
    scorer = ni.Scorer(view, "te", kind)
    for v in range(3):
        for parents in ((), ((v + 1) % 3,), tuple(u for u in range(3) if u != v)):
            scorer.local(v, parents)
    ni.stochastic_interaction(view, kind)
    ni.kl_divergence(chain_dag(3), view, kind)
    conds = (history(1), history(0), history(2))
    reordered = (history(2), history(0), history(1))
    first = ni.conditional_entropy(next_value(0), conds, view, kind)
    assert ni.conditional_entropy(next_value(0), list(conds), view, kind) == first
    ni.conditional_entropy(next_value(0), reordered, view, kind)
    memo = _memoised_entropies(view)
    joint = tuple(next_value(s) for s in range(3))
    for key in ((kind, joint, tuple(history(s) for s in range(3))),
                (kind, (next_value(0),), conds), (kind, (next_value(0),), reordered)):
        assert key in memo
    for (_, target, conditioners), h in memo.items():
        fresh = ni.conditional_entropy(target, conditioners, make_view(), kind)
        assert fresh.hex() == h.hex()
    # the discrete kernel builds its table of logs once per view
    assert len(tables) == (1 + len(memo) if method == "discrete-plugin" else 0)


@pytest.mark.parametrize("method", sorted(_MEMO_VIEWS))
def test_view_memo_stores_no_out_of_range_entropy(method):
    kind, make_view = _MEMO_VIEWS[method]
    view = make_view()
    for target, conds in ((next_value(3), [history(0)]),
                          (next_value(0), [history(0), history(-1)])):
        for _ in range(2):  # a second call computes, and fails, again
            with pytest.raises(ValidationError, match="out of range"):
                ni.conditional_entropy(target, conds, view, kind)
    assert _memoised_entropies(view) == {}


def test_view_memo_stores_no_degenerate_gaussian():
    ts = ni.TimeSeriesSet([np.arange(100.0), 2 * np.arange(100.0)])
    view = ni.delay_embed(ts, ni.EmbeddingSpec.uniform(2, 1, 2))
    for _ in range(2):
        with pytest.raises(NumericError, match="degenerate covariance"):
            ni.conditional_entropy(next_value(0), [history(0), history(1)],
                                   view, GAUSSIAN)
    assert _memoised_entropies(view) == {}


def test_box_kernel_requires_positive_width():
    with pytest.raises(ValidationError, match="width"):
        ni.EstimatorKind.box_kernel(0.0)


def test_box_kernel_tracks_gaussian_entropy():
    rng = np.random.default_rng(6)
    z = rng.standard_normal(4000)
    view = ni.delay_embed(ni.TimeSeriesSet([z]),
                          ni.EmbeddingSpec.uniform(1, 1, 1))
    box = ni.conditional_entropy(next_value(0), [history(0)], view,
                                 ni.EstimatorKind.box_kernel(0.3))
    gauss = ni.conditional_entropy(next_value(0), [history(0)], view,
                                   GAUSSIAN)
    # kernel ratios estimate probability mass over a box of side 2*width,
    # i.e. density times 2*width: box ~ H - log2(2*width)
    assert abs((box + math.log2(2 * 0.3)) - gauss) < 0.25


def _assert_box_counts_exact(w, z, width):
    cw, czw = _box_counts(w, z, width)
    wz = np.hstack([w, z])
    ref_cw = (reference_box_counts(w, width) if w.shape[1]
              else np.full(len(z), len(z) - 1))
    assert np.array_equal(cw, ref_cw)
    assert np.array_equal(czw, reference_box_counts(wz, width))
    assert np.array_equal(cw, brute_box_counts(w, width))
    assert np.array_equal(czw, brute_box_counts(wz, width))
    assert box_cond_entropy(z, w, width) == reference_box_cond_entropy(z, w, width)


def test_box_counts_integer_grid_ties():
    # integer rows at width 1.0: many pairs lie exactly on the box edge,
    # including across block boundaries in the sorted first coordinate
    rng = np.random.default_rng(21)
    w = rng.integers(0, 6, size=(700, 2)).astype(float)
    z = rng.integers(0, 4, size=(700, 1)).astype(float)
    _assert_box_counts_exact(w, z, 1.0)


def test_box_counts_duplicated_rows():
    # bootstrap surrogates repeat rows; copies sit at distance 0
    rng = np.random.default_rng(22)
    x = rng.random((400, 3))
    x = x[rng.integers(0, 400, size=400)]
    _assert_box_counts_exact(x[:, :2], x[:, 2:], 0.1)


@pytest.mark.parametrize("n", [1, 2, _BOX_BLOCK - 1, _BOX_BLOCK, _BOX_BLOCK + 1, 300])
@pytest.mark.parametrize("dw", [0, 1, 3])
def test_box_counts_match_reference_and_brute_force(n, dw):
    rng = np.random.default_rng(100 * n + dw)
    x = rng.random((n, dw + 1))
    _assert_box_counts_exact(x[:, :dw], x[:, dw:], 0.2)


def test_box_counts_multi_column_target():
    # the joint next-step vector of stochastic_interaction
    out = simulate_chain(3, seed=23, n=600)
    view = ni.delay_embed(out.observations, ni.EmbeddingSpec.uniform(3, 1, 2))
    z = np.hstack([view.target(s)[:, None] for s in range(3)])
    w = np.hstack([view.history(s) for s in range(3)])
    _assert_box_counts_exact(w, z, 0.15)
    got = ni.conditional_entropy([next_value(s) for s in range(3)],
                                 [history(s) for s in range(3)], view,
                                 ni.EstimatorKind.box_kernel(0.15))
    assert got == reference_box_cond_entropy(z, w, 0.15)


def test_box_counts_memory_bounded_by_block():
    # a width covering every row: one pair list would hold all n^2/2 pairs,
    # the block pass at most one block pair's records at a time
    rng = np.random.default_rng(24)
    x = rng.random((1500, 3))
    tracemalloc.start()
    try:
        cw, czw = _box_counts(x[:, :2], x[:, 2:], 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(cw == 1499) and np.all(czw == 1499)
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("kept", ["rest-keeps-none", "target-keeps-none", "every"])
def test_pair_counts_keep_none_or_every_pair(kept):
    # a stage whose filter keeps no pair gathers empty intp positions and
    # counts nothing; one that keeps every pair counts them all, from the
    # tiles as they are found and from the neighbour lists a view keeps
    rng = np.random.default_rng(28)
    first = rng.random((300, 1))
    far = np.arange(300.0)[:, None]  # every pair 1.0 or more apart
    near = np.zeros((300, 1))        # every pair 0.0 apart
    rest, z = {"rest-keeps-none": (far, near), "target-keeps-none": (near, far),
               "every": (near, near)}[kept]
    order, offsets, partners = _neighbour_lists(first, 0.2, math.inf)
    w = np.hstack([first, rest])
    for chunks in (_box_pairs(first, order, 0.2), _neighbour_chunks(offsets, partners)):
        cw, czw = _pair_counts(order, chunks, rest, z, 0.2)
        assert np.array_equal(cw, brute_box_counts(w, 0.2))
        assert np.array_equal(czw, brute_box_counts(np.hstack([w, z]), 0.2))
        if kept == "every":
            assert np.array_equal(czw, brute_box_counts(first, 0.2))
        else:
            assert not czw.any() and cw.any() == (kept == "target-keeps-none")


# the pairs a view keeps: every box entropy of one first conditioner block
# counts from that block's pairs, filtered by the other blocks and by Z

def _recorded_pair_counts(monkeypatch):
    """Record (rest, z, (cw, czw)) of every call of the counting kernel."""
    calls = []
    real = ni.estimators._pair_counts

    def record(order, chunks, rest, z, width):
        found = real(order, chunks, rest, z, width)
        calls.append((rest, z, found))
        return found
    monkeypatch.setattr(ni.estimators, "_pair_counts", record)
    return calls


def _assert_counts_exact(first, rest, z, counts, width):
    w = np.hstack([first, rest])
    wz = np.hstack([w, z])
    for got, x in zip(counts, (w, wz)):
        assert np.array_equal(got, brute_box_counts(x, width))
        assert np.array_equal(got, reference_box_counts(x, width))


def _integer_grid_view():
    # integer values at width 1.0: many pairs lie exactly on the box edge,
    # and equal histories sit at distance 0
    series = np.random.default_rng(25).integers(0, 6, size=(3, 600)).astype(float)
    return ni.delay_embed(ni.TimeSeriesSet(series), ni.EmbeddingSpec.uniform(3, 1, 2))


_KEPT_VIEWS = {
    "chaotic": (0.15, lambda: _real_chain_view(26)),
    "integer-grid": (1.0, _integer_grid_view),
}


@pytest.mark.parametrize("data", sorted(_KEPT_VIEWS))
def test_kept_pairs_count_every_entropy_exactly(monkeypatch, data):
    width, make_view = _KEPT_VIEWS[data]
    kind = ni.EstimatorKind.box_kernel(width)
    view = make_view()
    calls = _recorded_pair_counts(monkeypatch)
    hist = [view.history(s) for s in range(3)]
    joint_z = np.hstack([view.target(s)[:, None] for s in range(3)])
    ni.conditional_entropy(next_value(1), [history(1)], view, kind)
    ni.conditional_entropy(next_value(1), [history(1), history(0), history(2)],
                           view, kind)
    ni.conditional_entropy([next_value(s) for s in range(3)],
                           [history(s) for s in range(3)], view, kind)
    expected = [(hist[1], view.target(1)[:, None]),
                (hist[1], view.target(1)[:, None]),
                (hist[0], joint_z)]
    assert len(calls) == 3
    for (rest, z, counts), (first, want_z) in zip(calls, expected):
        assert np.array_equal(z, want_z)
        _assert_counts_exact(first, rest, z, counts, width)
    assert np.array_equal(calls[1][0], np.hstack([hist[0], hist[2]]))
    assert np.array_equal(calls[2][0], np.hstack(hist[1:]))
    for method in ("permutation", "bootstrap"):
        _, block, h_full = ni.estimators.resampled_source_entropy(1, (0, 2), view, kind)
        ws = ni.significance.resample_rows(block, method, np.random.default_rng(27))
        if method == "bootstrap":
            assert len(np.unique(ws, axis=0)) < len(ws)  # duplicated rows
        h_full(ws)
        rest, z, counts = calls[-1]
        assert rest is ws
        _assert_counts_exact(hist[1], ws, z, counts, width)
    assert view._memo[("box-pairs", width, history(1))] is not None


def _box_values(view, kind):
    """Every box entropy, local and surrogate population of a 3-subsystem
    view, in a fixed order."""
    values = [ni.stochastic_interaction(view, kind)]
    for v in range(3):
        for parents in (((v + 1) % 3,), tuple(u for u in range(3) if u != v)):
            values.append(ni.collective_transfer_entropy(v, parents, view, kind))
            for method in ("permutation", "bootstrap"):
                cfg = ni.SurrogateConfig(count=5, method=method, seed=v)
                values += ni.surrogate_te_samples(v, parents, view, kind, cfg)
    return values


@pytest.mark.parametrize("data", sorted(_KEPT_VIEWS))
def test_pairs_past_the_cap_give_the_same_bits(monkeypatch, data):
    # every destination's pairs kept; only the first destination's (its
    # bytes are the whole budget, so the next one's do not fit); or none
    width, make_view = _KEPT_VIEWS[data]
    kind = ni.EstimatorKind.box_kernel(width)
    kept_view = make_view()
    kept = _box_values(kept_view, kind)
    one = sum(a.nbytes for a in kept_view._memo[("box-pairs", width, history(0))])
    views = {}
    for budget in (one, 0):
        monkeypatch.setattr(ni.estimators, "_KEPT_BYTES", budget)
        views[budget] = make_view()
        got = _box_values(views[budget], kind)
        assert [h.hex() for h in got] == [h.hex() for h in kept]
    for s in range(3):
        key = ("box-pairs", width, history(s))
        assert kept_view._memo[key] is not None
        assert (views[one]._memo[key] is not None) == (s == 0)
        assert views[0]._memo[key] is None


_PRIMITIVE_CASES = {
    # (kind, view, _KEPT_BYTES or None to keep the default)
    "discrete-under-cap": (DISCRETE, lambda: random_discrete_view(3, 800, 2, seed=64,
                                                                  kappa=2), None),
    "discrete-past-cap": (DISCRETE, lambda: random_discrete_view(3, 800, 16, seed=65,
                                                                 kappa=2), None),
    "linear-gaussian": (GAUSSIAN, lambda: _real_chain_view(66), None),
    "box-kept": (ni.EstimatorKind.box_kernel(0.2), lambda: _real_chain_view(67), None),
    "box-unkept": (ni.EstimatorKind.box_kernel(0.2), lambda: _real_chain_view(67), 0),
}


@pytest.mark.parametrize("sources", [(0,), (0, 2)], ids=["one", "two"])
@pytest.mark.parametrize("case", sorted(_PRIMITIVE_CASES))
def test_surrogate_entropy_of_the_unresampled_block_is_the_plain_one(
        monkeypatch, case, sources):
    # a surrogate draw and a plain entropy are one prepared entropy, so the
    # draw that leaves the rows as they are gives the plain value
    kind, make_view, budget = _PRIMITIVE_CASES[case]
    if budget is not None:
        monkeypatch.setattr(ni.estimators, "_KEPT_BYTES", budget)
    view = make_view()
    conds = [history(1)] + [history(s) for s in sources]
    if kind is DISCRETE:
        spaces = [_block_ids(view, sel)[1] for sel in [next_value(1), *conds]]
        assert (math.prod(spaces) > _BINCOUNT_CAP) == case.endswith("past-cap")
    h_self, block, h_full = ni.estimators.resampled_source_entropy(1, sources, view, kind)
    got = h_full(block)
    fresh = make_view()
    assert got.hex() == ni.conditional_entropy(next_value(1), conds, fresh, kind).hex()
    assert h_self == ni.conditional_entropy(next_value(1), [history(1)], fresh, kind)
    kept = view._memo.get(("box-pairs", kind.width, history(1)))
    assert (kept is not None) == (case == "box-kept")


def test_kept_lists_hold_two_bytes_a_pair():
    # below 65,536 rows a pair's partner is a uint16 position, and the row
    # order and offsets take 16 bytes a row
    width = 0.15
    view = _real_chain_view(26)
    ni.conditional_entropy(next_value(1), [history(1), history(0)], view,
                           ni.EstimatorKind.box_kernel(width))
    order, offsets, partners = view._memo[("box-pairs", width, history(1))]
    first, rest, z = view.history(1), view.history(0), view.target(1)[:, None]
    assert partners.dtype == np.uint16 and partners.nbytes == 2 * offsets[-1]
    assert order.nbytes + offsets.nbytes == 16 * view.rows + 8
    assert 2 * offsets[-1] == reference_box_counts(first, width).sum()
    counts = _pair_counts(order, _neighbour_chunks(offsets, partners), rest, z, width)
    _assert_counts_exact(first, rest, z, counts, width)


def test_kept_lists_past_65536_rows_hold_uint32_partners():
    # consecutive integers at width 1.0: each row pairs with the next one only
    n = 65_537
    series = np.vstack([np.arange(n + 1.0),
                        np.random.default_rng(29).integers(0, 4, n + 1)])
    view = ni.delay_embed(ni.TimeSeriesSet(series), ni.EmbeddingSpec.uniform(2, 1, 1))
    assert view.rows == n
    order, offsets, partners = _kept_pairs(view, history(0), 1.0)
    assert partners.dtype == np.uint32 and offsets[-1] == n - 1
    rest, z = view.history(1), view.target(0)[:, None]
    cw, czw = _pair_counts(order, _neighbour_chunks(offsets, partners), rest, z, 1.0)
    w = np.hstack([view.history(0), rest])
    assert np.array_equal(cw, reference_box_counts(w, 1.0))
    assert np.array_equal(czw, reference_box_counts(np.hstack([w, z]), 1.0))


def test_box_kernel_tee_imports_no_scipy_spatial():
    # importing scipy.spatial after numpy took a fresh interpreter's peak
    # resident memory from 27 MB to 65 MB; the box kernel counts with numpy only
    code = ("import sys\n"
            "import numpy as np\n"
            "import netinfer as ni\n"
            "series = np.random.default_rng(0).random((2, 300))\n"
            "view = ni.delay_embed(ni.TimeSeriesSet(series), ni.EmbeddingSpec.uniform(2, 1, 1))\n"
            "scorer = ni.Scorer(view, 'tee', ni.EstimatorKind.box_kernel(0.2),\n"
            "                   surrogates=ni.SurrogateConfig(count=19, seed=0))\n"
            "scorer.local(1, (0,))\n"
            "print('scipy.spatial' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=cli_env(), check=True)
    assert proc.stdout == "False\n"


# ---------------------------------------------------------------------------
# collective transfer entropy

def test_te_empty_sources_exactly_zero():
    view = random_discrete_view(2, 200, 2, seed=7)
    assert ni.collective_transfer_entropy(0, [], view, DISCRETE) == 0.0


def test_te_independent_streams_near_zero():
    view = random_discrete_view(2, 10000, 4, seed=8)
    te = ni.collective_transfer_entropy(0, [1], view, DISCRETE)
    assert 0.0 <= te < 0.01


def test_te_copy_resolves_all_uncertainty():
    rng = np.random.default_rng(9)
    src = rng.integers(0, 3, 1001)
    dst = np.empty_like(src)
    dst[1:] = src[:-1]  # dest copies source with one step of lag
    dst[0] = src[0]
    view = _pair_view(dst, src, (3, 3))
    te = ni.collective_transfer_entropy(0, [1], view, DISCRETE)
    h_dest = ni.conditional_entropy(next_value(0), [history(0)], view, DISCRETE)
    assert te == pytest.approx(h_dest, abs=1e-12)
    # independent counting oracle for the self-conditioned entropy
    oracle = counting_cond_entropy(view.target(0)[:, None], view.history(0))
    assert h_dest == pytest.approx(oracle, abs=1e-12)


def test_te_rejects_dest_in_sources():
    view = random_discrete_view(2, 100, 2, seed=10)
    with pytest.raises(ValidationError):
        ni.collective_transfer_entropy(0, [0], view, DISCRETE)


def test_te_monotone_and_nonnegative_fuzz():
    rng = np.random.default_rng(11)
    view = random_discrete_view(4, 600, 3, seed=12)
    for _ in range(200):
        dest = int(rng.integers(0, 4))
        others = [v for v in range(4) if v != dest]
        b_size = int(rng.integers(1, 4))
        b = list(rng.choice(others, size=b_size, replace=False))
        a = [s for s in b if rng.random() < 0.5]
        te_a = ni.collective_transfer_entropy(dest, a, view, DISCRETE)
        te_b = ni.collective_transfer_entropy(dest, b, view, DISCRETE)
        assert te_a >= -1e-12
        assert te_b >= te_a - 1e-12


# ---------------------------------------------------------------------------
# stochastic interaction and KL divergence

def test_stochastic_interaction_single_subsystem_zero():
    view = random_discrete_view(1, 300, 3, seed=13)
    assert ni.stochastic_interaction(view, DISCRETE) == 0.0


def test_stochastic_interaction_independent_small():
    view = random_discrete_view(3, 20000, 2, seed=14)
    s = ni.stochastic_interaction(view, DISCRETE)
    assert 0.0 <= s < 0.02 * 3


def test_stochastic_interaction_duplicated_series():
    rng = np.random.default_rng(15)
    a = rng.integers(0, 3, 1500)
    view = _pair_view(a, a.copy(), (3, 3))
    s = ni.stochastic_interaction(view, DISCRETE)
    h_self = counting_cond_entropy(view.target(0)[:, None], view.history(0))
    # full redundancy: the joint carries one copy of the information
    assert s == pytest.approx(h_self, abs=1e-9)


def test_kl_empty_graph_equals_stochastic_interaction():
    view = random_discrete_view(3, 1500, 2, seed=16)
    s = ni.stochastic_interaction(view, DISCRETE)
    assert ni.kl_divergence(ni.Dag.empty(3), view, DISCRETE) == pytest.approx(s, abs=0)


def test_kl_single_vertex_zero():
    view = random_discrete_view(1, 300, 3, seed=17)
    assert ni.kl_divergence(ni.Dag.empty(1), view, DISCRETE) == 0.0


def test_kl_complete_not_above_empty_on_coupled_data():
    out = simulate_chain(3, seed=18, n=4000)
    disc = ni.discretize(out.observations, 4)
    view = ni.delay_embed(disc, ni.EmbeddingSpec.uniform(3, 1, 1))
    complete = ni.Dag(3, ((), (0,), (0, 1)))
    assert ni.kl_divergence(complete, view, DISCRETE) <= \
        ni.kl_divergence(ni.Dag.empty(3), view, DISCRETE)


def test_kl_decomposition_identity_random_graphs():
    from netinfer.graph import random_dag
    view = random_discrete_view(4, 1200, 2, seed=19)
    rng = np.random.default_rng(20)
    s = ni.stochastic_interaction(view, DISCRETE)
    for _ in range(20):
        g = random_dag(4, rng)
        te_sum = sum(
            ni.collective_transfer_entropy(v, g.parents[v], view, DISCRETE)
            for v in range(4)
        )
        assert abs(ni.kl_divergence(g, view, DISCRETE) + te_sum - s) < 1e-9


# ---------------------------------------------------------------------------
# linear-gaussian analytic checks

def test_gaussian_te_closed_form_iid_source():
    # memoryless pair: x2' = a*x1 + e, both self weights zero, so
    # TE = 0.5*log2(1 + a^2 * var(source) / var(noise))
    a = 0.5
    g = ni.Dag.from_edges(2, [(0, 1)])
    model = ni.LinearGaussianModel(coupling=((0.0, 0.0), (a, 0.0)),
                                   self_weight=0.0)
    cfg = ni.GdsConfig(graph=g, model=model, process_noise_std=1.0,
                       obs_noise_std=0.0, n=50000, burn_in=100, seed=21)
    out = ni.simulate(cfg)
    view = ni.delay_embed(out.observations, ni.EmbeddingSpec.uniform(2, 1, 1))
    te = ni.collective_transfer_entropy(1, [0], view, GAUSSIAN)
    expected = 0.5 * math.log2(1.0 + a * a)
    assert abs(te - expected) < 0.02


def test_gaussian_te_matches_lyapunov_oracle():
    g = ni.Dag.from_edges(2, [(0, 1)])
    model = ni.LinearGaussianModel(coupling=((0.0, 0.0), (0.5, 0.0)),
                                   self_weight=0.9)
    cfg = ni.GdsConfig(graph=g, model=model, process_noise_std=1.0,
                       obs_noise_std=0.0, n=50000, burn_in=1000, seed=22)
    out = ni.simulate(cfg)
    view = ni.delay_embed(out.observations, ni.EmbeddingSpec.uniform(2, 1, 1))
    te = ni.collective_transfer_entropy(1, [0], view, GAUSSIAN)

    a = np.array([[0.9, 0.0], [0.5, 0.9]])
    p = stationary_covariance(a, np.eye(2))
    ap = a @ p
    cov = np.array([
        [p[1, 1], ap[1, 1], ap[1, 0]],
        [ap[1, 1], p[1, 1], p[1, 0]],
        [ap[1, 0], p[0, 1], p[0, 0]],
    ])
    analytic = 0.5 * math.log2(gaussian_cond_var(cov, [0], [1])
                               / gaussian_cond_var(cov, [0], [1, 2]))
    assert abs(te - analytic) < 0.02
