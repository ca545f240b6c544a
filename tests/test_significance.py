import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

import netinfer as ni
from netinfer.errors import NumericError, ValidationError
from netinfer.significance import (
    MAX_SURROGATES,
    derive_seed,
    draw_surrogates,
    gaussian_te_degrees_of_freedom,
    quantile_rank,
    resample_rows,
    te_statistic,
)

from netinfer.estimators import _BINCOUNT_CAP, history

from conftest import (
    chi2_quantile_quadrature,
    random_discrete_view,
    reference_box_surrogate_te_samples,
    reference_surrogate_te_samples,
    simulate_chain,
    surrogate_indices,
)

DISCRETE = ni.EstimatorKind.discrete_plugin()


# ---------------------------------------------------------------------------
# chi-squared quantiles

def test_chi2_quantile_df1():
    q = ni.chi2_quantile(ni.Chi2Params(1, 0.95))
    assert q == pytest.approx(3.84146, abs=1e-4)


def test_chi2_quantile_df2_closed_form():
    for alpha in (0.5, 0.9, 0.95, 0.99):
        q = ni.chi2_quantile(ni.Chi2Params(2, alpha))
        assert q == pytest.approx(-2.0 * math.log(1.0 - alpha), abs=1e-8)


@pytest.mark.parametrize("df", [1, 2, 3, 5, 10, 20, 100])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 0.95, 0.99])
def test_chi2_quantile_round_trip(df, alpha):
    q = ni.chi2_quantile(ni.Chi2Params(df, alpha))
    assert gammainc(df / 2.0, q / 2.0) == pytest.approx(alpha, abs=1e-8)


@pytest.mark.parametrize("df", [1, 2, 5, 13, 20])
def test_chi2_quantile_against_quadrature(df):
    for alpha in (0.9, 0.95, 0.99):
        ours = ni.chi2_quantile(ni.Chi2Params(df, alpha))
        oracle = chi2_quantile_quadrature(df, alpha)
        assert ours == pytest.approx(oracle, abs=1e-4)


def test_chi2_params_validation():
    with pytest.raises(ValidationError):
        ni.Chi2Params(0, 0.95)
    with pytest.raises(ValidationError):
        ni.Chi2Params(2, 1.0)


# ---------------------------------------------------------------------------
# degrees of freedom

def test_df_single_binary_pair():
    total, per = ni.te_degrees_of_freedom(0, [1], (1, 1), (2, 2))
    assert total == 2
    assert per == [2]


def test_df_empty_sources():
    total, per = ni.te_degrees_of_freedom(0, [], (1, 1), (2, 2))
    assert total == 0
    assert per == []


def test_df_two_binary_sources_telescopes():
    total, per = ni.te_degrees_of_freedom(0, [1, 2], (1, 1, 1), (2, 2, 2))
    assert per == [2, 4]
    assert total == 6
    # closed form (r_d - 1) (prod r_j^k_j - 1) r_d^k_d
    assert total == (2 - 1) * (2 * 2 - 1) * 2


def test_df_telescoping_identity_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        m = int(rng.integers(2, 6))
        alphabet = tuple(int(r) for r in rng.integers(2, 5, size=m))
        kappa = tuple(int(k) for k in rng.integers(1, 3, size=m))
        dest = int(rng.integers(0, m))
        sources = [v for v in range(m) if v != dest]
        rng.shuffle(sources)
        total, per = ni.te_degrees_of_freedom(dest, sources, kappa, alphabet)
        states = 1
        for j in sources:
            states *= alphabet[j] ** kappa[j]
        closed = (alphabet[dest] - 1) * (states - 1) * alphabet[dest] ** kappa[dest]
        assert sum(per) == total == closed


def test_df_overflow():
    with pytest.raises(NumericError, match="df overflow"):
        ni.te_degrees_of_freedom(0, [1, 2, 3], (8, 8, 8, 8),
                                 (64, 64, 64, 64))


def test_df_gaussian_blocks():
    total, per = gaussian_te_degrees_of_freedom([1, 2], (1, 2, 3))
    assert per == [2, 3]
    assert total == 5


def test_te_statistic_scale():
    # the likelihood-ratio statistic is on the natural-log scale
    assert te_statistic(1.0, 100) == pytest.approx(200 * math.log(2.0))


# ---------------------------------------------------------------------------
# surrogates

def test_surrogate_count_contract():
    view = random_discrete_view(2, 300, 2, seed=1)
    cfg = ni.SurrogateConfig(count=1, seed=0)
    samples = ni.surrogate_te_samples(0, [1], view, DISCRETE, cfg)
    assert len(samples) == 1


def test_surrogate_requires_sources():
    view = random_discrete_view(2, 300, 2, seed=2)
    cfg = ni.SurrogateConfig(count=3, seed=0)
    with pytest.raises(ValidationError):
        ni.surrogate_te_samples(0, [], view, DISCRETE, cfg)


def test_permutation_preserves_marginal_rows():
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 4, size=(500, 3))
    permuted = resample_rows(rows, "permutation", rng)
    a = {tuple(r) for r in rows.tolist()}
    b = {tuple(r) for r in permuted.tolist()}
    assert a == b
    assert np.array_equal(np.sort(rows, axis=0), np.sort(permuted, axis=0))


@pytest.mark.parametrize("method", ["permutation", "bootstrap"])
@pytest.mark.parametrize("block", [
    np.random.default_rng(1).integers(0, 50, size=777),       # discrete ids
    np.random.default_rng(2).normal(size=(777, 3)),           # real rows
])
def test_resample_rows_equals_indexing_with_the_index_draw(method, block):
    for seed in range(20):
        got = resample_rows(block, method, np.random.default_rng(seed))
        idx = surrogate_indices(len(block), method, np.random.default_rng(seed))
        assert got.dtype == block.dtype
        assert np.array_equal(got, block[idx])


def test_surrogates_deterministic_and_order_free():
    view = random_discrete_view(2, 500, 3, seed=4)
    cfg = ni.SurrogateConfig(count=25, seed=77)
    first = ni.surrogate_te_samples(0, [1], view, DISCRETE, cfg)
    second = ni.surrogate_te_samples(0, [1], view, DISCRETE, cfg)
    assert first == second


@pytest.mark.parametrize("bins", [2, 4, 8, 16])
@pytest.mark.parametrize("kappa", [1, 2, 3])
@pytest.mark.parametrize("method", ["permutation", "bootstrap"])
def test_surrogates_bit_identical_to_reference(bins, kappa, method):
    view = random_discrete_view(4, 1500, bins, seed=10 * bins + kappa, kappa=kappa)
    cfg = ni.SurrogateConfig(count=5, method=method, seed=bins + kappa)
    for k in (1, 2, 3):
        sources = tuple(range(1, 1 + k))
        got = ni.surrogate_te_samples(0, sources, view, DISCRETE, cfg)
        assert got == reference_surrogate_te_samples(0, sources, view, cfg)


@pytest.mark.parametrize("method", ["permutation", "bootstrap"])
def test_surrogates_sort_fallback_bit_identical(method):
    # (own past, next) pairs times joint source pasts exceed the bincount
    # cap, so every surrogate is counted by sorting
    view = random_discrete_view(3, 3000, 16, seed=33, kappa=3)
    pairs = np.hstack([view.history(0), view.target(0)[:, None]])
    sources = np.hstack([view.history(1), view.history(2)])
    assert (len(np.unique(pairs, axis=0)) * len(np.unique(sources, axis=0))
            > _BINCOUNT_CAP)
    cfg = ni.SurrogateConfig(count=5, method=method, seed=4)
    got = ni.surrogate_te_samples(0, (1, 2), view, DISCRETE, cfg)
    assert got == reference_surrogate_te_samples(0, (1, 2), view, cfg)


@pytest.mark.parametrize("method", ["permutation", "bootstrap"])
def test_surrogates_bincount_above_old_cap_bit_identical(method):
    # (own past, next) pairs times joint source pasts lie between 2**16 and
    # the bincount cap, so every surrogate is counted with np.bincount
    view = random_discrete_view(3, 800, 4, seed=35, kappa=3)
    pairs = np.hstack([view.history(0), view.target(0)[:, None]])
    sources = np.hstack([view.history(1), view.history(2)])
    joined = len(np.unique(pairs, axis=0)) * len(np.unique(sources, axis=0))
    assert 2 ** 16 < joined <= _BINCOUNT_CAP
    cfg = ni.SurrogateConfig(count=5, method=method, seed=6)
    got = ni.surrogate_te_samples(0, (1, 2), view, DISCRETE, cfg)
    assert got == reference_surrogate_te_samples(0, (1, 2), view, cfg)


@pytest.mark.parametrize("method", ["permutation", "bootstrap"])
def test_box_surrogates_bit_identical_to_reference(method):
    out = simulate_chain(3, seed=31, n=500)
    view = ni.delay_embed(out.observations, ni.EmbeddingSpec.uniform(3, 1, 2))
    cfg = ni.SurrogateConfig(count=6, method=method, seed=8)
    for sources in ((0,), (0, 2)):
        got = ni.surrogate_te_samples(1, sources, view,
                                      ni.EstimatorKind.box_kernel(0.1), cfg)
        assert got == reference_box_surrogate_te_samples(1, sources, view, 0.1, cfg)
    # every surrogate counted from the destination history's kept pairs
    assert view._memo[("box-pairs", 0.1, history(1))] is not None


def _prefix_case(estimator):
    if estimator == "discrete":
        return random_discrete_view(3, 400, 3, seed=12), DISCRETE
    out = simulate_chain(3, seed=32, n=300)
    view = ni.delay_embed(out.observations, ni.EmbeddingSpec.uniform(3, 1, 2))
    if estimator == "linear-gaussian":
        return view, ni.EstimatorKind.linear_gaussian()
    return view, ni.EstimatorKind.box_kernel(0.1)


@pytest.mark.parametrize("method", ["permutation", "bootstrap"])
@pytest.mark.parametrize("estimator", ["discrete", "linear-gaussian", "box-kernel"])
def test_population_completed_from_any_prefix_is_bit_identical(estimator, method):
    view, kind = _prefix_case(estimator)
    cfg = ni.SurrogateConfig(count=7, method=method, seed=9)
    whole = ni.surrogate_te_samples(1, (0, 2), view, kind, cfg)
    assert len(whole) == cfg.count
    for split in range(cfg.count + 1):
        prefix = draw_surrogates(1, (0, 2), view, kind, cfg, 0, split)
        assert prefix == whole[:split]
        assert ni.surrogate_te_samples(1, (0, 2), view, kind, cfg,
                                       drawn=prefix) == whole


def test_prefix_longer_than_the_population_rejected():
    view = random_discrete_view(2, 300, 2, seed=2)
    cfg = ni.SurrogateConfig(count=3, seed=0)
    with pytest.raises(ValidationError, match="4 surrogates drawn"):
        ni.surrogate_te_samples(0, [1], view, DISCRETE, cfg, drawn=[0.0] * 4)


def test_null_measurement_is_one_more_draw():
    # independent streams: the measured TE sits inside the surrogate spread
    view = random_discrete_view(2, 2000, 3, seed=5)
    cfg = ni.SurrogateConfig(count=500, seed=6)
    samples = np.asarray(ni.surrogate_te_samples(1, [0], view, DISCRETE, cfg))
    measured = ni.collective_transfer_entropy(1, [0], view, DISCRETE)
    assert abs(measured - samples.mean()) < 2.0 * samples.std()


def test_coupled_measurement_beats_quantile():
    hits = 0
    for trial in range(100):
        out = simulate_chain(2, seed=800 + trial, n=2000)
        disc = ni.discretize(out.observations, 4)
        view = ni.delay_embed(disc, ni.EmbeddingSpec.uniform(2, 1, 1))
        cfg = ni.SurrogateConfig(count=19, seed=trial)
        samples = ni.surrogate_te_samples(1, [0], view, DISCRETE, cfg)
        measured = ni.collective_transfer_entropy(1, [0], view, DISCRETE)
        hits += measured > ni.empirical_quantile(samples, 0.95)
    assert hits >= 95


def test_bootstrap_runs():
    view = random_discrete_view(2, 400, 2, seed=7)
    cfg = ni.SurrogateConfig(count=10, method="bootstrap", seed=8)
    samples = ni.surrogate_te_samples(0, [1], view, DISCRETE, cfg)
    assert len(samples) == 10
    assert all(np.isfinite(samples))


def test_derive_seed_stable():
    assert derive_seed(1, "a", (2, 3)) == derive_seed(1, "a", (2, 3))
    assert derive_seed(1, "a") != derive_seed(2, "a")


# ---------------------------------------------------------------------------
# empirical quantile

def test_quantile_rank_examples():
    assert ni.empirical_quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
    assert ni.empirical_quantile([5.0], 0.3) == 5.0
    assert ni.empirical_quantile([5.0], 0.99) == 5.0


def test_quantile_uniform_samples():
    rng = np.random.default_rng(9)
    samples = rng.uniform(0, 1, 10000)
    assert ni.empirical_quantile(samples, 0.9) == pytest.approx(0.9, abs=0.02)


@pytest.mark.parametrize("count", [1, 2, 19, 20, 99, 199])
@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.9, 0.95, 0.99])
def test_partial_population_bound_holds_for_every_prefix(count, alpha):
    # the scorer's bound from a prefix: te - L, with L the (K - r + 1)-th
    # largest value drawn, never falls below the completed local te - q
    r = quantile_rank(alpha, count)
    assert 1 <= r <= count
    first = count - r + 1
    rng = np.random.default_rng(count)
    te = 0.05
    for _ in range(5):
        population = list(rng.normal(0.0, 0.01, count).round(3))  # with ties
        q = ni.empirical_quantile(population, alpha)
        assert q == sorted(population)[r - 1]
        for j in range(first, count + 1):
            bound = te - sorted(population[:j])[-first]
            assert bound >= te - q
            if j == count:
                assert bound == te - q


def test_quantile_exact_multiple_rank():
    # 0.95 * 20 carries float noise; the rank must still be 19, not 20
    samples = list(range(1, 21))
    assert ni.empirical_quantile(samples, 0.95) == 19


def test_quantile_empty_rejected():
    with pytest.raises(ValidationError):
        ni.empirical_quantile([], 0.5)


def test_negative_seed_rejected():
    with pytest.raises(ValidationError, match="seed"):
        ni.SurrogateConfig(count=19, seed=-1)


def test_surrogate_count_bounded():
    assert ni.SurrogateConfig(count=MAX_SURROGATES).count == MAX_SURROGATES
    with pytest.raises(ValidationError,
                       match=f"surrogate count must be <= {MAX_SURROGATES}"):
        ni.SurrogateConfig(count=MAX_SURROGATES + 1)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=50),
       st.floats(0.01, 0.99), st.floats(0.01, 0.99))
def test_quantile_monotone_in_alpha(samples, a1, a2):
    lo, hi = sorted((a1, a2))
    assert ni.empirical_quantile(samples, lo) <= ni.empirical_quantile(samples, hi)
