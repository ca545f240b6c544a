"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import netinfer as ni
from netinfer.graph import random_dag
from netinfer.search import (
    SearchConfig,
    _apply,
    _candidate_moves,
    exhaustive_search,
    greedy_hill_climb,
    move_delta,
)
from netinfer.significance import te_statistic

from conftest import (
    chain_dag,
    chi2_quantile_quadrature,
    cli_env,
    gaussian_cond_var,
    random_discrete_view,
    simulate_chain,
    stationary_covariance,
)

DISCRETE = ni.EstimatorKind.discrete_plugin()


def _all_dags3():
    return list(ni.enumerate_dags(3))


def test_criterion_1_divergence_identity():
    """|kl(G) - (S - sum TE)| < 1e-9 bits on 50 datasets x 25 DAGs, < 1 min."""
    start = time.monotonic()
    dags = _all_dags3()
    worst = 0.0
    for ds in range(50):
        view = random_discrete_view(3, 2000, 3, seed=100_000 + ds)
        s_y = ni.stochastic_interaction(view, DISCRETE)
        for g in dags:
            te_sum = sum(
                ni.collective_transfer_entropy(v, g.parents[v], view, DISCRETE)
                for v in range(3)
            )
            gap = abs(ni.kl_divergence(g, view, DISCRETE) - (s_y - te_sum))
            worst = max(worst, gap)
    elapsed = time.monotonic() - start
    assert worst < 1e-9
    assert elapsed < 60.0
    print(f"criterion 1: PASS (max identity gap {worst:.2e} bits, "
          f"{elapsed:.1f}s)")


def test_criterion_2_min_kl_is_max_te():
    """argmax of the TE score equals argmin of the divergence, ties included,
    on 50/50 datasets."""
    dags = _all_dags3()
    for ds in range(50):
        view = random_discrete_view(3, 2000, 3, seed=100_000 + ds)
        te = ni.Scorer(view, "te", DISCRETE)
        totals = np.array([te.score(g).total for g in dags])
        kls = np.array([ni.kl_divergence(g, view, DISCRETE) for g in dags])
        argmax = {i for i, t in enumerate(totals) if t >= totals.max() - 1e-9}
        argmin = {i for i, k in enumerate(kls) if k <= kls.min() + 1e-9}
        assert argmax == argmin
    print("criterion 2: PASS (50/50 datasets, identical optimum sets)")


def test_criterion_3_monotonicity():
    """TE never decreases when the parent set grows; uncapped raw-TE search
    returns a complete DAG."""
    rng = np.random.default_rng(7)
    checked = 0
    for block in range(10):
        view = random_discrete_view(4, 800, 3, seed=200_000 + block)
        for _ in range(100):
            dest = int(rng.integers(0, 4))
            others = [v for v in range(4) if v != dest]
            b = list(rng.choice(others, size=int(rng.integers(1, 4)),
                                replace=False))
            a = [s for s in b if rng.random() < 0.5]
            te_a = ni.collective_transfer_entropy(dest, a, view, DISCRETE)
            te_b = ni.collective_transfer_entropy(dest, b, view, DISCRETE)
            assert te_b >= te_a - 1e-12
            checked += 1
    assert checked == 1000

    out = simulate_chain(3, seed=55, n=4000)
    disc = ni.discretize(out.observations, 4)
    view = ni.delay_embed(disc, ni.EmbeddingSpec.uniform(3, 1, 2))
    sc = ni.Scorer(view, "te", DISCRETE)
    result = greedy_hill_climb(sc, SearchConfig(seed=0, max_parents=None))
    assert result.best.n_edges == 3  # complete DAG on 3 vertices
    print("criterion 3: PASS (1000 monotone instances; uncapped TE search "
          "returned a complete DAG)")


def test_criterion_4_chi2_machinery():
    """Quantiles match a quadrature oracle to 1e-4; 2N*TE follows chi2(2)
    under the discrete null (KS < 0.05 over 500 trials)."""
    for df in range(1, 21):
        for alpha in (0.9, 0.95, 0.99):
            ours = ni.chi2_quantile(ni.Chi2Params(df, alpha))
            oracle = chi2_quantile_quadrature(df, alpha)
            assert abs(ours - oracle) < 1e-4, (df, alpha)

    stats = []
    for trial in range(500):
        rng = np.random.default_rng(30_000 + trial)
        sym = rng.integers(0, 2, size=(2, 10_001))
        disc = ni.DiscretizedSeries(sym, (2, 2))
        view = ni.delay_embed(disc, ni.EmbeddingSpec.uniform(2, 1, 1))
        te = ni.collective_transfer_entropy(1, [0], view, DISCRETE)
        stats.append(te_statistic(te, view.rows))
    stats = np.sort(stats)
    n = len(stats)
    cdf = 1.0 - np.exp(-stats / 2.0)  # chi-squared with two degrees of freedom
    d_plus = float(np.max(np.arange(1, n + 1) / n - cdf))
    d_minus = float(np.max(cdf - np.arange(0, n) / n))
    ks = max(d_plus, d_minus)
    assert ks < 0.05
    print(f"criterion 4: PASS (quantiles to 1e-4 for df 1..20; KS {ks:.4f})")


def test_criterion_5_tee_null_calibration():
    """Per-edge false-positive rate 0.05 +/- 0.02 at alpha=0.95 over 500
    seeded trials, for the discrete and box-kernel estimators."""
    trials = 500

    rejections = 0
    for trial in range(trials):
        rng = np.random.default_rng(10_000 + trial)
        sym = rng.integers(0, 4, size=(2, 1000))
        disc = ni.DiscretizedSeries(sym, (4, 4))
        view = ni.delay_embed(disc, ni.EmbeddingSpec.uniform(2, 1, 1))
        surr = ni.SurrogateConfig(count=19, seed=trial)
        sc = ni.Scorer(view, "tee", DISCRETE, alpha=0.95, surrogates=surr)
        rejections += sc.local(1, (0,)).local > 0
    discrete_rate = rejections / trials
    assert 0.03 <= discrete_rate <= 0.07

    rejections = 0
    for trial in range(trials):
        rng = np.random.default_rng(20_000 + trial)
        ts = ni.TimeSeriesSet(rng.standard_normal((2, 400)))
        view = ni.delay_embed(ts, ni.EmbeddingSpec.uniform(2, 1, 1))
        surr = ni.SurrogateConfig(count=19, seed=trial)
        sc = ni.Scorer(view, "tee", ni.EstimatorKind.box_kernel(0.3),
                       alpha=0.95, surrogates=surr)
        rejections += sc.local(1, (0,)).local > 0
    box_rate = rejections / trials
    assert 0.03 <= box_rate <= 0.07
    print(f"criterion 5: PASS (false-positive rates: discrete "
          f"{discrete_rate:.3f}, box-kernel {box_rate:.3f})")


def test_criterion_6_structure_recovery():
    """Chain recovery on the coupled logistic system (r=4, eps=0.4, noise
    1e-3, N=10000, kappa=2, tau=1): TEE exact in >= 8/10 seeds, TEA on 4-bin
    data in >= 7/10 seeds, < 5 min per score kind."""
    truth_edges = chain_dag(3).edges()

    start = time.monotonic()
    tee_hits = 0
    for seed in range(10):
        out = simulate_chain(3, seed=seed)
        disc = ni.discretize(out.observations, 8)
        view = ni.delay_embed(disc, ni.EmbeddingSpec.uniform(3, 1, 2))
        surr = ni.SurrogateConfig(count=19, seed=seed)
        sc = ni.Scorer(view, "tee", DISCRETE, alpha=0.95, surrogates=surr)
        tee_hits += exhaustive_search(sc).best.edges() == truth_edges
    tee_elapsed = time.monotonic() - start
    assert tee_hits >= 8
    assert tee_elapsed < 300.0

    start = time.monotonic()
    tea_hits = 0
    for seed in range(10):
        out = simulate_chain(3, seed=seed)
        disc = ni.discretize(out.observations, 4)
        view = ni.delay_embed(disc, ni.EmbeddingSpec.uniform(3, 1, 2))
        sc = ni.Scorer(view, "tea", DISCRETE, alpha=0.95)
        tea_hits += exhaustive_search(sc).best.edges() == truth_edges
    tea_elapsed = time.monotonic() - start
    assert tea_hits >= 7
    assert tea_elapsed < 300.0
    print(f"criterion 6: PASS (TEE {tee_hits}/10 in {tee_elapsed:.1f}s, "
          f"TEA {tea_hits}/10 in {tea_elapsed:.1f}s)")


def test_criterion_7_gaussian_analytic():
    """Linear-gaussian TE within 0.02 bits of the stationary-covariance
    value obtained from the Lyapunov recursion, at N=50000."""
    g = ni.Dag.from_edges(2, [(0, 1)])
    model = ni.LinearGaussianModel(coupling=((0.0, 0.0), (0.5, 0.0)),
                                   self_weight=0.9)
    cfg = ni.GdsConfig(graph=g, model=model, process_noise_std=1.0,
                       obs_noise_std=0.0, n=50_000, burn_in=1000, seed=7)
    out = ni.simulate(cfg)
    view = ni.delay_embed(out.observations, ni.EmbeddingSpec.uniform(2, 1, 1))
    te = ni.collective_transfer_entropy(1, [0], view,
                                        ni.EstimatorKind.linear_gaussian())

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
    print(f"criterion 7: PASS (estimate {te:.4f} vs analytic {analytic:.4f})")


def test_criterion_8_decomposability_and_caching():
    """Incremental move deltas equal full recomputation to 1e-9 over 1000
    fuzzed moves; greedy reaches >= 0.95x the exhaustive optimum on >= 18/20
    seeded datasets."""
    view = random_discrete_view(4, 1000, 2, seed=300_000)
    sc = ni.Scorer(view, "tea", DISCRETE, alpha=0.95)
    rng = np.random.default_rng(4)

    def total(graph):
        return sum(sc.local(v, graph.parents[v]).local for v in range(graph.m))

    fuzzed = 0
    worst = 0.0
    while fuzzed < 1000:
        g = random_dag(4, rng)
        moves = _candidate_moves(g, None)
        if not moves:
            continue
        move = moves[rng.integers(0, len(moves))]
        delta = move_delta(sc, g, move)
        gap = abs((total(g) + delta) - total(_apply(g, move)))
        worst = max(worst, gap)
        assert gap < 1e-9
        fuzzed += 1

    wins = 0
    for seed in range(20):
        out = simulate_chain(3, seed=400 + seed, n=3000)
        disc = ni.discretize(out.observations, 4)
        view = ni.delay_embed(disc, ni.EmbeddingSpec.uniform(3, 1, 2))
        scorer = ni.Scorer(view, "tea", DISCRETE, alpha=0.95)
        opt = exhaustive_search(scorer).best_report.total
        got = greedy_hill_climb(scorer, SearchConfig(seed=seed)).best_report.total
        wins += got >= 0.95 * opt
    assert wins >= 18
    print(f"criterion 8: PASS (1000 deltas, max gap {worst:.2e}; greedy "
          f"within 5% of optimum on {wins}/20 datasets)")


def test_criterion_9_pipeline_determinism(tmp_path):
    """simulate -> infer -> eval is byte-reproducible under fixed seeds.

    The run manifests are excluded from the diff: they record wall-clock
    duration by design. Every other artifact must match byte for byte.
    """
    config = {
        "names": ["V1", "V2", "V3"],
        "edges": [["V1", "V2"], ["V2", "V3"]],
        "model": {"type": "coupled-logistic", "r": 4.0, "epsilon": 0.4},
        "process_noise_std": 1e-3,
        "obs_noise_std": 1e-3,
        "n": 500,
        "burn_in": 200,
        "seed": 13,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")

    def run_pipeline(workdir):
        workdir.mkdir()
        def cli(*args):
            proc = subprocess.run(
                [sys.executable, "-m", "netinfer", *args],
                capture_output=True, text=True, env=cli_env(),
            )
            assert proc.returncode == 0, proc.stderr
        cli("simulate", "--config", str(cfg_path), "--out-dir", str(workdir))
        cli("infer", "--data", str(workdir / "data.csv"),
            "--out-dir", str(workdir / "inferred"),
            "--search", "exhaustive", "--score", "tee", "--bins", "4",
            "--surrogates", "19", "--seed", "3")
        cli("eval", "--inferred", str(workdir / "inferred" / "inferred.dot"),
            "--truth", str(workdir / "truth.dot"),
            "--out", str(workdir / "metrics.json"))

    run_pipeline(tmp_path / "a")
    run_pipeline(tmp_path / "b")

    artifacts = ["data.csv", "truth.dot", "config.json",
                 "inferred/inferred.dot", "inferred/report.json",
                 "metrics.json"]
    for rel in artifacts:
        a = (tmp_path / "a" / rel).read_bytes()
        b = (tmp_path / "b" / rel).read_bytes()
        assert a == b, f"artifact {rel} differs between runs"
    print(f"criterion 9: PASS ({len(artifacts)} artifacts byte-identical)")
