import importlib
import math

import numpy as np
import pytest

import netinfer as ni
from netinfer.errors import NumericError, ValidationError

from conftest import (
    chain_dag,
    reference_simulate_coupled_logistic,
    reference_simulate_linear_gaussian,
)

DISCRETE = ni.EstimatorKind.discrete_plugin()
# the module; the package's `simulate` attribute is the function
simulate_module = importlib.import_module("netinfer.simulate")


def test_logistic_orbit_exact():
    cfg = ni.GdsConfig(
        graph=ni.Dag.empty(1),
        model=ni.CoupledLogisticModel(r=4.0, epsilon=0.5),
        n=4, burn_in=0, seed=0, initial_states=(0.5,),
    )
    out = ni.simulate(cfg)
    assert out.states[0].tolist() == [1.0, 0.0, 0.0, 0.0]
    assert np.array_equal(out.observations.series, out.states)


def test_epsilon_bounds_rejected():
    for eps in (0.0, 1.0, 1.5):
        with pytest.raises(ValidationError, match="epsilon"):
            ni.CoupledLogisticModel(r=4.0, epsilon=eps)


@pytest.mark.parametrize("build", [
    lambda: ni.GdsConfig(graph=chain_dag(2), model=ni.CoupledLogisticModel(),
                         n=2000.5),
    lambda: ni.CoupledLogisticModel(r=True),
    lambda: ni.LinearGaussianModel(coupling=((0, "1"), (0, 0))),
    lambda: ni.GdsConfig(graph=chain_dag(3), model=ni.CoupledLogisticModel(),
                         names=["V1", "V1", "V3"]),
])
def test_config_types_are_checked_at_construction(build):
    # the checks a simulate config gets from the CLI, for library callers too
    with pytest.raises(ValidationError):
        build()


def test_simulation_determinism_bit_identical():
    cfg = ni.GdsConfig(
        graph=chain_dag(3),
        model=ni.CoupledLogisticModel(r=4.0, epsilon=0.4),
        process_noise_std=1e-3, obs_noise_std=1e-3,
        n=500, burn_in=100, seed=42,
    )
    a = ni.simulate(cfg)
    b = ni.simulate(cfg)
    assert np.array_equal(a.observations.series, b.observations.series)
    assert np.array_equal(a.states, b.states)
    assert a.truth.parents == b.truth.parents


def test_noiseless_matches_scalar_logistic_oracle():
    cfg = ni.GdsConfig(
        graph=ni.Dag.empty(2),
        model=ni.CoupledLogisticModel(r=3.7, epsilon=0.3),
        n=50, burn_in=0, seed=5,
    )
    out = ni.simulate(cfg)
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 1.0, size=2)
    for i in range(2):
        z = x[i]
        for t in range(50):
            z = 3.7 * z * (1.0 - z)
            assert out.states[i, t] == z


def test_states_stay_in_unit_interval_under_noise():
    cfg = ni.GdsConfig(
        graph=chain_dag(2),
        model=ni.CoupledLogisticModel(r=4.0, epsilon=0.4),
        process_noise_std=0.05, obs_noise_std=0.0,
        n=2000, burn_in=0, seed=6,
    )
    out = ni.simulate(cfg)
    assert out.states.min() >= 0.0
    assert out.states.max() <= 1.0


def test_observation_shape_and_truth_echo():
    cfg = ni.GdsConfig(
        graph=chain_dag(3),
        model=ni.CoupledLogisticModel(),
        n=123, burn_in=7, seed=1,
    )
    out = ni.simulate(cfg)
    assert out.observations.n == 123
    assert out.observations.m == 3
    assert out.truth.parents == cfg.graph.parents
    assert out.config_echo == cfg


def test_te_directionality_along_true_edges():
    hits = 0
    for trial in range(100):
        cfg = ni.GdsConfig(
            graph=chain_dag(2),
            model=ni.CoupledLogisticModel(r=4.0, epsilon=0.3),
            process_noise_std=1e-3, obs_noise_std=1e-3,
            n=2000, burn_in=500, seed=1000 + trial,
        )
        out = ni.simulate(cfg)
        disc = ni.discretize(out.observations, 4)
        view = ni.delay_embed(disc, ni.EmbeddingSpec.uniform(2, 1, 1))
        fwd = ni.collective_transfer_entropy(1, [0], view, DISCRETE)
        rev = ni.collective_transfer_entropy(0, [1], view, DISCRETE)
        hits += fwd > rev
    assert hits >= 90


# ---------------------------------------------------------------------------
# linear gaussian

def test_linear_white_noise_is_uncorrelated():
    cfg = ni.GdsConfig(
        graph=ni.Dag.empty(2),
        model=ni.LinearGaussianModel(coupling=((0.0, 0.0), (0.0, 0.0)),
                                     self_weight=0.0),
        process_noise_std=1.0, obs_noise_std=0.0,
        n=10000, burn_in=10, seed=2,
    )
    out = ni.simulate(cfg)
    for i in range(2):
        x = out.observations.series[i]
        ac1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(ac1) < 0.05


def test_linear_nonstationary_rejected():
    cfg = ni.GdsConfig(
        graph=ni.Dag.empty(1),
        model=ni.LinearGaussianModel(coupling=((0.0,),), self_weight=1.01),
        process_noise_std=1.0, n=100, seed=0,
    )
    with pytest.raises(ValidationError, match="nonstationary"):
        ni.simulate(cfg)


def test_linear_coupling_must_match_graph():
    cfg = ni.GdsConfig(
        graph=ni.Dag.empty(2),
        model=ni.LinearGaussianModel(coupling=((0.0, 0.0), (0.5, 0.0)),
                                     self_weight=0.0),
        process_noise_std=1.0, n=100, seed=0,
    )
    with pytest.raises(ValidationError, match="no .*edge"):
        ni.simulate(cfg)


def test_correlation_0_05_pair():
    rho = 0.05
    w = rho / math.sqrt(1.0 - rho * rho)
    cfg = ni.GdsConfig(
        graph=ni.Dag.from_edges(2, [(0, 1)]),
        model=ni.LinearGaussianModel(coupling=((0.0, 0.0), (w, 0.0)),
                                     self_weight=0.0),
        process_noise_std=1.0, obs_noise_std=0.0,
        n=10000, burn_in=100, seed=3,
    )
    out = ni.simulate(cfg)
    x1 = out.observations.series[0]
    x2 = out.observations.series[1]
    lagged = np.corrcoef(x1[:-1], x2[1:])[0, 1]
    assert lagged == pytest.approx(rho, abs=0.02)


# ---------------------------------------------------------------------------
# the one simulation loop against the per-model loops it replaced

_CHAIN3_COUPLING = ((0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.0, -0.4, 0.0))


def _reference(cfg):
    return (reference_simulate_linear_gaussian
            if isinstance(cfg.model, ni.LinearGaussianModel)
            else reference_simulate_coupled_logistic)


def _assert_matches_reference(cfg):
    out = ni.simulate(cfg)
    ref_obs, ref_states = _reference(cfg)(cfg)
    assert np.array_equal(out.observations.series, ref_obs)
    assert np.array_equal(out.states, ref_states)
    return out


@pytest.mark.parametrize("noise", [0.0, 0.02])
@pytest.mark.parametrize("initial_states", [None, (0.1, 0.5, 0.9)])
@pytest.mark.parametrize("model,reference", [
    (ni.CoupledLogisticModel(r=3.9, epsilon=0.4),
     reference_simulate_coupled_logistic),
    (ni.LinearGaussianModel(coupling=_CHAIN3_COUPLING, self_weight=0.6),
     reference_simulate_linear_gaussian),
])
def test_simulate_matches_reference_loop(model, reference, initial_states, noise):
    for burn_in in (0, 10):
        cfg = ni.GdsConfig(
            graph=chain_dag(3), model=model,
            process_noise_std=noise, obs_noise_std=noise / 2,
            n=300, burn_in=burn_in, seed=23, initial_states=initial_states,
        )
        out = ni.simulate(cfg)
        ref_obs, ref_states = reference(cfg)
        assert np.array_equal(out.observations.series, ref_obs)
        assert np.array_equal(out.states, ref_states)


# the perfbench M=5 tree, a 3-parent fan-in, and a 9-parent fan-in, whose
# parents' sum numpy takes in its pairwise order
_TREE_M5 = ni.Dag.from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
_FAN_IN_3 = ni.Dag.from_edges(4, [(0, 3), (1, 3), (2, 3)])
_FAN_IN_9 = ni.Dag.from_edges(10, [(j, 9) for j in range(9)])


def _logistic(graph, r=3.9, epsilon=0.4, noise=0.02, **kw):
    return ni.GdsConfig(graph=graph, model=ni.CoupledLogisticModel(r=r, epsilon=epsilon),
                        process_noise_std=noise, obs_noise_std=noise / 2, **kw)


@pytest.mark.parametrize("graph", [_TREE_M5, _FAN_IN_3, _FAN_IN_9],
                         ids=["tree5", "fan-in-3", "fan-in-9"])
@pytest.mark.parametrize("epsilon", [0.05, 0.4, 0.95])
def test_simulate_matches_reference_multi_parent(graph, epsilon):
    # 9000 steps cross two noise blocks
    _assert_matches_reference(_logistic(graph, epsilon=epsilon, n=8000,
                                        burn_in=1000, seed=31))


def test_simulate_matches_reference_through_multi_flip_reflections(monkeypatch):
    folded = []

    def reflect(v, original=simulate_module._reflect):
        folded.append(v)
        return original(v)

    monkeypatch.setattr(simulate_module, "_reflect", reflect)
    _assert_matches_reference(_logistic(_TREE_M5, r=4.0, noise=0.3, n=9000,
                                        burn_in=0, seed=9))
    # a value below -1 or above 2 takes two flips or more
    assert sum(v < -1.0 or v > 2.0 for v in folded) >= 4


def test_simulate_matches_reference_at_the_flip_limit():
    # g = r / 4 = 63.5 at x = 0.5 takes 63 flips, the most allowed, and no
    # later g exceeds it
    out = _assert_matches_reference(_logistic(
        ni.Dag.empty(1), r=254.0, noise=0.0, n=50, burn_in=0, seed=1,
        initial_states=(0.5,)))
    assert out.states[0, 0] == 0.5


@pytest.mark.parametrize("model", [
    ni.CoupledLogisticModel(r=3.7, epsilon=0.3),
    ni.LinearGaussianModel(coupling=_CHAIN3_COUPLING, self_weight=0.6),
], ids=["logistic", "linear-gaussian"])
def test_simulate_matches_reference_at_the_smallest_size(model):
    out = _assert_matches_reference(ni.GdsConfig(
        graph=chain_dag(3), model=model, process_noise_std=0.1,
        obs_noise_std=0.1, n=2, burn_in=0, seed=4))
    assert out.states.shape == (3, 2)


def _raised(run, cfg):
    with pytest.raises(NumericError) as info:
        run(cfg)
    return str(info.value)


@pytest.mark.parametrize("cfg, message", [
    # g reaches r / 4 = 75, which takes more than 64 flips to fold back
    (_logistic(ni.Dag.empty(3), r=300.0, noise=0.0, n=100, seed=1),
     "state reflection did not converge (noise too large?)"),
    # g = r / 4 = 64.5 at x = 0.5 takes 64 flips, one more than allowed
    (_logistic(ni.Dag.empty(1), r=258.0, noise=0.0, n=10, seed=1,
               initial_states=(0.5,)),
     "state reflection did not converge (noise too large?)"),
    # seed 3's first process draw is -2.56: 1e308 times it overflows
    (_logistic(ni.Dag.empty(1), noise=1e308, n=100, seed=3),
     "non-finite state at step 0"),
    # seed 8's first draws are -0.35 and -2.31: vertex 0 would fail to fold,
    # vertex 1 is infinite, and the non-finite check comes first
    (_logistic(ni.Dag.empty(3), noise=1e308, n=100, seed=8),
     "non-finite state at step 0"),
    (ni.GdsConfig(graph=chain_dag(3),
                  model=ni.LinearGaussianModel(coupling=_CHAIN3_COUPLING),
                  process_noise_std=1e308, n=100, seed=0),
     "non-finite state at step 2"),
], ids=["reflection", "flip-limit", "non-finite", "non-finite-before-reflection",
        "linear-non-finite"])
def test_simulate_errors_match_reference(cfg, message):
    assert _raised(ni.simulate, cfg) == _raised(_reference(cfg), cfg) == message
