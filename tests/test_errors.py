"""Every integer and real-number setting goes through one check at
construction: integral numbers only for integers, finite numbers only for
numbers, no bools or strings."""

import numpy as np
import pytest

import netinfer as ni
from netinfer.errors import ValidationError

_TS = ni.TimeSeriesSet([[0.0, 1.0, 2.0, 3.0], [3.0, 1.0, 2.0, 0.0]])
_VIEW = ni.delay_embed(ni.discretize(_TS, 2), ni.EmbeddingSpec.uniform(2))


def _gds(**kw):
    return ni.GdsConfig(graph=ni.Dag.empty(1), model=ni.CoupledLogisticModel(), **kw)


# setting: (build an object with the setting at v, read the stored setting)
INTEGER_SETTINGS = {
    "GdsConfig.n": (lambda v: _gds(n=v), lambda c: c.n),
    "GdsConfig.burn_in": (lambda v: _gds(burn_in=v), lambda c: c.burn_in),
    "GdsConfig.seed": (lambda v: _gds(seed=v), lambda c: c.seed),
    "SearchConfig.restarts": (lambda v: ni.SearchConfig(restarts=v), lambda c: c.restarts),
    "SearchConfig.seed": (lambda v: ni.SearchConfig(seed=v), lambda c: c.seed),
    "SearchConfig.max_parents": (lambda v: ni.SearchConfig(max_parents=v),
                                 lambda c: c.max_parents),
    "SurrogateConfig.count": (lambda v: ni.SurrogateConfig(count=v), lambda c: c.count),
    "SurrogateConfig.seed": (lambda v: ni.SurrogateConfig(1, seed=v), lambda c: c.seed),
    "EmbeddingSpec.tau": (lambda v: ni.EmbeddingSpec((v,), (1,)), lambda s: s.tau[0]),
    "EmbeddingSpec.kappa": (lambda v: ni.EmbeddingSpec((1,), (v,)), lambda s: s.kappa[0]),
    "discretize bins": (lambda v: ni.discretize(_TS, v), lambda d: d.alphabet_sizes[0]),
    "discretize bins list": (lambda v: ni.discretize(_TS, [2, v]),
                             lambda d: d.alphabet_sizes[1]),
    "DiscretizedSeries.alphabet_sizes": (
        lambda v: ni.DiscretizedSeries([[0, 1]], (v,), ("a",)),
        lambda d: d.alphabet_sizes[0]),
    "Chi2Params.df": (lambda v: ni.Chi2Params(v, 0.95), lambda p: p.df),
}

# setting: (build an object with the setting at v, a valid value)
NUMBER_SETTINGS = {
    "Chi2Params.alpha": (lambda v: ni.Chi2Params(1, v), 0.5),
    "Scorer alpha": (lambda v: ni.Scorer(_VIEW, "tea", alpha=v), 0.5),
    "empirical_quantile alpha": (lambda v: ni.empirical_quantile([1.0], v), 0.5),
    "EstimatorKind.width": (lambda v: ni.EstimatorKind("box-kernel", v), 2),
    "GdsConfig.process_noise_std": (lambda v: _gds(process_noise_std=v), 0.5),
    "GdsConfig.obs_noise_std": (lambda v: _gds(obs_noise_std=v), 0.5),
    "GdsConfig.initial_states": (lambda v: _gds(initial_states=(v,)), 0.5),
    "CoupledLogisticModel.r": (lambda v: ni.CoupledLogisticModel(r=v), 3.5),
    "CoupledLogisticModel.epsilon": (lambda v: ni.CoupledLogisticModel(epsilon=v), 0.5),
    "LinearGaussianModel.coupling": (lambda v: ni.LinearGaussianModel(((v,),)), 0.5),
    "LinearGaussianModel.self_weight": (
        lambda v: ni.LinearGaussianModel(((0.0,),), self_weight=v), 0.5),
}


@pytest.mark.parametrize("value, ok", [(True, False), (2.5, False), ("2", False),
                                       (2.0, True), (np.int64(2), True)], ids=repr)
@pytest.mark.parametrize("setting", INTEGER_SETTINGS)
def test_integer_settings_take_integral_numbers_only(setting, value, ok):
    build, read = INTEGER_SETTINGS[setting]
    if not ok:
        with pytest.raises(ValidationError):
            build(value)
        return
    stored = read(build(value))
    assert stored == 2 and type(stored) is int


@pytest.mark.parametrize("setting", NUMBER_SETTINGS)
def test_number_settings_take_numbers_only(setting):
    build, good = NUMBER_SETTINGS[setting]
    for bad in (True, str(good), float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValidationError):
            build(bad)
    build(np.float64(good))


def test_width_is_stored_as_float():
    width = ni.EstimatorKind("box-kernel", np.int64(2)).width
    assert width == 2.0 and type(width) is float
