"""Ground-truth generators: coupled logistic maps and linear-Gaussian nets.

Coupled logistic dynamics per vertex (p = number of parents):

    x'_i = (1 - eps) * g(x_i) + (eps / p) * sum_j g(x_parent_j) + noise,
    g(z) = r * z * (1 - z),

with the pure self-map g(x_i) + noise for parentless vertices (the
coupling mixture is undefined at p = 0). Noise excursions are reflected
back into [0, 1]. Observations are the scalar state plus observation
noise.

Linear-Gaussian dynamics:

    x' = A x + N(0, process_std^2),   A = self * I + coupling,
    y  = x + N(0, obs_std^2),

valid only when the spectral radius of A stays below one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import NumericError, ValidationError, check_int, check_number
from .graph import Dag, check_names
from .timeseries import TimeSeriesSet


def _numbers(name: str, values) -> tuple:
    """A list, tuple or array of numbers as a tuple, each entry kept as given."""
    if not isinstance(values, (list, tuple, np.ndarray)):
        raise ValidationError(f"{name} must be a list of numbers, got {values!r}")
    for v in values:
        check_number(f"each {name} entry", v)
    return tuple(values)


@dataclass(frozen=True)
class CoupledLogisticModel:
    r: float = 4.0
    epsilon: float = 0.4

    def __post_init__(self):
        check_number("r", self.r)
        check_number("epsilon", self.epsilon)
        if not 0.0 < self.epsilon < 1.0:
            raise ValidationError("epsilon must satisfy 0 < epsilon < 1")
        if self.r <= 0:
            raise ValidationError("r must be positive")

    def start(self, cfg: GdsConfig, rng):
        """Initial state (drawn uniformly unless given), noise-free map and
        the fold that reflects noise excursions back into [0, 1]."""
        m = cfg.graph.m
        if cfg.initial_states is not None:
            x = np.asarray(cfg.initial_states, dtype=float)
            if np.any(x < 0.0) or np.any(x > 1.0):
                raise ValidationError("initial_states must lie in [0, 1]")
        else:
            x = rng.uniform(0.0, 1.0, size=m)
        parents = [np.asarray(ps, dtype=int) for ps in cfg.graph.parents]
        eps = self.epsilon

        def step(x: np.ndarray) -> np.ndarray:
            g = self.r * x * (1.0 - x)
            new = np.empty(m, dtype=float)
            for i in range(m):
                ps = parents[i]
                if ps.size:
                    new[i] = (1.0 - eps) * g[i] + (eps / ps.size) * g[ps].sum()
                else:
                    new[i] = g[i]
            return new

        return x, step, _reflect_unit


@dataclass(frozen=True)
class LinearGaussianModel:
    coupling: tuple[tuple[float, ...], ...]  # coupling[i][j]: weight of j -> i
    self_weight: float = 0.9

    def __post_init__(self):
        if not isinstance(self.coupling, (list, tuple, np.ndarray)):
            raise ValidationError(
                f"coupling must be a list of rows of numbers, got {self.coupling!r}")
        object.__setattr__(self, "coupling", tuple(
            tuple(map(float, _numbers("coupling row", row))) for row in self.coupling))
        check_number("self_weight", self.self_weight)

    def start(self, cfg: GdsConfig, rng):
        """Initial state (zero unless given), noise-free map x -> A x and no
        fold; rejects couplings off the graph and nonstationary systems."""
        m = cfg.graph.m
        w = np.asarray(self.coupling, dtype=float)
        if w.shape != (m, m):
            raise ValidationError(f"coupling must be {m}x{m}, got {w.shape}")
        for i in range(m):
            for j in range(m):
                if w[i, j] != 0.0 and not cfg.graph.has_edge(j, i):
                    raise ValidationError(
                        f"coupling[{i}][{j}] is nonzero but the graph has no "
                        f"edge {j} -> {i}"
                    )
        a = self.self_weight * np.eye(m) + w
        radius = float(np.max(np.abs(np.linalg.eigvals(a))))
        if radius >= 1.0:
            raise ValidationError(
                f"nonstationary system: spectral radius {radius:.4f} >= 1"
            )
        x = (np.asarray(cfg.initial_states, dtype=float)
             if cfg.initial_states is not None else np.zeros(m))
        return x, lambda x: a @ x, lambda x: x


@dataclass(frozen=True)
class GdsConfig:
    """Simulator specification: graph, local map, noise and sampling plan."""

    graph: Dag
    model: Union[CoupledLogisticModel, LinearGaussianModel]
    process_noise_std: float = 0.0
    obs_noise_std: float = 0.0
    n: int = 10000
    burn_in: int = 1000
    seed: int = 0
    names: Optional[tuple[str, ...]] = None  # None: V1, ..., VM
    initial_states: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        """Check every field once; n, burn_in and seed become int, the noise
        levels float and the sequences tuples."""
        for key, minimum in (("n", 2), ("burn_in", 0), ("seed", 0)):
            object.__setattr__(self, key, check_int(key, getattr(self, key), minimum))
        for key in ("process_noise_std", "obs_noise_std"):
            value = check_number(key, getattr(self, key))
            if value < 0:
                raise ValidationError(f"{key} must be >= 0")
            object.__setattr__(self, key, value)
        object.__setattr__(self, "names", check_names(self.names, self.graph.m))
        if self.initial_states is not None:
            object.__setattr__(self, "initial_states",
                               _numbers("initial_states", self.initial_states))
            if len(self.initial_states) != self.graph.m:
                raise ValidationError(
                    "initial_states length does not match vertex count")


@dataclass(frozen=True)
class SimOutput:
    observations: TimeSeriesSet
    states: np.ndarray  # (M, n), diagnostics only
    truth: Dag
    config_echo: GdsConfig


def _reflect_unit(x: np.ndarray) -> np.ndarray:
    """Fold values back into [0, 1] by reflecting at the boundaries."""
    for _ in range(64):
        out_low = x < 0.0
        out_high = x > 1.0
        if not (out_low.any() or out_high.any()):
            return x
        x = np.where(out_low, -x, x)
        x = np.where(out_high, 2.0 - x, x)
    raise NumericError("state reflection did not converge (noise too large?)")


def simulate(cfg: GdsConfig) -> SimOutput:
    """Iterate the configured model and observe it through noise."""
    m = cfg.graph.m
    rng = np.random.default_rng(cfg.seed)
    x, step, fold = cfg.model.start(cfg, rng)

    total = cfg.burn_in + cfg.n
    try:
        states = np.empty((total, m), dtype=float)
        observations = np.empty((total, m), dtype=float)
    except (ValueError, MemoryError):  # numpy's "too big" and a failed allocation
        raise NumericError(
            f"cannot allocate burn_in + n samples of {m} series") from None
    for t in range(total):
        x = step(x) + rng.normal(0.0, cfg.process_noise_std, size=m)
        if not np.all(np.isfinite(x)):
            raise NumericError(f"non-finite state at step {t}")
        x = fold(x)
        states[t] = x
        observations[t] = x + rng.normal(0.0, cfg.obs_noise_std, size=m)

    keep_states = states[cfg.burn_in:].T.copy()
    keep_obs = observations[cfg.burn_in:].T.copy()
    ts = TimeSeriesSet(keep_obs, cfg.names)
    return SimOutput(observations=ts, states=keep_states,
                     truth=cfg.graph, config_echo=cfg)
