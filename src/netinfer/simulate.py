"""Ground-truth generators: coupled logistic maps and linear-Gaussian nets.

Coupled logistic dynamics per vertex (p = number of parents):

    x'_i = (1 - eps) * g(x_i) + (eps / p) * sum_j g(x_parent_j) + noise,
    g(z) = r * z * (1 - z),

with the pure self-map g(x_i) + noise for parentless vertices (the
coupling mixture is undefined at p = 0). Noise excursions are reflected
back into [0, 1]. Observations are the scalar state plus observation
noise. The map runs on Python floats, the parents' sum left to right,
except that numpy's pairwise order is kept for eight or more parents.

Linear-Gaussian dynamics:

    x' = A x + N(0, process_std^2),   A = self * I + coupling,
    y  = x + N(0, obs_std^2),

valid only when the spectral radius of A stays below one.

Noise is drawn from one generator in blocks of steps, in step order: each
step's M process-noise values, then its M observation-noise values.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
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
        """Initial state (drawn uniformly unless given) and the function that
        advances it through a block of process noise, reflecting noise
        excursions back into [0, 1]."""
        if cfg.initial_states is not None:
            x = [float(v) for v in cfg.initial_states]
            if not all(0.0 <= v <= 1.0 for v in x):
                raise ValidationError("initial_states must lie in [0, 1]")
        else:
            x = rng.uniform(0.0, 1.0, size=cfg.graph.m).tolist()
        r, eps = float(self.r), self.epsilon
        keep = 1.0 - eps
        # (parents, eps / p, whether numpy's sum order must be kept) per vertex
        plan = [(ps, eps / len(ps) if ps else 0.0, len(ps) >= 8)
                for ps in cfg.graph.parents]

        def advance(x, noise, out, t0):
            rows = []
            for t, e in enumerate(noise.tolist(), t0):
                g = [r * v * (1.0 - v) for v in x]
                x = []
                inside = True
                for gi, (ps, share, pairwise), ei in zip(g, plan, e):
                    if ps:
                        if pairwise:
                            s = float(np.array([g[j] for j in ps]).sum())
                        else:
                            s = 0.0
                            for j in ps:
                                s += g[j]
                        gi = keep * gi + share * s
                    gi += ei
                    if not 0.0 <= gi <= 1.0:  # an excursion or non-finite
                        inside = False
                    x.append(gi)
                if not inside:
                    if not all(map(math.isfinite, x)):
                        raise NumericError(f"non-finite state at step {t}")
                    x = [_reflect(v) for v in x]
                rows.append(x)
            out[:] = rows
            return x

        return x, advance


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
        """Initial state (zero unless given) and the function that advances it
        through a block of process noise by x -> A x + noise; rejects
        couplings off the graph and nonstationary systems."""
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

        def advance(x, noise, out, t0):
            # a @ x per step: BLAS's summation order decides its bits
            for t, e in enumerate(noise):
                x = a @ x + e
                if not np.isfinite(x).all():
                    raise NumericError(f"non-finite state at step {t0 + t}")
                out[t] = x
            return x

        return x, advance


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


_BLOCK = 4096  # steps of noise per draw: few calls, flat memory


def _reflect(v: float) -> float:
    """Fold a finite value back into [0, 1] by reflecting at the boundaries."""
    for _ in range(64):
        if v < 0.0:
            v = -v
        elif v > 1.0:
            v = 2.0 - v
        else:
            return v
    raise NumericError("state reflection did not converge (noise too large?)")


def simulate(cfg: GdsConfig) -> SimOutput:
    """Iterate the configured model and observe it through noise."""
    m = cfg.graph.m
    rng = np.random.default_rng(cfg.seed)
    x, advance = cfg.model.start(cfg, rng)

    total = cfg.burn_in + cfg.n
    try:
        states = np.empty((total, m), dtype=float)
        observations = np.empty((total, m), dtype=float)
    except (ValueError, MemoryError):  # numpy's "too big" and a failed allocation
        raise NumericError(
            f"cannot allocate burn_in + n samples of {m} series") from None
    for t0 in range(0, total, _BLOCK):
        # row [t, 0] is step t's process noise, row [t, 1] its observation
        # noise; 0.0 + std * z is what rng.normal(0.0, std) computes
        z = rng.standard_normal((min(_BLOCK, total - t0), 2, m))
        with np.errstate(over="ignore"):  # an overflow is caught as non-finite
            z = 0.0 + np.array([cfg.process_noise_std, cfg.obs_noise_std])[:, None] * z
        block = slice(t0, t0 + len(z))
        x = advance(x, z[:, 0], states[block], t0)
        np.add(states[block], z[:, 1], out=observations[block])

    # rebinding frees each full array once its kept part is copied
    states = states[cfg.burn_in:].T.copy()
    observations = observations[cfg.burn_in:].T.copy()
    return SimOutput(observations=TimeSeriesSet(observations, cfg.names),
                     states=states, truth=cfg.graph, config_echo=cfg)
