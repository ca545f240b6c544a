"""Significance machinery for the penalized scores.

Analytic side: chi-squared quantiles and the degrees of freedom of the
conditional-independence test behind each transfer-entropy term. The
likelihood-ratio statistic 2*N*ln(2)*TE_bits is asymptotically
chi-squared under the no-interaction null.

Empirical side: surrogate transfer-entropy populations built by permuting
(or bootstrap-resampling) the joint source-history rows across time while
the destination stays fixed, which preserves every marginal and the
inter-source structure but removes the source-destination association.

Both tests run at the ``Scorer``'s one alpha, range-checked by
:func:`check_alpha`; sources are checked by :func:`graph.check_parents`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericError, ValidationError, check_int, check_number
from .estimators import EstimatorKind, resampled_source_entropy
from .graph import check_parents
from .timeseries import EmbeddedView

_DF_LIMIT = 2 ** 63 - 1
LN2 = math.log(2.0)

# Each tee local draws a population of this many surrogates at most. Drawn
# on the calling thread, a discrete-plugin surrogate took 0.28-0.40 ms on
# the M=5 benchmark tree (N=10000, 8 bins) and a box-kernel one 3.7-4.5 ms
# on the M=3 benchmark chain (N=3000, width 0.08), on a 2-vCPU Xeon VM. So
# one population of this many takes from about 30 s to 7.5 minutes there; a
# larger count is refused at once rather than run for hours or days.
MAX_SURROGATES = 100_000


def check_alpha(alpha: float):
    """The one check of a significance level: a number with 0 < alpha < 1."""
    if not 0.0 < check_number("alpha", alpha) < 1.0:
        raise ValidationError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class Chi2Params:
    df: int
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "df", check_int("degrees of freedom", self.df, 1))
        check_alpha(self.alpha)


@dataclass(frozen=True)
class SurrogateConfig:
    """Resampling plan for the surrogate test (its level is the Scorer's alpha)."""

    count: int
    method: str = "permutation"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "count", check_int("surrogate count", self.count,
                                                    1, MAX_SURROGATES))
        if self.method not in ("permutation", "bootstrap"):
            raise ValidationError(f"unknown surrogate method {self.method!r}")
        object.__setattr__(self, "seed", check_int("seed", self.seed, 0))


def te_statistic(te_bits: float, n_effective: int) -> float:
    """Likelihood-ratio scale of a transfer entropy: 2*N*ln(2)*TE_bits."""
    return 2.0 * n_effective * LN2 * te_bits


def chi2_quantile(p: Chi2Params) -> float:
    """x with CDF_{chi2(df)}(x) = alpha, via the inverse regularized lower
    incomplete gamma function."""
    from scipy.special import gammaincinv  # here: simulate and eval never load it
    return float(2.0 * gammaincinv(p.df / 2.0, p.alpha))


def te_degrees_of_freedom(dest: int, sources: Sequence[int],
                          kappa: Sequence[int],
                          alphabet: Sequence[int]) -> tuple[int, list[int]]:
    """Degrees of freedom of the discrete transfer-entropy test.

    Total: (r_d - 1) * (prod_j r_j^k_j - 1) * r_d^k_d, the df of a
    conditional mutual-information test where the conditioner is the
    destination's own embedded past. The per-source list follows the given
    source order and telescopes to the total:
    l_j = (r_d - 1) (r_j^k_j - 1) r_d^k_d * prod_{k<j} r_k^k_k.
    """
    check_parents(dest, sources, len(kappa))
    r_d = int(alphabet[dest])
    base = (r_d - 1) * r_d ** int(kappa[dest])
    per_source: list[int] = []
    prefix = 1
    for j in sources:
        states_j = int(alphabet[j]) ** int(kappa[j])
        l_j = base * (states_j - 1) * prefix
        prefix *= states_j
        if l_j > _DF_LIMIT or prefix > _DF_LIMIT:
            raise NumericError("df overflow: test is infeasible at this resolution")
        per_source.append(l_j)
    total = sum(per_source)
    if total > _DF_LIMIT:
        raise NumericError("df overflow: test is infeasible at this resolution")
    return total, per_source


def gaussian_te_degrees_of_freedom(sources: Sequence[int],
                                   kappa: Sequence[int],
                                   ) -> tuple[int, list[int]]:
    """Degrees of freedom for the linearly-coupled Gaussian test: each
    source contributes its embedded block size kappa_j (added regressors)."""
    per_source = [int(kappa[j]) for j in sources]
    return sum(per_source), per_source


def derive_seed(*parts) -> int:
    """Stable seed derivation, identical across platforms and runs."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def resample_rows(block: np.ndarray, method: str, rng: np.random.Generator) -> np.ndarray:
    """One surrogate draw of a block's rows, taken whole: the same draws and
    rows as indexing with ``rng.permutation(n)`` or ``rng.integers(0, n, n)``."""
    if method == "permutation":
        return rng.permutation(block)
    return block[rng.integers(0, len(block), size=len(block))]


def draw_surrogates(dest: int, sources, view: EmbeddedView, kind: EstimatorKind,
                    cfg: SurrogateConfig, start: int, stop: int) -> list[float]:
    """Surrogate transfer entropies ``start..stop-1`` of the population that
    :func:`surrogate_te_samples` returns whole: draw i uses a seed derived
    from (cfg.seed, i), so any split into chunks gives the same values."""
    sources = tuple(sources)
    if not sources:
        raise ValidationError("surrogate test needs a non-empty source set")
    check_parents(dest, sources, view.m_total)
    if start >= stop:
        return []
    h_self, block, h_full = resampled_source_entropy(dest, sources, view, kind)
    values = []
    for i in range(start, stop):
        rng = np.random.default_rng(derive_seed(cfg.seed, i))
        values.append(h_self - h_full(resample_rows(block, cfg.method, rng)))
    return values


def surrogate_te_samples(dest: int, sources, view: EmbeddedView,
                         kind: EstimatorKind, cfg: SurrogateConfig,
                         drawn: Sequence[float] = ()) -> list[float]:
    """Transfer entropies recomputed under the no-association null.

    Each sample permutes (or redraws, for bootstrap) the *joint* source
    history rows as whole rows, so source marginals and cross-source
    correlations survive while the pairing with the destination is
    destroyed. Sample i uses a seed derived from (cfg.seed, i), so results
    are deterministic and independent of evaluation order.

    ``drawn`` is a prefix of the population already computed (samples
    ``0..len(drawn)-1``, as :func:`draw_surrogates` returns them); only the
    rest is drawn, and the whole population of ``cfg.count`` values is
    returned, equal to the call without a prefix.
    """
    if len(drawn) > cfg.count:
        raise ValidationError(
            f"{len(drawn)} surrogates drawn of a population of {cfg.count}")
    return list(drawn) + draw_surrogates(dest, sources, view, kind, cfg,
                                         len(drawn), cfg.count)


def quantile_rank(alpha: float, count: int) -> int:
    """The 1-based rank of :func:`empirical_quantile` among ``count`` sorted
    samples: ceil(alpha * count), clamped to 1..count."""
    # tolerance keeps exact multiples like 0.95*20 from rounding up a rank
    return min(max(math.ceil(alpha * count - 1e-9), 1), count)


def empirical_quantile(samples: Sequence[float], alpha: float) -> float:
    """Smallest sample value v with #(samples <= v)/N >= alpha (ceiling-rank
    order statistic, no interpolation)."""
    if len(samples) == 0:
        raise ValidationError("empirical quantile of an empty sample")
    check_alpha(alpha)
    ordered = np.sort(np.asarray(samples, dtype=float))
    return float(ordered[quantile_rank(alpha, len(ordered)) - 1])
