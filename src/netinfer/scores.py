"""Decomposable graph scores: TE, TEA, TEE and the information criteria.

Every score is a sum over vertices of a local term that depends only on
the vertex and its parent set, which is what makes incremental search
cheap. A ``Scorer`` bundles one dataset view with one score configuration
and memoizes local terms without a lock, so it serves one thread.

Score kinds
-----------
``te``   raw summed transfer entropy (bits); monotone in edges, so only
         useful with an external parent cap.
``tea``  likelihood-ratio statistic 2*N*ln2*TE minus analytic chi-squared
         quantiles, one per parent, ordered to maximize the penalty.
``tee``  transfer entropy minus the empirical surrogate quantile.
``aic``/``bic``/``ml``  information criteria on discretized data:
         -N * sum_i H(next_i | own past, parent pasts) - f(N) * C(G), with
         f(N) = 1, log2(N)/2 and 0 respectively.

``tea`` and ``tee`` test at the ``Scorer``'s one ``alpha``. ``Scorer.local``
returns the memo entry of a ``parents`` tuple that is already a stored key
(the search's sorted tuples) as it stands; other input is checked with
:func:`graph.check_parents`, then sorted and made ints.

``Scorer.local_bound`` is an upper bound of a local for the greedy climb's
pruning, and draws no surrogate. ``Scorer.draw_chunk``, the only method that
draws part of a population, tightens it for a ``tee`` local: it draws the
next chunk of the local's surrogate population, kept as floats with the
local's ``te`` until the population is complete, so a bound after a chunk
looks up no entropy, and a complete population gives the exact local.
Before the first chunk a discrete-plugin ``tee`` local is bounded by ``te``
plus a proved slack, and a linear-Gaussian or box-kernel one by ``inf``.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .errors import NumericError, ValidationError
from .estimators import EstimatorKind, conditional_entropy, history, next_value
from .graph import Dag, check_parents, check_vertex_count
from .significance import (
    Chi2Params,
    SurrogateConfig,
    check_alpha,
    chi2_quantile,
    derive_seed,
    draw_surrogates,
    empirical_quantile,
    gaussian_te_degrees_of_freedom,
    quantile_rank,
    surrogate_te_samples,
    te_degrees_of_freedom,
    te_statistic,
)
from .timeseries import EmbeddedView

SCORE_KINDS = ("te", "tea", "tee", "aic", "bic", "ml")
IC_KINDS = ("aic", "bic", "ml")

# Slack of a discrete-plugin tee bound, in bits. A tee local is te - q, with
# q an order statistic of surrogate values h_self - h_full(resampled). With
# the plug-in estimator each value is a conditional mutual information of
# the empirical distribution, >= 0 in exact arithmetic, so local <= te. In
# floating point the row counts are exact integers, and an entropy is a
# pairwise np.add.reduce of N terms log2(c_w) - log2(c_zw), each in
# [0, log2 N], divided by N: its error is about (log2 N)**2 * eps, 4e-14
# bits at N = 10**4 (eps = 2.2e-16), and a surrogate value's at most twice
# that, 2.4e-13 at N = 10**7. So q >= -slack, and since rounding is
# monotone, fl(te - q) <= fl(te + slack). 1e-9 leaves a wide margin.
# The linear-Gaussian CMI goes through solve/slogdet on covariances with
# condition numbers up to estimators._COND_LIMIT, and box-kernel TEs can be
# negative: neither has a provable slack, so both bound a local only from
# drawn surrogates.
_BOUND_SLACK = 1e-9

_UNSTORED = (object(), None)  # no entry: stored from no input, no score


@dataclass(frozen=True)
class LocalScore:
    te: float
    penalty: float
    local: float


@dataclass
class PerVertexScore:
    vertex: int
    parents: tuple[int, ...]
    te: float
    penalty: float
    local: float


@dataclass
class ScoreReport:
    score_kind: str
    estimator: str
    total: float
    per_vertex: list[PerVertexScore]
    n_effective: int
    names: tuple[str, ...]
    alpha: Optional[float] = None
    seed: Optional[int] = None
    f_of_n: Optional[float] = None
    notes: Optional[str] = None

    def to_dict(self) -> dict:
        doc = {
            "score_kind": self.score_kind,
            "estimator": self.estimator,
            "alpha": self.alpha,
            "seed": self.seed,
            "total": self.total,
            "n_effective": self.n_effective,
            "per_vertex": [
                {
                    "vertex": self.names[pv.vertex],
                    "parents": [self.names[p] for p in pv.parents],
                    "te": pv.te,
                    "penalty": pv.penalty,
                    "local": pv.local,
                }
                for pv in self.per_vertex
            ],
        }
        if self.f_of_n is not None:
            doc["f_of_n"] = self.f_of_n
        if self.notes is not None:
            doc["notes"] = self.notes
        return doc

    def to_json(self, **kwargs) -> str:
        kwargs.setdefault("indent", 2)
        return json.dumps(self.to_dict(), **kwargs) + "\n"


class LocalScoreCache:
    """Memo of one scorer's local scores, (vertex, sorted int parents) to
    (the parents it was computed from, score), with hit and miss counts. It
    has no lock: a ``Scorer`` serves one thread."""

    def __init__(self):
        self.store: dict = {}
        self.hits = 0
        self.misses = 0


class Scorer:
    """One dataset view plus one score configuration, with memoized locals;
    one thread at a time may use it."""

    def __init__(self, view: EmbeddedView, score_kind: str,
                 estimator: EstimatorKind | None = None, *,
                 alpha: float = 0.95,
                 surrogates: SurrogateConfig | None = None):
        if score_kind not in SCORE_KINDS:
            raise ValidationError(f"unknown score kind {score_kind!r}")
        if estimator is None:
            estimator = EstimatorKind.discrete_plugin()
        if score_kind == "tea" and estimator.method == "box-kernel":
            raise ValidationError(
                "tea needs an analytic null distribution; the box-kernel "
                "estimator has none (use tee instead)"
            )
        if score_kind in IC_KINDS and estimator.method != "discrete-plugin":
            raise ValidationError(
                f"{score_kind} requires the discrete-plugin estimator on "
                "discretized data (parameter counts need finite alphabets)"
            )
        if score_kind in ("tea", "tee"):
            check_alpha(alpha)
        if score_kind == "tee":
            if surrogates is None:
                raise ValidationError("tee requires a SurrogateConfig")
            recommended = math.ceil(alpha / (1.0 - alpha))
            if surrogates.count < recommended:
                warnings.warn(
                    f"surrogate count {surrogates.count} is below the "
                    f"recommended minimum ceil(alpha/(1-alpha)) = {recommended} "
                    f"for alpha = {alpha}",
                    stacklevel=2,
                )
        self.view = view
        self.score_kind = score_kind
        self.estimator = estimator
        self.alpha = alpha if score_kind in ("tea", "tee") else None
        self.surrogates = surrogates if score_kind == "tee" else None
        self.cache = LocalScoreCache()
        # partial tee populations: (vertex, parents) -> (te, the values
        # drawn so far in draw order), until local() completes and memoises
        # them
        self._drawn: dict = {}
        if self.surrogates is not None:
            # the quantile is the first_chunk-th largest of the population
            count = self.surrogates.count
            self._first_chunk = count - quantile_rank(alpha, count) + 1

    # -- pieces ----------------------------------------------------------

    @property
    def n_effective(self) -> int:
        return self.view.rows

    def _entropy(self, vertex: int, parents: tuple[int, ...] = ()) -> float:
        """H(next | own past, parent pasts) of a vertex, memoised on the view."""
        conds = [history(vertex)] + [history(p) for p in parents]
        return conditional_entropy(next_value(vertex), conds,
                                   self.view, self.estimator)

    def _te(self, vertex: int, parents: tuple[int, ...]) -> float:
        """Transfer entropy from a vertex's parents to it, in bits."""
        return self._entropy(vertex) - self._entropy(vertex, parents)

    def _tea_penalty(self, vertex: int, parents: tuple[int, ...]) -> float:
        view = self.view
        kappa = [view.kappa(s) for s in range(view.m_total)]
        if self.estimator.method == "discrete-plugin":
            alphabet = [view.alphabet(s) for s in range(view.m_total)]
            # conservative: the ordering that maximizes the total penalty is
            # descending embedded-alphabet size
            order = sorted(parents,
                           key=lambda j: (-(alphabet[j] ** kappa[j]), j))
            _, per_source = te_degrees_of_freedom(vertex, order, kappa, alphabet)
        else:
            _, per_source = gaussian_te_degrees_of_freedom(parents, kappa)
        return sum(chi2_quantile(Chi2Params(l, self.alpha)) for l in per_source)

    def _ic_penalty(self, vertex: int, parents: tuple[int, ...]) -> float:
        """f(N) * C(G) of one local, C(G) its parameter count; ``ml`` has
        f(N) = 0 and counts none."""
        view, f_of_n = self.view, self._f_of_n()
        if not f_of_n:
            return 0.0
        r = view.alphabet(vertex)
        c = (r - 1) * r ** view.kappa(vertex)
        for p in parents:
            c *= view.alphabet(p) ** view.kappa(p)
        if c > sys.float_info.max / f_of_n:
            raise NumericError(f"parameter count overflow: {self.score_kind} "
                               "is infeasible at this resolution")
        return f_of_n * c

    def _f_of_n(self) -> float:
        if self.score_kind == "aic":
            return 1.0
        if self.score_kind == "bic":
            return math.log2(self.n_effective) / 2.0
        return 0.0

    # -- local scores ------------------------------------------------------

    def _entry(self, vertex: int, parents: Sequence[int], count=False):
        """The memo key (vertex, sorted int parents) and its stored entry
        ``(parents, LocalScore)`` or None, counted as a hit or a miss if
        ``count``. The input is checked with :func:`check_parents` before it
        is made ints, and a rejected one counts as a miss."""
        cache = self.cache
        cache.misses += count  # until the key is found
        check_parents(vertex, parents, self.view.m_total)
        key = (int(vertex), tuple(sorted(int(p) for p in parents)))
        found = cache.store.get(key)
        if found is not None:
            cache.misses -= count
            cache.hits += count
        return key, found

    def local(self, vertex: int, parents: Sequence[int]) -> LocalScore:
        cache = self.cache
        # the search passes the same sorted tuples again: the one an entry
        # was stored from, with an int vertex, is a hit as is
        stored, found = (cache.store.get((vertex, parents), _UNSTORED)
                         if type(parents) is tuple else _UNSTORED)
        if stored is parents and type(vertex) is int:
            cache.hits += 1
            return found
        key, found = self._entry(vertex, parents, count=True)
        if found is None:
            found = cache.store[key] = (parents, self._compute_local(*key))
        return found[1]

    def local_bound(self, vertex: int, parents: Sequence[int]) -> float:
        """An upper bound of ``local(vertex, parents).local`` that draws no
        surrogate: the memoised local if there is one, and the exact local
        for every score but ``tee``. A ``tee`` local is te - q, where q is the
        r-th smallest of K surrogate values (r from :func:`quantile_rank`),
        that is the (K - r + 1)-th largest. Once :meth:`draw_chunk` has drawn
        at least K - r + 1 values, the (K - r + 1)-th largest of them, L, is
        at most q, and since rounding is monotone the bound is ``te - L``.
        With none drawn, a discrete-plugin local is bounded by
        ``te + _BOUND_SLACK``, and the other estimators' by ``inf``."""
        key, found = self._entry(vertex, parents)
        if found is not None:
            return found[1].local
        vertex, parents = key
        if self.score_kind != "tee" or not parents:
            return self.local(vertex, parents).local
        partial = self._drawn.get(key)
        if partial is None:
            if self.estimator.method != "discrete-plugin":
                return math.inf
            return self._te(vertex, parents) + _BOUND_SLACK
        te, drawn = partial
        return te - sorted(drawn)[-self._first_chunk]

    def draw_chunk(self, vertex: int, parents: Sequence[int]) -> bool:
        """Draw the next chunk of a ``tee`` local's surrogate population, and
        return whether there was one: False when the local is memoised or
        has no population. It is the only method that draws. The first chunk
        is K - r + 1 draws (see :meth:`local_bound`) and each later one
        doubles the count drawn; a chunk that would reach K completes the
        population through :meth:`local`."""
        if self.score_kind != "tee":
            return False
        key, found = self._entry(vertex, parents)
        vertex, parents = key
        if found is not None or not parents:
            return False
        partial = self._drawn.get(key)
        stop = 2 * len(partial[1]) if partial else self._first_chunk
        if stop >= self.surrogates.count:
            self.local(vertex, parents)
        else:
            te, drawn = partial or (self._te(vertex, parents), [])
            self._drawn[key] = te, drawn + draw_surrogates(
                vertex, parents, self.view, self.estimator,
                self._plan(vertex, parents), len(drawn), stop)
        return True

    def _plan(self, vertex: int, parents: tuple[int, ...]) -> SurrogateConfig:
        """The surrogate plan of one (vertex, parents) population."""
        cfg = self.surrogates
        return replace(cfg, seed=derive_seed(cfg.seed, "vertex", vertex, parents))

    def _compute_local(self, vertex: int, parents: tuple[int, ...]) -> LocalScore:
        kind = self.score_kind
        if kind in IC_KINDS:
            h_full = self._entropy(vertex, parents)
            te = self._entropy(vertex) - h_full
            penalty = self._ic_penalty(vertex, parents)
            local = -self.n_effective * h_full - penalty
            return LocalScore(te=te, penalty=penalty, local=local)

        if not parents:
            return LocalScore(te=0.0, penalty=0.0, local=0.0)
        key = (vertex, parents)
        # a partial tee population keeps its te with the values drawn so far
        te, drawn = self._drawn.get(key) or (self._te(vertex, parents), ())
        if kind == "te":
            return LocalScore(te=te, penalty=0.0, local=te)
        if kind == "tea":
            penalty = self._tea_penalty(vertex, parents)
            stat = te_statistic(te, self.n_effective)
            return LocalScore(te=te, penalty=penalty, local=stat - penalty)
        # tee: deterministic surrogate population per (vertex, parent set),
        # completed from the values draw_chunk has drawn
        samples = surrogate_te_samples(
            vertex, parents, self.view, self.estimator,
            self._plan(vertex, parents), drawn=drawn)
        self._drawn.pop(key, None)
        quantile = empirical_quantile(samples, self.alpha)
        return LocalScore(te=te, penalty=quantile, local=te - quantile)

    # -- whole graphs ----------------------------------------------------

    def score(self, graph: Dag) -> ScoreReport:
        check_vertex_count(graph, self.view.m_total)
        per_vertex = []
        total = 0.0
        for v in range(graph.m):
            ls = self.local(v, graph.parents[v])
            per_vertex.append(PerVertexScore(
                vertex=v, parents=graph.parents[v],
                te=ls.te, penalty=ls.penalty, local=ls.local,
            ))
            total += ls.local
        notes = None
        f_of_n = None
        if self.score_kind in IC_KINDS:
            f_of_n = self._f_of_n()
            notes = ("log-likelihood reported up to a graph-independent "
                     "constant (latent-state conditioning term omitted)")
        return ScoreReport(
            score_kind=self.score_kind,
            estimator=self.estimator.method,
            total=total,
            per_vertex=per_vertex,
            n_effective=self.n_effective,
            names=self.view.names,
            alpha=self.alpha,
            seed=self.surrogates.seed if self.surrogates is not None else None,
            f_of_n=f_of_n,
            notes=notes,
        )
