"""Finding the best-scoring DAG: exhaustive enumeration or greedy climbing.

Every search breaks ties by one rule, :func:`_pick`: among the candidates
whose score lies within ``_TIE_EPS`` of the largest, it returns the one whose
graph has the smallest sorted edge tuple. The result therefore does not
depend on the order in which candidates are enumerated or evaluated.

Exhaustive search, over every DAG, and hill climbing, over the local optima
of its restarts, stream their candidates through one :class:`_TieWindow`,
which keeps only those within ``_TIE_EPS`` of the running maximum.
Exhaustive search sums memoized local scores over every DAG that
:func:`graph.enumerate_dags` yields and builds a graph's edge tuple only
when the window admits its total.

Hill climbing starts from the empty graph (penalized scores make it the
natural null model) plus optional random restarts, each start drawn just
before its climb, and repeatedly applies the rule's pick among the single
edge additions, deletions and reversals with a positive score delta. The
rule also chooses among the restarts' local optima.

A move is the parent sets it changes: its trace label, such as
``"add 1->0"``, and the new sorted parent tuple of each vertex it touches
(for a reversal of src->dst, dst's and then src's). Bounds, chunks, deltas
and the graph it leads to all read that one form, so each step costs a
handful of memoized local scores whose keys the memo holds as they stand.
Legality comes from :func:`graph.creates_cycle` without building graphs:
an add src->dst is legal iff dst does not reach src, and reversing src->dst
iff src reaches no other parent of dst.

Each step is lazy (Minoux's lazy greedy): it bounds every candidate's delta
with :func:`move_bound` and keeps the moves in a max-heap by bound. It pops
the largest bound until one is <= 0 or below the tie window of the largest
delta so far, since no move left on the heap can then be picked. A ``tee``
bound comes from the surrogates drawn so far, and sequential populations
(Besag & Clifford 1991) keep it cheap: a popped move draws the next chunk of
each population it touches through :meth:`Scorer.draw_chunk` and goes back
on the heap with its tightened bound, so its populations are completed, and
its exact delta computed, only if it may still be picked. A discrete ``tee``
move starts bounded by ``te`` plus a slack; linear-Gaussian and box-kernel
moves start unbounded and draw their first chunk when first popped. Every
other score is bounded by its exact local. ``visited`` counts every
candidate, so results are the same as scoring every move exactly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import check_int
from .graph import (
    Dag,
    creates_cycle,
    enumerate_dags,
    random_dag,
)
from .scores import ScoreReport, Scorer

__all__ = [
    "SearchConfig", "SearchResult", "exhaustive_search", "greedy_hill_climb",
    "enumerate_dags",
]

_TIE_EPS = 1e-12

# sentinel: resolve the parent cap from the score kind (3 for the monotone
# te/ml scores, unlimited for the penalized ones)
AUTO_MAX_PARENTS = "auto"

# Each restart is a whole climb from a random start. On the M=5 benchmark
# tree (N=10000, 2 vCPUs) a greedy tea restart took about 1.3 ms and a tee
# one (199 surrogates) about 0.14 s, so this many take from seconds to about
# half an hour there; a larger count is refused at once rather than run for
# hours.
MAX_RESTARTS = 10_000


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the greedy search; exhaustive search has none."""

    max_parents: object = AUTO_MAX_PARENTS
    restarts: int = 0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "restarts",
                           check_int("restarts", self.restarts, 0, MAX_RESTARTS))
        object.__setattr__(self, "seed", check_int("seed", self.seed, 0))
        if self.max_parents is not None and self.max_parents != AUTO_MAX_PARENTS:
            object.__setattr__(self, "max_parents",
                               check_int("max_parents", self.max_parents, 0))

    def resolved_max_parents(self, score_kind: str) -> Optional[int]:
        if self.max_parents == AUTO_MAX_PARENTS:
            return 3 if score_kind in ("te", "ml") else None
        return self.max_parents


@dataclass
class SearchResult:
    best: Dag
    best_report: ScoreReport
    visited: int
    trace: Optional[list[tuple[str, float]]] = field(default=None)


def _pick(candidates):
    """The candidate with the smallest edge tuple among those whose total is
    within _TIE_EPS of the largest; candidates are (total, edges, ...)."""
    top = max(c[0] for c in candidates)
    return min((c for c in candidates if c[0] >= top - _TIE_EPS),
               key=lambda c: c[1])


class _TieWindow:
    """The (total, edges, ...) candidates added so far whose total lies within
    _TIE_EPS of the largest, so _pick(kept) is _pick over all of them."""

    def __init__(self):
        self.top, self.kept = -np.inf, []

    def admits(self, total) -> bool:
        return not total < self.top - _TIE_EPS

    def add(self, candidate):
        if candidate[0] > self.top:
            self.top = candidate[0]
            self.kept = [c for c in self.kept if c[0] >= self.top - _TIE_EPS]
        self.kept.append(candidate)


def exhaustive_search(scorer: Scorer) -> SearchResult:
    """Score every labelled DAG and return the rule's pick."""
    m = scorer.view.m_total
    window = _TieWindow()
    visited = 0
    local = scorer.local
    for graph in enumerate_dags(m):
        parents = graph.parents
        total = 0
        for v in range(m):
            total += local(v, parents[v]).local
        visited += 1
        if window.admits(total):
            window.add((total, graph.edges(), graph))
    best = _pick(window.kept)[2]
    return SearchResult(best=best, best_report=scorer.score(best),
                        visited=visited, trace=None)


def _candidate_moves(graph: Dag, max_parents: Optional[int]):
    """Legal single-edge moves, in a fixed deterministic order, each as
    (label, changes): the trace label and the (vertex, new sorted parent
    tuple) of each vertex whose parent set it changes."""
    ps = graph.parents
    room = [max_parents is None or len(p) < max_parents for p in ps]
    # each edge src->dst, with the parents dst keeps without it
    rest = {(src, dst): tuple(p for p in ps[dst] if p != src)
            for src, dst in graph.edges()}
    moves = [(f"add {src}->{dst}", ((dst, tuple(sorted(ps[dst] + (src,)))),))
             for src in range(graph.m) for dst in range(graph.m)
             if src != dst and src not in ps[dst] and room[dst]
             and not creates_cycle(graph, src, dst)]
    moves += [(f"delete {src}->{dst}", ((dst, kept),))
              for (src, dst), kept in rest.items()]
    # dst->src closes a cycle iff src reaches another parent of dst
    moves += [(f"reverse {src}->{dst}",
               ((dst, kept), (src, tuple(sorted(ps[src] + (dst,))))))
              for (src, dst), kept in rest.items()
              if room[src] and not any(creates_cycle(graph, p, src) for p in kept)]
    return moves


def _apply(graph: Dag, move) -> Dag:
    new = dict(move[1])
    return Dag(graph.m, tuple(new.get(v, ps) for v, ps in enumerate(graph.parents)))


def _change(scorer: Scorer, graph: Dag, move, local_after) -> float:
    changes = move[1]
    before = sum(scorer.local(v, graph.parents[v]).local for v, _ in changes)
    return sum(local_after(v, new) for v, new in changes) - before


def move_delta(scorer: Scorer, graph: Dag, move) -> float:
    """Score change of a single-edge move, touching only affected vertices."""
    return _change(scorer, graph, move, lambda v, ps: scorer.local(v, ps).local)


def move_bound(scorer: Scorer, graph: Dag, move) -> float:
    """Upper bound of :func:`move_delta`, summed in the same order, from
    :meth:`Scorer.local_bound` of the new parent sets."""
    return _change(scorer, graph, move, scorer.local_bound)


def _step(scorer: Scorer, graph: Dag, moves):
    """The rule's pick among the moves with a positive delta, as
    (delta, edges after, move), or None.

    A max-heap holds each move's current bound. Each round pops the largest;
    the walk stops once it is <= 0, where no move left can be positive, or
    below top - _TIE_EPS, with top the largest delta so far, where no move
    left lies in the rule's tie window. Otherwise the popped move draws the
    next chunk of each population it touches and goes back with its
    tightened bound, or, with nothing left to draw, gets its exact delta.
    """
    heap = [(-move_bound(scorer, graph, move), i) for i, move in enumerate(moves)]
    heapq.heapify(heap)
    top = -np.inf
    candidates = []
    while heap:
        negated, i = heapq.heappop(heap)
        if -negated <= 0.0 or -negated < top - _TIE_EPS:
            break
        move = moves[i]
        # a list, not a generator: every touched population draws its chunk
        if any([scorer.draw_chunk(v, new) for v, new in move[1]]):
            heapq.heappush(heap, (-move_bound(scorer, graph, move), i))
            continue
        delta = move_delta(scorer, graph, move)
        top = max(top, delta)
        if delta > 0.0:
            candidates.append((delta, _apply(graph, move).edges(), move))
    return _pick(candidates) if candidates else None


def _climb(scorer: Scorer, start: Dag, max_parents: Optional[int]):
    graph = start
    total = sum(scorer.local(v, graph.parents[v]).local for v in range(graph.m))
    trace: list[tuple[str, float]] = []
    visited = 1
    while True:
        moves = _candidate_moves(graph, max_parents)
        visited += len(moves)
        step = _step(scorer, graph, moves)
        if step is None:
            return graph, total, trace, visited
        delta, _, move = step
        graph = _apply(graph, move)
        total += delta
        trace.append((move[0], delta))


def greedy_hill_climb(scorer: Scorer, cfg: SearchConfig | None = None) -> SearchResult:
    """Greedy single-edge hill climbing with random restarts.

    Deterministic for a fixed cfg.seed; every intermediate graph is acyclic
    by construction and the returned graph is a local optimum.
    """
    if cfg is None:
        cfg = SearchConfig()
    m = scorer.view.m_total
    max_parents = cfg.resolved_max_parents(scorer.score_kind)

    def starts():
        # each restart's start is drawn just before its climb
        yield Dag.empty(m)
        for r in range(cfg.restarts):
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, r)))
            yield random_dag(m, rng, max_parents=max_parents)

    window = _TieWindow()  # only the climbs that may still be picked
    visited = 0
    for start in starts():
        graph, total, trace, seen = _climb(scorer, start, max_parents)
        visited += seen
        if window.admits(total):
            window.add((total, graph.edges(), graph, trace))
    _, _, best, trace = _pick(window.kept)
    return SearchResult(best=best, best_report=scorer.score(best),
                        visited=visited, trace=trace)
