"""Finding the best-scoring DAG: exhaustive enumeration or greedy climbing.

Exhaustive search sums memoized local scores over every DAG that
:func:`graph.enumerate_dags` yields; it builds a graph's tie-break edge key
only when the total lies within the tie window of the best so far.

Hill climbing starts from the empty graph (penalized scores make it the
natural null model) plus optional random restarts, and repeatedly applies
the single edge addition, deletion or reversal with the largest positive
score delta. Deltas touch only the vertices whose parent sets change, so
each step costs a handful of memoized local scores.

Each step is lazy (Minoux's lazy greedy): it bounds every candidate's delta
with :meth:`Scorer.local_bound`, evaluates exact deltas in decreasing bound
order, and stops once no unevaluated move can win. Only discrete-plugin
``tee`` has a bound below the exact local (``te`` plus a slack, no
surrogates); every other score and estimator is bounded by its exact local.
The winner is chosen from the evaluated moves in candidate order, and
``visited`` counts every candidate, so results are byte-identical to
scoring every move exactly.

Ties are broken towards the lexicographically smallest edge set, which
makes every search deterministic under a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ValidationError
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


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the greedy search; exhaustive search has none."""

    max_parents: object = AUTO_MAX_PARENTS
    restarts: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 0:
            raise ValidationError("restarts must be >= 0")
        if self.seed < 0:
            raise ValidationError("seed must be >= 0")
        mp = self.max_parents
        if mp is not None and mp != AUTO_MAX_PARENTS and (
                not isinstance(mp, int) or mp < 0):
            raise ValidationError("max_parents must be a non-negative int, "
                                  "None (unlimited) or 'auto'")

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


def _better(total: float, edges, best_total: float, best_edges) -> bool:
    if total > best_total + _TIE_EPS:
        return True
    if total >= best_total - _TIE_EPS and edges < best_edges:
        return True
    return False


def exhaustive_search(scorer: Scorer) -> SearchResult:
    """Score every labelled DAG and return the maximum."""
    m = scorer.view.m_total
    best = None
    best_total = -np.inf
    best_edges = None
    visited = 0
    local = scorer.local
    for graph in enumerate_dags(m):
        parents = graph.parents
        total = 0
        for v in range(m):
            total += local(v, parents[v]).local
        visited += 1
        if best is not None and total < best_total - _TIE_EPS:
            continue  # below the tie window _better is False whatever the edges
        edges = graph.edges()
        if best is None or _better(total, edges, best_total, best_edges):
            best, best_total, best_edges = graph, total, edges
    return SearchResult(best=best, best_report=scorer.score(best),
                        visited=visited, trace=None)


def _candidate_moves(graph: Dag, max_parents: Optional[int]):
    """Legal single-edge moves, in a fixed deterministic order."""
    m = graph.m
    moves = []
    for src in range(m):
        for dst in range(m):
            if src == dst or graph.has_edge(src, dst):
                continue
            if max_parents is not None and len(graph.parents[dst]) >= max_parents:
                continue
            if creates_cycle(graph, src, dst):
                continue
            moves.append(("add", src, dst))
    for src, dst in graph.edges():
        moves.append(("delete", src, dst))
    for src, dst in graph.edges():
        if max_parents is not None and len(graph.parents[src]) >= max_parents:
            continue
        reversed_graph = graph.without_edge(src, dst)
        if creates_cycle(reversed_graph, dst, src):
            continue
        moves.append(("reverse", src, dst))
    return moves


def _apply(graph: Dag, move) -> Dag:
    op, src, dst = move
    if op == "add":
        return graph.with_edge(src, dst)
    if op == "delete":
        return graph.without_edge(src, dst)
    return graph.with_reversed_edge(src, dst)


def _touched(graph: Dag, move):
    """(vertex, parents before, parents after) of each vertex a move changes."""
    op, src, dst = move
    ps = graph.parents
    if op == "add":
        return ((dst, ps[dst], ps[dst] + (src,)),)
    # delete src->dst, or reverse it: dst loses src (and src gains dst)
    dropped = (dst, ps[dst], tuple(p for p in ps[dst] if p != src))
    if op == "delete":
        return (dropped,)
    return (dropped, (src, ps[src], ps[src] + (dst,)))


def _change(scorer: Scorer, graph: Dag, move, local_after) -> float:
    touched = _touched(graph, move)
    before = sum(scorer.local(v, old).local for v, old, _ in touched)
    return sum(local_after(v, new) for v, _, new in touched) - before


def move_delta(scorer: Scorer, graph: Dag, move) -> float:
    """Score change of a single-edge move, touching only affected vertices."""
    return _change(scorer, graph, move, lambda v, ps: scorer.local(v, ps).local)


def move_bound(scorer: Scorer, graph: Dag, move) -> float:
    """Upper bound of :func:`move_delta`, summed in the same order, from
    :meth:`Scorer.local_bound` of the new parent sets."""
    return _change(scorer, graph, move, scorer.local_bound)


def _apart(low: float, high: float) -> bool:
    """Whether _better puts high over low and never low over high, whatever
    their edge sets."""
    return low < high - _TIE_EPS and low + _TIE_EPS < high


def _exact_deltas(scorer: Scorer, graph: Dag, moves) -> dict[int, float]:
    """Exact deltas, by candidate index, of every move that can win this step.

    Moves are evaluated in decreasing bound order (stable). Let floor be the
    lowest positive delta reached from the largest through steps that are
    not _apart. Evaluation stops at the first bound <= 0, whose move cannot
    be positive, or _apart from floor: that move and all after it lie apart
    from every delta of the cluster [floor, max], so it cannot beat any of
    them, every one of them beats it, and scanning it changes nothing.
    """
    bounds = [move_bound(scorer, graph, move) for move in moves]
    deltas: dict[int, float] = {}
    positive: list[float] = []
    floor = None
    for i in sorted(range(len(moves)), key=lambda i: -bounds[i]):
        bound = bounds[i]
        if bound <= 0.0 or (floor is not None and _apart(bound, floor)):
            break
        delta = deltas[i] = move_delta(scorer, graph, moves[i])
        if delta > 0.0:
            positive.append(delta)
            positive.sort(reverse=True)
            floor = positive[0]
            for d in positive[1:]:
                if _apart(d, floor):
                    break
                floor = d
    return deltas


def _climb(scorer: Scorer, start: Dag, max_parents: Optional[int]):
    graph = start
    total = sum(scorer.local(v, graph.parents[v]).local for v in range(graph.m))
    trace: list[tuple[str, float]] = []
    visited = 1
    while True:
        moves = _candidate_moves(graph, max_parents)
        visited += len(moves)
        best_move = None
        best_delta = 0.0
        best_edges = None
        deltas = _exact_deltas(scorer, graph, moves)
        for i in sorted(deltas):  # candidate order, as if every move were scored
            delta, move = deltas[i], moves[i]
            if delta <= 0.0:
                continue
            edges = _apply(graph, move).edges()
            if best_move is None or _better(delta, edges, best_delta, best_edges):
                best_move, best_delta, best_edges = move, delta, edges
        if best_move is None:
            return graph, total, trace, visited
        graph = _apply(graph, best_move)
        total += best_delta
        op, src, dst = best_move
        trace.append((f"{op} {src}->{dst}", best_delta))


def greedy_hill_climb(scorer: Scorer, cfg: SearchConfig | None = None) -> SearchResult:
    """Greedy single-edge hill climbing with random restarts.

    Deterministic for a fixed cfg.seed; every intermediate graph is acyclic
    by construction and the returned graph is a local optimum.
    """
    if cfg is None:
        cfg = SearchConfig()
    m = scorer.view.m_total
    max_parents = cfg.resolved_max_parents(scorer.score_kind)

    starts = [Dag.empty(m)]
    for r in range(cfg.restarts):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, r)))
        starts.append(random_dag(m, rng, max_parents=max_parents))

    best = None
    best_total = -np.inf
    best_edges = None
    best_trace = None
    visited = 0
    for start in starts:
        graph, total, trace, seen = _climb(scorer, start, max_parents)
        visited += seen
        edges = graph.edges()
        if best is None or _better(total, edges, best_total, best_edges):
            best, best_total, best_edges, best_trace = graph, total, edges, trace
    return SearchResult(best=best, best_report=scorer.score(best),
                        visited=visited, trace=best_trace)
