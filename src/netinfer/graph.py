"""Directed acyclic graphs over subsystem vertices, stored as per-vertex
parent sets.

A ``Dag`` is acyclic by construction: it checks each parent set with
:func:`check_parents` and rejects a cycle, so scores, the simulator, the
KL divergence and :func:`compare_graphs` take any ``Dag`` as it is. It has
no edge-editing methods: a new graph is built from its parent sets, as the
greedy search does with the sets a move changes, and
:func:`creates_cycle` answers whether an edge may be added.

:func:`_reach` is the one reachability walk: a validated graph keeps each
vertex's reach for its cycle check and :func:`creates_cycle`, and a graph
from :func:`enumerate_dags` walks it only when asked.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import DataFormatError, ValidationError, check_int

MAX_EXHAUSTIVE_VERTICES = 6


def check_parents(vertex: int, parents: Sequence[int], m: int):
    """The one parent-set rule, for graphs, scores and tests alike: every
    index is an integer by :func:`~netinfer.errors.check_int`'s rule (2,
    2.0 or numpy's int64 2, not False, 0.9 or "0") and lies in 0..m-1, the
    vertex is not its own parent, no parent repeats."""
    for s in (vertex, *parents):
        if not 0 <= check_int("vertex", s, -math.inf) < m:
            raise ValidationError(f"vertex {s} out of range for {m} vertices")
    if vertex in parents:
        raise ValidationError(f"self-loop on vertex {vertex}")
    if len(set(parents)) != len(parents):
        raise ValidationError(f"repeated parent in set of vertex {vertex} "
                              "(a parent set holds no duplicates)")


def check_vertex_count(graph: Dag, m: int):
    """Reject a graph whose vertex count differs from the data's, ``m``."""
    if graph.m != m:
        raise ValidationError(f"graph has {graph.m} vertices but the data has {m}")


@dataclass(frozen=True)
class Dag:
    """Acyclic candidate coupling graph: ``parents[v]`` are the sources
    feeding v."""

    m: int
    parents: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValidationError("graph needs at least one vertex")
        if len(self.parents) != self.m:
            raise ValidationError(
                f"parents has {len(self.parents)} entries for {self.m} vertices"
            )
        for v, ps in enumerate(self.parents):
            check_parents(v, ps, self.m)
        norm = tuple(tuple(sorted(map(int, ps))) for ps in self.parents)
        object.__setattr__(self, "parents", norm)
        # a cycle exists iff some vertex reaches one of its own parents
        reach = self._descendants
        if any(reach[v] >> p & 1 for v, ps in enumerate(norm) for p in ps):
            raise ValidationError("graph has a cycle; coupling graphs must be acyclic")

    @cached_property
    def _descendants(self) -> tuple[int, ...]:
        """Bit mask of the vertices each vertex reaches, itself included,
        filled on first use: by the validating constructor, if it ran."""
        masks = [sum(1 << p for p in ps) for ps in self.parents]
        return tuple(_reach(masks, v) for v in range(self.m))

    @classmethod
    def _canonical(cls, m: int, parents: tuple[tuple[int, ...], ...]) -> "Dag":
        # for parent tuples already sorted, in range, free of self-loops
        # and acyclic
        dag = object.__new__(cls)
        dag.__dict__.update(m=m, parents=parents)
        return dag

    @classmethod
    def empty(cls, m: int) -> "Dag":
        return cls(m, tuple(() for _ in range(m)))

    @classmethod
    def from_edges(cls, m: int, edges: Iterable[tuple[int, int]]) -> "Dag":
        parents: list[list[int]] = [[] for _ in range(m)]
        for src, dst in edges:
            check_parents(dst, (src,), m)
            parents[int(dst)].append(src)
        return cls(m, tuple(tuple(ps) for ps in parents))

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Directed edges as (src, dst) pairs in canonical order."""
        out = []
        for dst, ps in enumerate(self.parents):
            out.extend((src, dst) for src in ps)
        return tuple(sorted(out))

    @property
    def n_edges(self) -> int:
        return sum(len(ps) for ps in self.parents)

    def has_edge(self, src: int, dst: int) -> bool:
        return src in self.parents[dst]


def _reach(parent_masks: Sequence[int], start: int) -> int:
    """Bit mask of the vertices reachable from start (start included) along
    edge direction; bit p of parent_masks[c] marks the edge p -> c. Vertices
    past len(parent_masks) have no in-edges and so are never reached."""
    reach = 1 << start
    grown = True
    while grown:
        grown = False
        for c, mask in enumerate(parent_masks):
            if mask & reach and not reach >> c & 1:
                reach |= 1 << c
                grown = True
    return reach


def creates_cycle(graph: Dag, src: int, dst: int) -> bool:
    """Would adding src->dst to an acyclic graph close a cycle, i.e. does
    dst reach src (src == dst included)? One bit test on the reach the
    graph keeps, so no call walks the graph."""
    return bool(graph._descendants[dst] >> src & 1)


def enumerate_dags(m: int) -> Iterator[Dag]:
    """Yield every labelled DAG on m vertices exactly once.

    Parent sets are assigned vertex by vertex, candidates in a fixed order.
    Vertex k's new in-edges close a cycle iff one of its parents is reachable
    from k, so the vertices reachable from k are found once, as a bit mask,
    and each candidate costs one AND. Graphs are built sorted and valid and
    skip re-validation. About 0.1 s at M=5 (29 281 graphs) and 10 s at M=6,
    the cap (3 781 503 graphs), on a 2-vCPU Xeon VM.
    """
    if m < 1:
        raise ValidationError("vertex count must be >= 1")
    if m > MAX_EXHAUSTIVE_VERTICES:
        raise ValidationError(
            f"exhaustive enumeration supports at most {MAX_EXHAUSTIVE_VERTICES} "
            f"vertices, got {m}; use greedy search instead"
        )
    others = [tuple(u for u in range(m) if u != v) for v in range(m)]
    # candidate (parent set, its bit mask) per vertex, in a fixed order
    choices = []
    for v in range(m):
        sets = []
        for bits in range(1 << (m - 1)):
            ps = tuple(others[v][b] for b in range(m - 1) if bits >> b & 1)
            sets.append((ps, sum(1 << p for p in ps)))
        choices.append(sets)

    assigned: list[tuple[int, ...]] = [() for _ in range(m)]
    masks = [0] * m

    def rec(k: int) -> Iterator[Dag]:
        reach = _reach(masks[:k], k)  # along the in-edges of vertices 0..k-1
        last = k == m - 1
        for ps, mask in choices[k]:
            if mask & reach:
                continue
            assigned[k] = ps
            if last:
                yield Dag._canonical(m, tuple(assigned))
            else:
                masks[k] = mask
                yield from rec(k + 1)

    yield from rec(0)


def random_dag(m: int, rng, max_parents: int | None = None,
               edge_prob: float = 0.3) -> Dag:
    """Random DAG: random topological order, each order-respecting edge kept
    with probability edge_prob, parent sets truncated to max_parents."""
    order = rng.permutation(m).tolist()
    parents: list[list[int]] = [[] for _ in range(m)]
    for j in range(1, m):
        dst = order[j]
        cand = [order[i] for i in range(j)]
        picked = [u for u in cand if rng.random() < edge_prob]
        if max_parents is not None and len(picked) > max_parents:
            idx = rng.permutation(len(picked))[:max_parents]
            picked = [picked[i] for i in sorted(idx)]
        parents[dst] = picked
    return Dag(m, tuple(tuple(sorted(ps)) for ps in parents))


def compare_graphs(inferred: Dag, truth: Dag) -> dict:
    """Directed-edge precision/recall/F1 plus structural Hamming distance.

    SHD counts one unit per missing edge, per extra edge and per reversed
    edge (a reversal is a single move, not a delete plus an insert).
    """
    if inferred.m != truth.m:
        raise ValidationError(
            f"vertex count mismatch: {inferred.m} vs {truth.m}"
        )
    ei = set(inferred.edges())
    et = set(truth.edges())
    tp = len(ei & et)
    precision = tp / len(ei) if ei else 1.0
    recall = tp / len(et) if et else 1.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)

    # a pair joined in one graph only, or in opposite directions in the two
    # (a Dag never joins a pair both ways), has its edges in ei ^ et
    shd = len({frozenset(e) for e in ei ^ et})
    return {"precision": precision, "recall": recall, "f1": f1, "shd": shd}


# ---------------------------------------------------------------------------
# DOT interchange (restricted subset: named vertices and plain edges)

_DOT_NODE = re.compile(r'^\s*"([^"]+)"\s*;\s*$')
_DOT_EDGE = re.compile(r'^\s*"([^"]+)"\s*->\s*"([^"]+)"\s*;\s*$')


def check_vertex_name(name: str):
    """Reject a name that :func:`write_dot` cannot write for :func:`parse_dot`
    to read back: an empty one, or one holding a quote, "//" (a comment) or
    a line break. Also reject leading or trailing whitespace, which
    :func:`~netinfer.timeseries.load_csv` strips from CSV headers, lone
    surrogates, which no UTF-8 file can hold, and anything not a string."""
    if (not isinstance(name, str) or not name or '"' in name or "//" in name
            or name.splitlines() != [name] or name != name.strip()
            or any("\ud800" <= c <= "\udfff" for c in name)):
        raise ValidationError(
            f"vertex name {name!r} cannot be written to DOT and CSV and read back "
            '(names must be non-empty UTF-8 text, without ", //, line breaks '
            "or leading or trailing whitespace)"
        )


def check_names(names, m: int) -> tuple[str, ...]:
    """The one rule for the names of m vertices: ``None`` stands for
    V1..Vm; otherwise a list or tuple of m distinct names, each passing
    :func:`check_vertex_name`. Returns the names as a tuple."""
    if names is None:
        return tuple(f"V{i + 1}" for i in range(m))
    if not isinstance(names, (list, tuple)):
        raise ValidationError(f"names must be a list of strings, got {names!r}")
    if len(names) != m:
        raise ValidationError(f"names has {len(names)} entries for {m} vertices")
    for name in names:
        check_vertex_name(name)
    if len(set(names)) != m:
        raise ValidationError(f"names must be unique, got {list(names)!r}")
    return tuple(names)


def write_dot(graph: Dag, names: Sequence[str]) -> str:
    names = check_names(names, graph.m)
    lines = ["digraph G {"]
    for name in names:
        lines.append(f'  "{name}";')
    for src, dst in graph.edges():
        lines.append(f'  "{names[src]}" -> "{names[dst]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_dot(text: str) -> tuple[list[str], list[tuple[str, str]]]:
    """Parse the DOT subset written by :func:`write_dot`.

    Returns vertex names in declaration order and edges as name pairs.
    Vertices first seen inside an edge are appended in encounter order.
    """
    names: list[str] = []
    edges: list[tuple[str, str]] = []
    seen = set()

    def add(name: str):
        if name not in seen:
            seen.add(name)
            names.append(name)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//")[0].strip()
        if not line or line.startswith(("digraph", "{", "}")):
            continue
        mnode = _DOT_NODE.match(line)
        if mnode:
            add(mnode.group(1))
            continue
        medge = _DOT_EDGE.match(line)
        if medge:
            add(medge.group(1))
            add(medge.group(2))
            edges.append((medge.group(1), medge.group(2)))
            continue
        raise DataFormatError(f"unrecognised DOT syntax at line {lineno}: {raw!r}")
    if not names:
        raise DataFormatError("DOT file declares no vertices")
    return names, edges


def dag_from_dot(text: str, names: Sequence[str] | None = None) -> tuple[Dag, list[str]]:
    """Build a Dag from DOT text, optionally remapped onto a given name order."""
    dot_names, edges = parse_dot(text)
    if names is None:
        names = dot_names
    else:
        names = check_names(names, len(names))
        missing = set(dot_names) - set(names)
        extra = set(names) - set(dot_names)
        if missing or extra:
            raise ValidationError(
                "vertex names do not match: "
                f"unknown {sorted(missing)}, undeclared {sorted(extra)}"
            )
    index = {name: i for i, name in enumerate(names)}
    dag = Dag.from_edges(len(names), [(index[a], index[b]) for a, b in edges])
    return dag, list(names)
