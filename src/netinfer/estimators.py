"""Conditional-entropy machinery over embedded observations.

Three interchangeable density models back every measure here:

* ``discrete-plugin``: raw relative frequencies over integer symbols, no
  bias correction (downstream penalties account for the bias), counted
  over integer row ids: dense ids per view block, joined as a * n_b + b
  and counted with np.bincount. Ids are ranked from a table of the codes
  present while an id space stays within a cap of 2**18 ids
  (:func:`dense_ids`), and sorted only past it,
* ``linear-gaussian``: H(Z|W) = 0.5 log2((2 pi e)^d det S_{Z|W}) with the
  conditional covariance from a Schur complement of the sample covariance
  (N-1 normalisation),
* ``box-kernel``: hard-cutoff kernel; the conditional probability at each
  row is the ratio of neighbour counts inside an axis-aligned box
  (max-norm radius = width, self excluded, zero-neighbour rows floored at
  one count). Both counts of H(Z|W) come from one pass over the neighbour
  pairs of W's first column block, found in dense tiles over rows sorted
  by its first coordinate and filtered by W's other columns and by Z. A
  view keeps each first block's pairs as neighbour lists, within a byte
  budget, so every entropy conditioned on a destination's own past, its
  surrogates included, counts from pairs found once.

Each kernel prepares one entropy, H(target | first block, rest), as a
function of rest's rows (``_given``). It serves both a plain entropy, given
rest's own rows, and every surrogate draw, given a resampling of them.

All values are in bits. A view's ``_memo``, which only this module uses,
keeps its dense row ids, its kept neighbour pairs and every conditional
entropy computed on it, without a lock, so a view, and the ``Scorer`` that
holds it, serves one thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import NumericError, ValidationError, check_number
from .graph import Dag, check_parents, check_vertex_count
from .timeseries import EmbeddedView

_COND_LIMIT = 1e12
_TWO_PI_E = 2.0 * math.pi * math.e


@dataclass(frozen=True)
class EstimatorKind:
    """Density model selector; ``width`` only applies to the box kernel."""

    method: str
    width: float = 0.0

    def __post_init__(self):
        if self.method not in ("discrete-plugin", "linear-gaussian", "box-kernel"):
            raise ValidationError(f"unknown estimator {self.method!r}")
        object.__setattr__(self, "width", check_number("width", self.width))
        if self.method == "box-kernel" and not self.width > 0:
            raise ValidationError("box-kernel width must be > 0")

    @classmethod
    def discrete_plugin(cls) -> "EstimatorKind":
        return cls("discrete-plugin")

    @classmethod
    def linear_gaussian(cls) -> "EstimatorKind":
        return cls("linear-gaussian")

    @classmethod
    def box_kernel(cls, width: float) -> "EstimatorKind":
        return cls("box-kernel", width)


@dataclass(frozen=True)
class Selection:
    """Reference to one column block of an EmbeddedView."""

    role: str        # "next" or "history"
    subsystem: int

    def __post_init__(self):
        if self.role not in ("next", "history"):
            raise ValidationError(f"unknown selection role {self.role!r}")


def next_value(subsystem: int) -> Selection:
    """The present-sample value y_{n+1} of a subsystem."""
    return Selection("next", subsystem)


def history(subsystem: int) -> Selection:
    """The embedded past ⟨y_n, y_{n-τ}, ...⟩ of a subsystem."""
    return Selection("history", subsystem)


def _as_selections(sel) -> tuple[Selection, ...]:
    if isinstance(sel, Selection):
        return (sel,)
    return tuple(sel)


def _resolve(view: EmbeddedView, selections: Iterable[Selection]) -> np.ndarray:
    """Concatenate the selected column blocks of a real-valued view."""
    cols = [view.target(sel.subsystem)[:, None] if sel.role == "next"
            else view.history(sel.subsystem) for sel in selections]
    if not cols:
        return np.empty((view.rows, 0))
    return np.hstack(cols)


# ---------------------------------------------------------------------------
# discrete counting kernel over dense integer row ids

# Id spaces up to this size are counted with np.bincount and ranked from a
# presence table, one table entry per id (2 MB for an int64 table at the
# cap); larger ones are sorted instead. A surrogate draw holds one table at
# a time. On greedy tee search (M=5, N=10000, 8 bins) some populations
# join 66k-135k ids; on a 135k-id join (2 vCPUs, one thread) 2**18 took
# 0.40 ms per surrogate against 0.74-0.83 ms at 2**16, and the population's
# traced peak rose from 1.2 to 1.7 MB. Ranking 9,998 ids of a 318-id space
# from the table took 0.04 ms against 0.25 ms for np.unique.
_BINCOUNT_CAP = 2 ** 18


def dense_ids(code: np.ndarray, space: int) -> tuple[np.ndarray, int]:
    """Renumber ids ``code`` from 0..space-1 to 0..k-1 in sorted order, so
    rows share an id exactly when their codes are equal, and return them
    with k: the ids ``np.unique(code, return_inverse=True)`` gives. Spaces
    up to ``_BINCOUNT_CAP`` are ranked from a table of the codes present;
    larger ones are sorted, which ranks any integer codes."""
    if space <= _BINCOUNT_CAP:
        seen = np.zeros(space, dtype=bool)
        seen[code] = True
        rank = np.cumsum(seen, dtype=np.int64)
        rank -= 1
        return rank.take(code), int(rank[-1]) + 1 if space else 0
    uniq, ids = np.unique(code, return_inverse=True)
    return ids, len(uniq)


def _join(a: np.ndarray, n_a: int, b: np.ndarray, n_b: int):
    """Ids of the row pairs (a, b), renumbered densely when the product
    space passes the bincount cap. Every id space then stays below the
    larger of the cap and the row count, so a product of two never
    overflows int64."""
    if n_a == 1:  # every a is 0
        return b, n_b
    code = a * n_b
    code += b
    if n_a * n_b <= _BINCOUNT_CAP:
        return code, n_a * n_b
    return dense_ids(code, n_a * n_b)


def _block_ids(view: EmbeddedView, sel: Selection) -> tuple[np.ndarray, int]:
    """Dense per-row ids 0..k-1 of one integer column block, and k; rows
    share an id exactly when their values are equal, and ids follow the
    rows' lexicographic order, as ``np.unique(block, axis=0,
    return_inverse=True)`` numbers them. Each column is joined in as its
    offset from its minimum, or ranked by :func:`dense_ids` when its span
    passes the cap (spans past int64 included). Kept, 1-D and read-only,
    on the view."""
    key = (sel.role, sel.subsystem)
    found = view._memo.get(key)
    if found is None:
        block = (view.target(sel.subsystem)[:, None] if sel.role == "next"
                 else view.history(sel.subsystem))
        ids, n = None, 1
        for col in block.T:
            lo = col.min()
            span = int(col.max()) - int(lo) + 1
            ids, n = _join(ids, n, *(dense_ids(col, span) if span > _BINCOUNT_CAP
                                     else (col - lo, span)))
        ids, n = dense_ids(ids, n)
        ids.flags.writeable = False
        found = view._memo[key] = (ids, n)
    return found


def _selection_ids(view: EmbeddedView, selections: Sequence[Selection]):
    """Joint row ids of the selected blocks (all rows share id 0 when no
    block is selected)."""
    ids, n = np.zeros(view.rows, dtype=np.int64), 1
    for sel in selections:
        ids, n = _join(ids, n, *_block_ids(view, sel))
    return ids, n


def _log2_table(rows: int) -> np.ndarray:
    """np.log2 of each row count 0..rows by index (0, never a count, maps to 0)."""
    return np.log2(np.maximum(np.arange(rows + 1), 1))


def discrete_cond_entropy(w: np.ndarray, zw: np.ndarray, log2: np.ndarray) -> float:
    """Plug-in H(Z|W) in bits from per-row ids of W and of (W, Z), each below
    ``_join``'s bound, with the logs of the row counts read from ``log2 =
    _log2_table(rows)``: every discrete entropy, plain or surrogate."""
    per_row = log2.take(np.bincount(w).take(w)) - log2.take(np.bincount(zw).take(zw))
    return float(np.add.reduce(per_row) / len(w))  # np.mean's sum and division


def gaussian_cond_entropy(z: np.ndarray, w: np.ndarray) -> float:
    """H(Z|W) under a joint Gaussian model, in bits."""
    n, dz = z.shape
    dw = w.shape[1]
    if n < 2:
        raise NumericError("need at least two rows for a covariance estimate")
    full = np.hstack([z, w])
    cov = np.atleast_2d(np.cov(full, rowvar=False, ddof=1))
    szz = cov[:dz, :dz]
    if dw:
        sww = cov[dz:, dz:]
        szw = cov[:dz, dz:]
        if not np.all(np.isfinite(sww)) or np.linalg.cond(sww) > _COND_LIMIT:
            raise NumericError("degenerate covariance")
        cond_cov = szz - szw @ np.linalg.solve(sww, szw.T)
    else:
        cond_cov = szz
    sign, logabsdet = np.linalg.slogdet(cond_cov)
    if sign <= 0 or not np.isfinite(logabsdet):
        raise NumericError("degenerate covariance")
    return 0.5 * (dz * math.log2(_TWO_PI_E) + logabsdet / math.log(2.0))


# Sorted rows are compared in blocks of at most _BOX_BLOCK rows, fewer where
# they reach further, in tiles of at most _BOX_TILE distances (64k pairs; a
# pass that keeps none peaks near 3 MB whatever the width). On the box-tee-m3
# data, 64 or 256 rows and 32k to 128k distances were no faster.
_BOX_BLOCK = 128
_BOX_TILE = 512 * _BOX_BLOCK

# A view keeps its conditioners' first blocks' neighbour lists while their
# arrays' nbytes stay within this budget; past it, each entropy finds the
# pairs of its whole conditioning space afresh. The box-tee-m3 benchmark
# (N=3000, width 0.08) keeps 972k pairs in 2.1 MB. At width 0.25 its 4.0M
# take 8.1 MB, and an infer took 1.7-2.0 s at 49 MB; 8-byte pairs kept one
# destination's under the same budget and took 3.8-4.3 s at 56 MB.
_KEPT_BYTES = 16 * 2 ** 20

# Kept pairs are counted in row ranges of about this many: a box-tee-m3 infer
# took 0.17 s with these, 0.20 s with 16k.
_PAIR_CHUNK = 2 ** 15


def _reach(x0: np.ndarray, e: int, width: float) -> int:
    """One past the last row whose x0 lies within ``width`` of ``x0[e - 1]``."""
    return e + int(np.searchsorted(x0[e:] - x0[e - 1], width, side="right"))


def _box_pairs(x: np.ndarray, order: np.ndarray, width: float):
    """Yield every pair of rows of ``x`` within max-norm distance ``width``
    as positions ``(p, q)``, ``p < q``, in ``order`` (the rows stably sorted
    by their first coordinate x0), in the narrowest unsigned dtype that
    holds n - 1: one chunk per tile, in order of ``p``, then ``q``.

    Each block of rows is compared with the rows from its own start up to
    the last whose x0 lies within ``width`` of the block's last x0, by the
    same predicate ``np.abs(a - b) <= width`` on every column as a brute
    force. Floating-point subtraction is monotone, so that stop never drops
    a pair the max-norm admits, and the pairs are exact.
    """
    cols = x.T.take(order, axis=1)  # each column's values, contiguous
    x0, n, s = cols[0], len(order), 0
    ids = np.min_scalar_type(max(n - 1, 0))
    while s < n:
        e = min(s + _BOX_BLOCK, n)
        stop = _reach(x0, e, width)
        if (e - s) * (stop - s) > _BOX_TILE:
            e = s + max(1, _BOX_TILE // (stop - s))
            stop = _reach(x0, e, width)
        step = _BOX_TILE // (e - s)
        for t in range(s, stop, step):
            u = min(t + step, stop)
            d = np.subtract.outer(x0[s:e], x0[t:u])
            near = np.abs(d, out=d) <= width
            for c in cols[1:]:
                np.subtract.outer(c[s:e], c[t:u], out=d)
                near &= np.abs(d, out=d) <= width
            if t == s:  # each pair once, no row with itself
                near[:, :e - s] = np.triu(near[:, :e - s], 1)
            p, q = np.nonzero(near)
            del d, near  # hold only narrow ids while this tile is counted
            p, q = (p + s).astype(ids), (q + t).astype(ids)
            yield p, q
        s = e


def _pair_counts(order: np.ndarray, chunks, rest: np.ndarray, z: np.ndarray,
                 width: float):
    """Per-row neighbour counts ``(cw, czw)`` over W and over (W, Z), self
    excluded, from the pairs of rows within ``width`` on W's first columns.

    ``chunks`` yields those pairs as :func:`_box_pairs` does, as positions
    in ``order``, and ``rest`` holds W's other columns; both it and ``z``
    are gathered into that order once per call. A pair counts towards both
    its rows in cw when its ``rest`` columns also lie within ``width``, and
    in czw when its ``z`` columns do too. The counts are integers, so they
    do not depend on the order of the pairs.
    """
    n = len(order)
    counts = np.zeros((2, n), dtype=np.int64)
    stages = ((counts[0], [c.take(order) for c in rest.T]),
              (counts[1], [c.take(order) for c in z.T]))
    for p, q in chunks:
        p, q = p.astype(np.intp, copy=False), q.astype(np.intp, copy=False)
        for found, columns in stages:
            for c in columns:
                d = c.take(p)
                d -= c.take(q)
                keep = np.flatnonzero(np.abs(d, out=d) <= width)
                p, q = p.take(keep), q.take(keep)
            found += np.bincount(p, minlength=n)
            found += np.bincount(q, minlength=n)
        del p, q  # free this chunk's ids before the next one is found
    by_row = np.empty_like(counts)
    by_row[:, order] = counts
    return by_row[0], by_row[1]


def _box_counts(w: np.ndarray, z: np.ndarray, width: float):
    """Per-row neighbour counts within max-norm radius ``width``, self
    excluded: ``(cw, czw)`` over W and over (W, Z), from W's pairs found
    tile by tile and never kept, so memory stays bounded by one tile. (When
    W is empty the pairs are taken over Z, and every row has n - 1
    neighbours in W.)"""
    n = z.shape[0]
    x = w if w.shape[1] else z
    order = np.argsort(x[:, 0], kind="stable")
    cw, czw = _pair_counts(order, _box_pairs(x, order, width), w[:, :0], z, width)
    if not w.shape[1]:
        cw[:] = n - 1
    return cw, czw


def _box_entropy(cw: np.ndarray, czw: np.ndarray) -> float:
    """H(Z|W) in bits from the per-row counts over W and over (W, Z), each
    floored at one."""
    if len(cw) < 1:
        raise ValidationError("empty view")
    cw = np.maximum(cw, 1)
    czw = np.maximum(czw, 1)
    return float(np.mean(np.log2(cw) - np.log2(czw)))


def box_cond_entropy(z: np.ndarray, w: np.ndarray, width: float) -> float:
    """H(Z|W) from hard-cutoff kernel neighbour-count ratios, in bits."""
    return _box_entropy(*_box_counts(w, z, width))


def _neighbour_lists(x: np.ndarray, width: float, room: float):
    """The pairs of :func:`_box_pairs` over the rows of ``x`` as neighbour
    lists ``(order, offsets, partners)``: position p pairs with positions
    ``partners[offsets[p]:offsets[p + 1]]``. The tiles arrive in order of p,
    so no sort is needed. None when the arrays would pass ``room`` bytes."""
    order = np.argsort(x[:, 0], kind="stable")
    offsets = np.zeros(x.shape[0] + 1, dtype=np.int64)
    lists, size = [], order.nbytes + offsets.nbytes
    for p, q in _box_pairs(x, order, width):
        size += q.nbytes
        if size > room:
            return None
        if q.size:  # p is sorted: count its rows from the first
            offsets[int(p[0]) + 1:int(p[-1]) + 2] += np.bincount(p - p[0])
        lists.append(q)
    np.cumsum(offsets, out=offsets)
    return order, offsets, np.concatenate(lists)


def _neighbour_chunks(offsets: np.ndarray, partners: np.ndarray):
    """Yield the pairs of neighbour lists as :func:`_box_pairs` does, over
    ranges of rows holding about ``_PAIR_CHUNK`` pairs."""
    cuts = np.searchsorted(offsets, np.arange(_PAIR_CHUNK, offsets[-1], _PAIR_CHUNK))
    bounds = [0, *cuts.tolist(), len(offsets) - 1]
    for lo, hi in zip(bounds, bounds[1:]):
        yield (np.repeat(np.arange(lo, hi), np.diff(offsets[lo:hi + 1])),
               partners[offsets[lo]:offsets[hi]])


def _kept_pairs(view: EmbeddedView, sel: Selection, width: float):
    """The neighbour lists of one column block (see :func:`_neighbour_lists`),
    found once and kept on the view, or None when keeping them would take the
    view's kept arrays past ``_KEPT_BYTES``. Kept arrays are only read."""
    key = ("box-pairs", width, sel)
    if key not in view._memo:
        room = _KEPT_BYTES - sum(a.nbytes for k, kept in view._memo.items()
                                 if k[0] == "box-pairs" and kept for a in kept)
        view._memo[key] = _neighbour_lists(_resolve(view, [sel]), width, room)
    return view._memo[key]


def _box_given(view: EmbeddedView, first, z: np.ndarray, width: float):
    """A function of W's other columns ``rest`` that returns H(Z | first,
    rest) on the box kernel, ``first`` being zero or one selection. It
    counts from the first block's kept neighbour lists, filtered by
    ``rest``; with none kept, or no first block, from pairs found afresh
    over the whole of W."""
    pairs = _kept_pairs(view, first[0], width) if first else None
    x = _resolve(view, first)

    def entropy(rest: np.ndarray) -> float:
        if pairs is None:
            return box_cond_entropy(z, np.hstack([x, rest]), width)
        order, offsets, partners = pairs
        return _box_entropy(*_pair_counts(order, _neighbour_chunks(offsets, partners),
                                          rest, z, width))
    return entropy


def _given(view: EmbeddedView, kind: EstimatorKind, target, first, rest):
    """``(block, h)``: the ``rest`` selections' rows as the kernel reads them
    (joint ids for the discrete estimator, columns otherwise), and ``h(rows)``,
    H(target | first, rest) with rest's rows replaced by ``rows``. ``first``
    is zero or one selection. Everything ``rows`` does not touch is prepared
    once, so a plain entropy is ``h(block)`` and a surrogate draw pays only
    for its rows and the counting."""
    if kind.method == "discrete-plugin":
        w, n_w = _selection_ids(view, first)
        zw, n_zw = _join(w, n_w, *_selection_ids(view, target))
        block, n_r = _selection_ids(view, rest)
        if n_zw * n_r > _BINCOUNT_CAP:  # rank once, not in every join
            zw, n_zw = dense_ids(zw, n_zw)
            block, n_r = dense_ids(block, n_r)
        log2 = _log2_table(view.rows)

        def h(rows: np.ndarray) -> float:
            return discrete_cond_entropy(_join(w, n_w, rows, n_r)[0],
                                         _join(zw, n_zw, rows, n_r)[0], log2)
        return block, h
    z, block = _resolve(view, target), _resolve(view, rest)
    if kind.method == "box-kernel":
        return block, _box_given(view, first, z, kind.width)
    x = _resolve(view, first)
    return block, lambda rows: gaussian_cond_entropy(z, np.hstack([x, rows]))


def _check_kind(view: EmbeddedView, kind: EstimatorKind):
    if kind.method == "discrete-plugin" and not view.discrete:
        raise ValidationError("discrete-plugin estimator requires discretized data")
    if kind.method != "discrete-plugin" and view.discrete:
        raise ValidationError(f"{kind.method} estimator requires real-valued data")


# ---------------------------------------------------------------------------
# public measures

def conditional_entropy(target, conditioners, view: EmbeddedView,
                        kind: EstimatorKind) -> float:
    """H(target | conditioners) in bits over the aligned rows of a view.

    ``target`` and ``conditioners`` are selections built with
    :func:`next_value` and :func:`history`; the target may itself be a list
    of selections (used for the joint next-step vector). The view memoises
    the value under ``(kind, target, conditioners)`` in the order given, so
    every measure on one view computes each entropy once.
    """
    target = _as_selections(target)
    conditioners = _as_selections(conditioners)
    key = (kind, target, conditioners)
    found = view._memo.get(key)
    if found is None:
        _check_kind(view, kind)
        if not target:
            raise ValidationError("target selection is empty")
        block, h = _given(view, kind, target, conditioners[:1], conditioners[1:])
        found = view._memo[key] = h(block)
    return found


def collective_transfer_entropy(dest: int, sources, view: EmbeddedView,
                                kind: EstimatorKind) -> float:
    """Information (bits) the sources' embedded pasts add about the
    destination's next value beyond its own embedded past.

    An empty source set carries no information, so the value is exactly 0.
    """
    sources = tuple(sources)
    check_parents(dest, sources, view.m_total)
    if not sources:
        return 0.0
    h_self = conditional_entropy(next_value(dest), [history(dest)], view, kind)
    conds = [history(dest)] + [history(s) for s in sources]
    h_full = conditional_entropy(next_value(dest), conds, view, kind)
    return h_self - h_full


def resampled_source_entropy(dest: int, sources, view: EmbeddedView,
                             kind: EstimatorKind):
    """``(h_self, block, h_full)`` of the destination's next value: H(next |
    own past), then :func:`_given`'s pair for H(next | own past, source
    pasts), so ``h_full`` takes a resampling of ``block``, the joint source
    pasts, and ``h_full(block)`` is the plain entropy (``sources`` non-empty)."""
    h_self = conditional_entropy(next_value(dest), [history(dest)], view, kind)
    return (h_self, *_given(view, kind, (next_value(dest),), (history(dest),),
                            [history(s) for s in sources]))


def stochastic_interaction(view: EmbeddedView, kind: EstimatorKind) -> float:
    """Excess of summed per-subsystem next-step uncertainty over the joint
    next-step uncertainty, each conditioned on embedded pasts (bits)."""
    subs = range(view.m_total)
    joint_target = [next_value(s) for s in subs]
    all_hists = [history(s) for s in subs]
    h_joint = conditional_entropy(joint_target, all_hists, view, kind)
    h_each = sum(
        conditional_entropy(next_value(s), [history(s)], view, kind)
        for s in subs
    )
    return h_each - h_joint


def kl_divergence(graph: Dag, view: EmbeddedView, kind: EstimatorKind) -> float:
    """Divergence (bits) of the graph-factorised transition model from the
    joint empirical one: stochastic interaction minus the summed collective
    transfer entropies into each vertex from its parents."""
    check_vertex_count(graph, view.m_total)
    s_y = stochastic_interaction(view, kind)
    te_sum = sum(
        collective_transfer_entropy(v, graph.parents[v], view, kind)
        for v in range(graph.m)
    )
    return s_y - te_sum
