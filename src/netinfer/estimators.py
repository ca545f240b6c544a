"""Conditional-entropy machinery over embedded observations.

Three interchangeable density models back every measure here:

* ``discrete-plugin``: raw relative frequencies over integer symbols, no
  bias correction (downstream penalties account for the bias), counted
  over integer row ids: dense ids per view block, joined as a * n_b + b
  and counted with np.bincount. Ids are ranked from a table of the codes
  present while an id space stays within a cap of 2**18 ids
  (``timeseries.dense_ids``), and sorted only past it,
* ``linear-gaussian``: H(Z|W) = 0.5 log2((2 pi e)^d det S_{Z|W}) with the
  conditional covariance from a Schur complement of the sample covariance
  (N-1 normalisation),
* ``box-kernel``: hard-cutoff kernel; the conditional probability at each
  row is the ratio of neighbour counts inside an axis-aligned box
  (max-norm radius = width, self excluded, zero-neighbour rows floored at
  one count). Both counts of H(Z|W) come from one pass over the neighbour
  pairs of W's first column block, found in dense tiles over rows sorted
  by its first coordinate and filtered by W's other columns and by Z. A
  view keeps each first block's pairs, up to a cap, so every entropy
  conditioned on a destination's own past, its surrogates included,
  counts from pairs found once.

All values are in bits. A view memoises its dense row ids, its kept
neighbour pairs and every conditional entropy computed on it, without a
lock, so a view, and the ``Scorer`` that holds it, serves one thread; the
surrogate pool only reorders and counts arrays prepared before it starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import NumericError, ValidationError, check_number
from .graph import Dag, check_parents, check_vertex_count
from .timeseries import _BINCOUNT_CAP, EmbeddedView, dense_ids

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
# discrete counting kernel over dense integer row ids; _BINCOUNT_CAP, the
# largest id space counted by np.bincount, lives next to dense_ids

def _join(a: np.ndarray, n_a: int, b: np.ndarray, n_b: int):
    """Ids of the row pairs (a, b), renumbered densely when the product
    space passes the bincount cap. Every id space then stays below the
    larger of the cap and the row count, so a product of two never
    overflows int64."""
    code = a * n_b + b
    if n_a * n_b <= _BINCOUNT_CAP:
        return code, n_a * n_b
    return dense_ids(code, n_a * n_b)


def _selection_ids(view: EmbeddedView, selections: Sequence[Selection]):
    """Joint row ids of the selected blocks (all rows share id 0 when no
    block is selected)."""
    ids, n = np.zeros(view.rows, dtype=np.int64), 1
    for sel in selections:
        ids, n = _join(ids, n, *view.symbol_ids(sel.role, sel.subsystem))
    return ids, n


def _row_counts(ids: np.ndarray, n_ids: int) -> np.ndarray:
    """How many rows share each row's id (ids must lie in 0..n_ids-1)."""
    if n_ids <= _BINCOUNT_CAP:
        return np.bincount(ids)[ids]
    _, inv, cnt = np.unique(ids, return_inverse=True, return_counts=True)
    return cnt[inv]


def _log2_table(rows: int) -> np.ndarray:
    """np.log2 of each row count 0..rows by index (0, never a count, maps to 0)."""
    return np.log2(np.maximum(np.arange(rows + 1), 1))


def discrete_cond_entropy(w: np.ndarray, n_w: int, zw: np.ndarray, n_zw: int,
                          log2: np.ndarray) -> float:
    """Plug-in H(Z|W) in bits from per-row ids of W and of (W, Z), with the
    logs of the row counts read from ``log2 = _log2_table(rows)``."""
    per_row = log2.take(_row_counts(w, n_w)) - log2.take(_row_counts(zw, n_zw))
    return float(np.add.reduce(per_row) / len(w))  # np.mean's sum and division


def _discrete_from_view(view: EmbeddedView, target, conditioners) -> float:
    w, n_w = _selection_ids(view, conditioners)
    return discrete_cond_entropy(w, n_w, *_join(w, n_w, *_selection_ids(view, target)),
                                 _log2_table(view.rows))


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


# Rows sorted by their first coordinate are cut into blocks of this many, and
# each block is compared with the rows after it in dense tiles of
# _BOX_BLOCK x _BOX_TILE distances, so a tile yields at most 64k pairs and a
# pass that keeps none peaks near 3 MB, whatever the width. In one serial
# box-kernel tee infer (M=3, N=3000, width 0.08, 19 surrogates, 2 vCPUs)
# 128 x 512 tiles took 0.36-0.38 s, against 0.38-0.42 s for 128 x 256,
# 0.38-0.41 s for 128 x 1024, 0.40-0.45 s for 256 x 512 and 0.42-0.50 s for
# 64 x 512.
_BOX_BLOCK = 128
_BOX_TILE = 4 * _BOX_BLOCK

# A view keeps the neighbour pairs of its conditioners' first blocks while
# their total stays within this many (8 bytes each as two int32 row ids,
# 16 MB at the cap); past it, each entropy finds the pairs of its whole
# conditioning space afresh. The box-tee-m3 benchmark (N=3000, width 0.08)
# keeps 973k pairs over its three destinations. At width 0.25 the same data
# has 4.0M: with this cap one destination's are kept and an infer took
# 3.6 s and peaked at 57 MB; keeping all of them took 2.6 s but 74 MB.
_KEPT_PAIRS = 2 ** 21


def _box_pairs(x: np.ndarray, width: float):
    """Yield every pair of rows of ``x`` within max-norm distance ``width``
    as two int32 arrays ``(i, j)`` of row ids, ``i < j``, one chunk per tile.

    Rows are sorted by their first coordinate x0, stably, and cut into
    blocks; each block is compared with the rows from its own start up to
    the last whose x0 lies within ``width`` of the block's last x0, by the
    same predicate ``np.abs(a - b) <= width`` on every column as a brute
    force. Floating-point subtraction is monotone, so that stop never drops
    a pair the max-norm admits, and the pairs are exact.
    """
    n = x.shape[0]
    order = np.argsort(x[:, 0], kind="stable")
    xs = x[order]
    x0 = xs[:, 0]
    rows = order.astype(np.int32)
    for s in range(0, n, _BOX_BLOCK):
        e = min(s + _BOX_BLOCK, n)
        stop = e + int(np.searchsorted(x0[e:] - x0[e - 1], width, side="right"))
        a = xs[s:e]
        for t in range(s, stop, _BOX_TILE):
            b = xs[t:min(t + _BOX_TILE, stop)]
            near = np.abs(a[:, None, 0] - b[None, :, 0]) <= width
            for k in range(1, x.shape[1]):
                near &= np.abs(a[:, None, k] - b[None, :, k]) <= width
            if t == s:
                near = np.triu(near, 1)  # each pair once, no row with itself
            i, j = np.nonzero(near)
            yield rows[s + i], rows[t + j]


def _pair_counts(chunks, rest: np.ndarray, z: np.ndarray, width: float, n: int):
    """Per-row neighbour counts ``(cw, czw)`` over W and over (W, Z), self
    excluded, from the pairs of rows within ``width`` on W's first columns.

    ``chunks`` yields those pairs as :func:`_box_pairs` does, and ``rest``
    holds W's other columns. A pair counts towards both its rows in cw when
    its ``rest`` columns also lie within ``width``, and in czw when its
    ``z`` columns do too. The counts are integers, so they do not depend on
    the order of the pairs.
    """
    cw = np.zeros(n, dtype=np.int64)
    czw = np.zeros(n, dtype=np.int64)
    stages = ((cw, [np.ascontiguousarray(c) for c in rest.T]),
              (czw, [np.ascontiguousarray(c) for c in z.T]))
    for i, j in chunks:
        for counts, columns in stages:
            for c in columns:
                d = c.take(i)
                d -= c.take(j)
                keep = np.flatnonzero(np.abs(d, out=d) <= width)
                i, j = i.take(keep), j.take(keep)
            counts += np.bincount(i, minlength=n)
            counts += np.bincount(j, minlength=n)
    return cw, czw


def _box_counts(w: np.ndarray, z: np.ndarray, width: float):
    """Per-row neighbour counts within max-norm radius ``width``, self
    excluded: ``(cw, czw)`` over W and over (W, Z), from W's pairs found
    tile by tile and never kept, so memory stays bounded by one tile. (When
    W is empty the pairs are taken over Z, and every row has n - 1
    neighbours in W.)"""
    n = z.shape[0]
    x = w if w.shape[1] else z
    cw, czw = _pair_counts(_box_pairs(x, width), w[:, :0], z, width, n)
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


def _kept_pairs(view: EmbeddedView, sel: Selection, width: float):
    """The neighbour-pair chunks of one column block (see :func:`_box_pairs`),
    found once and kept on the view, or None when keeping them would take
    the view's kept pairs past ``_KEPT_PAIRS``. Kept chunks are only read,
    so any thread may count from them."""
    key = ("box-pairs", width, sel)
    if key not in view._memo:
        room = _KEPT_PAIRS - sum(len(i) for k, found in view._memo.items()
                                 if k[0] == "box-pairs" and found for i, _ in found)
        chunks, total = [], 0
        for i, j in _box_pairs(_resolve(view, [sel]), width):
            total += len(i)
            if total > room:
                chunks = None
                break
            chunks.append((i, j))
        view._memo[key] = chunks
    return view._memo[key]


def _box_given(view: EmbeddedView, first: Selection, z: np.ndarray, width: float):
    """A function of W's other columns ``rest`` that returns H(Z | first
    block, rest) on the box kernel. It counts from the first block's kept
    pairs, filtered by ``rest``; with none kept, from pairs found afresh
    over the whole of W."""
    pairs = _kept_pairs(view, first, width)
    x = _resolve(view, [first])

    def entropy(rest: np.ndarray) -> float:
        if pairs is None:
            return box_cond_entropy(z, np.hstack([x, rest]), width)
        return _box_entropy(*_pair_counts(pairs, rest, z, width, view.rows))
    return entropy


def _box_from_view(view: EmbeddedView, target, conditioners, width: float) -> float:
    """H(target | conditioners) on the box kernel, counted from the first
    conditioner block's pairs (see :func:`_box_given`)."""
    z = _resolve(view, target)
    if not conditioners:
        return box_cond_entropy(z, _resolve(view, conditioners), width)
    return _box_given(view, conditioners[0], z, width)(_resolve(view, conditioners[1:]))


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
        if kind.method == "discrete-plugin":
            found = _discrete_from_view(view, target, conditioners)
        elif kind.method == "linear-gaussian":
            found = gaussian_cond_entropy(_resolve(view, target),
                                          _resolve(view, conditioners))
        else:
            found = _box_from_view(view, target, conditioners, kind.width)
        view._memo[key] = found
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
    """Return ``(h_self, block, h_full)`` for the destination's next value:
    ``h_self`` is H(next | own past), ``block`` holds the joint source-history
    rows (one id per row for the discrete estimator), and ``h_full(rows)`` is
    H(next | own past, source pasts) with the source rows replaced by
    ``rows``, a resampling of ``block`` (``sources`` must be non-empty).
    Everything that the resampling does not touch is prepared once, so a
    surrogate population pays only for the draw and the counting.
    """
    h_self = conditional_entropy(next_value(dest), [history(dest)], view, kind)
    if kind.method == "discrete-plugin":
        wd, n_wd = view.symbol_ids("history", dest)
        z, n_z = view.symbol_ids("next", dest)
        dz, n_dz = dense_ids(wd * n_z + z, n_wd * n_z)
        src, n_src = dense_ids(*_selection_ids(view, [history(s) for s in sources]))
        wd_base, dz_base = wd * n_src, dz * n_src
        log2 = _log2_table(view.rows)

        def h_full(s: np.ndarray) -> float:
            return discrete_cond_entropy(wd_base + s, n_wd * n_src,
                                         dz_base + s, n_dz * n_src, log2)
        return h_self, src, h_full
    z = _resolve(view, [next_value(dest)])
    if kind.method == "box-kernel":
        h_full = _box_given(view, history(dest), z, kind.width)
    else:
        wd = _resolve(view, [history(dest)])

        def h_full(ws: np.ndarray) -> float:
            return gaussian_cond_entropy(z, np.hstack([wd, ws]))
    return h_self, _resolve(view, [history(s) for s in sources]), h_full


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
