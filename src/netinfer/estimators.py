"""Conditional-entropy machinery over embedded observations.

Three interchangeable density models back every measure here:

* ``discrete-plugin``: raw relative frequencies over integer symbols, no
  bias correction (downstream penalties account for the bias), counted
  over integer row ids: dense ids per view block, joined as a * n_b + b
  and counted with np.bincount (sorted only when a join's id space
  passes a cap of 2**18 ids),
* ``linear-gaussian``: H(Z|W) = 0.5 log2((2 pi e)^d det S_{Z|W}) with the
  conditional covariance from a Schur complement of the sample covariance
  (N-1 normalisation),
* ``box-kernel``: hard-cutoff kernel; the conditional probability at each
  row is the ratio of neighbour counts inside an axis-aligned box
  (max-norm radius = width, self excluded, zero-neighbour rows floored at
  one count). Both counts of H(Z|W) come from one pass over W's neighbour
  pairs, found block by block over rows sorted by W's first coordinate,
  so memory stays bounded whatever the width.

All values are in bits. A view memoises its dense row ids and every
conditional entropy computed on it, without a lock, so a view, and the
``Scorer`` that holds it, serves one thread; the surrogate pool only
reorders and counts arrays prepared before it starts.
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

# Id spaces up to this size are counted with np.bincount, one int64 table
# entry per id (2 MB at the cap); larger ones are sorted instead. Each pooled
# surrogate holds one table at a time. On greedy tee search (M=5, N=10000,
# 8 bins) some populations join 66k-135k ids; on a 135k-id join (2 vCPUs,
# one thread) 2**18 took 0.40 ms per surrogate against 0.74-0.83 ms at 2**16,
# and the population's traced peak rose from 1.2 to 1.7 MB.
_BINCOUNT_CAP = 2 ** 18


def _dense(code: np.ndarray) -> tuple[np.ndarray, int]:
    """Renumber an id array to 0..k-1, keeping which rows are equal."""
    uniq, ids = np.unique(code, return_inverse=True)
    return ids, len(uniq)


def _join(a: np.ndarray, n_a: int, b: np.ndarray, n_b: int):
    """Ids of the row pairs (a, b), renumbered densely when the product
    space passes the bincount cap. Every id space then stays below the
    larger of the cap and the row count, so a product of two never
    overflows int64."""
    code = a * n_b + b
    if n_a * n_b <= _BINCOUNT_CAP:
        return code, n_a * n_b
    return _dense(code)


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


# Rows sorted by W's first coordinate are cut into blocks of this many, one
# small cKDTree each; a call holds at most one block pair's neighbour records
# (_BOX_BLOCK ** 2), whatever the width. In one box-kernel tee infer (M=3,
# N=3000, 19 surrogates, 2 vCPUs) 64-row blocks took 1.6x as long as 128;
# 256-row blocks took 8-23% less time but peaked 1.6 MB higher at width
# 0.08 and 9 MB higher at 0.5.
_BOX_BLOCK = 128


def _box_counts(w: np.ndarray, z: np.ndarray, width: float):
    """Per-row neighbour counts within max-norm radius ``width``, self
    excluded: ``(cw, czw)`` over W and over (W, Z).

    Both come from one pass over the neighbour pairs in W: a pair also
    counts towards czw when its Z rows lie within ``width``. (When W is
    empty the pairs are taken over Z, and every row has n - 1 neighbours
    in W.) Rows are sorted by their first coordinate x0 and cut into
    blocks; each block pairs with itself and with each later block up to
    the first whose first x0 lies more than ``width`` past its own last
    x0. Floating-point subtraction is monotone, so that stop never drops a
    pair the max-norm admits, and the counts are exact.
    """
    from scipy.spatial import cKDTree  # here: its ~0.5 s import only when used
    n = z.shape[0]
    x = w if w.shape[1] else z
    order = np.argsort(x[:, 0], kind="stable")
    x, z = x[order], np.asarray(z[order], dtype=float)
    x0 = x[:, 0]
    blocks = [(s, min(s + _BOX_BLOCK, n)) for s in range(0, n, _BOX_BLOCK)]
    trees = [cKDTree(x[s:e]) for s, e in blocks]
    cx = np.zeros(n, dtype=np.int64)
    cxz = np.zeros(n, dtype=np.int64)

    def add(i, a, j, b):
        """Count the pairs (row i of block a, row j of block b)."""
        near = np.abs(z[blocks[a][0] + i] - z[blocks[b][0] + j]).max(axis=1) <= width
        for ends, (s, e) in ((i, blocks[a]), (j, blocks[b])):
            cx[s:e] += np.bincount(ends, minlength=e - s)
            cxz[s:e] += np.bincount(ends[near], minlength=e - s)

    for a, (_, end_a) in enumerate(blocks):
        pairs = trees[a].query_pairs(width, p=np.inf, output_type="ndarray")
        add(pairs[:, 0], a, pairs[:, 1], a)
        for b in range(a + 1, len(blocks)):
            if x0[blocks[b][0]] - x0[end_a - 1] > width:
                break
            rec = trees[a].sparse_distance_matrix(trees[b], width, p=np.inf,
                                                  output_type="ndarray")
            add(rec["i"], a, rec["j"], b)
    cw, czw = np.empty_like(cx), np.empty_like(cxz)
    cw[order], czw[order] = cx, cxz
    if not w.shape[1]:
        cw[:] = n - 1
    return cw, czw


def box_cond_entropy(z: np.ndarray, w: np.ndarray, width: float) -> float:
    """H(Z|W) from hard-cutoff kernel neighbour-count ratios, in bits."""
    if z.shape[0] < 1:
        raise ValidationError("empty view")
    cw, czw = _box_counts(w, z, width)
    cw = np.maximum(cw, 1)
    czw = np.maximum(czw, 1)
    return float(np.mean(np.log2(cw) - np.log2(czw)))


def _real_cond_entropy(kind: EstimatorKind, z: np.ndarray, w: np.ndarray) -> float:
    if kind.method == "linear-gaussian":
        return gaussian_cond_entropy(z, w)
    return box_cond_entropy(z, w, kind.width)


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
        else:
            found = _real_cond_entropy(kind, _resolve(view, target),
                                       _resolve(view, conditioners))
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
        dz, n_dz = _dense(wd * n_z + z)
        src, n_src = _dense(_selection_ids(view, [history(s) for s in sources])[0])
        wd_base, dz_base = wd * n_src, dz * n_src
        log2 = _log2_table(view.rows)

        def h_full(s: np.ndarray) -> float:
            return discrete_cond_entropy(wd_base + s, n_wd * n_src,
                                         dz_base + s, n_dz * n_src, log2)
        return h_self, src, h_full
    z = _resolve(view, [next_value(dest)])
    wd = _resolve(view, [history(dest)])

    def h_full(ws: np.ndarray) -> float:
        return _real_cond_entropy(kind, z, np.hstack([wd, ws]))
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
