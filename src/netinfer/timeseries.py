"""Observation datasets, discretization and delay embedding.

The embedding convention is backwards in time: the history vector of
subsystem i at time n is ⟨y_n, y_{n-τ}, ..., y_{n-(κ-1)τ}⟩, which is the
right form for non-invertible (endomorphic) dynamics. All subsystems are
trimmed to one common valid index range (set by the deepest embedding) so
that joint distributions are taken over aligned rows.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DataFormatError, ValidationError, check_int
from .graph import check_names

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
    larger ones are sorted."""
    if space <= _BINCOUNT_CAP:
        seen = np.zeros(space, dtype=bool)
        seen[code] = True
        rank = np.cumsum(seen, dtype=np.int64)
        rank -= 1
        return rank.take(code), int(rank[-1]) + 1 if space else 0
    uniq, ids = np.unique(code, return_inverse=True)
    return ids, len(uniq)


def _check_matrix(values: np.ndarray, names) -> tuple[str, ...]:
    """The one rule for an (M, N) data matrix: 2-d, M >= 1 subsystems,
    N >= 2 samples, every value finite. Returns its names, checked by
    :func:`~netinfer.graph.check_names` against M."""
    if values.ndim != 2:
        raise ValidationError("series must be a 2-d array of shape (M, N)")
    m, n = values.shape
    if m < 1:
        raise ValidationError("need at least one subsystem")
    if n < 2:
        raise ValidationError("need at least two samples per subsystem")
    names = check_names(names, m)
    if not np.all(np.isfinite(values)):
        i, t = np.argwhere(~np.isfinite(values))[0]
        raise ValidationError(f"non-finite value in series {names[i]} at index {t}")
    return names


@dataclass(frozen=True)
class TimeSeriesSet:
    """M aligned scalar observation sequences of length N."""

    series: np.ndarray  # shape (M, N), float64
    names: Optional[tuple[str, ...]] = None  # None: V1, ..., VM

    def __post_init__(self):
        arr = np.array(self.series, dtype=float)
        object.__setattr__(self, "names", _check_matrix(arr, self.names))
        arr.flags.writeable = False
        object.__setattr__(self, "series", arr)

    @property
    def m(self) -> int:
        return self.series.shape[0]

    @property
    def n(self) -> int:
        return self.series.shape[1]


@dataclass(frozen=True)
class DiscretizedSeries:
    """Integer-coded sequences with per-subsystem alphabet sizes."""

    symbols: np.ndarray  # shape (M, N), int64
    alphabet_sizes: tuple[int, ...]
    names: Optional[tuple[str, ...]] = None  # None: V1, ..., VM

    def __post_init__(self):
        values = np.asarray(self.symbols, dtype=float)
        names = _check_matrix(values, self.names)
        if len(self.alphabet_sizes) != len(names):
            raise ValidationError(f"alphabet_sizes has {len(self.alphabet_sizes)} "
                                  f"entries for {len(names)} subsystems")
        sizes = tuple(check_int(f"alphabet size of subsystem {i}", r, 2)
                      for i, r in enumerate(self.alphabet_sizes))
        for i, r in enumerate(sizes):
            col = values[i]
            if not np.array_equal(col, np.floor(col)):
                raise ValidationError(f"symbols of subsystem {i} must be integers")
            if col.min() < 0 or col.max() >= r:
                raise ValidationError(f"symbol out of range for subsystem {i}")
        sym = values.astype(np.int64)
        sym.flags.writeable = False
        object.__setattr__(self, "symbols", sym)
        object.__setattr__(self, "alphabet_sizes", sizes)
        object.__setattr__(self, "names", names)

    @property
    def m(self) -> int:
        return self.symbols.shape[0]

    @property
    def n(self) -> int:
        return self.symbols.shape[1]


@dataclass(frozen=True)
class EmbeddingSpec:
    """Per-subsystem time delay tau and embedding dimension kappa."""

    tau: tuple[int, ...]
    kappa: tuple[int, ...]

    def __post_init__(self):
        if len(self.tau) != len(self.kappa):
            raise ValidationError("tau and kappa must have the same length")
        object.__setattr__(self, "tau", tuple(
            check_int(f"tau of subsystem {i}", t, 1) for i, t in enumerate(self.tau)))
        object.__setattr__(self, "kappa", tuple(
            check_int(f"kappa of subsystem {i}", k, 1) for i, k in enumerate(self.kappa)))

    @classmethod
    def uniform(cls, m: int, tau: int = 1, kappa: int = 2) -> "EmbeddingSpec":
        return cls((tau,) * m, (kappa,) * m)

    def depth(self, i: int) -> int:
        """Number of samples reaching back from the present, (kappa-1)*tau."""
        return (self.kappa[i] - 1) * self.tau[i]

    def validate_against(self, n: int):
        for i in range(len(self.tau)):
            if self.depth(i) >= n - 1:
                raise ValidationError(
                    f"embedding exceeds data length for subsystem {i}: "
                    f"(kappa-1)*tau = {self.depth(i)} with N = {n}"
                )


@dataclass(frozen=True)
class EmbeddedView:
    """Aligned next-step targets and lag-vector histories of all M
    subsystems.

    ``targets[t, s]`` is y_{n+1} of subsystem s and ``histories[s][t]`` is
    its κ-dimensional lag vector at time n, where row t is the time index
    n = t + max_i (κ_i-1)τ_i of the source data. ``_memo`` keeps the results
    of :meth:`symbol_ids` and ``estimators.conditional_entropy`` for its lifetime.
    """

    names: tuple[str, ...]
    targets: np.ndarray              # (rows, M)
    histories: tuple[np.ndarray, ...]
    rows: int
    discrete: bool
    alphabet_sizes: tuple[int, ...] | None = None
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.targets.flags.writeable = False
        for h in self.histories:
            h.flags.writeable = False

    @property
    def m_total(self) -> int:
        return len(self.names)

    def _check_subsystem(self, subsystem: int) -> int:
        """Return ``subsystem`` if it indexes one of the M subsystems; a
        negative index would otherwise quietly read from the end."""
        if not 0 <= subsystem < len(self.names):
            raise ValidationError(
                f"subsystem index {subsystem} out of range for "
                f"{len(self.names)} subsystems"
            )
        return subsystem

    def target(self, subsystem: int) -> np.ndarray:
        return self.targets[:, self._check_subsystem(subsystem)]

    def history(self, subsystem: int) -> np.ndarray:
        return self.histories[self._check_subsystem(subsystem)]

    def kappa(self, subsystem: int) -> int:
        return self.history(subsystem).shape[1]

    def alphabet(self, subsystem: int) -> int:
        if not self.discrete or self.alphabet_sizes is None:
            raise ValidationError("view is not discrete")
        return self.alphabet_sizes[self._check_subsystem(subsystem)]

    def symbol_ids(self, role: str, subsystem: int) -> tuple[np.ndarray, int]:
        """Dense per-row ids 0..k-1 of a subsystem's "next" (target) or
        "history" block, and k; rows share an id exactly when their values
        are equal, and ids follow the rows' lexicographic order, as
        ``np.unique(block, axis=0, return_inverse=True)`` numbers them. An
        integer block is folded column by column into one mixed-radix code
        of ``value - column minimum`` and ranked by :func:`dense_ids`; a
        block that is not integer, or whose code would not fit int64, is
        sorted by rows. Kept, 1-D and read-only, for the view's lifetime."""
        found = self._memo.get((role, subsystem))
        if found is None:
            block = self.target(subsystem) if role == "next" else self.history(subsystem)
            block = block.reshape(self.rows, -1)
            code, space = _row_code(block)
            if code is None:
                uniq, ids = np.unique(block, axis=0, return_inverse=True)
                ids, k = ids.reshape(-1), len(uniq)
            else:
                ids, k = dense_ids(code, space)
            ids.flags.writeable = False
            found = self._memo[(role, subsystem)] = (ids, k)
        return found


def _row_code(block: np.ndarray):
    """``(code, space)``: the rows of an integer block as one mixed-radix
    code in 0..space-1, first column most significant, so codes order as
    the rows do; ``(None, 0)`` when the block is not integer or empty, or
    the code would not fit int64."""
    if block.dtype.kind != "i" or not block.size:
        return None, 0
    lo, hi = block.min(axis=0), block.max(axis=0)
    spans = [int(h) - int(l) + 1 for l, h in zip(lo, hi)]
    space = math.prod(spans)
    if space >= 2 ** 63:
        return None, 0
    code = np.zeros(len(block), dtype=np.int64)
    for k, span in enumerate(spans):
        code *= span
        code += block[:, k] - lo[k]
    return code, space


def load_csv(path) -> TimeSeriesSet:
    """Read an observation dataset from CSV (header row, '.' decimals).

    Column order defines the subsystem index order. A UTF-8 byte order mark,
    as spreadsheet programs write, is dropped. The first malformed row or
    cell, row by row and left to right, is reported with its one-based row
    number and column name.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: cannot read: {exc}") from exc
    if not rows:
        raise DataFormatError(f"{path}: empty file, header row required")
    header = [h.strip() for h in rows[0]]
    if any(not h for h in header):
        raise DataFormatError(f"{path}: blank column name in header")
    dupes = {h for h in header if header.count(h) > 1}
    if dupes:
        raise DataFormatError(f"{path}: duplicate header {sorted(dupes)}")
    body = rows[1:]
    if not body:
        raise DataFormatError(f"{path}: empty body")
    m = len(header)
    try:
        if set(map(len, body)) != {m}:
            raise ValueError
        data = np.fromiter(map(float, chain.from_iterable(body)), dtype=float,
                           count=len(body) * m)
        # float() tolerates 1_000; the format does not
        if "_" in "".join(chain.from_iterable(body)) or not np.isfinite(data).all():
            raise ValueError
    except ValueError:
        raise DataFormatError(_first_fault(path, header, body)) from None
    if len(body) < 2:
        raise DataFormatError(f"{path}: need at least two data rows")
    return TimeSeriesSet(data.reshape(len(body), m).T, tuple(header))


def _first_fault(path, header: list[str], body: list[list[str]]) -> str:
    """The message for the first row of the wrong length or bad cell."""
    for r, cells in enumerate(body, start=2):
        if len(cells) != len(header):
            return f"{path}: row {r} has {len(cells)} cells, expected {len(header)}"
        for name, cell in zip(header, cells):
            try:
                if "_" in cell:
                    raise ValueError
                finite = np.isfinite(float(cell))
            except ValueError:
                return (f"{path}: row {r}, column {name!r}: "
                        f"cannot parse {cell!r} as a number")
            if not finite:
                return f"{path}: row {r}, column {name!r}: non-finite value {cell!r}"
    raise AssertionError("no faulty row or cell")


def csv_text(ts: TimeSeriesSet) -> str:
    """Serialize a dataset in the same CSV dialect load_csv reads.

    Floats use shortest round-trip notation so a write/read cycle is exact.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(ts.names)
    writer.writerows(ts.series.T.tolist())  # csv writes a float as its repr
    return buf.getvalue()


def write_csv(ts: TimeSeriesSet, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_text(ts))


def discretize(ts: TimeSeriesSet, bins: Union[int, Sequence[int]]) -> DiscretizedSeries:
    """Equal-width binning over [min, max] per subsystem.

    The final bin is right-closed so the maximum maps to bins-1. A bin
    count above the series length (more bins than samples leaves bins
    empty) is rejected, and so is a series whose range (zero for a
    constant) gives no bins+1 distinct float64 edges, before anything is
    divided by the bin width.
    """
    per = [bins] * ts.m if np.ndim(bins) == 0 else list(bins)
    if len(per) != ts.m:
        raise ValidationError(f"bins list has {len(per)} entries for {ts.m} subsystems")
    per = [check_int(f"bins for subsystem {name!r}", b, 2)
           for name, b in zip(ts.names, per)]
    for name, b in zip(ts.names, per):
        if b > ts.n:  # checked before any cut is built
            raise ValidationError(f"bins for subsystem {name!r} must be at most "
                                  f"the series length {ts.n}, got {b}")

    symbols = np.empty_like(ts.series, dtype=np.int64)
    for i in range(ts.m):
        lo = float(ts.series[i].min())
        hi = float(ts.series[i].max())
        width = (hi - lo) / per[i]
        cuts = tuple(lo + k * width for k in range(per[i] + 1))
        if not all(a < b for a, b in zip(cuts, cuts[1:])):
            raise ValidationError(
                f"series {ts.names[i]!r}: cannot split the {'zero-' if lo == hi else ''}"
                f"range [{lo!r}, {hi!r}] into {per[i]} distinct bins")
        sym = np.floor((ts.series[i] - lo) / width).astype(np.int64)
        np.clip(sym, 0, per[i] - 1, out=sym)
        symbols[i] = sym
    return DiscretizedSeries(symbols, tuple(per), ts.names)


def delay_embed(data: Union[TimeSeriesSet, DiscretizedSeries],
                spec: EmbeddingSpec) -> EmbeddedView:
    """Build aligned targets and lag-vector histories of every subsystem.

    The usable rows are the time indices n where every subsystem's full
    history fits and a next sample exists: rows = N - 1 - max_i (κ_i-1)τ_i.
    """
    discrete = isinstance(data, DiscretizedSeries)
    values = data.symbols if discrete else data.series
    m, n = values.shape
    if len(spec.tau) != m:
        raise ValidationError(f"embedding spec covers {len(spec.tau)} of {m} subsystems")
    spec.validate_against(n)

    depth = max(spec.depth(i) for i in range(m))
    rows = n - 1 - depth
    idx = np.arange(depth, depth + rows)  # common present index n per row

    targets = np.stack([values[s, idx + 1] for s in range(m)], axis=1)
    histories = []
    for s in range(m):
        lags = np.arange(spec.kappa[s]) * spec.tau[s]
        histories.append(values[s][idx[:, None] - lags[None, :]])
    return EmbeddedView(
        names=data.names,
        targets=targets,
        histories=tuple(histories),
        rows=rows,
        discrete=discrete,
        alphabet_sizes=tuple(data.alphabet_sizes) if discrete else None,
    )
