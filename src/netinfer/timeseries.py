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
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence, Union

import numpy as np

from .errors import DataFormatError, ValidationError
from .graph import check_vertex_name


@dataclass(frozen=True)
class TimeSeriesSet:
    """M aligned scalar observation sequences of length N."""

    series: np.ndarray  # shape (M, N), float64
    names: tuple[str, ...]

    def __post_init__(self):
        arr = np.asarray(self.series, dtype=float)
        if arr.ndim != 2:
            raise ValidationError("series must be a 2-d array of shape (M, N)")
        m, n = arr.shape
        if m < 1:
            raise ValidationError("need at least one subsystem")
        if n < 2:
            raise ValidationError("need at least two samples per subsystem")
        if not np.all(np.isfinite(arr)):
            i, t = np.argwhere(~np.isfinite(arr))[0]
            raise ValidationError(
                f"non-finite value in series {self.names[i] if len(self.names) == m else i} "
                f"at index {t}"
            )
        if len(self.names) != m:
            raise ValidationError("names length does not match subsystem count")
        if len(set(self.names)) != m:
            raise ValidationError("subsystem names must be unique")
        for name in self.names:
            check_vertex_name(name)
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "series", arr)
        object.__setattr__(self, "names", tuple(self.names))

    @property
    def m(self) -> int:
        return self.series.shape[0]

    @property
    def n(self) -> int:
        return self.series.shape[1]

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[float]],
                     names: Sequence[str] | None = None) -> "TimeSeriesSet":
        arr = np.asarray(columns, dtype=float)
        if names is None:
            names = tuple(f"V{i + 1}" for i in range(arr.shape[0]))
        return cls(arr, tuple(names))


@dataclass(frozen=True)
class DiscretizedSeries:
    """Integer-coded sequences with per-subsystem alphabet sizes."""

    symbols: np.ndarray  # shape (M, N), int64
    alphabet_sizes: tuple[int, ...]
    bin_edges: tuple[tuple[float, ...], ...]
    names: tuple[str, ...]

    def __post_init__(self):
        sym = np.asarray(self.symbols, dtype=np.int64)
        m, _ = sym.shape
        if len(self.alphabet_sizes) != m or len(self.names) != m:
            raise ValidationError("per-subsystem metadata does not match M")
        for i, r in enumerate(self.alphabet_sizes):
            if r < 2:
                raise ValidationError(f"alphabet size of subsystem {i} must be >= 2")
            col = sym[i]
            if col.min() < 0 or col.max() >= r:
                raise ValidationError(f"symbol out of range for subsystem {i}")
        for i, edges in enumerate(self.bin_edges):
            if len(edges) >= 2 and not all(a < b for a, b in zip(edges, edges[1:])):
                raise ValidationError(f"bin edges not strictly increasing for subsystem {i}")
        sym = sym.copy()
        sym.flags.writeable = False
        object.__setattr__(self, "symbols", sym)

    @property
    def m(self) -> int:
        return self.symbols.shape[0]

    @property
    def n(self) -> int:
        return self.symbols.shape[1]

    @classmethod
    def from_symbols(cls, symbols, alphabet_sizes,
                     names: Sequence[str] | None = None) -> "DiscretizedSeries":
        """Wrap already-discrete sequences (no binning metadata)."""
        sym = np.asarray(symbols, dtype=np.int64)
        if names is None:
            names = tuple(f"V{i + 1}" for i in range(sym.shape[0]))
        return cls(sym, tuple(int(r) for r in alphabet_sizes),
                   tuple(() for _ in range(sym.shape[0])), tuple(names))


@dataclass(frozen=True)
class EmbeddingSpec:
    """Per-subsystem time delay tau and embedding dimension kappa."""

    tau: tuple[int, ...]
    kappa: tuple[int, ...]

    def __post_init__(self):
        if len(self.tau) != len(self.kappa):
            raise ValidationError("tau and kappa must have the same length")
        for i, (t, k) in enumerate(zip(self.tau, self.kappa)):
            if t < 1:
                raise ValidationError(f"tau of subsystem {i} must be >= 1")
            if k < 1:
                raise ValidationError(f"kappa of subsystem {i} must be >= 1")
        object.__setattr__(self, "tau", tuple(int(t) for t in self.tau))
        object.__setattr__(self, "kappa", tuple(int(k) for k in self.kappa))

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
        are equal. Kept, read-only, for the view's lifetime."""
        found = self._memo.get((role, subsystem))
        if found is None:
            block = self.target(subsystem) if role == "next" else self.history(subsystem)
            uniq, ids = np.unique(block, axis=0, return_inverse=True)
            ids = ids.reshape(-1)
            ids.flags.writeable = False
            found = self._memo[(role, subsystem)] = (ids, len(uniq))
        return found


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
    for t in range(ts.n):
        writer.writerow([repr(float(v)) for v in ts.series[:, t]])
    return buf.getvalue()


def write_csv(ts: TimeSeriesSet, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(csv_text(ts))


def discretize(ts: TimeSeriesSet, bins: Union[int, Sequence[int]]) -> DiscretizedSeries:
    """Equal-width binning over [min, max] per subsystem.

    The final bin is right-closed so the maximum maps to bins-1. A series
    whose range (zero for a constant) gives no bins+1 distinct float64 edges
    is rejected before anything is divided by the bin width.
    """
    if isinstance(bins, (int, np.integer)):
        per = [int(bins)] * ts.m
    else:
        per = [int(b) for b in bins]
        if len(per) != ts.m:
            raise ValidationError(f"bins list has {len(per)} entries for {ts.m} subsystems")
    for i, b in enumerate(per):
        if b < 2:
            raise ValidationError(f"bins for subsystem {ts.names[i]!r} must be >= 2")

    symbols = np.empty_like(ts.series, dtype=np.int64)
    edges = []
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
        edges.append(cuts)
    return DiscretizedSeries(symbols, tuple(per), tuple(edges), ts.names)


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
