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
from itertools import chain, islice
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DataFormatError, ValidationError, check_int
from .graph import check_names

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
    n = t + max_i (κ_i-1)τ_i of the source data. ``_memo`` is the cache that
    only :mod:`~netinfer.estimators` reads and writes, for the view's lifetime.
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


# CSV rows parsed or written per step: memory beyond the array is one chunk's
_CSV_CHUNK = 256


def load_csv(path) -> TimeSeriesSet:
    """Read an observation dataset from CSV (header row, '.' decimals).

    Column order defines the subsystem index order. A UTF-8 byte order mark,
    as spreadsheet programs write, is dropped. The body is parsed into floats
    ``_CSV_CHUNK`` rows at a time. Unless the file cannot be read to its end,
    the first malformed row or cell, row by row and left to right, is
    reported with its one-based row number and column name.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header, data = _parse_rows(path, reader)
            except DataFormatError:
                for _ in reader:  # a read fault further on takes precedence
                    pass
                raise
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: cannot read: {exc}") from exc
    return TimeSeriesSet(data.T, tuple(header))


def _parse_rows(path, reader) -> tuple[list[str], np.ndarray]:
    """The stripped header and the (N, M) body of a CSV reader's rows."""
    first = next(reader, None)
    if first is None:
        raise DataFormatError(f"{path}: empty file, header row required")
    header = [h.strip() for h in first]
    if any(not h for h in header):
        raise DataFormatError(f"{path}: blank column name in header")
    dupes = {h for h in header if header.count(h) > 1}
    if dupes:
        raise DataFormatError(f"{path}: duplicate header {sorted(dupes)}")
    m, parts, row = len(header), [], 2  # row: the file row number of a chunk's first
    while chunk := list(islice(reader, _CSV_CHUNK)):
        try:
            if set(map(len, chunk)) != {m}:
                raise ValueError
            data = np.fromiter(map(float, chain.from_iterable(chunk)), dtype=float,
                               count=len(chunk) * m)
            # float() tolerates 1_000; the format does not
            if "_" in "".join(chain.from_iterable(chunk)) or not np.isfinite(data).all():
                raise ValueError
        except ValueError:
            raise DataFormatError(_first_fault(path, header, chunk, row)) from None
        parts.append(data)
        row += len(chunk)
    if not parts:
        raise DataFormatError(f"{path}: empty body")
    if row < 4:
        raise DataFormatError(f"{path}: need at least two data rows")
    return header, np.concatenate(parts).reshape(row - 2, m)


def _first_fault(path, header: list[str], chunk: list[list[str]], row: int) -> str:
    """The message for the first bad row or cell of ``chunk``, file rows ``row`` on."""
    for r, cells in enumerate(chunk, start=row):
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


def csv_chunks(ts: TimeSeriesSet):
    """Yield the CSV text load_csv reads: the header line, then ``_CSV_CHUNK``
    rows at a time, each float as its (never quoted) shortest round-trip repr."""
    buf = io.StringIO()
    csv.writer(buf).writerow(ts.names)
    yield buf.getvalue()
    for a in range(0, ts.series.shape[1], _CSV_CHUNK):
        yield "".join(",".join(map(repr, row)) + "\r\n"
                      for row in ts.series[:, a:a + _CSV_CHUNK].T.tolist())


def write_csv(ts: TimeSeriesSet, path):
    """Write a dataset to ``path`` as :func:`csv_chunks` streams it."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(csv_chunks(ts))


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
