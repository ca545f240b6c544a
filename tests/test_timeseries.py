import csv
import math
import os
import tempfile
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import netinfer as ni
from netinfer import timeseries
from netinfer.errors import DataFormatError, ValidationError
from netinfer.estimators import _BINCOUNT_CAP, _block_ids, dense_ids, history, next_value
from netinfer.timeseries import _CSV_CHUNK, csv_chunks

from conftest import reference_csv_text, reference_load_csv


# ---------------------------------------------------------------------------
# load_csv

def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_identity_parse(tmp_path):
    path = _write(tmp_path, "a,b\n" + "0,0\n" * 5)
    ts = ni.load_csv(path)
    assert ts.m == 2
    assert ts.n == 5
    assert np.all(ts.series == 0.0)
    assert ts.names == ("a", "b")


def test_load_csv_header_only_is_empty_body(tmp_path):
    path = _write(tmp_path, "a,b\n")
    with pytest.raises(DataFormatError, match="empty body"):
        ni.load_csv(path)


def test_load_csv_nan_cell_names_position(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n3,nan\n5,6\n")
    with pytest.raises(DataFormatError, match=r"row 3, column 'b'"):
        ni.load_csv(path)


def test_load_csv_non_numeric_names_position(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\nx,4\n")
    with pytest.raises(DataFormatError, match=r"row 3, column 'a'"):
        ni.load_csv(path)


def test_load_csv_ragged_row(tmp_path):
    path = _write(tmp_path, "a,b\n1,2\n3\n")
    with pytest.raises(DataFormatError, match="row 3"):
        ni.load_csv(path)


def test_load_csv_duplicate_header(tmp_path):
    path = _write(tmp_path, "a,a\n1,2\n3,4\n")
    with pytest.raises(DataFormatError, match="duplicate"):
        ni.load_csv(path)


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(DataFormatError, match="cannot read"):
        ni.load_csv(tmp_path / "absent.csv")


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    ts = ni.TimeSeriesSet(rng.standard_normal((3, 20)))
    path = tmp_path / "rt.csv"
    ni.write_csv(ts, path)
    back = ni.load_csv(path)
    assert back.names == ts.names
    assert np.array_equal(back.series, ts.series)


_AWKWARD_FLOATS = (0.1, 1 / 3, -0.0, 5e-324, 1e16, 1.0)


@pytest.mark.parametrize("series", [
    np.array([_AWKWARD_FLOATS, _AWKWARD_FLOATS[::-1]]),  # 2 series, 6 rows
    np.array([_AWKWARD_FLOATS]),  # one column
    np.random.default_rng(1).standard_normal((4, 50)) * 1e-300,
], ids=["awkward", "one-column", "subnormal-scale"])
def test_csv_text_matches_reference(series):
    ts = ni.TimeSeriesSet(series)
    assert "".join(csv_chunks(ts)) == reference_csv_text(ts)


def test_csv_text_one_row_matches_reference():
    # a TimeSeriesSet needs two samples; csv_chunks reads only names and series
    one_row = SimpleNamespace(names=("a", "b", "c"),
                              series=np.array([[0.1], [-0.0], [5e-324]]))
    assert ("".join(csv_chunks(one_row)) == reference_csv_text(one_row)
            == "a,b,c\r\n0.1,-0.0,5e-324\r\n")


@pytest.mark.parametrize("chunk, n", [(1, 6), (2, 7), (3, 7),
                                      (_CSV_CHUNK, 2 * _CSV_CHUNK + 5)])
def test_streamed_csv_matches_reference_across_chunks(tmp_path, monkeypatch, chunk, n):
    monkeypatch.setattr(timeseries, "_CSV_CHUNK", chunk)
    series = np.random.default_rng(n).standard_normal((3, n))
    series[:, :len(_AWKWARD_FLOATS)] = _AWKWARD_FLOATS[:n]
    ts = ni.TimeSeriesSet(series)
    pieces = list(csv_chunks(ts))
    assert len(pieces) == 1 + math.ceil(n / chunk)  # the header, then each chunk
    assert "".join(pieces) == reference_csv_text(ts)
    ni.write_csv(ts, tmp_path / "data.csv")
    assert (tmp_path / "data.csv").read_bytes() == reference_csv_text(ts).encode()


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_memory_is_bounded_by_the_array_and_a_chunk(tmp_path):
    ts = ni.TimeSeriesSet(np.random.default_rng(5).random((5, 20000)))
    path = tmp_path / "data.csv"
    _, write_peak = _traced_peak(lambda: ni.write_csv(ts, path))
    assert write_peak <= 2 ** 20
    back, read_peak = _traced_peak(lambda: ni.load_csv(path))
    assert np.array_equal(back.series, ts.series)
    # holding every cell as a Python string would trace 16x the array's bytes
    assert read_peak <= 4 * back.series.nbytes + 2 ** 19


def test_load_csv_drops_utf8_byte_order_mark(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfV1,V2\n1,2\n3,4\n")
    assert ni.load_csv(path).names == ("V1", "V2")


def test_load_csv_reports_a_read_fault_past_a_bad_cell(tmp_path, monkeypatch):
    monkeypatch.setattr(timeseries, "_CSV_CHUNK", 1)
    path = tmp_path / "data.csv"
    # past the first blocks the file object decodes
    path.write_bytes(b"a,b\n1,2\nx,4\n" + b"5,6\n" * 50000 + b"7,\xff\n")
    outcome = _load_both(path)
    assert outcome[0] is DataFormatError and "cannot read" in outcome[1]


def _load_both(path):
    """load_csv and its per-cell reference agree: the same names and array
    bytes, or the same error type and message."""
    outcomes = []
    for load in (ni.load_csv, reference_load_csv):
        try:
            ts = load(path)
            outcomes.append((ts.names, ts.series.tobytes()))
        except (DataFormatError, ValidationError) as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


_CRAFTED = [
    ("a,b\n1,2\n3\n4,x\n", "row 3 has 1 cells"),
    ("a,b\n1,2\n4,x\n3\n", "row 3, column 'b': cannot parse 'x'"),
    ("a,b\n1,2\n1_000,3\n", "cannot parse '1_000'"),
    ("a,b\n1,2\n 1.5 ,3\n", None),
    ("a,b\n1,2\ninf,3\n", "non-finite value 'inf'"),
    ("a,b\n1,2\n3,-Infinity\n", "column 'b': non-finite value '-Infinity'"),
    ("a,b\n1,2\nnan,3\n", "non-finite value 'nan'"),
    ("a,b\n1,2\n0x1p3,3\n", "cannot parse '0x1p3'"),
    ("a,b\n1,2\n,3\n", "row 3, column 'a': cannot parse ''"),
    ("a,b\n", "empty body"),
    ("a,b\n1,2\n", "need at least two data rows"),
    ("a,b\n1,nan\n", "non-finite value 'nan'"),
    ("a_1,b\n1,2\n3,4\n", None),
]


def _check_crafted(tmp_path, text, fragment):
    outcome = _load_both(_write(tmp_path, text))
    if fragment is None:
        assert isinstance(outcome[1], bytes)
    else:
        assert outcome[0] is DataFormatError and fragment in outcome[1]


@pytest.mark.parametrize("text, fragment", _CRAFTED)
def test_load_csv_matches_reference_on_crafted_files(tmp_path, text, fragment):
    _check_crafted(tmp_path, text, fragment)


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("text, fragment", _CRAFTED)
def test_load_csv_matches_reference_on_crafted_files_in_small_chunks(
        tmp_path, monkeypatch, chunk, text, fragment):
    monkeypatch.setattr(timeseries, "_CSV_CHUNK", chunk)
    _check_crafted(tmp_path, text, fragment)


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("where", ["first-of-later-chunk", "last-of-chunk",
                                   "blank-between-chunks", "short-final-chunk", "none"])
def test_load_csv_names_the_file_row_at_chunk_boundaries(tmp_path, monkeypatch,
                                                         chunk, where):
    monkeypatch.setattr(timeseries, "_CSV_CHUNK", chunk)
    rows = [f"{i},{i}.5" for i in range(3 * chunk + 1)]  # 3 chunks and 1 row
    at = {"first-of-later-chunk": chunk, "last-of-chunk": 2 * chunk - 1,
          "blank-between-chunks": 2 * chunk, "short-final-chunk": 3 * chunk}.get(where)
    if where == "blank-between-chunks":
        rows.insert(at, "")
    elif at is not None:
        rows[at] = f"{at},x"
    outcome = _load_both(_write(tmp_path, "a,b\n" + "\n".join(rows) + "\n"))
    if at is None:
        assert outcome[0] == ("a", "b") and len(outcome[1]) == 8 * 2 * len(rows)
    elif where == "blank-between-chunks":
        assert f"row {at + 2} has 0 cells, expected 2" in outcome[1]
    else:
        assert f"row {at + 2}, column 'b': cannot parse 'x'" in outcome[1]


_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                     st.integers(-10 ** 6, 10 ** 6).map(str))
_ODD_CELLS = st.sampled_from(["1_000", " 1.5 ", "inf", "-Infinity", "nan",
                              "0x1p3", "", "x", "1e3", "-0.0", "+.5", "1e999"])


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 4), st.data())
def test_load_csv_matches_reference_on_generated_grids(m, data):
    cells = data.draw(st.sampled_from([_NUMBERS, st.one_of(_NUMBERS, _ODD_CELLS)]))
    rows = data.draw(st.lists(st.lists(cells, min_size=m, max_size=m), max_size=8))
    if data.draw(st.booleans()):
        rows.insert(data.draw(st.integers(0, len(rows))),
                    data.draw(st.lists(cells, max_size=m + 1)))
    chunk = data.draw(st.sampled_from([1, 2, 3, _CSV_CHUNK]))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(timeseries, "_CSV_CHUNK", chunk):
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerows([[f"V{i + 1}" for i in range(m)]] + rows)
        _load_both(path)


# ---------------------------------------------------------------------------
# discretize

def test_discretize_equal_width_split():
    ts = ni.TimeSeriesSet([[0.0, 1.0, 2.0, 3.0]])
    disc = ni.discretize(ts, 2)
    assert disc.symbols.tolist() == [[0, 0, 1, 1]]


def test_discretize_endpoints():
    ts = ni.TimeSeriesSet([[0.0, 1.0]])
    disc = ni.discretize(ts, 2)
    assert disc.symbols.tolist() == [[0, 1]]


def test_discretize_uniform_frequencies():
    rng = np.random.default_rng(42)
    ts = ni.TimeSeriesSet([rng.uniform(0, 1, 1000)])
    disc = ni.discretize(ts, 4)
    freqs = np.bincount(disc.symbols[0], minlength=4) / 1000
    assert np.all(np.abs(freqs - 0.25) < 0.05)


def test_discretize_constant_series_rejected():
    ts = ni.TimeSeriesSet([[1.0, 1.0, 1.0]])
    with pytest.raises(ValidationError, match="zero-range"):
        ni.discretize(ts, 2)


def test_discretize_per_subsystem_bins():
    ts = ni.TimeSeriesSet([[0.0, 1.0, 2.0], [0.0, 5.0, 10.0]])
    disc = ni.discretize(ts, [2, 3])
    assert disc.alphabet_sizes == (2, 3)
    assert disc.symbols[1].tolist() == [0, 1, 2]


def test_discretize_rejects_more_bins_than_samples():
    ts = ni.TimeSeriesSet([[0.0, 1.0, 2.0, 3.0]])
    assert ni.discretize(ts, 4).symbols.tolist() == [[0, 1, 2, 3]]
    for bins in (5, 10**20):  # 10**20 cuts would never finish building
        with pytest.raises(ValidationError,
                           match="'V1' must be at most the series length 4, got"):
            ni.discretize(ts, bins)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=40),
       st.integers(2, 6))
@example(values=[0.0, 0.0, 5e-324], bins=2)
def test_discretize_monotone(values, bins):
    # every input either discretizes monotonically or raises one of the two
    # documented errors naming the subsystem, without a warning first: more
    # bins than samples, else a range that cannot be split
    ts = ni.TimeSeriesSet([values])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            sym = ni.discretize(ts, bins).symbols[0]
        except ValidationError as exc:
            assert repr(ts.names[0]) in str(exc)
            if bins > len(values):
                assert f"at most the series length {len(values)}" in str(exc)
            else:
                assert ("the zero-range" if max(values) == min(values)
                        else "cannot split the range") in str(exc)
            return
    order = np.argsort(values, kind="stable")
    assert np.all(np.diff(sym[order]) >= 0)


# ---------------------------------------------------------------------------
# delay_embed

def test_delay_embed_direct_unrolling():
    ts = ni.TimeSeriesSet([[1.0, 2.0, 3.0, 4.0, 5.0]])
    view = ni.delay_embed(ts, ni.EmbeddingSpec.uniform(1, tau=1, kappa=2))
    assert view.rows == 3
    assert view.history(0).tolist() == [[2, 1], [3, 2], [4, 3]]
    assert view.target(0).tolist() == [3, 4, 5]


def test_delay_embed_markov1():
    ts = ni.TimeSeriesSet([[1.0, 2.0, 3.0, 4.0, 5.0]])
    view = ni.delay_embed(ts, ni.EmbeddingSpec.uniform(1, tau=1, kappa=1))
    # kappa=1 reduces to the plain first-order lag: history row t is <y_n>
    assert view.history(0)[:, 0].tolist() == [1, 2, 3, 4]
    assert view.target(0).tolist() == [2, 3, 4, 5]


def test_delay_embed_tau2():
    ts = ni.TimeSeriesSet([[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
    view = ni.delay_embed(ts, ni.EmbeddingSpec.uniform(1, tau=2, kappa=2))
    assert view.history(0)[0].tolist() == [3, 1]
    assert view.target(0)[0] == 4


def test_delay_embed_too_deep():
    ts = ni.TimeSeriesSet([[1.0, 2.0, 3.0, 4.0]])
    with pytest.raises(ValidationError, match="embedding exceeds data length"):
        ni.delay_embed(ts, ni.EmbeddingSpec.uniform(1, tau=3, kappa=2))


def test_delay_embed_common_trim_across_subsystems():
    ts = ni.TimeSeriesSet([np.arange(10.0), np.arange(10.0) * 2])
    spec = ni.EmbeddingSpec(tau=(1, 2), kappa=(2, 3))
    view = ni.delay_embed(ts, spec)
    depth = max((2 - 1) * 1, (3 - 1) * 2)
    assert view.rows == 10 - 1 - depth
    # both subsystems share the common index range
    assert view.history(0)[0].tolist() == [4.0, 3.0]
    assert view.history(1)[0].tolist() == [8.0, 4.0, 0.0]


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(10, 50),
       st.integers(0, 10_000))
def test_delay_embed_lag_formula(tau, kappa, n, seed):
    if (kappa - 1) * tau >= n - 1:
        return
    rng = np.random.default_rng(seed)
    series = rng.standard_normal(n)
    ts = ni.TimeSeriesSet([series])
    view = ni.delay_embed(ts, ni.EmbeddingSpec(tau=(tau,), kappa=(kappa,)))
    depth = (kappa - 1) * tau
    assert view.rows == n - 1 - depth
    for t in range(view.rows):
        current = depth + t
        assert view.target(0)[t] == series[current + 1]
        for k in range(kappa):
            assert view.history(0)[t, k] == series[current - k * tau]


@pytest.mark.parametrize("subsystem", [3, -1])
def test_view_rejects_out_of_range_subsystem(subsystem):
    ts = ni.TimeSeriesSet(np.arange(30.0).reshape(3, 10))
    view = ni.delay_embed(ni.discretize(ts, 2), ni.EmbeddingSpec.uniform(3))
    for read in (view.target, view.history, view.kappa, view.alphabet,
                 lambda s: _block_ids(view, next_value(s))):
        with pytest.raises(ValidationError, match="out of range"):
            read(subsystem)


# ---------------------------------------------------------------------------
# dense row ids

def _block_view(block):
    """A one-subsystem view whose history is ``block`` and whose next value
    is its first column."""
    block = np.array(block, dtype=np.int64)
    return ni.EmbeddedView(names=("a",), targets=block[:, :1].copy(),
                           histories=(block,), rows=len(block), discrete=True)


def _assert_ids_match_unique(block):
    view = _block_view(block)
    for sel, rows in ((history(0), view.history(0)), (next_value(0), view.target(0))):
        ids, k = _block_ids(view, sel)
        uniq, want = np.unique(rows, axis=0, return_inverse=True)
        assert k == len(uniq)
        assert ids.ndim == 1 and not ids.flags.writeable
        assert ids.dtype == want.dtype
        assert np.array_equal(ids, want.reshape(-1))


@pytest.mark.parametrize("kappa", [1, 2, 3, 4])
def test_symbol_ids_match_np_unique_rows(kappa):
    # negative values and duplicated rows, on spans that differ by column
    rng = np.random.default_rng(40 + kappa)
    block = rng.integers(-7, 4, size=(300, kappa)) * np.arange(1, kappa + 1)
    block = block[rng.integers(0, 300, size=300)]
    assert len(np.unique(block, axis=0)) < len(block)
    _assert_ids_match_unique(block)
    # a column spanning more than the cap but less than int64 is ranked alone
    wide = block * np.array([2 ** 40] + [1] * (kappa - 1))
    assert _BINCOUNT_CAP < int(np.ptp(wide[:, 0])) < 2 ** 63
    _assert_ids_match_unique(wide)


@pytest.mark.parametrize("kappa", [1, 3])
def test_symbol_ids_of_one_row(kappa):
    _assert_ids_match_unique(np.full((1, kappa), -5))


@pytest.mark.parametrize("top, ranked", [(255, True), (256, False)],
                         ids=["at-cap", "past-cap"])
def test_symbol_ids_either_side_of_the_cap(monkeypatch, top, ranked):
    # column spans 512 x 512 give exactly _BINCOUNT_CAP codes, which are
    # ranked from a presence table; 512 x 513 passes the cap and is sorted
    rng = np.random.default_rng(44)
    block = rng.integers(-256, 256, size=(3000, 2))
    block[0], block[1] = (-256, -256), (255, top)
    assert (512 * (top + 257) <= _BINCOUNT_CAP) == ranked
    if ranked:
        uniq, want = np.unique(block, axis=0, return_inverse=True)

        def refuse(*args, **kwargs):
            raise AssertionError("np.unique called")
        monkeypatch.setattr(np, "unique", refuse)
        ids, k = _block_ids(_block_view(block), history(0))
        assert k == len(uniq) and np.array_equal(ids, want.reshape(-1))
    else:
        _assert_ids_match_unique(block)


def test_symbol_ids_past_int64_sort_the_rows():
    # columns whose spans pass int64 are each ranked by sorting
    big = np.iinfo(np.int64).max
    _assert_ids_match_unique([[0, -big], [big, big], [0, -big], [5, 0]])


@pytest.mark.parametrize("space", [1, 2, _BINCOUNT_CAP, _BINCOUNT_CAP + 1])
def test_dense_ids_match_np_unique(space):
    rng = np.random.default_rng(space)
    code = rng.integers(0, space, size=5000)
    code[:2] = (0, space - 1)
    ids, k = dense_ids(code, space)
    uniq, want = np.unique(code, return_inverse=True)
    assert k == len(uniq)
    assert ids.dtype == want.dtype and np.array_equal(ids, want)


def test_embedding_spec_validation():
    with pytest.raises(ValidationError):
        ni.EmbeddingSpec(tau=(0,), kappa=(2,))
    with pytest.raises(ValidationError):
        ni.EmbeddingSpec(tau=(1,), kappa=(0,))


@pytest.mark.parametrize("symbols, sizes, names", [
    ([0, 1, 0], (2,), ("a",)),
    (np.zeros((0, 3)), (), ()),
    ([[0]], (2,), ("a",)),
    ([[0, 0.7, 1]], (2,), ("a",)),
    ([[0, np.nan, 1]], (2,), ("a",)),
    ([[0, 1], [1, 0]], (2, 2), ("a", "a")),
    ([[0, 1]], (2,), ('a"b',)),
    ([[0, 1]], (2,), (1,)),
], ids=["1-d", "M=0", "N=1", "fraction", "nan", "repeated-name", "quote-name",
        "int-name"])
def test_discretized_series_checks_like_time_series(symbols, sizes, names):
    # the matrix and name rules of TimeSeriesSet, and integer symbols
    with pytest.raises(ValidationError):
        ni.DiscretizedSeries(symbols, sizes, names)


def test_view_is_read_only(chain3_discrete_view):
    with pytest.raises(ValueError):
        chain3_discrete_view.targets[0, 0] = 9
