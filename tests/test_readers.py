"""Every input file goes through one reader per format: one fault gives
one message shape whichever CSV format carries it, and a faulty JSON file
is one error that names it.  The CSV reader and writer work on columns and
must agree with ``csv.reader`` and ``csv.writer`` used one row at a time."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aof_lab._util as util
from aof_lab import AgeProcess, Dataset, DeliveryTrace, ProcessModel, make_hidden_nonmarkov
from aof_lab.aoi import SENTINEL
from aof_lab.errors import AofLabError, NotNormalizedError

from oracles import csv_by_rows, dataset_csv_by_rows, read_csv_by_rows

# (reader, header, first row, second row, an integer column, how that
# column's non-integer cells are described)
FORMATS = {
    "dataset": (Dataset.from_csv, ["t", "x_1", "age_1", "y"], ["0", "a", "0", "u"], ["1", "b", "1", "v"],
                "age_1", "an integer"),
    "trace": (DeliveryTrace.from_csv, ["source_id", "G", "D"], ["1", "0", "1"], ["1", "2", "3"],
              "G", "an integer"),
    "ages": (AgeProcess.from_csv, ["t", "age_1"], ["0", "1"], ["1", ""],
             "age_1", "a nonnegative integer or empty"),
}


def _faults(header, first, second, column, integer):
    """(fault, header, data rows, expected message after ``<path>``); every
    row fault sits on the second data row, line 3."""
    n, k, last = len(header), header.index(column), header[-1]

    def with_cell(text):
        return [*second[:k], text, *second[k + 1:]]

    huge = "99999999999999999999"
    return [
        ("short row", header, [first, second[:-1]], f", line 3: {n - 1} cells, want {n}; column {last!r} is missing"),
        ("long row", header, [first, [*second, "7"]], f", line 3: {n + 1} cells, want {n}; cells after column {last!r}"),
        ("non-integer cell", header, [first, with_cell("x")], f", line 3, column {column!r}: 'x' is not {integer}"),
        ("beyond int64", header, [first, with_cell(huge)], f", line 3, column {column!r}: {huge!r} is outside the int64 range"),
        ("header only", header, [], ": no data rows"),
        ("wrong header", header[::-1], [first], f", line 1: header {header[::-1]}; want {header}"),
    ]


CASES = [(fmt, *fault) for fmt, (_, *spec) in FORMATS.items() for fault in _faults(*spec)]


@pytest.mark.parametrize("fmt,fault,header,rows,message", CASES, ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_one_fault_gives_one_message_shape_in_every_csv_format(tmp_path, fmt, fault, header, rows, message):
    path = tmp_path / "in.csv"
    path.write_text("".join(",".join(row) + "\n" for row in [header, *rows]))
    with pytest.raises(AofLabError) as err:
        FORMATS[fmt][0](path)
    assert str(err.value) == f"{path}{message}"


@pytest.mark.parametrize("fmt", FORMATS)
def test_unreadable_csv_is_one_error_naming_the_file(tmp_path, fmt):
    read = FORMATS[fmt][0]
    with pytest.raises(AofLabError, match="cannot read"):
        read(tmp_path / "missing.csv")
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"\xff\xfe\n")
    with pytest.raises(AofLabError, match="not a readable CSV") as err:
        read(path)
    assert str(err.value).startswith(str(path))


def test_json_reader_names_the_file_and_keeps_domain_errors(tmp_path):
    model = make_hidden_nonmarkov(3, n_states=2, n_symbols=2, n_targets=2)
    data = model.to_json_dict()
    data["transition"] = [[0.5, 0.4], [0.5, 0.5]]  # a row that does not sum to one
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    with pytest.raises(NotNormalizedError) as err:
        ProcessModel.load(path)
    assert str(err.value) == f"{path}: transition rows must each sum to 1"
    for text, message in [("", ", line 1, column 1: not JSON: Expecting value"),
                          ("null", ": want a JSON object, got NoneType"),
                          ("{}", ": missing key 'transition'")]:
        path.write_text(text)
        with pytest.raises(AofLabError) as err:
            ProcessModel.load(path)
        assert str(err.value) == f"{path}{message}"
    with pytest.raises(AofLabError, match="cannot read"):
        ProcessModel.load(tmp_path / "missing.json")


INT_CELLS = st.one_of(st.integers(0, 50).map(str), st.sampled_from(["+1", " 1", "1 ", "1_000", "٣", "-0"]))
BAD_INT_CELLS = st.sampled_from(["", "x", "1.5", "-7", "99999999999999999999", "-9223372036854775809"])
LABEL_CELLS = st.lists(st.sampled_from(["a", "b", "0", "1", ",", '"', "\n", "\r", "\r\n", " ", "é", "(", "|", ")"]),
                       max_size=4).map("".join)
# (header, label prefixes, blank prefixes) of the three CSV formats, and of
# one-column files, where a blank line is the only cell-count fault
SHAPES = {
    "dataset": (["t", "x_1", "x_2", "age_1", "age_2", "y"], ("x_", "y"), ()),
    "ages": (["t", "age_1", "age_2"], (), ("age_",)),
    "trace": (["source_id", "G", "D"], (), ()),
    "int column": (["t"], (), ()),
    "blank column": (["age_1"], (), ("age_",)),
    "label column": (["y"], ("y",), ()),
}


@st.composite
def _csv_files(draw):
    """(raw bytes, header, labels, blank): rows of drawn cells, written with
    csv.writer's quoting or joined raw, with either line ending and with or
    without a final newline.  One file in three may be faulty: bad integer
    cells, rows a cell short or long, blank lines, a BOM or a Latin-1
    encoding."""
    header, labels, blank = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    faulty = draw(st.integers(0, 2)) == 0
    odds = st.integers(0, 5).map(lambda k: k == 5) if faulty else st.just(False)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        row = []
        for name in header:
            if name.startswith(labels):
                row.append(draw(LABEL_CELLS))
            else:
                good = st.one_of(INT_CELLS, st.just("")) if name.startswith(blank) else INT_CELLS
                row.append(draw(BAD_INT_CELLS if draw(odds) else good))
        if draw(odds):
            row = row[:-1] if draw(st.booleans()) else [*row, "7"]
        rows.append(row)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    if draw(st.integers(0, 2)):
        buf = io.StringIO()
        csv.writer(buf, lineterminator=ending).writerows([header, *rows])
        lines = buf.getvalue().split(ending)[:-1]
    else:
        lines = [",".join(row) for row in [header, *rows]]
    while draw(odds):
        lines.insert(draw(st.integers(1, len(lines))), "")
    text = ending.join(lines) + (ending if draw(st.booleans()) else "")
    encoding = draw(st.sampled_from(["utf-8", "utf-8-sig", "latin-1"]) if faulty else st.just("utf-8"))
    return text.encode(encoding, errors="replace"), header, labels, blank


@given(file=_csv_files(), chunk=st.sampled_from([1, 2, 3, util.CSV_CHUNK_ROWS]))
@settings(max_examples=400, deadline=None)
def test_reader_equals_the_row_by_row_oracle(tmp_path_factory, file, chunk):
    raw, header, labels, blank = file
    path = tmp_path_factory.mktemp("csv") / "in.csv"
    path.write_bytes(raw)
    want = read_csv_by_rows(path, lambda found: header, labels, blank)
    default, util.CSV_CHUNK_ROWS = util.CSV_CHUNK_ROWS, chunk
    try:
        got = util.read_csv(path, lambda found: header, lambda columns: columns, labels, blank)
    except AofLabError as exc:
        got = str(exc)
    finally:
        util.CSV_CHUNK_ROWS = default
    if isinstance(want, str):
        assert got == want
    else:
        assert list(got) == list(want)
        for name, column in got.items():
            if name.startswith(labels):
                assert (column[0], column[1].tolist()) == want[name]
            else:
                assert column.dtype == np.int64 and column.tolist() == want[name]


@pytest.mark.parametrize("header,text,message", [
    # as many cells as two rows hold, split wrongly between the lines
    (["x_1", "y"], "a,b,c\nd\n", ", line 2: 3 cells, want 2; cells after column 'y'"),
    # a line ending at every other cell
    (["y"], "a,b,c\nd\n", ", line 2: 3 cells, want 1; cells after column 'y'"),
])
def test_rows_whose_cell_counts_cancel_out_are_faults(tmp_path, header, text, message):
    path = tmp_path / "in.csv"
    path.write_text(",".join(header) + "\n" + text)
    assert read_csv_by_rows(path, lambda found: header, ("x_", "y")) == f"{path}{message}"
    with pytest.raises(AofLabError) as err:
        util.read_csv(path, lambda found: header, lambda columns: columns, ("x_", "y"))
    assert str(err.value) == f"{path}{message}"


def test_a_cell_over_the_field_limit_is_not_readable(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("y\n" + "a" * (csv.field_size_limit() + 1) + "\n")
    message = f"{path}: not a readable CSV: field larger than field limit ({csv.field_size_limit()})"
    assert read_csv_by_rows(path, lambda found: ["y"], ("y",)) == message
    with pytest.raises(AofLabError) as err:
        util.read_csv(path, lambda found: ["y"], lambda columns: columns, ("y",))
    assert str(err.value) == message


# labels whose text csv.writer quotes, tuple labels and the empty label
WRITE_LABELS = st.one_of(st.integers(-3, 3), st.tuples(st.integers(0, 1), st.integers(0, 1)),
                         st.lists(st.sampled_from(["a", ",", '"', "\n", "\r", " "]), max_size=3).map("".join))
# ints below and far above a block's width of values, and the sentinel
WRITE_INTS = st.one_of(st.integers(SENTINEL, 20), st.integers(0, 10**12))
REPORT_CELLS = st.one_of(st.none(), st.integers(-5, 5), st.floats(), st.sampled_from(["", "a,b", 'q"', "x\ny", "(0|1)"]))


@given(data=st.data(), chunk=st.sampled_from([2, util.CSV_CHUNK_ROWS]))
@settings(max_examples=150, deadline=None)
def test_csv_text_writes_the_bytes_of_csv_writer(tmp_path_factory, data, chunk):
    root = tmp_path_factory.mktemp("csv")
    n, m = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 2))
    ints = st.lists(WRITE_INTS, min_size=n, max_size=n)
    ds = Dataset(t=np.cumsum(data.draw(st.lists(st.integers(1, 10**9), min_size=n, max_size=n))),
                 xs=tuple(data.draw(st.lists(WRITE_LABELS, min_size=n, max_size=n)) for _ in range(m)),
                 ages=tuple(np.abs(data.draw(ints)) for _ in range(m)),
                 y=data.draw(st.lists(WRITE_LABELS, min_size=n, max_size=n)))
    ages = AgeProcess(np.array([data.draw(ints) for _ in range(m)]))
    events = [sorted(data.draw(st.lists(st.tuples(WRITE_INTS, st.integers(0, 5)), max_size=n))) for _ in range(m)]
    trace = DeliveryTrace(tuple(tuple((g, g + delay) for g, delay in src) for src in events))
    width = data.draw(st.integers(1, 3))
    report = data.draw(st.lists(st.lists(REPORT_CELLS, min_size=width, max_size=width), max_size=4))
    default, util.CSV_CHUNK_ROWS = util.CSV_CHUNK_ROWS, chunk
    try:
        ds.to_csv(root / "ds.csv")
        ages.to_csv(root / "ages.csv")
        trace.to_csv(root / "trace.csv")
        table = util.csv_table([f"c{k}" for k in range(width)], report)
    finally:
        util.CSV_CHUNK_ROWS = default
    assert (root / "ds.csv").read_bytes() == dataset_csv_by_rows(ds).encode()
    want = csv_by_rows(["t"] + [f"age_{l}" for l in range(1, m + 1)],
                       ([t] + ["" if a == SENTINEL else a for a in column] for t, column in enumerate(ages.ages.T.tolist())))
    assert (root / "ages.csv").read_bytes() == want.encode()
    want = csv_by_rows(["source_id", "G", "D"], ([l, g, d] for l, src in enumerate(trace.events, start=1) for g, d in src))
    assert (root / "trace.csv").read_bytes() == want.encode()
    assert table == csv_by_rows([f"c{k}" for k in range(width)], report)


def test_one_column_report_quotes_an_empty_cell():
    rows = [[""], [None], [1.5], ["a,b"], [float("nan")]]
    assert util.csv_table(["x"], rows) == csv_by_rows(["x"], rows) == 'x\r\n""\r\n""\r\n1.5\r\n"a,b"\r\nnan\r\n'


def _int64_cell(text: str) -> int:
    """What an integer cell reads as: ``int(text)``, which must lie in the int64 range."""
    value = int(text)
    if not -2**63 <= value < 2**63:
        raise OverflowError(f"{text!r} is outside the int64 range")
    return value


INT_CELL_TEXTS = st.one_of(
    st.integers(-2**64, 2**64).map(str),
    st.sampled_from(["+1", " 1", "1_000", "٣", "-0", "1.0", "", "0x10", "1e3", "\x00",
                     str(2**63), str(-2**63), str(-2**63 - 1), str(2**63 - 1)]),
    st.text(alphabet=st.sampled_from("0123456789+-_ .ex\x00\t\n٣\U0001d7d7"), max_size=10),
    st.text(max_size=6),
)


@settings(max_examples=600, deadline=None)
@given(text=INT_CELL_TEXTS)
def test_integer_cells_read_as_int_reads_them(text):
    try:
        want = _int64_cell(text)
    except (ValueError, OverflowError) as exc:
        with pytest.raises((ValueError, OverflowError)) as info:
            util._ints([text], False)
        assert info.type is type(exc)
    else:
        assert util._ints([text], False).tolist() == [want]
