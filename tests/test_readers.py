"""Every input file goes through one reader per format: one fault gives
one message shape whichever CSV format carries it, and a faulty JSON file
is one error that names it.  The CSV reader and writer work on columns and
must agree with ``csv.reader`` and ``csv.writer`` used one row at a time."""

import csv
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aof_lab._util as util
from aof_lab import AgeProcess, Dataset, DeliveryTrace, ProcessModel, make_hidden_nonmarkov, sample_trajectory
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
# a bad cell in an early block, a byte that is not UTF-8 in a later one
@example(file=(b"t,x_1,x_2,age_1,age_2,y\n0,,,,0,\n0,,,0,0,\xe9", *SHAPES["dataset"]), chunk=1)
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
AGE_INTS = st.one_of(st.integers(SENTINEL, 20), st.integers(0, 10**12), st.just(2**63 - 1))
# those, negative ranges far wider than a block, and the int64 ends
WRITE_INTS = st.one_of(AGE_INTS, st.integers(-10**12, 0), st.sampled_from([-2**63, -2**63 + 1]))
REPORT_CELLS = st.one_of(st.none(), st.integers(-5, 5), st.floats(), st.sampled_from(["", "a,b", 'q"', "x\ny", "(0|1)"]))


@given(data=st.data(), chunk=st.sampled_from([2, util.CSV_CHUNK_ROWS]))
@settings(max_examples=150, deadline=None)
def test_csv_text_writes_the_bytes_of_csv_writer(tmp_path_factory, data, chunk):
    root = tmp_path_factory.mktemp("csv")
    n, m = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 2))
    ints = st.lists(AGE_INTS, min_size=n, max_size=n)
    ds = Dataset(t=np.cumsum(data.draw(st.lists(st.integers(1, 10**9), min_size=n, max_size=n))),
                 xs=tuple(data.draw(st.lists(WRITE_LABELS, min_size=n, max_size=n)) for _ in range(m)),
                 ages=tuple(np.abs(data.draw(ints)) for _ in range(m)),
                 y=data.draw(st.lists(WRITE_LABELS, min_size=n, max_size=n)))
    ages = AgeProcess(np.array([data.draw(ints) for _ in range(m)]))
    events = [sorted(data.draw(st.lists(st.tuples(WRITE_INTS, st.integers(0, 5)), max_size=n))) for _ in range(m)]
    trace = DeliveryTrace(tuple(tuple((g, min(g + delay, 2**63 - 1)) for g, delay in src) for src in events))
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
    assert table == csv_by_rows([f"c{k}" for k in range(width)], report).encode()


def test_a_long_label_shortens_the_write_blocks(tmp_path):
    # one 50,000-byte label among 20,000 rows: a full block padded to its
    # width would be a 400 MB matrix
    n = 20_000
    ds = Dataset(t=np.arange(n), xs=(["a" * 50_000] + ["b"] * (n - 1),), ages=(np.zeros(n, dtype=np.int64),),
                 y=[0, 1] * (n // 2))
    tracemalloc.start()
    try:
        ds.to_csv(tmp_path / "ds.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "ds.csv").read_bytes() == dataset_csv_by_rows(ds).encode()
    assert peak < 2**23


def test_one_column_report_quotes_an_empty_cell():
    rows = [[""], [None], [1.5], ["a,b"], [float("nan")]]
    assert util.csv_table(["x"], rows) == csv_by_rows(["x"], rows).encode() == b'x\r\n""\r\n""\r\n1.5\r\n"a,b"\r\nnan\r\n'


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


# -- the byte decoder at gen scale, and the inputs it leaves to csv.reader -----


def _gen_scale_files(root):
    """A 30k-row ``gen`` trajectory (1 source, 3 symbols, 3 targets) and a
    13.5k-event 2-source delivery trace, each as ``(text, header, labels,
    blank)``."""
    model = make_hidden_nonmarkov(11, n_states=4, n_sources=1, n_symbols=3, n_targets=3)
    sample_trajectory(model, 30_000, 11).to_csv(root / "trajectory.csv")
    rng = np.random.default_rng(11)
    sources = []
    for rate in (0.2, 0.25):
        g = np.cumsum(rng.geometric(rate, size=9_000)) - 1
        g = g[g < 30_000]
        sources.append(np.stack([g, g + rng.integers(0, 9, size=len(g))], axis=1))
    trace = DeliveryTrace(tuple(sources))
    assert 13_000 <= sum(len(p) for p in trace.pairs) <= 14_000
    trace.to_csv(root / "trace.csv")
    return {"trajectory": ((root / "trajectory.csv").read_bytes().decode(), ["t", "x_1", "age_1", "y"], ("x_", "y"), ()),
            "trace": ((root / "trace.csv").read_bytes().decode(), ["source_id", "G", "D"], (), ())}


@pytest.fixture(scope="module")
def gen_scale(tmp_path_factory):
    """The gen-scale files and what the row-by-row oracle reads from each."""
    root = tmp_path_factory.mktemp("gen")
    files = _gen_scale_files(root)
    return {name: (text, header, labels, blank, read_csv_by_rows(root / f"{name}.csv", lambda found: header, labels, blank))
            for name, (text, header, labels, blank) in files.items()}


# every line form at the default block; 1- and 3-line blocks each in one form
GEN_SCALE_CASES = [(name, ending, final, util.CSV_CHUNK_ROWS) for name in ("trajectory", "trace")
                   for ending in ("\r\n", "\n") for final in (True, False)]
GEN_SCALE_CASES += [(name, "\n", False, 1) for name in ("trajectory", "trace")]
GEN_SCALE_CASES += [(name, "\r\n", True, 3) for name in ("trajectory", "trace")]


@pytest.mark.parametrize("name,ending,final,chunk", GEN_SCALE_CASES)
def test_gen_scale_files_decode_to_the_row_by_row_oracle(tmp_path, monkeypatch, gen_scale, name, ending, final, chunk):
    text, header, labels, blank, want = gen_scale[name]
    assert text.count("\r\n") == text.count("\n") == len(want[header[0]]) + 1  # written by csv.writer
    text = text.replace("\r\n", ending)
    path = tmp_path / "in.csv"
    path.write_text(text if final else text.removesuffix(ending), newline="")
    monkeypatch.setattr(util, "CSV_CHUNK_ROWS", chunk)
    # clean files never reach csv.reader
    monkeypatch.setattr(util.csv, "reader", None)
    got = util.read_csv(path, lambda found: header, lambda columns: columns, labels, blank)
    assert list(got) == list(want)
    for column, cells in got.items():
        if column.startswith(labels):
            assert (cells[0], cells[1].tolist()) == want[column]
        else:
            assert cells.dtype == np.int64 and cells.tolist() == want[column]


LONG_LABEL = "ab" * util.LABEL_KEY_BYTES
# (class of input, header, data lines, label prefixes, blank prefixes): the
# odd cell sits in the last of five rows, so the first blocks decode before
# csv.reader takes the file over
ODD_INPUTS = {
    "quoted label": (["t", "y"], ["0,a", "1,b", "2,a", "3,b", '4,"a,b"'], ("y",), ()),
    "quoted integer": (["t", "y"], ["0,a", "1,b", "2,a", "3,b", '"4",a'], ("y",), ()),
    "lone CR": (["t", "y"], ["0,a", "1,b", "2,a", "3,b", "4,a\r5,b"], ("y",), ()),
    "NUL in a label": (["t", "y"], ["0,a", "1,b", "2,a", "3,b", "4,a\x00b"], ("y",), ()),
    "over the field limit": (["t", "y"], ["0,a", "1,b", "2,a", "3,b", "4," + "a" * (csv.field_size_limit() + 1)],
                             ("y",), ()),
    "label over the key width": (["t", "y"], ["0,a", "1,b", "2,a", "3,b", f"4,{LONG_LABEL}"], ("y",), ()),
    "non-ASCII label": (["t", "y"], ["0,a", "1,é", "2,a", "3,b", "4,é"], ("y",), ()),
    "plus sign": (["t", "y"], ["0,a", "1,b", "2,a", "3,b", "+4,a"], ("y",), ()),
    "leading space": (["t", "y"], ["0,a", "1,b", "2,a", "3,b", " 4,a"], ("y",), ()),
    "trailing space": (["t", "y"], ["0,a", "1,b", "2,a", "3,b", "4 ,a"], ("y",), ()),
    "underscore": (["t", "y"], ["0,a", "1,b", "2,a", "3,b", "1_000,a"], ("y",), ()),
    "non-ASCII digit": (["t", "y"], ["0,a", "1,b", "2,a", "3,b", "٣,a"], ("y",), ()),
    "19 digits in range": (["t", "y"], ["0,a", "1,b", "2,a", "3,b", f"{2**63 - 1},a"], ("y",), ()),
    "19 digits, leading zeros": (["t", "y"], ["0,a", "1,b", "2,a", "3,b", "0000000000000000004,a"], ("y",), ()),
    "int64 minimum": (["t", "y"], ["0,a", "1,b", "2,a", "3,b", f"{-2**63},a"], ("y",), ()),
    "over int64": (["t", "y"], ["0,a", "1,b", "2,a", "3,b", f"{2**63},a"], ("y",), ()),
    "below int64": (["t", "y"], ["0,a", "1,b", "2,a", "3,b", f"{-2**63 - 1},a"], ("y",), ()),
    "negative zero in a blank column": (["t", "age_1"], ["0,1", "1,", "2,3", "3,", "4,-0"], (), ("age_",)),
    "negative in a blank column": (["t", "age_1"], ["0,1", "1,", "2,3", "3,", "4,-5"], (), ("age_",)),
    "empty integer cell": (["t", "y"], ["0,a", "1,b", "2,a", "3,b", ",a"], ("y",), ()),
    "a lone minus": (["t", "y"], ["0,a", "1,b", "2,a", "3,b", "-,a"], ("y",), ()),
    "decimal point": (["t", "y"], ["0,a", "1,b", "2,a", "3,b", "4.0,a"], ("y",), ()),
    "short row": (["t", "x_1", "y"], ["0,a,b", "1,b,a", "2,a,b", "3,b,a", "4,a"], ("x_", "y"), ()),
    "long row": (["t", "y"], ["0,a", "1,b", "2,a", "3,b", "4,a,7"], ("y",), ()),
    "blank line": (["t", "y"], ["0,a", "1,b", "2,a", "3,b", "", "4,a"], ("y",), ()),
    "blank line, one column": (["y"], ["a", "b", "a", "b", "", "a"], ("y",), ()),
    "byte order mark": (["t", "y"], ["0,a", "1,b"], ("y",), ()),
    "not UTF-8": (["t", "y"], ["0,a", "1,b", "2,a", "3,b", "4,\udce9"], ("y",), ()),
    "quoted header": (["t", "y"], ["0,a", "1,b"], ("y",), ()),
    "wrong header": (["t", "y"], ["0,a", "1,b"], ("y",), ()),
    "header only": (["t", "y"], [], ("y",), ()),
}


@pytest.mark.parametrize("chunk", [2, util.CSV_CHUNK_ROWS])
@pytest.mark.parametrize("case", sorted(ODD_INPUTS))
def test_inputs_the_byte_decoder_leaves_to_csv_reader_read_as_the_oracle_reads_them(tmp_path, monkeypatch, case, chunk):
    header, lines, labels, blank = ODD_INPUTS[case]
    head = {"byte order mark": "\ufeff" + ",".join(header), "quoted header": ",".join(f'"{h}"' for h in header),
            "wrong header": ",".join(header[::-1])}.get(case, ",".join(header))
    path = tmp_path / "in.csv"
    path.write_bytes("\n".join([head, *lines, ""]).encode("utf-8", errors="surrogateescape"))
    want = read_csv_by_rows(path, lambda found: header, labels, blank)
    monkeypatch.setattr(util, "CSV_CHUNK_ROWS", chunk)
    try:
        got = util.read_csv(path, lambda found: header, lambda columns: columns, labels, blank)
    except AofLabError as exc:
        got = str(exc)
    if isinstance(want, str):
        assert got == want
    else:
        assert list(got) == list(want)
        for column, cells in got.items():
            if column.startswith(labels):
                assert (cells[0], cells[1].tolist()) == want[column]
            else:
                assert cells.dtype == np.int64 and cells.tolist() == want[column]
