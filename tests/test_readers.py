"""Every input file goes through one reader per format: one fault gives
one message shape whichever CSV format carries it, and a faulty JSON file
is one error that names it."""

import json

import pytest

from aof_lab import AgeProcess, Dataset, DeliveryTrace, ProcessModel, make_hidden_nonmarkov
from aof_lab.errors import AofLabError, NotNormalizedError

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
