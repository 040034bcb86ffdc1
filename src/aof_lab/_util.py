"""Small shared helpers: the one reader per input format, ``read_csv`` and
``read_json``, each reporting a faulty file as one ``AofLabError`` naming
the file (and for a CSV the line and column), the one CSV renderer,
``csv_text``, and the one atomic write.

Both CSV paths work on columns.  ``read_csv`` splits whole blocks of lines
on ``,`` and decodes each column at once; ``csv.reader`` parses only a file
with a quote character or a lone ``\\r``, and re-reads a faulty file row by
row to name the line and column.  ``csv_text`` renders each distinct cell
of a column once and joins the rows a block at a time, to the bytes
``csv.writer`` writes."""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
from pathlib import Path

import numpy as np

from .errors import AofLabError

# Rows per block when a CSV is read or rendered: bounds the cell strings
# alive at once
CSV_CHUNK_ROWS = 8192


def thread_count() -> int:
    """Worker threads: always one (more measured no gain); the benchmark records it."""
    return 1


def _cell_text(value, alone: bool) -> str:
    """``value`` as ``csv.writer`` writes it, as a row's only cell if ``alone``."""
    buf = io.StringIO()
    csv.writer(buf).writerow([value] if alone else [value, ""])
    return buf.getvalue()[:-2 if alone else -3]


def csv_text(header, columns) -> str:
    """The text ``csv.writer`` writes for ``header`` and the rows that
    ``columns`` hold, rendered column by column and joined
    ``CSV_CHUNK_ROWS`` rows at a time.  A column is an int array, or
    ``(values, codes)``: its distinct cell values and an int index into
    them per row."""
    blocks = zip(*(_column_blocks(column, len(columns) == 1) for column in columns))
    parts = [",".join(_cell_text(name, len(header) == 1) for name in header) + "\r\n"]
    parts += ["\r\n".join(map(",".join, zip(*cells))) + "\r\n" for cells in blocks]
    return "".join(parts)


def _column_blocks(column, alone: bool):
    """The cell texts of a ``csv_text`` column, ``CSV_CHUNK_ROWS`` at a time.
    Each distinct value is rendered once, into a table; an int column whose
    range is wider than a block is rendered block by block instead."""
    if isinstance(column, np.ndarray):
        lo, hi = (int(column.min()), int(column.max())) if len(column) else (0, 0)
        if hi - lo >= CSV_CHUNK_ROWS:
            for start in range(0, len(column), CSV_CHUNK_ROWS):
                yield list(map(str, column[start:start + CSV_CHUNK_ROWS].tolist()))
            return
        texts, codes = map(str, range(lo, hi + 1)), column - lo
    else:
        values, codes = column
        texts = (_cell_text(value, alone) for value in values)
    table = np.array(list(texts), dtype=object)
    for start in range(0, len(codes), CSV_CHUNK_ROWS):
        yield table[codes[start:start + CSV_CHUNK_ROWS]].tolist()


def csv_table(header, rows) -> str:
    """``csv_text`` of a small table given as rows of cell values."""
    return csv_text(header, [(column, np.arange(len(rows))) for column in zip(*rows)])


def _open(path):
    try:
        return open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise AofLabError(f"{path}: cannot read: {exc.strerror}") from None


def read_csv(path, expect, build, labels=(), blank=()):
    """``build(columns)``, the columns of a CSV by name; its header must be
    ``expect(found)``, ``found`` being its first row (``[]`` if empty).  A
    column with a name prefix in ``labels`` is ``(texts, codes)``: its
    distinct cell texts and an int64 index into them per row.  Any other is
    int64; under a ``blank`` prefix a cell is a nonnegative integer or empty
    (-1).  Rows are decoded ``CSV_CHUNK_ROWS`` at a time (``_blocks``); on a
    fault the file is re-read row by row, so the error names the file, line
    and column, as does a ``csv_check`` in ``build``.  Any other
    ``AofLabError`` from ``build`` keeps its type and gains the file name."""
    try:
        with _open(path) as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            wanted = expect(header)
            if header != wanted:
                raise AofLabError(f"{path}, line 1: header {header}; want {wanted}")
            texts = {name: {} for name in wanted if name.startswith(labels)}  # cell text -> code
            parts = {name: [] for name in wanted}
            try:
                for block in _blocks(fh, len(wanted)):
                    for name, cells in zip(wanted, block):
                        if name in texts:
                            index = texts[name]
                            for text in dict.fromkeys(cells):
                                index.setdefault(text, len(index))
                            parts[name].append(np.fromiter(map(index.__getitem__, cells), np.int64, len(cells)))
                        else:
                            parts[name].append(_ints(cells, name.startswith(blank)))
            except UnicodeDecodeError:  # a ValueError, but the fault of the whole file
                raise
            except (ValueError, OverflowError):
                raise AofLabError(_row_fault(path, wanted, labels, blank)) from None
    except (csv.Error, UnicodeDecodeError) as exc:
        raise AofLabError(f"{path}: not a readable CSV: {exc}") from None
    if not parts[wanted[0]]:
        raise AofLabError(f"{path}: no data rows")
    try:
        return build({name: (list(texts[name]), np.concatenate(part)) if name in texts else np.concatenate(part)
                      for name, part in parts.items()})
    except _RowFault as fault:
        row, column, message = fault.args
        line, _ = next(itertools.islice(_rows(path), row, None))
        raise AofLabError(f"{path}, line {line}, column {column!r}: {message}") from None
    except AofLabError as exc:
        exc.args = (f"{path}: {exc}", *exc.args[1:])
        raise


def _blocks(fh, width: int):
    """The data rows left in ``fh``, ``CSV_CHUNK_ROWS`` at a time, each
    block as its columns of cell texts.  A block of plain lines is split on
    ``,``; from the first block with a quote character, a lone ``\\r`` or a
    line longer than ``csv.field_size_limit()``, ``csv.reader`` parses the
    rest.  A row without ``width`` cells raises ``ValueError``."""
    while lines := list(itertools.islice(fh, CSV_CHUNK_ROWS)):
        text = "".join(lines)
        crlf, limit = text.count("\r\n"), csv.field_size_limit()
        if '"' in text or text.count("\r") != crlf or (len(text) > limit and max(map(len, lines)) > limit):
            rows = csv.reader(itertools.chain(lines, fh))
            while block := list(itertools.islice(rows, CSV_CHUNK_ROWS)):
                if any(len(row) != width for row in block):
                    raise ValueError("a row has the wrong number of cells")
                yield list(zip(*block))
            return
        text = text.replace("\r\n", "\n")
        # each line's cells, then "\n" (no unquoted cell holds one), then a last ""
        cells = (text if text.endswith("\n") else text + "\n").replace("\n", ",\n,").split(",")
        if len(cells) != len(lines) * (width + 1) + 1 or cells[width::width + 1].count("\n") != len(lines):
            raise ValueError("a row has the wrong number of cells")
        columns = [cells[j:-1:width + 1] for j in range(width)]
        if width == 1 and "" in columns[0]:
            raise ValueError("a blank line")
        yield columns


def _rows(path):
    """``(line, row)`` for each data row of ``path``, ``line`` being the
    number of the row's last line."""
    with _open(path) as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            yield reader.line_num, row


def _row_fault(path, wanted, labels, blank) -> str:
    """The message for the first data row of ``path`` without one cell per
    ``wanted`` column, or with an integer cell that ``_ints`` rejects.  A
    file that does not decode or parse to its end is the whole file's fault,
    which comes first, so every row is read once before the search."""
    for _ in _rows(path):
        pass
    for line, row in _rows(path):
        at = f"{path}, line {line}"
        if len(row) != len(wanted):
            n = len(row)
            where = (f"column {wanted[n]!r} is missing" if n < len(wanted)
                     else f"cells after column {wanted[-1]!r}")
            return f"{at}: {n} cells, want {len(wanted)}; {where}"
        for name, cell in zip(wanted, row):
            if name.startswith(labels):
                continue
            try:
                _ints([cell], name.startswith(blank))
            except OverflowError:
                return f"{at}, column {name!r}: {cell!r} is outside the int64 range"
            except ValueError:
                want = "a nonnegative integer or empty" if name.startswith(blank) else "an integer"
                return f"{at}, column {name!r}: {cell!r} is not {want}"
    raise AssertionError(f"{path}: no faulty row")


def _ints(cells, blank: bool) -> np.ndarray:
    if not blank:
        return np.array(cells, dtype=np.int64)
    values = [int(text) if text else -1 for text in cells]
    if any(v < 0 for v, text in zip(values, cells) if text):
        raise ValueError("negative cell")
    return np.array(values, dtype=np.int64)


class _RowFault(AofLabError):
    """``(row, column, message)`` of a ``csv_check`` failure."""


def csv_check(column: str, ok: np.ndarray, what) -> None:
    """Inside a ``read_csv`` build: fail with ``what(row)`` for the first data
    row (from 0) where ``ok`` is false; ``read_csv`` names its line."""
    if not ok.all():
        row = int(np.argmin(ok))
        raise _RowFault(row, column, what(row))


def read_json(path, build):
    """``build(data)`` for the JSON object in ``path``.  An unreadable file,
    invalid JSON, another top-level value, or a ``KeyError``, ``TypeError``
    or ``ValueError`` from ``build`` is one ``AofLabError`` naming the file;
    an ``AofLabError`` from ``build`` keeps its type and gains the name."""
    try:
        with _open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise AofLabError(f"{path}, line {exc.lineno}, column {exc.colno}: not JSON: {exc.msg}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise AofLabError(f"{path}: cannot read: {exc}") from None
    if not isinstance(data, dict):
        raise AofLabError(f"{path}: want a JSON object, got {type(data).__name__}")
    try:
        return build(data)
    except AofLabError as exc:
        exc.args = (f"{path}: {exc}", *exc.args[1:])
        raise
    except KeyError as exc:
        raise AofLabError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise AofLabError(f"{path}: malformed content: {exc}") from None


def write_text_atomic(path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial report.  The temp file is created with mode 0o666, so the file
    gets the permissions a plain ``open()`` would give it under the umask."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
