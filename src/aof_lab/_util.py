"""Small shared helpers: the one reader per input format, ``read_csv`` and
``read_json``, each reporting a faulty file as one ``AofLabError`` naming
the file (and for a CSV the line and column), and the one atomic write."""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
from pathlib import Path

import numpy as np

from .errors import AofLabError

# CSV rows parsed per batch: bounds the cell strings alive at once
CSV_CHUNK_ROWS = 8192


def thread_count() -> int:
    """Worker threads: always one (more measured no gain); the benchmark records it."""
    return 1


def csv_text(header, rows) -> str:
    """Render a header and rows the way ``csv.writer`` writes them."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


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
    (-1).  Rows are parsed ``CSV_CHUNK_ROWS`` at a time; a failed batch is
    re-read row by row, so the error names the file, line and column, as
    does a ``csv_check`` in ``build``.  Any other ``AofLabError`` from
    ``build`` keeps its type and gains the file name."""
    for batch in (CSV_CHUNK_ROWS, 1):
        try:
            with _open(path) as fh:
                reader = csv.reader(fh)
                header = next(reader, [])
                wanted = expect(header)
                if header != wanted:
                    raise AofLabError(f"{path}, line 1: header {header}; want {wanted}")
                texts = {name: {} for name in wanted if name.startswith(labels)}  # cell text -> code
                parts = {name: [] for name in wanted}
                while chunk := list(itertools.islice(reader, batch)):
                    at = f"{path}, line {reader.line_num}"  # exact once batches are single rows
                    if any(len(row) != len(wanted) for row in chunk):
                        n = len(chunk[0])
                        where = (f"column {wanted[n]!r} is missing" if n < len(wanted)
                                 else f"cells after column {wanted[-1]!r}")
                        raise AofLabError(f"{at}: {n} cells, want {len(wanted)}; {where}")
                    for name, cells in zip(wanted, zip(*chunk)):
                        if name in texts:
                            index = texts[name]
                            for text in dict.fromkeys(cells):
                                index.setdefault(text, len(index))
                            parts[name].append(np.fromiter(map(index.__getitem__, cells), np.int64, len(cells)))
                            continue
                        try:
                            parts[name].append(_ints(cells, name.startswith(blank)))
                        except OverflowError:
                            raise AofLabError(f"{at}, column {name!r}: {cells[0]!r} is outside the int64 range") from None
                        except ValueError:
                            want = "a nonnegative integer or empty" if name.startswith(blank) else "an integer"
                            raise AofLabError(f"{at}, column {name!r}: {cells[0]!r} is not {want}") from None
            break
        except AofLabError:
            if batch == 1:
                raise
        except (csv.Error, UnicodeDecodeError) as exc:
            raise AofLabError(f"{path}: not a readable CSV: {exc}") from None
    if not parts[wanted[0]]:
        raise AofLabError(f"{path}: no data rows")
    try:
        return build({name: (list(texts[name]), np.concatenate(part)) if name in texts else np.concatenate(part)
                      for name, part in parts.items()})
    except _RowFault as fault:
        row, column, message = fault.args
        with _open(path) as fh:
            reader = csv.reader(fh)
            next(itertools.islice(reader, row + 1, None))
            raise AofLabError(f"{path}, line {reader.line_num}, column {column!r}: {message}") from None
    except AofLabError as exc:
        exc.args = (f"{path}: {exc}", *exc.args[1:])
        raise


def _ints(cells, blank: bool) -> np.ndarray:
    values = [int(text) if text else -1 for text in cells] if blank else list(map(int, cells))
    if blank and any(v < 0 for v, text in zip(values, cells) if text):
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
