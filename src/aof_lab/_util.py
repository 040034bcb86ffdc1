"""Small shared helpers: the one reader per input format, ``read_csv`` and
``read_json``, each reporting a faulty file as one ``AofLabError`` naming
the file (and for a CSV the line and column), the one CSV renderer,
``csv_text``, with the trajectory header and label texts it writes, the
one atomic write, ``write_text_atomic``, which takes the bytes of a file or
an iterable of byte blocks written in turn, and the one check of integer
inputs (slots, ages, delivery pairs, age vectors), ``whole_numbers``.

Both CSV paths work on columns.  ``read_csv`` decodes the bytes of a
block of lines with numpy: one pass over the ``,`` and ``\\n`` bytes bounds
the cells, integer cells are parsed digit by digit and label cells keyed by
their bytes, so no cell becomes a Python object.  A file the decoder cannot
show it reads as ``csv.reader`` and ``int`` do (a quote, a NUL, a lone
``\\r``, bytes that are not UTF-8, a field over the field limit, a label
over ``LABEL_KEY_BYTES``, an integer cell other than ``-?[0-9]{1,18}``, or
any fault) is parsed by ``csv.reader`` from the start, which re-reads a
faulty file row by row to name the line and column.  ``csv_text`` renders
each distinct cell of a column once into a table of right-aligned bytes
(an int column wider than a block: each block's digits) and assembles a
block of rows as one byte matrix of cells and separators whose padding it
drops, so again no cell becomes a Python object; the bytes are those
``csv.writer`` writes.  ``csv_table``, for the few-row report tables, is
one ``csv.writer`` pass."""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
from pathlib import Path

import numpy as np

from .errors import AofLabError

# Rows per block when a CSV is read or rendered: bounds the cells alive at
# once
CSV_CHUNK_ROWS = 8192

# largest table (law cells, age cells, transport cells, or elementary cells
# times hidden states) one object may need; guards against inputs whose
# tables cannot fit in memory
DEFAULT_MAX_CELLS = 4_000_000

# largest distance from 1 at which a probability vector counts as normalized
NORMALIZATION_ATOL = 1e-12


def is_whole(value) -> bool:
    """Whether ``value`` is a whole number in the int64 range; a bool is not."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return -2**63 <= value < 2**63
    return isinstance(value, (float, np.floating)) and float(value).is_integer() and -2.0**63 <= value < 2.0**63


def whole_numbers(values, field: str) -> np.ndarray:
    """``values`` as an int64 array of their shape if every one passes
    ``is_whole``, else an ``AofLabError`` naming ``field`` and the first
    that fails.  An integer array that casts safely to int64 passes on its
    dtype; any other input is looked at one value at a time."""
    given = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    if given.dtype.kind in "iu" and np.can_cast(given.dtype, np.int64):
        return given.astype(np.int64, copy=False)
    flat = given.reshape(-1)
    ok = np.fromiter(map(is_whole, flat), bool, len(flat))
    if not ok.all():
        bad = flat[int(np.argmin(ok))]
        bad = bad.item() if isinstance(bad, np.generic) else bad
        raise AofLabError(f"{field} must be whole numbers in the int64 range, got {bad!r}")
    return np.fromiter(map(int, flat), np.int64, len(flat)).reshape(given.shape)


def thread_count() -> int:
    """Worker threads: always one (more measured no gain); the benchmark records it."""
    return 1


def _cell_text(value, alone: bool) -> str:
    """``value`` as ``csv.writer`` writes it, as a row's only cell if ``alone``."""
    if type(value) is int:  # csv.writer writes str() of an int
        return str(value)
    buf = io.StringIO()
    csv.writer(buf).writerow([value] if alone else [value, ""])
    return buf.getvalue()[:-2 if alone else -3]


def trajectory_header(m: int) -> list[str]:
    """The header of a trajectory CSV with ``m`` feature sources."""
    return ["t"] + [f"x_{l}" for l in range(1, m + 1)] + [f"age_{l}" for l in range(1, m + 1)] + ["y"]


def render_cell(value) -> str:
    """The text of a label in a trajectory CSV: a tuple is ``(a|b|...)``."""
    if isinstance(value, tuple):
        return "(" + "|".join(render_cell(v) for v in value) + ")"
    return str(value)


def csv_text(header, columns) -> bytearray:
    """What ``csv.writer`` writes for ``header`` (no header row if None) and
    the rows of ``columns``, as the UTF-8 buffer it assembles.  A column is
    an int array, or ``(values, codes)``: its distinct cell values and an
    int index into them per row.  Each distinct cell is rendered once, into
    a ``_byte_table``; an int column whose range is wider than a block is
    rendered a block at a time.  A block of ``CSV_CHUNK_ROWS`` rows (fewer
    if long cells would take its matrix past ``_BLOCK_BYTES``) is one byte
    matrix of cells and separators minus their padding, so no cell becomes
    a Python object."""
    tables, codes, lows = [], [], []
    for column in columns:
        lo = 0
        if not isinstance(column, np.ndarray):
            values, column = column
            tables.append(_byte_table([_cell_text(value, len(columns) == 1) for value in values]))
        elif len(column) and (hi := int(column.max())) - (lo := int(column.min())) < CSV_CHUNK_ROWS:
            tables.append(_int_table(lo + np.arange(hi - lo + 1)))
        else:
            tables.append(None)
        # a narrow int column's row in its table is its value minus ``lo``,
        # taken a block at a time
        codes.append(column)
        lows.append(lo)
    width = sum(len(str(-2**63)) if table is None else table.shape[1] + 1 for table in tables) + 1
    step = max(1, min(CSV_CHUNK_ROWS, _BLOCK_BYTES // width))
    out = bytearray() if header is None else bytearray(csv_table(header, ()))
    for start in range(0, len(codes[0]), step):
        cells = [_int_table(c[start:start + step]) if table is None else table[c[start:start + step] - lo]
                 for table, c, lo in zip(tables, codes, lows)]
        rows = len(cells[0])
        parts = [part for cell in cells for part in (cell, np.broadcast_to(_SEPARATORS[:1], (rows, 1)))]
        parts[-1] = np.broadcast_to(_SEPARATORS[1:], (rows, 2))
        block = np.concatenate(parts, axis=1)
        out += memoryview(block[block != _PAD])
    return out


# The byte that pads a cell in a byte table: no UTF-8 text holds it
_PAD = 0xFF
_SEPARATORS = np.frombuffer(b",\r\n", np.uint8)
# Most bytes in the matrix of one block that csv_text assembles
_BLOCK_BYTES = 1 << 20
# 10**1 .. 10**18: a magnitude's digit count is one plus the number it reaches
_POWERS = 10 ** np.arange(1, 19, dtype=np.uint64)


def _byte_table(texts) -> np.ndarray:
    """The UTF-8 bytes of ``texts``, one row each, right-aligned after ``_PAD`` bytes."""
    raw = [text.encode() for text in texts]
    lengths = np.fromiter(map(len, raw), np.int64, len(raw))
    width = int(lengths.max(initial=0))
    table = np.full((len(raw), width), _PAD, np.uint8)
    table[np.arange(width) >= width - lengths[:, None]] = np.frombuffer(b"".join(raw), np.uint8)
    return table


def _int_table(values: np.ndarray) -> np.ndarray:
    """The ``_byte_table`` of the decimal texts of the int64 ``values``,
    rendered digit by digit."""
    neg = values < 0
    magnitude = values.astype(np.uint64)
    np.negative(magnitude, out=magnitude, where=neg)  # -2**63 too: 2**63 fits uint64
    lengths = np.searchsorted(_POWERS, magnitude, side="right") + 1 + neg
    width = int(lengths.max(initial=1))
    table = np.empty((len(values), width), np.uint8)
    for k in range(width - 1, -1, -1):  # // and a product beat np.divmod here
        quotient = magnitude // 10
        table[:, k] = magnitude - quotient * 10
        magnitude = quotient
    table += _ZERO
    table[np.arange(width) < width - lengths[:, None]] = _PAD
    table[neg, width - lengths[neg]] = _MINUS
    return table


def csv_table(header, rows) -> bytes:
    """What ``csv.writer`` writes for ``header`` and ``rows`` of cell values, as UTF-8 bytes."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def _open(path, mode="r"):
    try:
        return open(path, mode) if "b" in mode else open(path, mode, newline="", encoding="utf-8")
    except OSError as exc:
        raise AofLabError(f"{path}: cannot read: {exc.strerror}") from None


def read_csv(path, expect, build, labels=(), blank=()):
    """``build(columns)``, the columns of a CSV by name; its header must be
    ``expect(found)``, ``found`` being its first row (``[]`` if empty).  A
    column with a name prefix in ``labels`` is ``(texts, codes)``: its
    distinct cell texts in order of first appearance and an int64 index into
    them per row.  Any other is int64; under a ``blank`` prefix a cell is a
    nonnegative integer or empty (-1).  The bytes are decoded
    ``CSV_CHUNK_ROWS`` lines at a time (``_decoded_blocks``); a file that
    decoder cannot show it reads as ``csv.reader`` does is parsed by
    ``csv.reader`` from the start instead, and on a fault re-read row by row,
    so the error names the file, line and column, as does a ``csv_check`` in
    ``build``.  Any other ``AofLabError`` from ``build`` keeps its type and
    gains the file name."""
    try:
        try:
            with _open(path, "rb") as fh:
                wanted = _clean_header(fh.readline(), expect)
                columns = _join(wanted, _decoded_blocks(fh, wanted, labels, blank), labels)
        except _Unclean:
            with _open(path) as fh:
                reader = csv.reader(fh)
                header = next(reader, [])
                wanted = expect(header)
                if header != wanted:
                    raise AofLabError(f"{path}, line 1: header {header}; want {wanted}") from None
                try:
                    columns = _join(wanted, _parsed_blocks(reader, wanted, labels, blank), labels)
                except UnicodeDecodeError:  # a ValueError, but the fault of the whole file
                    raise
                except (ValueError, OverflowError):
                    raise AofLabError(_row_fault(path, wanted, labels, blank)) from None
    except (csv.Error, UnicodeDecodeError) as exc:
        raise AofLabError(f"{path}: not a readable CSV: {exc}") from None
    if columns is None:
        raise AofLabError(f"{path}: no data rows")
    try:
        return build(columns)
    except _RowFault as fault:
        row, column, message = fault.args
        line, _ = next(itertools.islice(_rows(path), row, None))
        raise AofLabError(f"{path}, line {line}, column {column!r}: {message}") from None
    except AofLabError as exc:
        exc.args = (f"{path}: {exc}", *exc.args[1:])
        raise


def _join(wanted, blocks, labels):
    """The columns of ``blocks`` joined by name, or None for no rows.  In a
    block a label column is ``(texts, codes)`` with texts distinct in the
    block; joined, its texts are distinct in the file."""
    texts = {name: {} for name in wanted if name.startswith(labels)}  # cell text -> code
    parts = {name: [] for name in wanted}
    for block in blocks:
        for name, column in zip(wanted, block):
            if name in texts:
                index, (distinct, codes) = texts[name], column
                column = np.array([index.setdefault(text, len(index)) for text in distinct], dtype=np.int64)[codes]
            parts[name].append(column)
    if not parts[wanted[0]]:
        return None
    return {name: (list(texts[name]), np.concatenate(part)) if name in texts else np.concatenate(part)
            for name, part in parts.items()}


def _parsed_blocks(reader, wanted, labels, blank):
    """The rows left in ``reader``, ``CSV_CHUNK_ROWS`` at a time, as
    ``_join`` takes them.  A row without one cell per ``wanted`` column, or
    an integer cell ``_ints`` rejects, raises ``ValueError``."""
    while block := list(itertools.islice(reader, CSV_CHUNK_ROWS)):
        if any(len(row) != len(wanted) for row in block):
            raise ValueError("a row has the wrong number of cells")
        columns = []
        for name, cells in zip(wanted, zip(*block)):
            if name.startswith(labels):
                index = {text: code for code, text in enumerate(dict.fromkeys(cells))}
                columns.append((list(index), np.fromiter(map(index.__getitem__, cells), np.int64, len(cells))))
            else:
                columns.append(_ints(cells, name.startswith(blank)))
        yield columns


class _Unclean(Exception):
    """The byte decoder cannot show that it reads a file as ``csv.reader``
    does, or the file has a fault; ``csv.reader`` parses it."""


# Longest label cell, in bytes, that the byte decoder keys on
LABEL_KEY_BYTES = 64
# Most digits of an integer cell the byte decoder parses: 18 always fit int64
_MAX_DIGITS = 18
_COMMA, _LF, _CR, _MINUS, _ZERO = b",\n\r-0"
# the low k bytes of a little-endian word, for k = 0..8
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _clean_header(line: bytes, expect):
    """The header row in ``line``, if it is ``expect``'s and plain: no quote,
    NUL or lone ``\\r``, valid UTF-8 and within the field limit."""
    if _unclean(line) or len(line) > csv.field_size_limit():
        raise _Unclean
    found = line.decode("utf-8").removesuffix("\n").removesuffix("\r").split(",")
    if found != expect(found) or found == [""]:  # csv.reader reads a blank line as []
        raise _Unclean
    return found


def _unclean(text: bytes) -> bool:
    """Whether ``text`` has a quote, a NUL, a lone ``\\r`` or bytes that are
    not UTF-8."""
    if b'"' in text or b"\0" in text or text.count(b"\r") != text.count(b"\r\n"):
        return True
    try:
        text.isascii() or text.decode("utf-8")
    except UnicodeDecodeError:
        return True
    return False


def _line_blocks(fh):
    """The bytes left in the binary file ``fh``, ``CSV_CHUNK_ROWS`` lines at
    a time; the last block may lack its final newline."""
    buf, ends = b"", np.empty(0, dtype=np.int64)  # offsets of the newlines in buf
    while chunk := fh.read(max(len(buf), 1 << 16)):
        ends = np.concatenate([ends, np.flatnonzero(np.frombuffer(chunk, np.uint8) == _LF) + len(buf)])
        buf += chunk
        start = 0
        for k in range(CSV_CHUNK_ROWS, len(ends) + 1, CSV_CHUNK_ROWS):
            yield buf[start:(cut := int(ends[k - 1]) + 1)]
            start = cut
        buf, ends = buf[start:], ends[len(ends) - len(ends) % CSV_CHUNK_ROWS:] - start
    if buf:
        yield buf


def _decoded_blocks(fh, wanted, labels, blank):
    """The data rows left in the binary file ``fh``, ``CSV_CHUNK_ROWS`` at a
    time, as ``_join`` takes them.  Cell bounds come from one pass over the
    ``,`` and ``\\n`` bytes, integer cells are parsed digit by digit and label
    cells keyed by their bytes; no cell becomes a Python object.  Raises
    ``_Unclean`` at a block with a quote, NUL, lone ``\\r``, bytes that are
    not UTF-8, a row without ``len(wanted)`` cells, a field over
    ``csv.field_size_limit()``, a label over ``LABEL_KEY_BYTES`` or an
    integer cell other than ``-?[0-9]{1,18}`` (``[0-9]{0,18}`` under
    ``blank``): whatever ``csv.reader`` and ``_ints`` would read there, a
    fault included, they read."""
    width, limit = len(wanted), csv.field_size_limit()
    pad = bytes(LABEL_KEY_BYTES)  # on each side of a block: every key word and digit a cell reads lies in it
    for block in _line_blocks(fh):
        if _unclean(block):
            raise _Unclean
        a = np.frombuffer(pad + block + (b"" if block.endswith(b"\n") else b"\n") + pad, np.uint8)
        seps = np.flatnonzero((a == _COMMA) | (a == _LF))
        if len(seps) != (a == _LF).sum() * width:
            raise _Unclean
        seps = seps.reshape(-1, width)
        if not (a[seps[:, -1]] == _LF).all():  # each row's last separator is its newline
            raise _Unclean
        starts = np.empty_like(seps)
        starts.ravel()[0], starts.ravel()[1:] = len(pad), seps.ravel()[:-1] + 1
        lengths = seps - starts
        lengths[:, -1] -= a[seps[:, -1] - 1] == _CR
        if lengths.max() > limit or (width == 1 and not lengths.all()):  # a blank line
            raise _Unclean
        words = np.ndarray((len(a) - 7,), "<u8", a, 0, (1,))  # the 8 bytes from each offset
        yield [_keyed(words, starts[:, j], lengths[:, j]) if name.startswith(labels)
               else _digits(a, starts[:, j], lengths[:, j], name.startswith(blank)) for j, name in enumerate(wanted)]


def _digits(a, starts, lengths, blank):
    """The int64 values of the integer cells of ``a`` at ``starts`` with
    ``lengths``: a table of their digits, right-aligned, summed row by
    row."""
    neg = (a[starts] == _MINUS) & (lengths > 0)
    digits = lengths - neg
    width = int(digits.max())
    if width > _MAX_DIGITS or (blank and neg.any()) or (not blank and digits.min() < 1):
        raise _Unclean
    place = np.arange(width, 0, -1)[:, None]  # (width, cells): the place of each digit from the end
    table = a[starts + lengths - place] - _ZERO
    table *= place <= digits
    if (table > 9).any():
        raise _Unclean
    values = np.zeros(len(starts), dtype=np.int64)
    for row in table:
        values *= 10
        values += row
    values[neg] *= -1
    if blank:
        values[lengths == 0] = -1
    return values


def _keyed(words, starts, lengths):
    """``(texts, codes)`` of the label cells at ``starts`` with ``lengths``
    in the bytes that ``words`` views: a cell's key is its bytes, zero-padded
    to whole words (no cell holds a NUL), and the distinct keys are decoded
    in order of first appearance."""
    n_words = max(1, -(-int(lengths.max()) // 8))
    if n_words * 8 > LABEL_KEY_BYTES:
        raise _Unclean
    keys = np.stack([words[starts + 8 * k] & _LOW_BYTES[np.minimum(np.maximum(lengths - 8 * k, 0), 8)]
                     for k in range(n_words)], axis=1).astype("<u8", copy=False)
    keys = keys.view(np.uint64 if n_words == 1 else f"S{8 * n_words}").ravel()
    distinct = np.sort(keys)
    distinct = distinct[np.concatenate([[True], distinct[1:] != distinct[:-1]])]
    codes = np.searchsorted(distinct, keys)
    first = np.full(len(distinct), len(keys))
    np.minimum.at(first, codes, np.arange(len(keys)))
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    texts = distinct[order].view(f"S{8 * n_words}").tolist()
    return [text.decode("utf-8") for text in texts], rank[codes]


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


def write_text_atomic(path, data) -> None:
    """Write ``data``, the bytes of the file or an iterable of byte blocks
    written in turn, via a sibling temp file and rename, so readers never
    see a partial file; if a block cannot be made or written, the temp file
    is removed and ``path`` keeps what it held.  The temp file is created
    with mode 0o666, so the file gets the permissions a plain ``open()``
    would give it under the umask.  An ``OSError`` is an ``AofLabError``
    naming ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "xb") as fh:
            fh.writelines([data] if isinstance(data, (bytes, bytearray)) else data)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise AofLabError(f"{path}: cannot write: {exc.strerror}") from None
        raise
