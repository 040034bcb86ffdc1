"""Small shared helpers: atomic file output, CSV rendering and parsing."""

from __future__ import annotations

import csv
import io
import os
from pathlib import Path

from .errors import AofLabError


def thread_count() -> int:
    """Worker threads the package uses: always one.  Grid and sweep
    evaluation is batched numpy work under the interpreter lock, where
    extra threads measured no gain, so there is no fan-out to configure;
    the function stays for the benchmark, which records it."""
    return 1


def csv_text(header, rows) -> str:
    """Render a header and rows the way ``csv.writer`` writes them."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def csv_int(text, path, line: int, column: str) -> int:
    """Parse one integer CSV cell that fits in int64; a bad or missing cell
    is an error that names the file, the line and the column."""
    try:
        value = int(text)
    except (TypeError, ValueError):
        what = "missing" if text is None else f"{text!r} is not an integer"
        raise AofLabError(f"{path}, line {line}, column {column!r}: {what}") from None
    if not INT64_MIN <= value <= INT64_MAX:
        raise AofLabError(f"{path}, line {line}, column {column!r}: {text!r} is outside the int64 range")
    return value


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
