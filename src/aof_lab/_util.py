"""Small shared helpers: atomic file output and CSV rendering."""

from __future__ import annotations

import csv
import io
import os
from pathlib import Path


def thread_count() -> int:
    """Worker threads the package uses: always one.  Grid and sweep
    evaluation is batched numpy work under the interpreter lock, where
    extra threads measured no gain, so there is no fan-out to configure;
    the function stays for the benchmark, which records it."""
    return 1


def csv_text(header, rows, delimiter: str = ",") -> str:
    """Render a header and rows the way ``csv.writer`` writes them."""
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


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
