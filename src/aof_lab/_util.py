"""Small shared helpers: atomic file output, CSV rendering and capped
thread fan-out."""

from __future__ import annotations

import csv
import io
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Sequence

THREADS_ENV = "AOF_LAB_THREADS"


def thread_count() -> int:
    raw = os.environ.get(THREADS_ENV, "").strip()
    if not raw:
        return 1
    count = int(raw)
    if count < 1:
        raise ValueError(f"{THREADS_ENV} must be a positive integer, got {raw!r}")
    return count


def thread_map(fn: Callable, items: Sequence) -> list:
    """Apply ``fn`` over ``items`` preserving order, fanning out only when
    the thread cap allows it.  Results are independent of worker count."""
    workers = thread_count()
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


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
