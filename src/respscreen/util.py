"""Small shared helpers."""

from __future__ import annotations

import csv
import io
import os
import secrets
from pathlib import Path


def write_bytes_atomic(path, data: bytes) -> None:
    """Write via a temp file in the same directory plus rename, so a
    crashed run never leaves a partial artifact at the target path; a new
    file's mode is 0o666 less the umask, as with `open(path, "wb")`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path, text: str) -> None:
    """`write_bytes_atomic` of the UTF-8 text, newlines untranslated."""
    write_bytes_atomic(path, text.encode("utf-8"))


def csv_text(header, rows) -> str:
    """The CSV text of a header row and rows, as `csv.writer` writes them:
    floats by repr, None as an empty field."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def format_float(x: float) -> str:
    """Canonical float serialization: 9 significant digits."""
    return f"{x:.9g}"
