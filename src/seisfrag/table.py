"""The workspace table format: the one reader and writer of every CSV artifact.

A table file holds optional ``# key=value`` meta lines, one header row, then
comma-separated rows. Numbers are written with ``%.17g``, so floats read back
bit-exactly and integral values (ids, labels, counts) print as integers;
``None`` is written as an empty field and strings as they are. Every write
goes to a temporary sibling that is then renamed over the target, so an
interrupted write never leaves a partial file under the final name.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

import numpy as np


class Table(NamedTuple):
    meta: dict  # meta key -> raw value text
    columns: list
    rows: list  # raw field strings, one list per row

    def floats(self) -> np.ndarray:
        """The rows as a (rows, columns) float matrix; empty fields read as NaN."""
        values = [[float(v) if v else math.nan for v in row] for row in self.rows]
        return np.array(values, dtype=float).reshape(len(self.rows), len(self.columns))


def atomic_write(path, data: str | bytes) -> None:
    """Write to path.tmp, then rename it over path."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _field(value) -> str:
    if isinstance(value, str):
        return value
    return "" if value is None else f"{value:.17g}"


def write_table(path, columns, rows, meta: dict | None = None) -> None:
    """Meta lines, header and rows; the file appears only once complete."""
    lines = [f"# {key}={_field(value)}" for key, value in (meta or {}).items()]
    lines.append(",".join(columns))
    lines.extend(",".join(map(_field, row)) for row in rows)
    atomic_write(path, "\n".join(lines) + "\n")


def read_table(path) -> Table:
    meta, columns, rows = {}, None, []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if columns is None and line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif columns is None:
            columns = line.split(",")
        elif line:
            rows.append(line.split(","))
    if columns is None:
        raise ValueError(f"{path}: no header row")
    return Table(meta, columns, rows)
