"""Deterministic file I/O helpers.

Every artifact writer in the package goes through these functions so that
reruns with identical inputs produce byte-identical files: floats are
rendered with shortest round-trip ``repr``, JSON keys are sorted, nothing
embeds a timestamp, and writes are atomic (temp file + rename).

CSV artifacts are UTF-8 with a header row, RFC-4180 quoting and ``\n``
line ends; floats are written with round-trip repr so that write-then-read
reproduces the in-memory values exactly.  ``write_csv_atomic`` and
``read_csv`` are the only CSV writer and reader: a reader names the exact
header it expects, so a file written under another schema is refused
instead of being parsed by position.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np

from .errors import DataIntegrityError, MissingArtifactError, ParseError


def fmt(value) -> str:
    """Render a CSV cell; floats use round-trip repr, others use str."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)  # numpy integers print as plain integers too


def _write_atomic(path, write) -> None:
    """Call ``write(fh)`` on a temp file beside ``path``, then rename it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        write(fh)
    os.replace(tmp, path)


def write_text_atomic(path, text: str) -> None:
    _write_atomic(path, lambda fh: fh.write(text.encode("utf-8")))


def write_json_atomic(path, obj) -> None:
    write_text_atomic(path, canonical_json(obj) + "\n")


def write_csv_atomic(path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([fmt(cell) for cell in row] for row in rows)
    write_text_atomic(path, buf.getvalue())


def read_csv(path, columns, parse) -> list:
    """``[parse(row) for row in path]`` for a CSV whose header is exactly
    ``columns``.  A missing file is a ``MissingArtifactError``, another
    header (or none) a ``DataIntegrityError`` naming both column lists, and
    a row of the wrong width or one ``parse`` rejects a ``ParseError``."""
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(str(path))
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if tuple(header) != tuple(columns):
            raise DataIntegrityError(f"{path} has columns {header}, expected {list(columns)}")
        width = len(columns)
        rows = []
        try:
            for row in reader:
                if len(row) != width:
                    raise ValueError(f"{len(row)} cells, expected {width}")
                rows.append(parse(row))
        except (csv.Error, ValueError, KeyError, IndexError) as exc:
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    return rows


def write_array_atomic(path, array: np.ndarray) -> None:
    """Save one array in .npy format (deterministic, unlike zipped .npz)."""
    _write_atomic(path, lambda fh: np.save(fh, array, allow_pickle=False))


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def derive_seed(*parts: int) -> int:
    """Deterministically derive a 32-bit seed from integer parts."""
    ss = np.random.SeedSequence([int(p) & 0xFFFFFFFFFFFFFFFF for p in parts])
    return int(ss.generate_state(1)[0])
