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

Config JSON has one reader too: ``load_dataclass`` builds a dataclass from
a parsed JSON object by the dataclass's own annotations and refuses an
unknown key or a mistyped value by its dotted path.

Every random stream starts at ``seeded_rng``, and every derived seed at
``derive_seed``, so reruns with identical seeds draw identical variates.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import types
import typing
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataIntegrityError, MissingArtifactError, ParseError


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


def seeded_rng(*parts: int) -> np.random.Generator:
    """PCG64 generator seeded by the integer parts, each taken modulo 2**64."""
    entropy = [int(p) & 0xFFFFFFFFFFFFFFFF for p in parts]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(*parts: int) -> int:
    """Deterministically derive a 32-bit seed from integer parts."""
    return int(seeded_rng(*parts).bit_generator.seed_seq.generate_state(1)[0])


def load_dataclass(cls, obj, where: str):
    """Dataclass ``cls`` built from the parsed JSON object ``obj``; keys left
    out keep their defaults.  An unknown key or a value that does not match
    its field's annotation is a ``ConfigurationError`` naming its dotted path
    below ``where``."""
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{where} must be an object, got {obj!r}")
    unknown = sorted(set(obj) - {f.name for f in dataclasses.fields(cls) if f.init})
    if unknown:
        raise ConfigurationError(f"{where} has unknown keys {unknown}")
    hints = typing.get_type_hints(cls)
    return cls(**{key: _load_value(hints[key], v, f"{where}.{key}") for key, v in obj.items()})


def _load_value(tp, value, where: str):
    """``value`` checked against (and, for tuples and floats, converted to)
    the annotation ``tp``: int, float, str, bool, ``X | None``,
    ``tuple[X, ...]``, ``tuple[X, Y]``, ``dict[str, X]`` or a dataclass."""
    if dataclasses.is_dataclass(tp):
        return load_dataclass(tp, value, where)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (tp,) = [arg for arg in args if arg is not type(None)]
        return _load_value(tp, value, where)
    if origin is tuple:
        fixed = args[-1] is not Ellipsis
        if not isinstance(value, list) or (fixed and len(value) != len(args)):
            size = f" of {len(args)}" if fixed else ""
            raise ConfigurationError(f"{where} must be a list{size}, got {value!r}")
        items = args if fixed else [args[0]] * len(value)
        return tuple(
            _load_value(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(items, value))
        )
    if origin is dict:
        if not isinstance(value, dict):
            raise ConfigurationError(f"{where} must be an object, got {value!r}")
        return {key: _load_value(args[1], v, f"{where}[{key!r}]") for key, v in value.items()}
    # exact types, so that a bool is never taken for a number
    if tp is float and type(value) in (int, float):
        try:
            number = float(value)
        except OverflowError:  # json parses integers of any size
            raise ConfigurationError(
                f"{where} must be a finite float, got an integer beyond the float range"
            ) from None
        # json parses the bare tokens NaN and Infinity
        if not math.isfinite(number):
            raise ConfigurationError(f"{where} must be a finite float, got {value!r}")
        return number
    if tp in (int, str, bool) and type(value) is tp:
        return value
    raise ConfigurationError(f"{where} must be {tp.__name__}, got {value!r}")
