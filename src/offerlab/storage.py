"""Deterministic file I/O helpers.

Every artifact writer in the package goes through these functions so that
reruns with identical inputs produce byte-identical files: floats are
rendered with shortest round-trip ``repr``, JSON keys are sorted, nothing
embeds a timestamp, and writes are atomic (temp file + rename).

CSV artifacts are UTF-8 with a header row, RFC-4180 quoting and ``\n``
line ends.  Each is declared once, as a schema: a dict from column name,
in order, to the ``Cell`` that parses and writes it.  ``write_csv_atomic``
and ``read_csv``, the only CSV writer and reader, move a schema's columns;
a file whose header is not exactly the schema's names is refused instead
of being parsed by position.  A cell writes its value's CSV text, quoted
where it needs it, and the writer joins each row's texts with commas, the
bytes ``csv.writer``'s minimal quoting gives at a fraction of its time:
an ``enum_cell`` code that holds a comma, a double quote or a newline
quotes itself, and a number never needs it.  ``FLOAT`` writes round-trip
repr, so values read back exactly.  A file that is not UTF-8 is refused
by name, as a ``ParseError`` for a CSV and a ``DataIntegrityError`` for
JSON.

Config JSON has one reader too: ``load_dataclass`` builds a dataclass from
a parsed JSON object by the dataclass's own annotations and refuses an
unknown key, a mistyped value or a value out of range by its dotted path.

Every random stream starts at ``seeded_rng``, and every derived seed at
``derive_seed``, so reruns with identical seeds draw identical variates.
"""

from __future__ import annotations

import collections
import csv
import dataclasses
import hashlib
import itertools
import json
import math
import os
import types
import typing
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataIntegrityError, MissingArtifactError, ParseError


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


def read_json_artifact(path):
    """The JSON value an artifact file holds.  A missing file is a
    ``MissingArtifactError``, one that is not UTF-8 JSON a
    ``DataIntegrityError`` naming it."""
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(str(path))
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise DataIntegrityError(f"{path} is not UTF-8: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise DataIntegrityError(f"{path} is not valid JSON: {exc}") from None


# how a column's values are read from and written to CSV cells; either
# function raises ValueError for a value the column cannot hold
Cell = collections.namedtuple("Cell", "parse write")


def _quoted(text: str) -> str:
    """``text`` as ``csv.writer``'s QUOTE_MINIMAL writes it: in double
    quotes, each inner one doubled, if it holds a comma, a double quote or a
    newline."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def enum_cell(kind: str, codes: dict) -> Cell:
    """A cell holding a key of ``codes``, written as its code; any other
    value or cell is a ``ValueError`` naming ``kind``."""

    class Table(dict):
        def __missing__(self, key):
            raise ValueError(f"unknown {kind} {key!r}")

    values = Table({code: value for value, code in codes.items()})
    texts = Table({value: _quoted(code) for value, code in codes.items()})
    return Cell(values.__getitem__, texts.__getitem__)


INT = Cell(int, str)
FLOAT = Cell(float, lambda value: repr(float(value)))
FLAG = enum_cell("flag", {False: "0", True: "1"})
CSV_BLOCK_ROWS = 1024  # rows write_csv_atomic and read_csv convert at a time


def write_csv_atomic(path, schema: dict, columns) -> None:
    """Write ``columns``, one sequence per column of ``schema``, under its names.
    A column count or length that does not match, or a value its cell refuses,
    is a ``DataIntegrityError`` naming the column and row (the first is row 1)."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    lengths = [len(values) for values in columns]
    if len(columns) != len(schema) or len(set(lengths)) > 1:
        raise DataIntegrityError(f"{path}: columns of lengths {lengths} for {list(schema)}")
    lines = [",".join(map(_quoted, schema))]
    for start in range(0, max(lengths, default=0), CSV_BLOCK_ROWS):
        cells = [[] for _ in columns]
        for texts, (name, cell), values in zip(cells, schema.items(), columns):
            try:
                texts += map(cell.write, values[start : start + CSV_BLOCK_ROWS])
            except ValueError as exc:  # texts holds the cells written before
                row = start + len(texts) + 1
                raise DataIntegrityError(f"{path}: {name} in row {row}: {exc}") from None
        lines += map(",".join, zip(*cells))
    if len(schema) == 1:  # csv.writer quotes a row's one cell when it is empty
        lines = [line or '""' for line in lines]
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_csv(path, schema: dict) -> list:
    """The columns of the CSV ``path``, one tuple per column of ``schema``, in
    file order.  A missing file is a ``MissingArtifactError``, a header other
    than ``schema``'s names a ``DataIntegrityError``, a file that is not
    UTF-8 a ``ParseError`` naming it, and a row of the wrong width or a cell
    its column refuses a ``ParseError`` naming the line.

    Rows are parsed by column, ``CSV_BLOCK_ROWS`` at a time; a block that
    fails sends the file through ``_read_rows``, which names the line."""
    if not os.path.exists(path):
        raise MissingArtifactError(str(path))
    parsers = [cell.parse for cell in schema.values()]
    columns = [[] for _ in parsers]
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if header != list(schema):
                raise DataIntegrityError(f"{path} has columns {header}, expected {list(schema)}")
            try:
                while block := list(itertools.islice(reader, CSV_BLOCK_ROWS)):
                    if set(map(len, block)) != {len(parsers)}:
                        raise ValueError("a row of the wrong width")
                    for values, parse, cells in zip(columns, parsers, zip(*block)):
                        values += map(parse, cells)
            except (csv.Error, ValueError, KeyError):
                columns = _read_rows(path, parsers)
    # from the header or from _read_rows; the file is decoded a chunk at a
    # time, so the line the reader is on is not the byte's
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: {exc.reason}") from None
    return [tuple(values) for values in columns]


def _read_rows(path, parsers) -> list:
    """``read_csv``'s columns parsed row by row, so that the first row of the
    wrong width or with a refused cell is a ``ParseError`` naming its line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = []
        try:
            for row in reader:
                if len(row) != len(parsers):
                    raise ValueError(f"{len(row)} cells, expected {len(parsers)}")
                rows.append([parse(cell) for parse, cell in zip(parsers, row)])
        except UnicodeDecodeError:  # read_csv names the file
            raise
        except (csv.Error, ValueError, KeyError) as exc:
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    return list(zip(*rows)) if rows else [()] * len(parsers)


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


def check_finite_fields(config) -> None:
    """Refuse by name a NaN or infinite float in a dataclass field, tuple and dict items too."""
    pending = [(f.name, getattr(config, f.name)) for f in dataclasses.fields(config)]
    for where, value in pending:  # which grows by the items of each tuple and dict
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigurationError(f"{where} must be finite, got {value!r}")
        if isinstance(value, (tuple, list, dict)):
            items = value.items() if isinstance(value, dict) else enumerate(value)
            pending += [(f"{where}[{key!r}]", item) for key, item in items]


def load_dataclass(cls, obj, where: str):
    """Dataclass ``cls`` built from the parsed JSON object ``obj``; keys left
    out keep their defaults.  An unknown key, a left-out field that has no
    default or a value that does not match its field's annotation is a
    ``ConfigurationError`` naming its dotted path below ``where``, as is a
    value the class's own check refuses."""
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{where} must be an object, got {obj!r}")
    fields = [f for f in dataclasses.fields(cls) if f.init]
    unknown = sorted(set(obj) - {f.name for f in fields})
    if unknown:
        raise ConfigurationError(f"{where} has unknown keys {unknown}")
    missing = sorted(
        f.name for f in fields if f.name not in obj
        and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    )
    if missing:
        raise ConfigurationError(f"{where} lacks keys {missing}")
    hints = typing.get_type_hints(cls)
    values = {key: _load_value(hints[key], v, f"{where}.{key}") for key, v in obj.items()}
    try:
        return cls(**values)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from None


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
