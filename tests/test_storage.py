import csv
import io
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from offerlab import cli, datasets, storage
from offerlab.choice import ACCEPTED, REJECTED, UNLABELED
from offerlab.config import PipelineConfig
from offerlab.datasets import PER_CUSTOMER_HOLDOUT, ResamplingScheme
from offerlab.errors import ConfigurationError, DataIntegrityError, MissingArtifactError, ParseError
from offerlab.hb import McmcConfig
from offerlab.profit import NopConfig
from offerlab.segments import SEGMENTS
from offerlab.simulate import GroundTruthConfig, MixtureComponent
from offerlab.storage import (
    FLAG,
    FLOAT,
    INT,
    Cell,
    canonical_json,
    derive_seed,
    load_dataclass,
    read_csv,
    seeded_rng,
    write_csv_atomic,
)

# free text for files written here by hand or by csv.writer, where only
# the parser matters; no artifact holds free text
TEXT = Cell(str, str)
SCHEMA = {"name": TEXT, "value": FLOAT}


class TestReadCsv:
    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingArtifactError, match="absent.csv"):
            read_csv(tmp_path / "absent.csv", SCHEMA)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataIntegrityError, match=r"empty.csv has columns \[\], expected"):
            read_csv(path, SCHEMA)

    def test_wrong_header_names_both_column_lists(self, tmp_path):
        path = tmp_path / "swapped.csv"
        path.write_text("value,name\n1.0,a\n")
        with pytest.raises(DataIntegrityError) as info:
            read_csv(path, SCHEMA)
        message = str(info.value)
        assert "swapped.csv has columns ['value', 'name']" in message
        assert "expected ['name', 'value']" in message

    def test_bad_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,value\na,1.0\nb,oops\n")
        with pytest.raises(ParseError, match=r"bad.csv: line 3: .*oops"):
            read_csv(path, SCHEMA)

    @pytest.mark.parametrize("row", ["c", "c,1.0,extra", ""])
    def test_wrong_cell_count_names_line(self, tmp_path, row):
        path = tmp_path / "short.csv"
        path.write_text(f"name,value\na,1.0\n{row}\n")
        with pytest.raises(ParseError, match="line 3: .* cells, expected 2"):
            read_csv(path, SCHEMA)

    def test_key_error_in_parse_names_line(self, tmp_path):
        path = tmp_path / "flags.csv"
        path.write_text("name,value\na,2\n")
        with pytest.raises(ParseError, match="line 2"):
            read_csv(path, {"name": TEXT, "value": Cell({"0": 0, "1": 1}.__getitem__, str)})

    @pytest.mark.parametrize("line, n_rows", [(2, 3), (3001, 4000)])
    def test_a_file_that_is_not_utf8_is_named(self, tmp_path, line, n_rows):
        """A byte that is not UTF-8, in the first chunk the reader decodes or
        more than 8 KB into the file, is a ``ParseError`` naming the file."""
        schema = {"a": INT, "b": FLOAT}
        lines = [b"a,b"] + [b"%d,%d.5" % (i, i) for i in range(n_rows)]
        lines[line - 1] += b"\xff"
        data = b"\n".join(lines) + b"\n"
        assert (data.index(b"\xff") > 8192) == (line > 2)
        path = tmp_path / "bytes.csv"
        path.write_bytes(data)
        with pytest.raises(ParseError) as info:
            read_csv(path, schema)
        assert str(info.value) == f"{path} is not UTF-8: invalid start byte"

    @pytest.mark.parametrize("pad", [0, 9000])
    def test_a_json_artifact_that_is_not_utf8_is_named(self, tmp_path, pad):
        path = tmp_path / "header.json"
        path.write_bytes(b'{"a": "' + b"x" * pad + b'\xff"}')
        with pytest.raises(DataIntegrityError) as info:
            storage.read_json_artifact(path)
        assert str(info.value) == f"{path} is not UTF-8: invalid start byte"

    def test_rows_come_back_in_file_order(self, tmp_path):
        path = tmp_path / "ok.csv"
        write_csv_atomic(path, SCHEMA, [["b", "a"], [2.5, 0.1]])
        assert read_csv(path, SCHEMA) == [("b", "a"), (2.5, 0.1)]

    def test_header_only_file_gives_empty_columns(self, tmp_path):
        path = tmp_path / "header.csv"
        write_csv_atomic(path, SCHEMA, [[], []])
        assert path.read_text() == "name,value\n"
        assert read_csv(path, SCHEMA) == [(), ()]

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 10**40])
    @pytest.mark.parametrize("row", [1, 4, 6])
    def test_an_int_beyond_64_bits_names_line_column_and_value(
        self, tmp_path, monkeypatch, row, value
    ):
        """In the first block or a later one, after the int64 bounds."""
        monkeypatch.setattr(storage, "CSV_BLOCK_ROWS", 2)
        schema = {"key": INT, "count": INT}
        counts = [-(2**63), 2**63 - 1, 0, 0, 0, 0]
        counts[row - 1] = value
        path = tmp_path / "ints.csv"
        write_csv_atomic(path, schema, [range(6), counts])
        with pytest.raises(ParseError) as info:
            read_csv(path, schema)
        assert str(info.value) == f"{path}: line {row + 1}: count {value} is not a 64-bit integer"

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["1,oops", f"{2**63},1.5"], "line 2: could not convert"),
            ([f"{2**63},oops"], f"line 2: a {2**63} is not a 64-bit integer"),
            (["1,1.5", "1,oops", f"{2**63},1.5"], "line 3: could not convert"),
        ],
    )
    def test_the_first_refused_cell_is_named_by_row_then_column(self, tmp_path, rows, message):
        path = tmp_path / "mixed.csv"
        path.write_text(csv_text({"a": INT, "b": FLOAT}, rows))
        with pytest.raises(ParseError) as info:
            read_csv(path, {"a": INT, "b": FLOAT})
        assert str(info.value).startswith(f"{path}: {message}")

    def test_the_int64_bounds_read_back(self, tmp_path):
        path = tmp_path / "bounds.csv"
        write_csv_atomic(path, {"a": INT}, [[-(2**63), 2**63 - 1]])
        assert read_csv(path, {"a": INT}) == [(-(2**63), 2**63 - 1)]


def int64_parse(name):
    """``INT.parse`` with the 64-bit rule, refusing by ``name`` and value."""

    def parse(text):
        value = int(text)
        if not -(2**63) <= value < 2**63:
            raise ValueError(f"{name} {value} is not a 64-bit integer")
        return value

    return parse


def seed_read_csv(path, schema):
    """``read_csv`` as first written, one row at a time, with the 64-bit
    rule for ``INT`` cells added, kept as the reference for the columns and
    the ``ParseError`` the reader must give."""
    if not os.path.exists(path):
        raise MissingArtifactError(str(path))
    parsers = [int64_parse(name) if cell is INT else cell.parse for name, cell in schema.items()]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header != list(schema):
            raise DataIntegrityError(f"{path} has columns {header}, expected {list(schema)}")
        rows = []
        try:
            for row in reader:
                if len(row) != len(parsers):
                    raise ValueError(f"{len(row)} cells, expected {len(parsers)}")
                rows.append([parse(cell) for parse, cell in zip(parsers, row)])
        except (csv.Error, ValueError, KeyError) as exc:
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    return list(zip(*rows)) if rows else [()] * len(schema)


def read_outcome(read, path, schema):
    """The columns ``read`` gives, or the type and text of what it raises."""
    try:
        return read(path, schema)
    except Exception as exc:
        return type(exc), str(exc)


# each cell kind: a cell text it holds, drawn from a generator, and one it refuses
CELL_TEXTS = {
    INT: (lambda rng: str(int(rng.integers(-(2**62), 2**62))), "1.5"),
    FLOAT: (lambda rng: repr(float(rng.standard_normal() * 10.0 ** rng.integers(-5, 5))), "oops"),
    TEXT: (lambda rng: "".join(rng.choice(list('ab ,"x'), size=rng.integers(0, 5))), None),
    FLAG: (lambda rng: str(rng.integers(0, 2)), "2"),
    datasets.OUTCOME: (lambda rng: str(rng.choice(["1", "0", ""])), "maybe"),
}
FAULTS = ("bad cell", "short row", "long row", "unterminated quote", "int beyond 64 bits")


def csv_text(schema, rows):
    """The CSV text of ``schema``'s header and ``rows``; a row given as a
    string is written as it is, one line."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in [list(schema)] + rows:
        buf.write(row + "\n") if isinstance(row, str) else writer.writerow(row)
    return buf.getvalue()


class TestReadByColumns:
    """``read_csv`` parses block by block and by column; it must give the
    reference reader's columns, or its ``ParseError`` to the letter."""

    @given(
        cells=st.lists(st.sampled_from(list(CELL_TEXTS)), min_size=1, max_size=4),
        n_rows=st.integers(0, 3000),
        seed=st.integers(0, 2**32 - 1),
        fault=st.none() | st.tuples(st.sampled_from(FAULTS), st.floats(0, 1), st.booleans()),
    )
    @example([INT, TEXT, FLOAT], 3000, 1, ("bad cell", 0.9, True))
    @example([TEXT, datasets.OUTCOME], 2500, 2, ("unterminated quote", 0.5, True))
    @example([FLOAT, FLAG], 2049, 3, ("short row", 1.0, False))
    @example([FLOAT, INT], 3000, 4, ("int beyond 64 bits", 0.9, False))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_row_by_row_reference(self, tmp_path_factory, cells, n_rows, seed, fault):
        """At most one fault, optionally after a quoted newline."""
        rng = np.random.default_rng(seed)
        schema = {f"c{i}": cell for i, cell in enumerate(cells)}
        rows = [[CELL_TEXTS[cell][0](rng) for cell in cells] for _ in range(n_rows)]
        if fault and rows:
            kind, where, newline_before = fault
            row = min(int(where * n_rows), n_rows - 1)
            texts = [i for i, cell in enumerate(cells) if cell is TEXT]
            if newline_before and texts and row > 0:
                rows[row - 1][texts[0]] += "\nquoted"
            refused = [i for i, cell in enumerate(cells) if CELL_TEXTS[cell][1] is not None]
            if kind == "bad cell" and refused:
                column = refused[int(rng.integers(len(refused)))]
                rows[row][column] = CELL_TEXTS[cells[column]][1]
            elif kind == "short row":
                rows[row].pop()
            elif kind == "long row":
                rows[row].append("extra")
            elif kind == "unterminated quote":
                rows[row] = '"open' + "," * (len(cells) - 1)
            elif kind == "int beyond 64 bits" and INT in cells:
                rows[row][cells.index(INT)] = str(2**63 if rng.integers(2) else -(2**63) - 1)
        path = tmp_path_factory.mktemp("csv") / "rows.csv"
        path.write_text(csv_text(schema, rows))
        assert read_outcome(read_csv, path, schema) == read_outcome(seed_read_csv, path, schema)

    @pytest.mark.parametrize("later", ["x,2.5", "1,oops,extra"])
    def test_the_earlier_of_two_faulty_rows_is_named(self, tmp_path, later):
        """One block holds a refused cell in the second column at line 1502
        and a later fault in the first column at line 1602; 1502 wins."""
        schema = {"a": INT, "b": FLOAT}
        rows = [f"{i},{i / 4}" for i in range(3000)]
        rows[1500], rows[1600] = "1,oops", later
        path = tmp_path / "two.csv"
        path.write_text(csv_text(schema, rows))
        with pytest.raises(ParseError) as info:
            read_csv(path, schema)
        assert str(info.value) == read_outcome(seed_read_csv, path, schema)[1]
        assert str(info.value).startswith(f"{path}: line 1502: could not convert")


class TestRoundTrip:
    def test_comma_and_quote_are_quoted(self, tmp_path):
        name = storage.enum_cell("name", {'a,"b"': 'a,"b"', "plain": "plain"})
        schema = {"name": name, "value": FLOAT}
        path = tmp_path / "quoted.csv"
        write_csv_atomic(path, schema, [['a,"b"', "plain"], [1.5, 1 / 3]])
        assert path.read_text() == 'name,value\n"a,""b""",1.5\nplain,0.3333333333333333\n'
        assert read_csv(path, schema) == [('a,"b"', "plain"), (1.5, 1 / 3)]

    @pytest.mark.parametrize("block", [1, 2, 5, 1024])
    def test_rows_written_block_by_block_read_back_in_order(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(storage, "CSV_BLOCK_ROWS", block)
        names, values = [f"n{i}" for i in range(7)], [i / 3 for i in range(7)]
        path = tmp_path / "blocks.csv"
        write_csv_atomic(path, SCHEMA, [names, values])
        assert read_csv(path, SCHEMA) == [tuple(names), tuple(values)]
        values[5] = "oops"
        with pytest.raises(DataIntegrityError, match="blocks.csv: value in row 6: "):
            write_csv_atomic(path, SCHEMA, [names, values])


# characters that make csv.writer quote a cell, and some that do not
QUOTING_TEXT = st.text(st.sampled_from(list(',"\n abé')), max_size=6)
QUOTING_CODES = {"comma": "x,y", "quote": 'say "hi"', "blank": "", "lines": "a\nb", "plain": "p"}
# cell kinds: (cell, the text csv.writer is given for a value, the values)
WRITTEN_KINDS = {
    "float": (FLOAT, lambda value: repr(float(value)), st.floats(allow_nan=False)),
    "int": (INT, str, st.integers(-(2**63), 2**63 - 1)),
    "enum": (
        storage.enum_cell("mark", QUOTING_CODES),
        QUOTING_CODES.__getitem__,
        st.sampled_from(list(QUOTING_CODES)),
    ),
}


class TestWriterMatchesCsvModule:
    @settings(max_examples=150, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(list(WRITTEN_KINDS)), min_size=1, max_size=4),
        names=st.lists(QUOTING_TEXT, min_size=4, max_size=4, unique=True),
        n_rows=st.integers(0, 7),
        block=st.sampled_from([1, 3, 1024]),
        data=st.data(),
    )
    def test_bytes_equal_csv_writer_minimal_quoting(
        self, tmp_path_factory, kinds, names, n_rows, block, data
    ):
        """Commas, double quotes, newlines and empty cells, in the header and
        in the rows, one column or several, written block by block."""
        schema = {name: WRITTEN_KINDS[kind][0] for name, kind in zip(names, kinds)}
        columns = [
            data.draw(st.lists(WRITTEN_KINDS[kind][2], min_size=n_rows, max_size=n_rows))
            for kind in kinds
        ]
        path = tmp_path_factory.mktemp("writer") / "rows.csv"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(storage, "CSV_BLOCK_ROWS", block)
            write_csv_atomic(path, schema, columns)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(schema)
        texts = [list(map(WRITTEN_KINDS[kind][1], values)) for kind, values in zip(kinds, columns)]
        writer.writerows(zip(*texts))
        assert path.read_bytes() == buf.getvalue().encode("utf-8")
        assert read_csv(path, schema) == [tuple(values) for values in columns]


# every CSV artifact's schema, by the module that declares it
SCHEMAS = {
    name: getattr(module, name)
    for module, names in (
        (datasets, ("OFFER_CSV", "CUSTOMER_CSV", "TRUTH_CSV", "SCORE_CSV")),
        (cli, ("SEGMENT_CSV", "DISTRIBUTION_CSV", "TUNING_CSV", "LIFT_CSV", "POLICY_CSV")),
    )
    for name in names
}

# the values each cell holds
VALUES = {
    INT: st.integers(-(2**63), 2**63 - 1),
    FLOAT: st.floats(allow_nan=False),
    FLAG: st.booleans(),
    datasets.OUTCOME: st.sampled_from([ACCEPTED, REJECTED, UNLABELED]),
    datasets.MRP: st.none() | st.floats(allow_nan=False),
    cli.SEGMENT: st.sampled_from(SEGMENTS),
}


def schema_columns(schema):
    """Columns of one length for ``schema``, each drawn from its cell's values."""
    return st.integers(0, 12).flatmap(
        lambda n: st.tuples(
            *(st.lists(VALUES[cell], min_size=n, max_size=n) for cell in schema.values())
        )
    )


class TestSchemas:
    @pytest.mark.parametrize("name", SCHEMAS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_columns_round_trip_and_rewrite_byte_identical(self, tmp_path_factory, name, data):
        schema = SCHEMAS[name]
        columns = data.draw(schema_columns(schema))
        path = tmp_path_factory.mktemp("schema") / "a.csv"
        write_csv_atomic(path, schema, columns)
        read = read_csv(path, schema)
        assert read == [tuple(column) for column in columns]
        again = path.with_name("b.csv")
        write_csv_atomic(again, schema, read)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "columns, lengths",
        [([["a"]], [1]), ([["a"], [1.0], [2.0]], [1, 1, 1]), ([["a", "b"], [1.0]], [2, 1])],
    )
    def test_column_count_or_length_mismatch_is_refused(self, tmp_path, columns, lengths):
        path = tmp_path / "bad.csv"
        with pytest.raises(DataIntegrityError) as info:
            write_csv_atomic(path, SCHEMA, columns)
        assert str(info.value) == f"{path}: columns of lengths {lengths} for ['name', 'value']"
        assert not path.exists()

    @pytest.mark.parametrize(
        "cell, kind, known, unknown",
        [
            (datasets.OUTCOME, "outcome", ACCEPTED, 2),
            (cli.SEGMENT, "segment", SEGMENTS[0], "loyal-ish"),
            (FLAG, "flag", True, 2),
        ],
    )
    def test_enum_cell_names_an_unknown_value(self, tmp_path, cell, kind, known, unknown):
        """An unknown cell is refused at read, by line, and an unknown value
        at write, by column and row; the file is left as it was."""
        schema = {"name": TEXT, "value": cell}
        path = tmp_path / "enum.csv"
        path.write_text(f"name,value\na,{cell.write(known)}\nb,true\n")
        with pytest.raises(ParseError, match=f"enum.csv: line 3: unknown {kind} 'true'$"):
            read_csv(path, schema)
        before = path.read_bytes()
        message = f"enum.csv: value in row 2: unknown {kind} {unknown!r}$"
        with pytest.raises(DataIntegrityError, match=message):
            write_csv_atomic(path, schema, [["a", "b"], [known, unknown]])
        assert path.read_bytes() == before


@dataclass(frozen=True)
class Inner:
    weight: float = 1.0

    def __post_init__(self):
        if self.weight < 0:
            raise ConfigurationError(f"weight must be >= 0, got {self.weight!r}")


@dataclass(frozen=True)
class Sample:
    count: int = 1
    rate: float = 0.5
    name: str = "a"
    flag: bool = False
    scale: float | None = None
    items: tuple[int, ...] = (1, 2)
    pair: tuple[float, float] = (0.0, 1.0)
    bounds: dict[str, tuple[float, float]] = field(default_factory=dict)
    inner: Inner = field(default_factory=Inner)
    parts: tuple[Inner, ...] = ()


# every config dataclass, each with some fields off their defaults
CONFIGS = [
    PipelineConfig(seed=5, ncomp=2, ncomp_candidates=(2, 4), include_demographic=True),
    GroundTruthConfig(n_customers=17, seed=99, discount_bounds=(-0.25, 0.5)),
    MixtureComponent(0.5, (1.0, 0.0, -2.0), ((1.0, 0.0, 0.0), (0.0, 0.5, 0.0), (0.0, 0.0, 2.0))),
    McmcConfig(total_draws=700, burn_in=100, keep=3, rw_scale=0.4, iw_dof=None, seed=8),
    NopConfig(annual_rate=0.08, r_bounds={"elastic-loyal": (-0.2, 0.3)}, contract_options=(1, 12)),
    ResamplingScheme(kind=PER_CUSTOMER_HOLDOUT, folds=2, repeats=3),
]


class TestLoadDataclass:
    @pytest.mark.parametrize("config", CONFIGS, ids=[type(c).__name__ for c in CONFIGS])
    def test_json_round_trip(self, config):
        raw = json.loads(canonical_json(asdict(config)))
        assert load_dataclass(type(config), raw, "config") == config

    def test_non_finite_json_tokens_refused(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"nop": {"annual_rate": NaN}}')
        with pytest.raises(ConfigurationError, match=r"config\.nop\.annual_rate must be a finite"):
            PipelineConfig.from_json(path)

    def test_left_out_keys_keep_defaults(self):
        assert load_dataclass(Sample, {}, "sample") == Sample()

    def test_values_take_their_annotated_types(self):
        raw = {
            "rate": 2,
            "scale": 3,
            "items": [4],
            "pair": [1, 2.5],
            "bounds": {"x": [0, 1]},
            "inner": {"weight": 0},
            "parts": [{}, {"weight": 2}],
        }
        loaded = load_dataclass(Sample, raw, "sample")
        assert type(loaded.rate) is float and loaded.rate == 2.0
        assert type(loaded.scale) is float
        assert loaded.items == (4,) and loaded.pair == (1.0, 2.5)
        assert loaded.bounds == {"x": (0.0, 1.0)} and type(loaded.bounds["x"][0]) is float
        assert loaded.inner == Inner(0.0) and loaded.parts == (Inner(), Inner(2.0))
        assert load_dataclass(Sample, {"scale": None}, "sample").scale is None

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"cuont": 1}, "sample has unknown keys ['cuont']"),
            ({"inner": {"wieght": 1}}, "sample.inner has unknown keys ['wieght']"),
            ({"parts": [{}, {"w": 1}]}, "sample.parts[1] has unknown keys ['w']"),
            ({"count": 1.0}, "sample.count must be int, got 1.0"),
            ({"count": True}, "sample.count must be int, got True"),
            ({"count": "1"}, "sample.count must be int, got '1'"),
            ({"rate": False}, "sample.rate must be float, got False"),
            ({"rate": "0.5"}, "sample.rate must be float, got '0.5'"),
            ({"name": 3}, "sample.name must be str, got 3"),
            ({"flag": 1}, "sample.flag must be bool, got 1"),
            ({"scale": "x"}, "sample.scale must be float, got 'x'"),
            ({"items": 3}, "sample.items must be a list, got 3"),
            ({"items": [1, 2.0]}, "sample.items[1] must be int, got 2.0"),
            ({"pair": [1.0]}, "sample.pair must be a list of 2, got [1.0]"),
            ({"bounds": []}, "sample.bounds must be an object, got []"),
            ({"bounds": {"x": [0, "1"]}}, "sample.bounds['x'][1] must be float, got '1'"),
            ({"inner": 1.0}, "sample.inner must be an object, got 1.0"),
            ({"rate": math.nan}, "sample.rate must be a finite float, got nan"),
            ({"rate": math.inf}, "sample.rate must be a finite float, got inf"),
            ({"scale": -math.inf}, "sample.scale must be a finite float, got -inf"),
            ({"pair": [0, math.nan]}, "sample.pair[1] must be a finite float, got nan"),
            (
                {"rate": 10**400},
                "sample.rate must be a finite float, got an integer beyond the float range",
            ),
            # a class's own check is named by its dotted path, once
            ({"inner": {"weight": -1}}, "sample.inner: weight must be >= 0, got -1.0"),
            ({"parts": [{}, {"weight": -2.5}]}, "sample.parts[1]: weight must be >= 0, got -2.5"),
        ],
    )
    def test_refusals_name_the_dotted_path(self, raw, message):
        with pytest.raises(ConfigurationError) as info:
            load_dataclass(Sample, raw, "sample")
        assert str(info.value) == message


MASK = 0xFFFFFFFFFFFFFFFF


class TestSeededRng:
    """The one generator helper keeps every stream it replaced."""

    @given(st.one_of(st.integers(-(2**70), 2**70), st.sampled_from([2**63 + 5, 2**64 - 1, -1])))
    def test_one_part_is_the_masked_seed_sequence(self, seed):
        expected = np.random.default_rng(np.random.SeedSequence(seed & MASK)).random(4)
        assert np.array_equal(seeded_rng(seed).random(4), expected)

    @given(st.integers(-(2**70), 2**70), st.integers(0, 2))
    def test_two_parts_are_the_purpose_stream(self, seed, code):
        expected = np.random.default_rng(np.random.SeedSequence((seed & MASK, code))).random(4)
        assert np.array_equal(seeded_rng(seed, code).random(4), expected)

    @given(st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=4))
    def test_derive_seed_is_the_first_word_of_the_seed_sequence(self, parts):
        ss = np.random.SeedSequence([p & MASK for p in parts])
        assert derive_seed(*parts) == int(ss.generate_state(1)[0])
