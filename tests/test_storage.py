import json
import math
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
    TEXT,
    Cell,
    canonical_json,
    derive_seed,
    load_dataclass,
    read_csv,
    seeded_rng,
    write_csv_atomic,
)

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

    def test_rows_come_back_in_file_order(self, tmp_path):
        path = tmp_path / "ok.csv"
        write_csv_atomic(path, SCHEMA, [["b", "a"], [2.5, 0.1]])
        assert read_csv(path, SCHEMA) == [("b", "a"), (2.5, 0.1)]

    def test_header_only_file_gives_empty_columns(self, tmp_path):
        path = tmp_path / "header.csv"
        write_csv_atomic(path, SCHEMA, [[], []])
        assert path.read_text() == "name,value\n"
        assert read_csv(path, SCHEMA) == [(), ()]


class TestRoundTrip:
    def test_comma_and_quote_are_quoted(self, tmp_path):
        path = tmp_path / "quoted.csv"
        write_csv_atomic(path, SCHEMA, [['a,"b"', "plain"], [1.5, 1 / 3]])
        assert path.read_text() == 'name,value\n"a,""b""",1.5\nplain,0.3333333333333333\n'
        assert read_csv(path, SCHEMA) == [('a,"b"', "plain"), (1.5, 1 / 3)]

    @pytest.mark.parametrize("block", [1, 2, 5, 1024])
    def test_rows_written_block_by_block_read_back_in_order(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(storage, "CSV_BLOCK_ROWS", block)
        names, values = [f"n{i}" for i in range(7)], [i / 3 for i in range(7)]
        path = tmp_path / "blocks.csv"
        write_csv_atomic(path, SCHEMA, [names, values])
        assert read_csv(path, SCHEMA) == [tuple(names), tuple(values)]
        names[5] = "a\rb"
        with pytest.raises(DataIntegrityError, match="blocks.csv: name in row 6: "):
            write_csv_atomic(path, SCHEMA, [names, values])

    @given(
        st.lists(
            st.tuples(
                st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")),
                st.floats(allow_nan=False),
            ),
            max_size=8,
        )
    )
    @example([("\r", 0.0)])
    @example([("ok", 1.0), ("a\r\nb", 2.0)])
    def test_text_and_float_cells_round_trip(self, tmp_path_factory, rows):
        """Text holding a carriage return is refused by column and row;
        any other text round-trips."""
        path = tmp_path_factory.mktemp("csv") / "rows.csv"
        columns = [[name for name, _ in rows], [value for _, value in rows]]
        refused = [i for i, (name, _) in enumerate(rows) if "\r" in name]
        if refused:
            message = f"rows.csv: name in row {refused[0] + 1}: a carriage return"
            with pytest.raises(DataIntegrityError, match=message):
                write_csv_atomic(path, SCHEMA, columns)
            assert not path.exists()
        else:
            write_csv_atomic(path, SCHEMA, columns)
            assert read_csv(path, SCHEMA) == [tuple(column) for column in columns]


# every CSV artifact's schema, by the module that declares it
SCHEMAS = {
    name: getattr(module, name)
    for module, names in (
        (datasets, ("OFFER_CSV", "CUSTOMER_CSV", "TRUTH_CSV", "SCORE_CSV", "MULTINOMIAL_CSV")),
        (cli, ("SEGMENT_CSV", "DISTRIBUTION_CSV", "TUNING_CSV", "LIFT_CSV", "POLICY_CSV")),
    )
    for name in names
}

# the values each cell holds
VALUES = {
    INT: st.integers(-(2**63), 2**63 - 1),
    FLOAT: st.floats(allow_nan=False),
    TEXT: st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\x00")),
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
