import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from offerlab.config import PipelineConfig
from offerlab.datasets import PER_CUSTOMER_HOLDOUT, ResamplingScheme
from offerlab.errors import ConfigurationError, DataIntegrityError, MissingArtifactError, ParseError
from offerlab.hb import McmcConfig
from offerlab.profit import NopConfig
from offerlab.simulate import GroundTruthConfig, MixtureComponent
from offerlab.storage import (
    canonical_json,
    derive_seed,
    load_dataclass,
    read_csv,
    seeded_rng,
    write_csv_atomic,
)

COLUMNS = ("name", "value")


def parse_pair(row):
    return row[0], float(row[1])


class TestReadCsv:
    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingArtifactError, match="absent.csv"):
            read_csv(tmp_path / "absent.csv", COLUMNS, parse_pair)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataIntegrityError, match=r"empty.csv has columns \[\], expected"):
            read_csv(path, COLUMNS, parse_pair)

    def test_wrong_header_names_both_column_lists(self, tmp_path):
        path = tmp_path / "swapped.csv"
        path.write_text("value,name\n1.0,a\n")
        with pytest.raises(DataIntegrityError) as info:
            read_csv(path, COLUMNS, parse_pair)
        message = str(info.value)
        assert "swapped.csv has columns ['value', 'name']" in message
        assert "expected ['name', 'value']" in message

    def test_bad_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("name,value\na,1.0\nb,oops\n")
        with pytest.raises(ParseError, match=r"bad.csv: line 3: .*oops"):
            read_csv(path, COLUMNS, parse_pair)

    @pytest.mark.parametrize("row", ["c", "c,1.0,extra", ""])
    def test_wrong_cell_count_names_line(self, tmp_path, row):
        path = tmp_path / "short.csv"
        path.write_text(f"name,value\na,1.0\n{row}\n")
        with pytest.raises(ParseError, match="line 3: .* cells, expected 2"):
            read_csv(path, COLUMNS, parse_pair)

    def test_key_error_in_parse_names_line(self, tmp_path):
        path = tmp_path / "flags.csv"
        path.write_text("name,value\na,2\n")
        with pytest.raises(ParseError, match="line 2"):
            read_csv(path, COLUMNS, lambda row: {"0": 0, "1": 1}[row[1]])

    def test_rows_come_back_in_file_order(self, tmp_path):
        path = tmp_path / "ok.csv"
        write_csv_atomic(path, COLUMNS, [("b", 2.5), ("a", 0.1)])
        assert read_csv(path, COLUMNS, parse_pair) == [("b", 2.5), ("a", 0.1)]


class TestRoundTrip:
    def test_comma_and_quote_are_quoted(self, tmp_path):
        path = tmp_path / "quoted.csv"
        write_csv_atomic(path, COLUMNS, [('a,"b"', 1.5), ("plain", 1 / 3)])
        assert path.read_text() == 'name,value\n"a,""b""",1.5\nplain,0.3333333333333333\n'
        assert read_csv(path, COLUMNS, parse_pair) == [('a,"b"', 1.5), ("plain", 1 / 3)]

    @given(
        st.lists(
            st.tuples(
                st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")),
                st.floats(allow_nan=False),
            ),
            max_size=8,
        )
    )
    def test_text_and_float_cells_round_trip(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "rows.csv"
        write_csv_atomic(path, COLUMNS, rows)
        assert read_csv(path, COLUMNS, parse_pair) == rows


@dataclass(frozen=True)
class Inner:
    weight: float = 1.0


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
