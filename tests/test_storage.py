import pytest
from hypothesis import given
from hypothesis import strategies as st

from offerlab.errors import DataIntegrityError, MissingArtifactError, ParseError
from offerlab.storage import read_csv, write_csv_atomic

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
