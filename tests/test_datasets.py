import csv
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offerlab import datasets, simulate
from offerlab.choice import UNLABELED, Customers
from offerlab.datasets import (
    CUSTOMER_CSV,
    OFFER_CSV,
    ResamplingScheme,
    ingest_retail_csv,
    multinomial_to_panel,
    read_customers_csv,
    read_offer_csv,
    read_scores_csv,
    split_kfold_by_occasion,
    split_per_customer_holdout,
    write_customers_csv,
    write_offer_csv,
    write_scores_csv,
)
from offerlab.errors import (
    ConfigurationError,
    DataIntegrityError,
    EmptySelectionError,
    InvalidInputError,
    MissingArtifactError,
    ParseError,
)
from offerlab.simulate import GroundTruthConfig, generate_offers, simulate_dataset
from offerlab.storage import write_csv_atomic


@pytest.fixture(scope="module")
def dataset():
    return simulate_dataset(GroundTruthConfig(n_customers=40, seed=101))


class TestOfferCsv:
    def test_round_trip_is_exact(self, dataset, tmp_path):
        path = tmp_path / "train.csv"
        write_offer_csv(path, dataset.train)
        assert read_offer_csv(path) == dataset.train
        unlabeled = generate_offers(GroundTruthConfig(n_customers=40, seed=101))
        write_offer_csv(path, unlabeled.test)
        assert read_offer_csv(path) == unlabeled.test
        # customer attributes live in customers.csv alone
        with open(path, newline="") as fh:
            assert next(csv.reader(fh)) == [
                "id", "setnum", "X1", "contract_length_years", "offer_discount", "outcome"
            ]

    def test_rewrites_are_byte_identical(self, dataset, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_offer_csv(a, dataset.train)
        write_offer_csv(b, dataset.train)
        assert a.read_bytes() == b.read_bytes()

    def test_unlabeled_rows_survive(self, tmp_path):
        unlabeled = generate_offers(GroundTruthConfig(n_customers=5, seed=3))
        path = tmp_path / "u.csv"
        write_offer_csv(path, unlabeled.train)
        offers = read_offer_csv(path)
        assert np.all(offers.label == UNLABELED)
        assert offers == unlabeled.train

    def test_header_only_file_is_an_empty_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(OFFER_CSV) + "\n")
        offers = read_offer_csv(path)
        assert len(offers) == 0 and offers.X.shape == (0, 3)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "id,setnum,X1,contract_length_years,offer_discount,outcome\n"
            "1,1,1.0,2.0,0.1,1\n1,2,1.0,not-a-number,0.1,1\n"
        )
        with pytest.raises(ParseError, match="line 3"):
            read_offer_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingArtifactError):
            read_offer_csv(tmp_path / "absent.csv")

    def test_repeated_occasion_is_refused(self, dataset, tmp_path):
        path = tmp_path / "train.csv"
        rows = np.r_[np.arange(len(dataset.train)), 0]
        write_offer_csv(path, dataset.train.take(rows))
        cid, occ = dataset.train.customer_id[0], dataset.train.occasion[0]
        with pytest.raises(
            DataIntegrityError,
            match=rf"repeats \(customer_id, occasion\) = \({cid}, {occ}\)",
        ):
            read_offer_csv(path)

    @pytest.mark.parametrize(
        "column, cell, error, message",
        [
            (0, "0", DataIntegrityError, "customer_id = 0"),
            (1, "0", DataIntegrityError, "occasion = 0"),
            (0, str(2**63), ParseError, rf"line 3: id {2**63} is not a 64-bit integer$"),
            (1, str(-(2**63) - 1), ParseError,
             rf"line 3: setnum {-(2**63) - 1} is not a 64-bit integer$"),
            (2, "nan", DataIntegrityError, "X1 = nan"),
            (3, "inf", DataIntegrityError, "contract_length_years = inf"),
            (4, "-inf", DataIntegrityError, "offer_discount = -inf"),
        ],
    )
    def test_key_and_non_finite_cells_are_refused(
        self, dataset, tmp_path, column, cell, error, message
    ):
        path = tmp_path / "train.csv"
        write_offer_csv(path, dataset.train)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[column] = cell
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(error, match=message) as exc:
            read_offer_csv(path)
        assert str(exc.value).startswith(str(path))

    def test_wrong_header_is_refused(self, dataset, tmp_path):
        path = tmp_path / "scores.csv"
        write_scores_csv(path, [[1], [1], [1], [0.5]])
        with pytest.raises(DataIntegrityError, match="scores.csv has columns"):
            read_offer_csv(path)


# a value put into the row of customer 3, and the refusal that names it
CUSTOMER_FAULTS = [
    ("customer_id", 0, ": id = 0 at id = 0 must be >= 1"),
    ("customer_id", 1, " repeats id = 1"),
    ("loyalty", 1.5, ": loyalty = 1.5 at id = 3 must lie in [0, 1]"),
    ("loyalty", math.nan, ": loyalty = nan at id = 3 must lie in [0, 1]"),
    ("loyalty_centered", math.inf, ": loyalty_centered = inf at id = 3 must be finite"),
    ("demographic_centered", -math.inf, ": demographic_centered = -inf at id = 3 must be finite"),
]


def spoiled(customers, column, value):
    """``customers`` with ``value`` in ``column`` of its third row (id 3)."""
    getattr(customers, column)[2] = value
    return customers


class TestCustomerTable:
    """``Customers.validate`` checks both places a customer table is built."""

    @pytest.mark.parametrize("column, value, message", CUSTOMER_FAULTS)
    def test_simulated_table_refused_by_source_column_id_and_value(
        self, monkeypatch, column, value, message
    ):
        monkeypatch.setattr(
            simulate, "Customers", lambda *columns: spoiled(Customers(*columns), column, value)
        )
        with pytest.raises(DataIntegrityError) as exc:
            generate_offers(GroundTruthConfig(n_customers=6, seed=5))
        assert str(exc.value) == "simulated customers" + message

    @pytest.mark.parametrize("column, value, message", CUSTOMER_FAULTS)
    def test_csv_table_refused_by_source_column_id_and_value(
        self, dataset, tmp_path, column, value, message
    ):
        path = tmp_path / "customers.csv"
        write_customers_csv(path, spoiled(dataset.customers.take(np.arange(6)), column, value))
        with pytest.raises(DataIntegrityError) as exc:
            read_customers_csv(path)
        assert str(exc.value) == str(path) + message


class TestOtherCsvs:
    def test_customer_id_beyond_64_bits_names_line_and_value(self, dataset, tmp_path):
        path = tmp_path / "customers.csv"
        write_customers_csv(path, dataset.customers.take(np.arange(4)))
        lines = path.read_text().splitlines()
        lines[3] = str(2**64) + lines[3][1:]  # customer 3's row
        lines[2] = str(2**63) + lines[2][1:]  # customer 2's row, the first refused
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            read_customers_csv(path)
        assert str(exc.value) == f"{path}: line 3: id {2**63} is not a 64-bit integer"

    def test_customers_round_trip(self, dataset, tmp_path):
        path = tmp_path / "customers.csv"
        columns = [getattr(dataset.customers, f.name) for f in fields(Customers)]
        mrp = [120.5 if cid == 3 else None for cid in dataset.customers.customer_id.tolist()]
        write_csv_atomic(path, CUSTOMER_CSV, [*columns, mrp])
        customers, mrp = read_customers_csv(path)
        assert customers == dataset.customers
        assert mrp == {3: 120.5}

    def test_blank_mrp_cells_are_left_out(self, dataset, tmp_path):
        path = tmp_path / "customers.csv"
        write_customers_csv(path, dataset.customers)
        assert read_customers_csv(path)[1] == {}

    def test_scores_round_trip(self, tmp_path):
        columns = [(1, 2), (1, 1), (1, 1), (0.25, 1 / 3)]
        path = tmp_path / "scores.csv"
        write_scores_csv(path, columns)
        assert read_scores_csv(path) == columns


def keys(offers):
    return offers.customer_id, offers.occasion


def reference_splits(pairs, seed, k):
    """The holdout and k-fold splits of the (customer_id, occasion) keys
    ``pairs`` as row indices, computed one occasion at a time: rows grouped
    by key in input order, keys walked in sorted order."""
    units = {}
    for i, key in enumerate(pairs):
        units.setdefault(key, []).append(i)
    keys = sorted(units)
    occasions = {}
    for cid, occ in keys:
        occasions.setdefault(cid, []).append(occ)
    rng = np.random.default_rng(np.random.SeedSequence(seed & 0xFFFFFFFFFFFFFFFF))
    held_out = set()
    for cid in sorted(occasions):
        candidates = occasions[cid][1:]  # never the first occasion
        if candidates:
            held_out.add((cid, candidates[int(rng.integers(len(candidates)))]))
    holdout = ([], [])
    for key in keys:
        holdout[key in held_out].extend(units[key])
    folds = []
    if k <= len(keys):
        rng = np.random.default_rng(np.random.SeedSequence(seed & 0xFFFFFFFFFFFFFFFF))
        fold_of = np.empty(len(keys), dtype=int)
        fold_of[rng.permutation(len(keys))] = np.arange(len(keys)) % k
        for fold in range(k):
            sides = ([], [])
            for key, f in zip(keys, fold_of):
                sides[int(f == fold)].extend(units[key])
            folds.append(sides)
    return holdout, folds


class TestSplitting:
    def test_single_occasion_customers_stay_in_training(self, dataset):
        train, validation = split_per_customer_holdout(*keys(dataset.train), seed=5)
        counts = np.bincount(dataset.train.customer_id)  # one row per occasion
        val_customers = set(dataset.train.customer_id[validation].tolist())
        for cid in np.flatnonzero(counts == 1).tolist():
            assert cid not in val_customers

    def test_never_first_occasion_and_exactly_one_held_out(self, dataset):
        train, validation = split_per_customer_holdout(*keys(dataset.train), seed=5)
        held = {}
        for cid, occ in zip(*(k[validation].tolist() for k in keys(dataset.train))):
            held.setdefault(cid, set()).add(occ)
        for cid, occasions in held.items():
            assert len(occasions) == 1
            assert 1 not in occasions

    def test_split_is_disjoint_and_complete(self, dataset):
        train, validation = split_per_customer_holdout(*keys(dataset.train), seed=5)
        pairs = list(zip(*(k.tolist() for k in keys(dataset.train))))
        train_keys = {pairs[i] for i in train}
        val_keys = {pairs[i] for i in validation}
        assert not train_keys & val_keys
        assert len(train) + len(validation) == len(dataset.train)

    def test_same_seed_same_split(self, dataset):
        a = split_per_customer_holdout(*keys(dataset.train), seed=9)
        b = split_per_customer_holdout(*keys(dataset.train), seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_kfold_partitions_occasions(self, dataset):
        folds = split_kfold_by_occasion(*keys(dataset.train), 4, seed=2)
        assert len(folds) == 4
        pairs = list(zip(*(k.tolist() for k in keys(dataset.train))))
        all_keys = set(pairs)
        seen = set()
        for train, validation in folds:
            val_keys = {pairs[i] for i in validation}
            train_keys = {pairs[i] for i in train}
            assert not val_keys & train_keys
            assert val_keys | train_keys == all_keys
            assert not val_keys & seen
            seen |= val_keys
        assert seen == all_keys

    def test_too_many_folds(self, dataset):
        with pytest.raises(InvalidInputError):
            split_kfold_by_occasion(*keys(dataset.train), 10_000, seed=1)

    @given(
        st.lists(st.tuples(st.integers(1, 6), st.integers(1, 4)), max_size=40),
        st.integers(0, 2**32),
        st.integers(2, 4),
    )
    @settings(max_examples=200)
    def test_splits_partition_rows_and_keep_keys_together(self, pairs, seed, k):
        # repeated keys (several rows of one occasion, as in a retail choice
        # set) stay on one side, and each side lists its rows by ascending
        # key, ties in input order
        customer_id = np.array([c for c, _ in pairs], dtype=np.int64)
        occasion = np.array([o for _, o in pairs], dtype=np.int64)
        holdout = split_per_customer_holdout(customer_id, occasion, seed)
        expected_holdout, expected_folds = reference_splits(pairs, seed, k)
        assert [side.tolist() for side in holdout] == list(expected_holdout)
        sides = [holdout]
        if k <= len(set(pairs)):
            folds = split_kfold_by_occasion(customer_id, occasion, k, seed)
            assert [[side.tolist() for side in fold] for fold in folds] == [
                list(fold) for fold in expected_folds
            ]
            assert sorted(np.concatenate([v for _, v in folds]).tolist()) == list(range(len(pairs)))
            sides += folds
        for train, validation in sides:
            assert sorted(np.r_[train, validation].tolist()) == list(range(len(pairs)))
            assert not {pairs[i] for i in train} & {pairs[i] for i in validation}
            for side in (train, validation):
                assert side.tolist() == sorted(side.tolist(), key=lambda i: (pairs[i], i))
        occasions = {}
        for c, o in set(pairs):
            occasions.setdefault(c, []).append(o)
        held = {}
        for i in holdout[1].tolist():
            held.setdefault(pairs[i][0], set()).add(pairs[i][1])
        for c, occs in occasions.items():
            if len(occs) < 2:
                assert c not in held
            else:
                assert len(held[c]) == 1 and min(occs) not in held[c]

    def test_scheme_validation(self):
        with pytest.raises(ConfigurationError, match="unknown resampling kind 'bootstrap'"):
            ResamplingScheme(kind="bootstrap")


def write_retail_csv(path, rows):
    header = ["Invoice", "StockCode", "Description", "Quantity", "InvoiceDate", "Price", "Customer ID", "Country"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture
def retail_csv(tmp_path):
    """Customer 1: nine occasions buying cups; customer 2: one occasion."""
    rows = []
    for i in range(9):
        rows.append(
            [f"IN{i:03d}", f"C{i % 3}", f"FANCY CUP {i % 3}", 2, f"0{i % 9 + 1}/01/2010 10:00", 1.5, 1, "UK"]
        )
    rows.append(["IN100", "C0", "FANCY CUP 0", 1, "05/06/2010 09:00", 1.5, 2, "UK"])
    # noise: another product line, a cancelled invoice, a missing customer
    rows.append(["IN101", "T9", "TEAPOT", 5, "05/06/2010 09:30", 8.0, 1, "UK"])
    rows.append(["CIN102", "C0", "FANCY CUP 0", 3, "06/06/2010 09:00", 1.5, 1, "UK"])
    rows.append(["IN103", "C1", "FANCY CUP 1", 2, "07/06/2010 09:00", 1.5, "", "UK"])
    path = tmp_path / "retail.csv"
    write_retail_csv(path, rows)
    return path


class TestRetailIngestion:
    def test_row_count_identity(self, retail_csv):
        data = ingest_retail_csv(retail_csv, product_filter={"C0", "C1", "C2"})
        # customer 1: 9 occasions + 1 augmented; customer 2: 1 + 1
        occasions = {cid: set() for cid in data.customer_id.tolist()}
        for cid, occ in zip(data.customer_id.tolist(), data.occasion.tolist()):
            occasions[cid].add(occ)
        assert len(occasions[1]) == 10
        assert len(occasions[2]) == 2
        assert len(data) == (9 + 1) * 3 + (1 + 1) * 3

    def test_nine_occasions_with_eighteen_products_gives_180_rows(self, tmp_path):
        rows = []
        products = [f"P{i:02d}" for i in range(18)]
        for occ in range(9):
            rows.append(
                [f"I{occ:03d}", products[occ % 18], f"CUP STYLE {occ}", 1,
                 f"{occ + 1:02d}/03/2011 12:00", 2.0, 7, "UK"]
            )
        # every product must appear somewhere to enter the default filter
        for j, p in enumerate(products):
            rows.append([f"I{900 + j}", p, f"CUP STYLE {j}", 1, "01/02/2011 12:00", 2.0, 8, "UK"])
        path = tmp_path / "retail18.csv"
        write_retail_csv(path, rows)
        data = ingest_retail_csv(path, product_filter=set(products))
        rows_for_7 = int(np.sum(data.customer_id == 7))
        assert rows_for_7 == (9 + 1) * 18 == 180

    def test_augmentation_occasion_has_no_purchases(self, retail_csv):
        data = ingest_retail_csv(retail_csv, product_filter={"C0", "C1", "C2"})
        for cid in np.unique(data.customer_id):
            mine = data.customer_id == cid
            last = mine & (data.occasion == data.occasion[mine].max())
            assert last.sum() == 3 and np.all(data.chosen[last] == 0)

    def test_default_cup_filter(self, retail_csv):
        data = ingest_retail_csv(retail_csv)
        assert set(data.product_id.tolist()) == {"C0", "C1", "C2"}

    def test_empty_filter_match(self, retail_csv):
        with pytest.raises(EmptySelectionError):
            ingest_retail_csv(retail_csv, product_filter={"ZZZ"})

    @pytest.mark.parametrize(
        "customer, message",
        [
            ("1e30", r"customer id 1e\+30 is not a 64-bit integer"),
            (str(2**63), rf"customer id {2**63} is not a 64-bit integer"),
            ("inf", "customer id inf is not a 64-bit integer"),
            ("12.7", r"customer id 12\.7 is not a 64-bit integer"),
            # the double nearest 2**53 + 1 is 2**53, another customer's id
            (f"{2**53 + 1}.0", rf"customer id {2**53}\.0 is not a 64-bit integer"),
        ],
    )
    def test_customer_id_beyond_64_bits_names_line(self, tmp_path, customer, message):
        path = tmp_path / "big.csv"
        write_retail_csv(path, [["I1", "C0", "CUP", 1, "01/01/2010 10:00", 1.0, customer, "UK"]])
        with pytest.raises(ParseError, match=rf"big\.csv: line 2: {message}"):
            ingest_retail_csv(path)

    def test_customer_id_read_as_int_literal_or_whole_float(self, tmp_path):
        # a float cast read 2**53 + 1 as 2**53, merging two customers
        path = tmp_path / "ids.csv"
        ids = ["13085.0", str(2**53 + 1), str(2**53)]
        write_retail_csv(path, [[f"I{i}", "C0", "CUP", 1, "01/01/2010 10:00", 1.0, cid, "UK"]
                                for i, cid in enumerate(ids)])
        assert set(ingest_retail_csv(path).customer_id.tolist()) == {13085, 2**53 + 1, 2**53}

    def test_fractional_quantity_names_line(self, tmp_path):
        # a cast counted 2.9 as 2 in the default filter's volume ranking
        path = tmp_path / "bad.csv"
        write_retail_csv(
            path,
            [["I1", "C0", "CUP", "2.0", "01/01/2010 10:00", 1.0, 1, "UK"],
             ["I2", "C0", "CUP", "2.9", "01/01/2010 10:00", 1.0, 1, "UK"]],
        )
        message = r"bad\.csv: line 3: quantity 2\.9 is not a 64-bit integer$"
        with pytest.raises(ParseError, match=message):
            ingest_retail_csv(path)

    @pytest.mark.parametrize(
        "rows, message",
        [
            # the first refused cell is the earliest row's, whichever column
            ([("1", "2.9"), ("12.7", "1")], "line 3: quantity 2.9 is not a 64-bit integer"),
            ([("12.7", "1"), ("1", "2.9")], "line 3: customer id 12.7 is not a 64-bit integer"),
            # within a row the customer id comes first, though the quantity
            # is not even a number
            ([("12.7", "many")], "line 3: customer id 12.7 is not a 64-bit integer"),
            ([("x1", "2.9")], "line 3: could not convert string to float: 'x1'"),
            ([("1", "many"), ("12.7", "1")], "line 3: could not convert string to float: 'many'"),
            # a short row stops the read, after the rows before it are judged
            ([("1", "2.9"), None], "line 3: quantity 2.9 is not a 64-bit integer"),
            ([None, ("1", "2.9")], "line 3: too few fields"),
            # a row without a customer, or of a cancelled invoice, is skipped
            ([("", "2.9"), ("1", "2.9", "C9"), ("1", "-2.5")],
             "line 5: quantity -2.5 is not a 64-bit integer"),
        ],
    )
    def test_first_refused_row_named(self, tmp_path, rows, message):
        path = tmp_path / "bad.csv"
        good = ["I1", "C0", "CUP", 1, "01/01/2010 10:00", 1.0, 1, "UK"]
        lines = [good]
        for row in rows:
            if row is None:
                lines.append(good[:5])
                continue
            customer, quantity, invoice = (*row, "I2")[:3]
            lines.append([invoice, "C0", "CUP", quantity, "01/01/2010 10:00", 1.0, customer, "UK"])
        write_retail_csv(path, lines)
        with pytest.raises(ParseError) as exc:
            ingest_retail_csv(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_malformed_quantity_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_retail_csv(
            path,
            [["I1", "C0", "CUP", 1, "01/01/2010 10:00", 1.0, 1, "UK"],
             ["I2", "C0", "CUP", "many", "01/01/2010 10:00", 1.0, 1, "UK"]],
        )
        with pytest.raises(ParseError, match="line 3"):
            ingest_retail_csv(path, product_filter={"C0"})

    def test_each_date_text_is_parsed_once_into_the_per_row_table(self, tmp_path, monkeypatch):
        # invoice numbers run against date order, two rows share each
        # invoice, and blank or unparseable dates sort after every date
        dates = ["03/01/2011 10:00", "2011-01-02 09:00:00", "", "not a date",
                 "01/13/2011 08:00", " 2011-01-01 07:30", "03/01/2011 10:00 "]
        rows = [
            [f"IN{i // 2:03d}", f"C{i % 3}", f"CUP {i % 3}", 1, dates[(5 * i) % len(dates)], 1.0,
             1 + i % 4 // 3, "UK"]
            for i in range(40)
        ]
        path = tmp_path / "dates.csv"
        write_retail_csv(path, rows)
        parsed = []
        parse = datasets._parse_invoice_date
        monkeypatch.setattr(datasets, "_parse_invoice_date", lambda t: parsed.append(t) or parse(t))
        table = ingest_retail_csv(path)
        assert sorted(parsed) == sorted(dates)
        # the reference: the cache off, so every row is parsed with strptime
        monkeypatch.setattr(datasets, "cache", lambda function: function)
        reference = ingest_retail_csv(path)
        assert len(parsed) == len(dates) + len(rows)
        assert table == reference

    def test_panel_conversion(self, retail_csv):
        data = ingest_retail_csv(retail_csv, product_filter={"C0", "C1", "C2"})
        X, y, row_customer, customer_ids, Z = multinomial_to_panel(data)
        assert X.shape == (len(data), 3)
        assert np.all(X.sum(axis=1) == 1.0)
        assert customer_ids == [1, 2]
        assert Z is None
        # chosen flags line up with the y vector
        first_c0_rows = np.flatnonzero(data.product_id == "C0")
        assert y[first_c0_rows].sum() >= 1

    def test_panel_is_the_hand_expansion_of_the_fixture(self, retail_csv):
        data = ingest_retail_csv(retail_csv, product_filter={"C2", "C0", "C1"})
        # customer 1 buys C(i % 3) on 1..9 January, then the augmented
        # occasion 10; customer 2 buys C0 once, then occasion 2
        expected = [
            (1, occ, f"C{k}", int(occ <= 9 and (occ - 1) % 3 == k))
            for occ in range(1, 11) for k in range(3)
        ] + [(2, occ, f"C{k}", int(occ == 1 and k == 0)) for occ in (1, 2) for k in range(3)]
        assert list(zip(*(getattr(data, f.name).tolist() for f in fields(data)))) == expected
        X, y, row_customer, customer_ids, Z = multinomial_to_panel(data)
        assert np.array_equal(X, np.eye(3)[[int(p[1]) for _, _, p, _ in expected]])
        assert y.tolist() == [float(c) for *_, c in expected]
        assert row_customer.tolist() == [cid - 1 for cid, *_ in expected]
        assert (customer_ids, Z) == ([1, 2], None)

    def test_holdout_moves_whole_occasions(self, retail_csv):
        data = ingest_retail_csv(retail_csv, product_filter={"C0", "C1", "C2"})
        train, validation = split_per_customer_holdout(data.customer_id, data.occasion, seed=1)
        assert sorted(train.tolist() + validation.tolist()) == list(range(len(data)))
        held = data.take(validation)
        train_keys = set(zip(data.customer_id[train].tolist(), data.occasion[train].tolist()))
        held_keys = set(zip(held.customer_id.tolist(), held.occasion.tolist()))
        # one non-first occasion per customer, with all three of its rows
        assert sorted(cid for cid, _ in held_keys) == [1, 2] and len(held) == 2 * 3
        assert not held_keys & train_keys and all(occ != 1 for _, occ in held_keys)

    def test_split_works_on_choice_sets(self, retail_csv):
        data = ingest_retail_csv(retail_csv, product_filter={"C0", "C1", "C2"})
        train, validation = split_per_customer_holdout(data.customer_id, data.occasion, seed=1)
        val_keys = set(zip(data.customer_id[validation].tolist(), data.occasion[validation].tolist()))
        assert val_keys
        assert all(occ != 1 for _, occ in val_keys)
