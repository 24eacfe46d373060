"""Dataset persistence, retail ingestion, and train/validation splitting.

Every dataset file goes through ``storage.write_csv_atomic`` and
``storage.read_csv``, which define the CSV format.  ``read_offer_csv``
returns the offer table (``choice.Offers``) checked by ``Offers.validate``,
and ``read_customers_csv`` the customer table (``choice.Customers``)
checked by ``Customers.validate``, so a recorded row outside the model's
domain is refused by file, column and key.  The offer CSV holds only keys,
design and outcome; a customer's loyalty and covariates live in the
customer CSV alone.  ``ingest_retail_csv`` returns retail purchases as
the ``RetailChoices`` table, one row per occasion x product.  The splits
work on (customer_id, occasion) key arrays and return row indices, for
offer tables and retail choices alike.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from datetime import datetime
from pathlib import Path

import numpy as np

from .choice import (
    ACCEPTED,
    DESIGN_COLUMNS,
    REJECTED,
    UNLABELED,
    Customers,
    Offers,
    _Table,
    key_runs,
)
from .errors import (
    ConfigurationError,
    DataIntegrityError,
    EmptySelectionError,
    InvalidInputError,
    MissingArtifactError,
    ParseError,
)
from .storage import read_csv, write_csv_atomic

OFFER_COLUMNS = ("id", "setnum", *DESIGN_COLUMNS, "outcome")
CUSTOMER_COLUMNS = ("id", "loyalty", "loyalty_centered", "demographic_centered", "mrp")
TRUTH_COLUMNS = ("id", "k", "beta_contract", "beta_discount")
SCORE_COLUMNS = ("customer_id", "occasion", "alternative", "score")
MULTINOMIAL_COLUMNS = ("customer_id", "occasion", "product_id", "chosen")

# the key columns of an offer or a score row, as named in error messages
OCCASION_KEY = "(customer_id, occasion)"

_LABEL_TO_CELL = {ACCEPTED: "1", REJECTED: "0", UNLABELED: ""}
_CELL_TO_LABEL = {"1": ACCEPTED, "0": REJECTED, "": UNLABELED}


def write_offer_csv(path, offers: Offers) -> None:
    labels = [_LABEL_TO_CELL[label] for label in offers.label.tolist()]
    rows = zip(offers.customer_id.tolist(), offers.occasion.tolist(), *offers.X.T.tolist(), labels)
    write_csv_atomic(path, OFFER_COLUMNS, rows)


def _parse_offer(row):
    return (
        int(row[0]), int(row[1]), float(row[2]), float(row[3]), float(row[4]),
        _CELL_TO_LABEL[row[5]],
    )


def read_offer_csv(path) -> Offers:
    """The offer table of ``path``, in file order, checked by
    ``Offers.validate``: a row outside the model's domain or a repeated
    (customer_id, occasion) is a ``DataIntegrityError`` naming the file."""
    rows = read_csv(path, OFFER_COLUMNS, _parse_offer)
    customer_id, occasion, x1, years, discount, label = zip(*rows) if rows else [()] * 6
    try:
        offers = Offers(customer_id, occasion, np.column_stack([x1, years, discount]), label)
    except OverflowError:
        raise DataIntegrityError(f"{path}: a customer_id or occasion exceeds 64 bits") from None
    return offers.validate(path)


def write_customers_csv(path, customers: Customers, mrp: dict | None = None) -> None:
    """One row per customer, in table order; ``mrp`` maps an id to its
    monthly recurring price, left blank for the others."""
    mrp = mrp or {}
    columns = [getattr(customers, f.name).tolist() for f in fields(customers)]
    rows = zip(*columns, (mrp.get(cid, "") for cid in columns[0]))
    write_csv_atomic(path, CUSTOMER_COLUMNS, rows)


def _parse_customer(row):
    mrp = float(row[4]) if row[4] != "" else None
    return int(row[0]), float(row[1]), float(row[2]), float(row[3]), mrp


def read_customers_csv(path):
    """``(customers, mrp)``: the customer table of ``path`` in file order,
    checked by ``Customers.validate``, and the monthly recurring price of
    each id whose row carries one."""
    rows = read_csv(path, CUSTOMER_COLUMNS, _parse_customer)
    *columns, mrp = zip(*rows) if rows else [()] * 5
    try:
        customers = Customers(*columns)
    except OverflowError:
        raise DataIntegrityError(f"{path}: an id exceeds 64 bits") from None
    customers.validate(path)
    return customers, {cid: m for cid, m in zip(columns[0], mrp) if m is not None}


def write_truth_csv(path, coefficients: np.ndarray) -> None:
    """One row per customer; row ``i`` of ``coefficients`` is customer ``i + 1``."""
    write_csv_atomic(path, TRUTH_COLUMNS, ((i + 1, *b) for i, b in enumerate(coefficients)))


def write_scores_csv(path, rows) -> None:
    """rows: iterable of (customer_id, occasion, alternative, score)."""
    write_csv_atomic(path, SCORE_COLUMNS, rows)


def read_scores_csv(path):
    """Return [(customer_id, occasion, alternative, score)] in file order."""
    return read_csv(
        path, SCORE_COLUMNS, lambda row: (int(row[0]), int(row[1]), int(row[2]), float(row[3]))
    )


# ---------------------------------------------------------------------------
# Train / validation splitting (the resampling unit is the occasion)
# ---------------------------------------------------------------------------

PER_CUSTOMER_HOLDOUT = "per-customer-random-occasion"
KFOLD_BY_OCCASION = "k-fold-by-occasion"


@dataclass(frozen=True)
class ResamplingScheme:
    kind: str = KFOLD_BY_OCCASION
    folds: int = 10
    repeats: int = 1

    def validate(self) -> "ResamplingScheme":
        if self.kind not in (PER_CUSTOMER_HOLDOUT, KFOLD_BY_OCCASION):
            raise ConfigurationError(f"unknown resampling kind {self.kind!r}")
        if self.kind == KFOLD_BY_OCCASION and self.folds < 2:
            raise ConfigurationError("k-fold resampling needs folds >= 2")
        if self.repeats < 1:
            raise ConfigurationError("repeats must be >= 1")
        return self


def split_per_customer_holdout(customer_id, occasion, seed: int):
    """Row indices (train, validation) that move one uniformly random
    non-first occasion per customer to validation; single-occasion
    customers stay entirely in training.  Each side lists its rows in
    ascending (customer_id, occasion) order, ties in input order."""
    order, first = key_runs(customer_id, occasion)
    rng = np.random.default_rng(np.random.SeedSequence(seed & 0xFFFFFFFFFFFFFFFF))
    held_out = np.zeros(int(first.sum()), dtype=bool)  # one entry per occasion
    _, starts, counts = np.unique(
        np.asarray(customer_id)[order][first], return_index=True, return_counts=True
    )
    for start, n_occasions in zip(starts.tolist(), counts.tolist()):
        if n_occasions >= 2:  # never the first occasion
            held_out[start + 1 + int(rng.integers(n_occasions - 1))] = True
    validation = held_out[np.cumsum(first) - 1]
    return order[~validation], order[validation]


def split_kfold_by_occasion(customer_id, occasion, k: int, seed: int):
    """Partition occasions into k folds; returns k (train, validation) pairs
    of row indices, each side in ascending (customer_id, occasion) order,
    ties in input order."""
    order, first = key_runs(customer_id, occasion)
    n_occasions = int(first.sum())
    if k > n_occasions:
        raise InvalidInputError(f"cannot make {k} folds from {n_occasions} occasions")
    fold_of = np.empty(n_occasions, dtype=int)
    rng = np.random.default_rng(np.random.SeedSequence(seed & 0xFFFFFFFFFFFFFFFF))
    fold_of[rng.permutation(n_occasions)] = np.arange(n_occasions) % k
    row_fold = fold_of[np.cumsum(first) - 1]
    return [(order[row_fold != fold], order[row_fold == fold]) for fold in range(k)]


# ---------------------------------------------------------------------------
# E-commerce (multinomial) ingestion
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RetailChoices(_Table):
    """Retail purchase occasions, one row per (occasion, product): every
    product in the line is an alternative of every occasion, ``chosen`` 1
    if the occasion bought it, else 0.  The columns are those of the
    multinomial CSV, rows ordered by customer, occasion and product."""

    customer_id: np.ndarray
    occasion: np.ndarray
    product_id: np.ndarray
    chosen: np.ndarray

    _DTYPES = {"customer_id": np.int64, "occasion": np.int64, "product_id": str, "chosen": np.int8}


_RETAIL_ALIASES = {
    "invoice": ("Invoice", "InvoiceNo"),
    "stock": ("StockCode",),
    "description": ("Description",),
    "quantity": ("Quantity",),
    "date": ("InvoiceDate",),
    "customer": ("Customer ID", "CustomerID"),
}

_DATE_FORMATS = ("%d/%m/%Y %H:%M", "%m/%d/%Y %H:%M", "%Y-%m-%d %H:%M:%S", "%Y-%m-%d %H:%M")


def _parse_invoice_date(text: str):
    for fmt_ in _DATE_FORMATS:
        try:
            return datetime.strptime(text.strip(), fmt_)
        except ValueError:
            continue
    return None


def ingest_retail_csv(path, product_filter=None, n_products: int = 18) -> RetailChoices:
    """Restructure transaction data into a table of per-occasion choices.

    Every invoice containing at least one product from the filtered line
    becomes one occasion with a row per product in the line; one extra
    all-no-purchase occasion is appended per customer.  When no explicit
    ``product_filter`` (set of stock codes) is given, the filter defaults
    to the ``n_products`` highest-volume codes whose description contains
    "CUP".
    """
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(str(path))
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file")
        cols = {}
        for field_name, aliases in _RETAIL_ALIASES.items():
            for alias in aliases:
                if alias in header:
                    cols[field_name] = header.index(alias)
                    break
            else:
                raise ParseError(f"{path}: missing column {aliases[0]!r}")

        purchases = []  # (customer, invoice, date, stock)
        volume = {}
        description = {}
        for lineno, row in enumerate(reader, start=2):
            if len(row) <= max(cols.values()):
                raise ParseError(f"{path}: line {lineno}: too few fields")
            customer_cell = row[cols["customer"]].strip()
            if not customer_cell:
                continue
            invoice = row[cols["invoice"]].strip()
            if invoice.startswith(("C", "c")):
                continue  # cancellation
            try:
                customer = int(float(customer_cell))
                quantity = int(float(row[cols["quantity"]]))
            except (ValueError, OverflowError) as exc:  # OverflowError: "inf"
                raise ParseError(f"{path}: line {lineno}: {exc}")
            if not -(2**63) <= customer < 2**63:
                raise ParseError(f"{path}: line {lineno}: customer id {customer} exceeds 64 bits")
            if quantity <= 0:
                continue
            stock = row[cols["stock"]].strip()
            desc = row[cols["description"]].strip()
            date = _parse_invoice_date(row[cols["date"]])
            purchases.append((customer, invoice, date, stock))
            volume[stock] = volume.get(stock, 0) + quantity
            if desc:
                description[stock] = desc

    if product_filter is None:
        cups = [s for s, d in description.items() if "CUP" in d.upper()]
        cups.sort(key=lambda s: (-volume.get(s, 0), s))
        product_filter = set(cups[:n_products])
    else:
        product_filter = set(product_filter)
        if not product_filter:
            raise InvalidInputError("product filter must be non-empty")

    line_purchases = [p for p in purchases if p[3] in product_filter]
    if not line_purchases:
        raise EmptySelectionError("product filter matched no transactions")

    products = sorted(product_filter)
    # occasions: invoices that include >= 1 product from the line
    by_customer = {}
    for customer, invoice, date, stock in line_purchases:
        by_customer.setdefault(customer, {}).setdefault(invoice, {"date": date, "chosen": set()})
        entry = by_customer[customer][invoice]
        entry["chosen"].add(stock)
        if entry["date"] is None or (date is not None and date < entry["date"]):
            entry["date"] = date

    keys, chosen = [], []  # one (customer, occasion) per occasion; one flag per row
    for customer in sorted(by_customer):
        invoices = by_customer[customer]
        ordered = sorted(
            invoices, key=lambda inv: (invoices[inv]["date"] or datetime.max, inv)
        )
        for occ, invoice in enumerate(ordered, start=1):
            keys.append((customer, occ))
            chosen += [p in invoices[invoice]["chosen"] for p in products]
        # augmentation: one all-no-purchase occasion per customer
        keys.append((customer, len(ordered) + 1))
        chosen += [False] * len(products)
    customer_id, occasion = np.repeat(keys, len(products), axis=0).T
    return RetailChoices(customer_id, occasion, np.tile(products, len(keys)), chosen)


def write_multinomial_csv(path, choices: RetailChoices) -> None:
    columns = (getattr(choices, name).tolist() for name in MULTINOMIAL_COLUMNS)
    write_csv_atomic(path, MULTINOMIAL_COLUMNS, zip(*columns))


def multinomial_to_panel(choices: RetailChoices):
    """Dummy-code retail choices into estimation arrays.

    Each (occasion, product) row becomes a binary outcome whose only active
    feature is its product's alternative-specific intercept, products in
    sorted order.  Returns (X, y, row_customer, customer_ids, Z) as
    ``hb.build_panel`` does, with ``Z`` None: retail rows carry no
    covariates.
    """
    products, column = np.unique(choices.product_id, return_inverse=True)
    customer_ids, row_customer = np.unique(choices.customer_id, return_inverse=True)
    X = np.eye(len(products))[column]
    return X, choices.chosen.astype(float), row_customer, customer_ids.tolist(), None
