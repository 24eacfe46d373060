"""Dataset persistence, retail ingestion, and train/validation splitting.

Every dataset file is declared once, as a schema of named ``storage``
cells (``OFFER_CSV``, ``CUSTOMER_CSV``, ``TRUTH_CSV``, ``SCORE_CSV``),
and written and read by columns through
``storage.write_csv_atomic`` and ``storage.read_csv``.  ``read_offer_csv``
returns the offer table (``choice.Offers``) checked by ``Offers.validate``,
and ``read_customers_csv`` the customer table (``choice.Customers``)
checked by ``Customers.validate``, so a recorded row outside the model's
domain is refused by file, column and key.  The offer CSV holds only keys,
design and outcome; a customer's loyalty and covariates live in the
customer CSV alone.  ``ingest_retail_csv`` returns retail purchases as
the in-memory ``RetailChoices`` table, one row per occasion x product,
which ``multinomial_to_panel`` turns into estimation arrays.  The splits
work on (customer_id, occasion) key arrays and return row indices, for
offer tables and retail choices alike.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from datetime import datetime
from functools import cache
from pathlib import Path

import numpy as np

from .choice import (
    ACCEPTED,
    DESIGN_NAMES,
    REJECTED,
    UNLABELED,
    Customers,
    Offers,
    _Table,
    as_ids,
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
from .storage import FLOAT, INT, Cell, enum_cell, read_csv, seeded_rng, write_csv_atomic

# the outcome cell of an offer row: 1, 0, or blank for unlabeled
OUTCOME = enum_cell("outcome", {ACCEPTED: "1", REJECTED: "0", UNLABELED: ""})
# a customer's monthly recurring price, or a blank cell for none
MRP = Cell(lambda c: float(c) if c else None, lambda p: "" if p is None else FLOAT.write(p))

OFFER_CSV = {"id": INT, "setnum": INT, **dict.fromkeys(DESIGN_NAMES, FLOAT), "outcome": OUTCOME}
CUSTOMER_CSV = {
    "id": INT, "loyalty": FLOAT, "loyalty_centered": FLOAT, "demographic_centered": FLOAT,
    "mrp": MRP,
}
TRUTH_CSV = {"id": INT, "k": FLOAT, "beta_contract": FLOAT, "beta_discount": FLOAT}
SCORE_CSV = {"customer_id": INT, "occasion": INT, "alternative": INT, "score": FLOAT}

# the key columns of an offer or a score row, as named in error messages
OCCASION_KEY = "(customer_id, occasion)"


def _record_lines(path) -> list:
    """The line on which each row of the CSV ``path`` ends, the header's
    left out."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        return [reader.line_num for _ in reader][1:]


def _refused(path, lines, columns: dict, error=ParseError):
    """``error`` naming the line and the refusal of the first cell that
    ``choice.as_ids`` refuses in ``columns`` (name: cells, one per line of
    ``lines``), by row and then by column.  A cell may hold the
    ``ValueError`` of a text that is not a number."""
    for lineno, *cells in zip(lines, *columns.values()):
        for name, value in zip(columns, cells):
            try:
                if isinstance(value, ValueError):
                    raise value
                as_ids(value, name)
            except ValueError as exc:
                return error(f"{path}: line {lineno}: {exc}")


def write_offer_csv(path, offers: Offers) -> None:
    columns = [offers.customer_id, offers.occasion, *offers.X.T, offers.label]
    write_csv_atomic(path, OFFER_CSV, columns)


def read_offer_csv(path) -> Offers:
    """The offer table of ``path``, in file order, checked by
    ``Offers.validate``: a row outside the model's domain or a repeated
    (customer_id, occasion) is a ``DataIntegrityError`` naming the file."""
    customer_id, occasion, *design, label = read_csv(path, OFFER_CSV)
    try:
        offers = Offers(customer_id, occasion, np.column_stack(design), label)
    except InvalidInputError:  # the INT cells hold whole numbers, so one is too large
        keys = {"customer_id": customer_id, "occasion": occasion}
        raise _refused(path, _record_lines(path), keys, DataIntegrityError) from None
    return offers.validate(path)


def write_customers_csv(path, customers: Customers) -> None:
    """One row per customer, in table order, its mrp cell blank."""
    columns = [getattr(customers, f.name) for f in fields(customers)]
    write_csv_atomic(path, CUSTOMER_CSV, [*columns, [None] * len(customers)])


def read_customers_csv(path):
    """``(customers, mrp)``: the customer table of ``path`` in file order,
    checked by ``Customers.validate``, and the monthly recurring price of
    each id whose row carries one; a price that is not finite and > 0 is a
    ``DataIntegrityError`` naming the file, the id and the value."""
    *columns, mrp = read_csv(path, CUSTOMER_CSV)
    try:
        customers = Customers(*columns)
    except InvalidInputError:  # the INT cells hold whole numbers, so one is too large
        raise _refused(path, _record_lines(path), {"id": columns[0]}, DataIntegrityError) from None
    customers.validate(path)
    mrp = {cid: m for cid, m in zip(columns[0], mrp) if m is not None}
    for cid, m in mrp.items():
        if not 0 < m < math.inf:
            raise DataIntegrityError(f"{path}: mrp = {m!r} at id = {cid} must be finite and > 0")
    return customers, mrp


def write_truth_csv(path, coefficients: np.ndarray) -> None:
    """One row per customer; row ``i`` of ``coefficients`` is customer ``i + 1``."""
    write_csv_atomic(path, TRUTH_CSV, [range(1, len(coefficients) + 1), *coefficients.T])


def write_scores_csv(path, columns) -> None:
    """columns: (customer_id, occasion, alternative, score), one sequence each."""
    write_csv_atomic(path, SCORE_CSV, columns)


def read_scores_csv(path):
    """The columns (customer_id, occasion, alternative, score) of ``path``."""
    return read_csv(path, SCORE_CSV)


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

    def __post_init__(self):
        if self.kind not in (PER_CUSTOMER_HOLDOUT, KFOLD_BY_OCCASION):
            raise ConfigurationError(f"unknown resampling kind {self.kind!r}")
        if self.kind == KFOLD_BY_OCCASION and self.folds < 2:
            raise ConfigurationError("k-fold resampling needs folds >= 2")
        if self.repeats < 1:
            raise ConfigurationError("repeats must be >= 1")


def split_per_customer_holdout(customer_id, occasion, seed: int):
    """Row indices (train, validation) that move one uniformly random
    non-first occasion per customer to validation; single-occasion
    customers stay entirely in training.  Each side lists its rows in
    ascending (customer_id, occasion) order, ties in input order."""
    order, first = key_runs(customer_id, occasion)
    rng = seeded_rng(seed)
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
    rng = seeded_rng(seed)
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
    if the occasion bought it, else 0.  Rows are ordered by customer,
    occasion and product; the table lives in memory only, as the input of
    ``multinomial_to_panel``."""

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

RETAIL_PRODUCTS = 18  # the default product line: this many top-volume "CUP" codes

_DATE_FORMATS = ("%d/%m/%Y %H:%M", "%m/%d/%Y %H:%M", "%Y-%m-%d %H:%M:%S", "%Y-%m-%d %H:%M")


def _parse_invoice_date(text: str):
    for fmt_ in _DATE_FORMATS:
        try:
            return datetime.strptime(text.strip(), fmt_)
        except ValueError:
            continue
    return None


def _number(cell: str):
    """A retail cell as an int literal, or else a float; a cell that is
    neither is kept as its ``ValueError``, which ``as_ids`` refuses."""
    try:
        return int(cell) if cell.strip().lstrip("+-").isdigit() else float(cell)
    except ValueError as exc:
        return exc


def ingest_retail_csv(path, product_filter=None) -> RetailChoices:
    """Restructure transaction data into a table of per-occasion choices.

    Every invoice containing at least one product from the filtered line
    becomes one occasion with a row per product in the line; one extra
    all-no-purchase occasion is appended per customer.  When no explicit
    ``product_filter`` (set of stock codes) is given, the filter defaults
    to the ``RETAIL_PRODUCTS`` highest-volume codes whose description
    contains "CUP".
    """
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(str(path))
    rows = []  # (line, customer, quantity, invoice, date, stock, description)
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file")
        cols = {}
        for field_name, aliases in _RETAIL_ALIASES.items():
            present = [header.index(alias) for alias in aliases if alias in header]
            if not present:
                raise ParseError(f"{path}: missing column {aliases[0]!r}")
            cols[field_name] = present[0]

        last = max(cols.values())
        for lineno, row in enumerate(reader, start=2):
            if len(row) <= last:  # refused as a cell is, after the rows before it
                rows.append((lineno, ValueError("too few fields"), *[None] * 5))
                break
            customer_cell = row[cols["customer"]].strip()
            invoice = row[cols["invoice"]].strip()
            if customer_cell and not invoice.startswith(("C", "c")):  # C: a cancellation
                rows.append((lineno, _number(customer_cell), _number(row[cols["quantity"]]),
                             invoice, row[cols["date"]], row[cols["stock"]].strip(),
                             row[cols["description"]].strip()))
    lines, customers, quantities, *rest = zip(*rows) if rows else [()] * 7
    try:
        customers, quantities = as_ids(customers, "customer id"), as_ids(quantities, "quantity")
    except InvalidInputError:  # each row is judged again, to name the line
        raise _refused(path, lines, {"customer id": customers, "quantity": quantities}) from None

    parse_date = cache(_parse_invoice_date)  # once per distinct InvoiceDate text
    purchases = []  # (customer, invoice, date, stock)
    volume, description = {}, {}  # per stock code: total quantity, last description
    for customer, quantity, invoice, date, stock, desc in zip(
        customers.tolist(), quantities.tolist(), *rest
    ):
        if quantity <= 0:
            continue
        purchases.append((customer, invoice, parse_date(date), stock))
        volume[stock] = volume.get(stock, 0) + quantity
        if desc:
            description[stock] = desc

    if product_filter is None:
        cups = [s for s, d in description.items() if "CUP" in d.upper()]
        cups.sort(key=lambda s: (-volume.get(s, 0), s))
        product_filter = set(cups[:RETAIL_PRODUCTS])
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
        ordered = sorted(invoices, key=lambda inv: (invoices[inv]["date"] or datetime.max, inv))
        for occ, invoice in enumerate(ordered, start=1):
            keys.append((customer, occ))
            chosen += [int(p in invoices[invoice]["chosen"]) for p in products]
        # augmentation: one all-no-purchase occasion per customer
        keys.append((customer, len(ordered) + 1))
        chosen += [0] * len(products)
    customer_id, occasion = np.repeat(keys, len(products), axis=0).T
    return RetailChoices(customer_id, occasion, np.tile(products, len(keys)), chosen)


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
