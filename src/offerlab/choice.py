"""The offer and customer tables, the id join and the logit shared by the
simulator, estimator, and optimizer.

An offer's design row holds three attributes: a constant, the contract
length in years and the discount fraction.  A customer's taste is a
coefficient vector of the same dimension, held as one row of a
``(customers, 3)`` array.  ``Offers`` is the one table of offers: column
arrays of customer ids, occasions, the ``(n, 3)`` design ``X`` and the
labels.  ``Customers`` is the one table of customers: ids, loyalty and the
centered covariates.  Each is built only where its rows come into being
(``simulate`` and ``datasets.read_offer_csv`` / ``read_customers_csv``)
and checked there by its ``validate``; every other stage reads columns,
and ``join`` finds the row of each customer id in a key column.
Acceptance follows a binary logit in which the no-purchase alternative's
utility is normalized to exactly zero, so ``logistic`` of the utility is
the single acceptance probability: the simulator, prediction and the
sampler's pooled start call it on arrays of utilities.  The sampler's
likelihood pass forms log(1 + e^u) directly, and the profit objective
forms 1 / (1 + e^(-u)) in place.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DataIntegrityError, InvalidInputError

# the values of an offer's label
ACCEPTED = 1
REJECTED = 0
UNLABELED = -1
OUTCOMES = {ACCEPTED: "accepted", REJECTED: "rejected", UNLABELED: "unlabeled"}

CONTRACT_YEAR_VALUES = (0, 1, 2, 3, 4, 5)
DISCOUNT_MIN = -0.5
DISCOUNT_MAX = 0.5

# the design columns, as the offer CSV names them
DESIGN_NAMES = ("X1", "contract_length_years", "offer_discount")

# exp() overflows just above 709; clamping keeps the logistic finite while
# changing no probability by a visible amount.
UTILITY_CLAMP = 700.0


class _Table:
    """Frozen columns of one length; ``==`` compares every column exactly."""

    _DTYPES: dict = {}  # column -> dtype; the others are float

    def __post_init__(self):
        """Hold every column as an array of its dtype.  A value of an
        integer column that is not a whole number (1.5, a bool) or does not
        fit its dtype is an ``InvalidInputError`` naming the column and the
        value, where a cast would truncate or wrap it."""
        for f in fields(self):
            values = getattr(self, f.name)
            dtype = np.dtype(self._DTYPES.get(f.name, float))
            if dtype.kind == "i":
                ids = as_ids(values, f.name)
                values = ids.astype(dtype, copy=False)
                if not np.array_equal(values, ids):
                    value = ids[values != ids][0]
                    raise InvalidInputError(f"{f.name} {value} does not fit in {dtype}")
            object.__setattr__(self, f.name, np.asarray(values, dtype=dtype))

    def __len__(self) -> int:
        return len(self.customer_id)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    def take(self, rows):
        """The rows ``rows`` (indices or a mask), in that order."""
        return type(self)(*(getattr(self, f.name)[rows] for f in fields(self)))

    def _refuse(self, where, checks, key, key_columns):
        """Return the table, or raise a ``DataIntegrityError`` naming
        ``where``: for a column of unequal length; for the first row that
        fails a check ``(column, values, bad mask, rule)`` of ``checks``,
        with the column, the row's key ``key(i)`` and its value; or for the
        first row whose ``key_columns`` repeat an earlier row's."""
        if any(getattr(self, f.name).shape[:1] != (len(self),) for f in fields(self)):
            raise DataIntegrityError(f"{where}: columns of unequal shape")
        for column, values, bad, rule in checks:
            if bad.any():
                i = int(np.argmax(bad))
                value = values[i].item()
                raise DataIntegrityError(f"{where}: {column} = {value!r} at {key(i)} {rule}")
        i = first_repeat(*key_columns)
        if i >= 0:
            raise DataIntegrityError(f"{where} repeats {key(i)}")
        return self


@dataclass(frozen=True, eq=False)
class Offers(_Table):
    """Offers made to customers, one row per (customer_id, occasion).

    ``X`` is the ``(n, 3)`` design: intercept, contract length in whole
    years 0..5 and discount in [-0.5, 0.5].  ``label`` is ``ACCEPTED``,
    ``REJECTED`` or ``UNLABELED``.
    """

    customer_id: np.ndarray
    occasion: np.ndarray
    X: np.ndarray
    label: np.ndarray

    _DTYPES = {"customer_id": np.int64, "occasion": np.int64, "label": np.int8}

    def labels(self) -> np.ndarray:
        """The 0/1 labels; an unlabeled row is an ``InvalidInputError``."""
        unlabeled = self.label == UNLABELED
        if unlabeled.any():
            i = int(np.argmax(unlabeled))
            raise InvalidInputError(
                f"offer ({self.customer_id[i]}, {self.occasion[i]}) is unlabeled"
            )
        return self.label

    def validate(self, where) -> "Offers":
        """Refuse, as a ``DataIntegrityError`` naming ``where``, the column,
        the first offending (customer_id, occasion) and its value: a key
        below 1, a repeated key, an intercept other than 1, a contract
        length that is not a whole year in 0..5, a discount outside
        [-0.5, 0.5] (non-finite values fail these too) or an unknown label."""
        x1, years, discount = self.X.T
        in_range = (discount >= DISCOUNT_MIN) & (discount <= DISCOUNT_MAX)
        checks = (
            ("customer_id", self.customer_id, self.customer_id < 1, "must be >= 1"),
            ("occasion", self.occasion, self.occasion < 1, "must be >= 1"),
            (DESIGN_NAMES[0], x1, x1 != 1.0, "must be 1"),
            (DESIGN_NAMES[1], years, ~np.isin(years, CONTRACT_YEAR_VALUES),
             "must be a whole year in 0..5"),
            (DESIGN_NAMES[2], discount, ~in_range, f"must lie in [{DISCOUNT_MIN}, {DISCOUNT_MAX}]"),
            ("label", self.label, ~np.isin(self.label, list(OUTCOMES)),
             f"must be one of {list(OUTCOMES)}"),
        )

        def key(i):
            return f"(customer_id, occasion) = ({self.customer_id[i]}, {self.occasion[i]})"

        return self._refuse(where, checks, key, (self.customer_id, self.occasion))


@dataclass(frozen=True, eq=False)
class Customers(_Table):
    """Customers, one row per id: ``loyalty`` in [0, 1] and the
    mean-centered covariates ``loyalty_centered`` and
    ``demographic_centered`` that shift the population means."""

    customer_id: np.ndarray
    loyalty: np.ndarray
    loyalty_centered: np.ndarray
    demographic_centered: np.ndarray

    _DTYPES = {"customer_id": np.int64}

    def covariates(self, include_demographic: bool):
        """``(customer_id, Z)``: each customer's covariate row, the centered
        loyalty and, if ``include_demographic``, the centered demographic."""
        columns = [self.loyalty_centered] + [self.demographic_centered] * include_demographic
        return self.customer_id, np.column_stack(columns)

    def validate(self, where) -> "Customers":
        """Refuse, as a ``DataIntegrityError`` naming ``where``, the column,
        the first offending id and its value: an id below 1, a repeated id,
        a loyalty outside [0, 1] or a non-finite centered covariate."""
        checks = [
            ("id", self.customer_id, self.customer_id < 1, "must be >= 1"),
            ("loyalty", self.loyalty, ~((self.loyalty >= 0) & (self.loyalty <= 1)),
             "must lie in [0, 1]"),
        ] + [
            (name, getattr(self, name), ~np.isfinite(getattr(self, name)), "must be finite")
            for name in ("loyalty_centered", "demographic_centered")
        ]

        def key(i):
            return f"id = {self.customer_id[i]}"

        return self._refuse(where, checks, key, (self.customer_id,))


def key_runs(*columns):
    """``(order, first)``: the row indices sorted by the key ``columns``
    (first column first), ties in input order, and for each sorted row
    whether it is the first of its key."""
    order = np.lexsort(columns[::-1])
    first = np.ones(len(order), dtype=bool)
    for column in columns:
        sorted_column = np.asarray(column)[order]
        first[1:] &= sorted_column[1:] == sorted_column[:-1]
    first[1:] = ~first[1:]
    return order, first


def first_repeat(*columns) -> int:
    """The first row whose key ``columns`` repeat an earlier row's, or -1."""
    order, first = key_runs(*columns)
    repeated = np.zeros(len(order), dtype=bool)
    repeated[order] = ~first
    return int(np.argmax(repeated)) if repeated.any() else -1


def as_ids(values, name: str = "id") -> np.ndarray:
    """``values`` as an int64 array.  Each value is judged as given, a list
    by its items, where ``np.asarray`` reads ``[2, True]`` as ids 2 and 1.
    An id is an int in 64 bits, or a whole float below 2**53 in magnitude, as
    a larger double may be a neighbouring id, rounded; any other value (1.9,
    nan, 2**63, a bool, a text) is an ``InvalidInputError`` naming ``name``
    and the first such value, where a cast would truncate 1.9 to id 1."""
    given = isinstance(values, (list, tuple))
    types = set(map(type, values)) if given else ()
    if not any(t is bool or not issubclass(t, (int, np.integer)) for t in types):
        array = np.asarray(values)
        if array.dtype.kind == "i":
            return array.astype(np.int64, copy=False)
    items = np.fromiter(values, object, len(values)) if given else np.asarray(values, dtype=object)
    for value in items.reshape(-1).tolist():
        value = value.item() if isinstance(value, np.generic) else value
        if not (type(value) is int and -(2**63) <= value < 2**63
                or type(value) is float and value.is_integer() and abs(value) < 2**53):
            raise InvalidInputError(f"{name} {value!r} is not a 64-bit integer")
    return items.astype(np.int64)


def join(keys, ids, unknown=None) -> np.ndarray:
    """The row of each of ``ids`` in the key column ``keys``; ``keys`` may
    also be a tuple of key columns, and ``ids`` then the tuple of the same
    columns of the ids, each key being one tuple of values.

    Keys and ids, checked by ``as_ids``, are numbered together by one
    ``key_runs`` sort.  An id absent from ``keys`` gets row -1, or, if
    ``unknown`` is given, raises ``unknown(id)`` for the first such id.  A
    key repeated in ``keys`` is a ``DataIntegrityError``.
    """
    key_columns, id_columns = (keys, ids) if isinstance(keys, tuple) else ((keys,), (ids,))
    n = len(key_columns[0])
    order, first = key_runs(*(
        np.concatenate([as_ids(k), as_ids(i)])
        for k, i in zip(key_columns, id_columns)
    ))
    number = np.empty(len(order), dtype=np.intp)
    number[order] = np.cumsum(first) - 1
    repeated = np.bincount(number[:n], minlength=len(order)) > 1
    if repeated.any():
        key = _row(keys, np.argmax(number == np.argmax(repeated)))
        raise DataIntegrityError(f"key {key} is repeated")
    row_of = np.full(len(order), -1, dtype=np.intp)
    row_of[number[:n]] = np.arange(n)
    rows = row_of[number[n:]]
    if unknown is not None and (rows < 0).any():
        raise unknown(_row(ids, np.argmax(rows < 0)))
    return rows


def _row(columns, i):
    """Row ``i`` of a key column, or the tuple of row ``i`` of each column."""
    if isinstance(columns, tuple):
        return tuple(_row(column, i) for column in columns)
    return np.asarray(columns)[i].item()


def logistic(u):
    """Probability that an offer of utility ``u`` beats the zero-utility
    no-purchase option: elementwise 1 / (1 + e^-u) with overflow clamping."""
    u = np.clip(u, -UTILITY_CLAMP, UTILITY_CLAMP)
    return 1.0 / (1.0 + np.exp(-u))
