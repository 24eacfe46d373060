"""The offer table and the logit shared by the simulator, estimator, and
optimizer.

An offer's design row holds three attributes: a constant, the contract
length in years and the discount fraction.  A customer's taste is a
coefficient vector of the same dimension, held as one row of a
``(customers, 3)`` array.  ``Offers`` is the one table of offers: column
arrays of customer ids, occasions, the ``(n, 3)`` design ``X`` and the
labels.  It is built only where offers come into being
(``simulate.generate_offers`` and ``datasets.read_offer_csv``) and checked
there by ``Offers.validate``; every other stage reads its columns.
Acceptance follows a binary logit in which the no-purchase alternative's
utility is normalized to exactly zero, so ``logistic`` of the utility is
the single acceptance probability: the simulator, the sampler, prediction
and the profit objective all call it on arrays of utilities.
"""

from __future__ import annotations

import math
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
DESIGN_COLUMNS = ("X1", "contract_length_years", "offer_discount")

# exp() overflows just above 709; clamping keeps the logistic finite while
# changing no probability by a visible amount.
UTILITY_CLAMP = 700.0


@dataclass(frozen=True)
class Offers:
    """Offers made to customers, one row per (customer_id, occasion).

    ``X`` is the ``(n, 3)`` design: intercept, contract length in whole
    years 0..5 and discount in [-0.5, 0.5].  ``label`` is ``ACCEPTED``,
    ``REJECTED`` or ``UNLABELED``.  ``==`` compares every column exactly.
    """

    customer_id: np.ndarray
    occasion: np.ndarray
    X: np.ndarray
    label: np.ndarray

    def __post_init__(self):
        for name, dtype in (("customer_id", np.int64), ("occasion", np.int64), ("label", np.int8)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        object.__setattr__(self, "X", np.asarray(self.X, dtype=float))

    def __len__(self) -> int:
        return len(self.label)

    def __eq__(self, other) -> bool:
        return isinstance(other, Offers) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    def take(self, rows) -> "Offers":
        """The rows ``rows`` (indices or a mask), in that order."""
        return Offers(*(getattr(self, f.name)[rows] for f in fields(self)))

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
        n = len(self)
        if self.customer_id.shape != (n,) or self.occasion.shape != (n,) or self.X.shape != (n, 3):
            raise DataIntegrityError(f"{where}: offer columns of unequal shape")
        x1, years, discount = self.X.T
        in_range = (discount >= DISCOUNT_MIN) & (discount <= DISCOUNT_MAX)
        checks = (
            ("customer_id", self.customer_id, self.customer_id < 1, "must be >= 1"),
            ("occasion", self.occasion, self.occasion < 1, "must be >= 1"),
            (DESIGN_COLUMNS[0], x1, x1 != 1.0, "must be 1"),
            (DESIGN_COLUMNS[1], years, ~np.isin(years, CONTRACT_YEAR_VALUES),
             "must be a whole year in 0..5"),
            (DESIGN_COLUMNS[2], discount, ~in_range, f"must lie in [{DISCOUNT_MIN}, {DISCOUNT_MAX}]"),
            ("label", self.label, ~np.isin(self.label, list(OUTCOMES)),
             f"must be one of {list(OUTCOMES)}"),
        )
        for column, values, bad, rule in checks:
            if bad.any():
                i = int(np.argmax(bad))
                raise DataIntegrityError(
                    f"{where}: {column} = {values[i].item()!r} at (customer_id, occasion) = "
                    f"({self.customer_id[i]}, {self.occasion[i]}) {rule}"
                )
        order, first = key_runs(self.customer_id, self.occasion)
        repeated = np.zeros(n, dtype=bool)
        repeated[order] = ~first
        if repeated.any():
            i = int(np.argmax(repeated))
            raise DataIntegrityError(
                f"{where} repeats (customer_id, occasion) = "
                f"({self.customer_id[i]}, {self.occasion[i]})"
            )
        return self


def key_runs(customer_id, occasion):
    """``(order, first)``: the row indices sorted by (customer_id, occasion),
    ties in input order, and for each sorted row whether it is the first of
    its key."""
    order = np.lexsort((occasion, customer_id))
    cid, occ = np.asarray(customer_id)[order], np.asarray(occasion)[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (cid[1:] != cid[:-1]) | (occ[1:] != occ[:-1])
    return order, first


@dataclass(frozen=True)
class CustomerProfile:
    """Customer-level context: loyalty score plus mean-centered covariates."""

    customer_id: int
    loyalty: float
    loyalty_centered: float
    demographic_centered: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.loyalty <= 1.0:
            raise InvalidInputError(f"loyalty must lie in [0, 1], got {self.loyalty!r}")
        for v in (self.loyalty_centered, self.demographic_centered):
            if not math.isfinite(v):
                raise InvalidInputError(f"covariate must be finite, got {v!r}")

    @property
    def covariates(self) -> np.ndarray:
        return np.array([self.loyalty_centered, self.demographic_centered])


def logistic(u):
    """Probability that an offer of utility ``u`` beats the zero-utility
    no-purchase option: elementwise 1 / (1 + e^-u) with overflow clamping."""
    u = np.clip(u, -UTILITY_CLAMP, UTILITY_CLAMP)
    return 1.0 / (1.0 + np.exp(-u))
