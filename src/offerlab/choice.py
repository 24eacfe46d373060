"""Random-utility primitives shared by the simulator, estimator, and optimizer.

An offer carries three observed attributes (a constant, contract length in
years, and a discount fraction); a customer's taste is a coefficient vector
of the same dimension, held as one row of a ``(customers, 3)`` array.
Acceptance follows a binary logit in which the no-purchase alternative's
utility is normalized to exactly zero, so ``logistic`` of the utility is
the single acceptance probability: the simulator, the sampler, prediction
and the profit objective all call it on arrays of utilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

ACCEPTED = "accepted"
REJECTED = "rejected"
UNLABELED = "unlabeled"
OUTCOMES = (ACCEPTED, REJECTED, UNLABELED)

CONTRACT_YEAR_VALUES = (0, 1, 2, 3, 4, 5)
DISCOUNT_MIN = -0.5
DISCOUNT_MAX = 0.5

# exp() overflows just above 709; clamping keeps the logistic finite while
# changing no probability by a visible amount.
UTILITY_CLAMP = 700.0


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise InvalidInputError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class OfferAttributes:
    """Observed attributes of a single offer.

    ``contract_length`` is expressed in years.  Recorded offer rows use
    whole years 0..5 (see :meth:`validate_observed`); evaluating the model
    at fractional years (a 1-month contract as 1/12) is allowed.
    """

    contract_length: float
    discount: float
    intercept: float = 1.0

    def __post_init__(self):
        _require_finite(
            "offer attribute", self.contract_length, self.discount, self.intercept
        )

    def validate_observed(self) -> "OfferAttributes":
        """Enforce the invariants of recorded (as opposed to probed) offers."""
        if self.intercept != 1.0:
            raise InvalidInputError(f"intercept must be 1, got {self.intercept!r}")
        if self.contract_length not in CONTRACT_YEAR_VALUES:
            raise InvalidInputError(
                f"contract_length must be a whole year in 0..5, got {self.contract_length!r}"
            )
        if not DISCOUNT_MIN <= self.discount <= DISCOUNT_MAX:
            raise InvalidInputError(
                f"discount must lie in [{DISCOUNT_MIN}, {DISCOUNT_MAX}], got {self.discount!r}"
            )
        return self

    def as_array(self) -> np.ndarray:
        return np.array([self.intercept, self.contract_length, self.discount])


@dataclass(frozen=True)
class OfferObservation:
    """One offer made to one customer on one occasion."""

    customer_id: int
    occasion: int
    attributes: OfferAttributes
    outcome: str = UNLABELED

    def __post_init__(self):
        if self.customer_id < 1:
            raise InvalidInputError(f"customer_id must be >= 1, got {self.customer_id}")
        if self.occasion < 1:
            raise InvalidInputError(f"occasion must be >= 1, got {self.occasion}")
        if self.outcome not in OUTCOMES:
            raise InvalidInputError(f"outcome must be one of {OUTCOMES}, got {self.outcome!r}")

    @property
    def label(self) -> int:
        """1 for accepted, 0 for rejected."""
        if self.outcome == ACCEPTED:
            return 1
        if self.outcome == REJECTED:
            return 0
        raise InvalidInputError(
            f"observation ({self.customer_id}, {self.occasion}) is unlabeled"
        )


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
        _require_finite(
            "covariate", self.loyalty_centered, self.demographic_centered
        )

    @property
    def covariates(self) -> np.ndarray:
        return np.array([self.loyalty_centered, self.demographic_centered])


def logistic(u):
    """Probability that an offer of utility ``u`` beats the zero-utility
    no-purchase option: elementwise 1 / (1 + e^-u) with overflow clamping."""
    u = np.clip(u, -UTILITY_CLAMP, UTILITY_CLAMP)
    return 1.0 / (1.0 + np.exp(-u))
