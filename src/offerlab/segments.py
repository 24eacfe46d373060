"""Discount-elasticity computation and loyalty x elasticity segmentation.

Each customer's elasticity is an arc elasticity between the acceptance
probability at the offered discount and at an extra ten points of
discount, with relative price defined as 1 + discount.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .choice import join
from .errors import DegenerateInputError, InvalidInputError
from .hb import DRAW_AVERAGED, PosteriorDraws, predict_panel_probabilities

INELASTIC_NOT_LOYAL = "inelastic-not-loyal"
INELASTIC_LOYAL = "inelastic-loyal"
ELASTIC_NOT_LOYAL = "elastic-not-loyal"
ELASTIC_LOYAL = "elastic-loyal"
SEGMENTS = (INELASTIC_NOT_LOYAL, INELASTIC_LOYAL, ELASTIC_NOT_LOYAL, ELASTIC_LOYAL)

# shifted discounts may leave the recorded attribute range, but only this far
DISCOUNT_SAFETY_BAND = (-0.6, 0.6)
DEFAULT_DISCOUNT_SHIFT = 0.10


@dataclass(frozen=True)
class SegmentAssignment:
    customer_id: int
    elasticity: float
    loyalty: float
    segment: str


def arc_elasticity(p0: float, p1: float, price0: float, price1: float) -> float:
    """Midpoint elasticity of probability with respect to price."""
    if price0 == price1:
        raise DegenerateInputError("price0 == price1: arc elasticity undefined")
    if p0 + p1 <= 0:
        raise DegenerateInputError("probabilities sum to zero: arc elasticity undefined")
    if price0 + price1 <= 0:
        raise DegenerateInputError("prices sum to zero: arc elasticity undefined")
    prob_change = (p1 - p0) / ((p0 + p1) / 2.0)
    price_change = (price1 - price0) / ((price0 + price1) / 2.0)
    return prob_change / price_change


def _elasticities(
    draws: PosteriorDraws,
    offers,
    delta: float = DEFAULT_DISCOUNT_SHIFT,
) -> list:
    """Arc elasticity of each offer's customer, from the offered discount to
    ``delta`` more discount.

    Probabilities are draw-averaged, from one batched prediction at the
    offered discounts and one at the shifted discounts; relative prices are
    1 + discount.
    """
    if draws.n_params != 3:
        raise InvalidInputError("elasticities require the 3-attribute offer model")
    X = offers.X.copy()
    discounts = offers.X[:, 2]
    shifted = discounts - delta
    lo, hi = DISCOUNT_SAFETY_BAND
    outside = ~((shifted >= lo) & (shifted <= hi))
    if outside.any():
        i = int(np.argmax(outside))
        raise InvalidInputError(
            f"customer {offers.customer_id[i]}: shifted discount {float(shifted[i])!r} "
            f"leaves the safety band [{lo}, {hi}]"
        )
    p0 = predict_panel_probabilities(draws, X, offers.customer_id, mode=DRAW_AVERAGED)
    X[:, 2] = shifted
    p1 = predict_panel_probabilities(draws, X, offers.customer_id, mode=DRAW_AVERAGED)
    return [
        arc_elasticity(a, b, 1.0 + d, 1.0 + s)
        for a, b, d, s in zip(p0.tolist(), p1.tolist(), discounts.tolist(), shifted.tolist())
    ]


def assign_segment(elasticity: float, loyalty: float) -> str:
    """Elasticity >= -1 is inelastic; loyalty > 0.5 is loyal."""
    if not math.isfinite(elasticity):
        raise InvalidInputError(f"elasticity must be finite, got {elasticity!r}")
    if not 0.0 <= loyalty <= 1.0:
        raise InvalidInputError(f"loyalty must lie in [0, 1], got {loyalty!r}")
    elastic_part = "inelastic" if elasticity >= -1.0 else "elastic"
    loyal_part = "loyal" if loyalty > 0.5 else "not-loyal"
    return f"{elastic_part}-{loyal_part}"


def assign_segments(
    draws: PosteriorDraws,
    test_offers,
    customers,
    delta: float = DEFAULT_DISCOUNT_SHIFT,
):
    """SegmentAssignment per customer, from each customer's test offer and
    its loyalty in the ``Customers`` table ``customers``."""
    offers = test_offers.take(np.argsort(test_offers.customer_id, kind="stable"))
    rows = join(
        customers.customer_id, offers.customer_id,
        lambda cid: InvalidInputError(f"customer {cid} is not in the customer table"),
    )
    ids, loyalty = offers.customer_id.tolist(), customers.loyalty[rows].tolist()
    return [
        SegmentAssignment(cid, elasticity, loyal, assign_segment(elasticity, loyal))
        for cid, elasticity, loyal in zip(ids, _elasticities(draws, offers, delta=delta), loyalty)
    ]


def segment_distribution(assignments) -> dict:
    """Percent of customers per segment; the four shares sum to 100."""
    assignments = list(assignments)
    if not assignments:
        raise InvalidInputError("no assignments to summarize")
    counts = {segment: 0 for segment in SEGMENTS}
    for a in assignments:
        counts[a.segment] += 1
    n = len(assignments)
    return {segment: 100.0 * counts[segment] / n for segment in SEGMENTS}
