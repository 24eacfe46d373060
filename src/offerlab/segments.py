"""Discount-elasticity computation and loyalty x elasticity segmentation.

Each customer's elasticity is an arc elasticity between the acceptance
probability at the offered discount and at an extra ten points of
discount, with relative price defined as 1 + discount.
"""

from __future__ import annotations

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


def arc_elasticity(p0, p1, price0, price1):
    """Midpoint elasticity of probability with respect to price, elementwise
    over arrays; scalars give a scalar."""
    p0, p1, price0, price1 = (np.asarray(a, dtype=float) for a in (p0, p1, price0, price1))
    for undefined, reason in (
        (price0 == price1, "price0 == price1"),
        (p0 + p1 <= 0, "probabilities sum to zero"),
        (price0 + price1 <= 0, "prices sum to zero"),
    ):
        if np.any(undefined):
            raise DegenerateInputError(f"{reason}: arc elasticity undefined")
    prob_change = (p1 - p0) / ((p0 + p1) / 2.0)
    price_change = (price1 - price0) / ((price0 + price1) / 2.0)
    return prob_change / price_change


def assign_segment(elasticity, loyalty):
    """The segment of each (elasticity, loyalty) pair: elasticity >= -1 is
    inelastic, loyalty > 0.5 is loyal.  Arrays give an array of labels,
    scalars one label."""
    elasticity, loyalty = np.asarray(elasticity, dtype=float), np.asarray(loyalty, dtype=float)
    for name, values, bad, rule in (
        ("elasticity", elasticity, ~np.isfinite(elasticity), "must be finite"),
        ("loyalty", loyalty, ~((loyalty >= 0.0) & (loyalty <= 1.0)), "must lie in [0, 1]"),
    ):
        if np.any(bad):
            raise InvalidInputError(f"{name} {rule}, got {values.flat[np.argmax(bad)].item()!r}")
    return np.asarray(SEGMENTS)[2 * (elasticity < -1.0) + (loyalty > 0.5)]


def assign_segments(
    draws: PosteriorDraws,
    test_offers,
    customers,
    delta: float = DEFAULT_DISCOUNT_SHIFT,
):
    """SegmentAssignment per customer, in ascending id order, from each
    customer's test offer and its loyalty in the ``Customers`` table
    ``customers``.

    The elasticity is the arc elasticity between the draw-averaged
    acceptance probability at the offered discount and at ``delta`` more
    discount, both from one prediction over the offered and the shifted
    designs stacked; relative prices are 1 + discount.
    """
    offers = test_offers.take(np.argsort(test_offers.customer_id, kind="stable"))
    ids = offers.customer_id
    rows = join(
        customers.customer_id, ids,
        lambda cid: InvalidInputError(f"customer {cid} is not in the customer table"),
    )
    if draws.n_params != 3:
        raise InvalidInputError("elasticities require the 3-attribute offer model")
    discount = offers.X[:, 2]
    shifted = discount - delta
    lo, hi = DISCOUNT_SAFETY_BAND
    outside = ~((shifted >= lo) & (shifted <= hi))
    if outside.any():
        i = int(np.argmax(outside))
        raise InvalidInputError(
            f"customer {ids[i]}: shifted discount {float(shifted[i])!r} "
            f"leaves the safety band [{lo}, {hi}]"
        )
    X = np.concatenate([offers.X, offers.X])
    X[len(offers) :, 2] = shifted
    p = predict_panel_probabilities(draws, X, np.tile(ids, 2), mode=DRAW_AVERAGED)
    elasticity = arc_elasticity(*p.reshape(2, -1), 1.0 + discount, 1.0 + shifted)
    bad = ~np.isfinite(elasticity)
    if bad.any():
        i = int(np.argmax(bad))
        raise InvalidInputError(
            f"customer {ids[i]}: elasticity must be finite, got {elasticity[i].item()!r}"
        )
    loyalty = customers.loyalty[rows]
    segments = assign_segment(elasticity, loyalty)
    return [
        SegmentAssignment(*row)
        for row in zip(ids.tolist(), elasticity.tolist(), loyalty.tolist(), segments.tolist())
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
