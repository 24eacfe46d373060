import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offerlab.choice import UNLABELED, Customers, Offers
from offerlab.errors import DegenerateInputError, InvalidInputError
from offerlab.hb import predict_panel_probabilities
from offerlab.profit import NopConfig, segment_data_from_assignments
from offerlab.segments import (
    INELASTIC_LOYAL,
    SEGMENTS,
    SegmentAssignment,
    arc_elasticity,
    assign_segment,
    assign_segments,
    segment_distribution,
)
from tests.test_hb import hand_built_draws


class TestArcElasticity:
    def test_no_probability_change(self):
        assert arc_elasticity(0.6, 0.6, 1.0, 0.9) == 0.0

    def test_equal_prices_rejected(self):
        with pytest.raises(DegenerateInputError):
            arc_elasticity(0.6, 0.7, 1.0, 1.0)

    def test_zero_probabilities_rejected(self):
        with pytest.raises(DegenerateInputError):
            arc_elasticity(0.0, 0.0, 1.0, 0.9)

    def test_direct_evaluation(self):
        # oracle: ((0.7-0.6)/0.65) / ((0.9-1.0)/0.95) = -1.461538...
        value = arc_elasticity(0.6, 0.7, 1.0, 0.9)
        expected = ((0.7 - 0.6) / ((0.6 + 0.7) / 2)) / ((0.9 - 1.0) / ((1.0 + 0.9) / 2))
        assert value == pytest.approx(expected, abs=1e-12)
        assert round(value, 4) == -1.4615

    @given(
        st.floats(0.01, 0.99),
        st.floats(0.01, 0.99),
        st.floats(0.5, 2.0),
        st.floats(0.5, 2.0),
    )
    @settings(max_examples=200)
    def test_direction_swap_invariance(self, p0, p1, price0, price1):
        if price0 == price1:
            return
        fwd = arc_elasticity(p0, p1, price0, price1)
        rev = arc_elasticity(p1, p0, price1, price0)
        assert fwd == pytest.approx(rev, rel=1e-9, abs=1e-12)

    @given(
        st.floats(0.01, 0.99),
        st.floats(0.01, 0.99),
        st.floats(0.5, 2.0),
        st.floats(0.5, 2.0),
        st.floats(0.1, 10.0),
    )
    @settings(max_examples=200)
    def test_price_scale_invariance(self, p0, p1, price0, price1, scale):
        if abs(price0 - price1) < 1e-3:  # near-equal prices are ill-conditioned
            return
        base = arc_elasticity(p0, p1, price0, price1)
        scaled = arc_elasticity(p0, p1, scale * price0, scale * price1)
        assert base == pytest.approx(scaled, rel=1e-9, abs=1e-12)


def offer_rows(*rows):
    """An unlabeled ``Offers`` table of (customer_id, contract years,
    discount) rows, each on occasion 1."""
    cid, years, discount = (np.array(col) for col in zip(*rows))
    X = np.column_stack([np.ones(len(rows)), years, discount])
    return Offers(cid, np.ones(len(rows)), X, np.full(len(rows), UNLABELED))


def elasticity(draws, years, discount, delta=0.10, cid=1):
    """The elasticity ``assign_segments`` finds for one customer's offer."""
    offers = offer_rows((cid, years, discount))
    return assign_segments(draws, offers, customer_table([cid]), delta=delta)[0].elasticity


def customer_table(ids, loyalty=None):
    """A ``Customers`` table of ``ids`` with zero covariates, loyalty 0.5
    unless given."""
    n = len(ids)
    loyalty = np.full(n, 0.5) if loyalty is None else loyalty
    return Customers(ids, loyalty, np.zeros(n), np.zeros(n))


class TestCustomerElasticity:
    def test_price_insensitive_customer(self):
        draws = hand_built_draws([[[0.8, 0.3, 0.0]]])
        assert elasticity(draws, 2, 0.1) == 0.0

    def test_single_draw_hand_evaluation(self):
        # p0 = logistic(1.8), p1 = logistic(2.0), prices 1.1 and 1.0
        draws = hand_built_draws([[[1.0, 0.5, -2.0]]])
        p0 = 1 / (1 + math.exp(-1.8))
        p1 = 1 / (1 + math.exp(-2.0))
        expected = ((p1 - p0) / ((p0 + p1) / 2)) / ((1.0 - 1.1) / ((1.1 + 1.0) / 2))
        value = elasticity(draws, 2, 0.1, delta=0.10)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(-0.2742, abs=1e-3)

    def test_strongly_price_sensitive_is_elastic(self):
        draws = hand_built_draws([[[0.0, 0.0, -20.0]]])
        assert elasticity(draws, 0, 0.0) < -1.0

    def test_safety_band(self):
        draws = hand_built_draws([[[0.0, 0.0, -1.0]]])
        with pytest.raises(InvalidInputError):
            elasticity(draws, 0, -0.55, delta=0.10)

    def test_batched_pass_matches_scalar_predictions_exactly(self):
        rng = np.random.default_rng(5)
        n = 40
        betas = rng.normal([0.5, 0.1, -3.0], [1.0, 0.3, 2.0], size=(25, n, 3))
        draws = hand_built_draws(betas)
        rows = [
            (c, int(rng.integers(0, 6)), float(rng.uniform(-0.4, 0.5))) for c in range(1, n + 1)
        ]
        customers = customer_table(np.arange(1, n + 1), rng.random(n))
        assignments = assign_segments(draws, offer_rows(*reversed(rows)), customers, delta=0.1)
        assert [a.customer_id for a in assignments] == list(range(1, n + 1))
        for a, (cid, years, d) in zip(assignments, rows):
            p0, p1 = (
                predict_panel_probabilities(draws, np.array([[1.0, years, x]]), [cid])[0]
                for x in (d, d - 0.1)
            )
            assert a.elasticity == arc_elasticity(p0, p1, 1.0 + d, 1.0 + (d - 0.1))
            assert a.elasticity == elasticity(draws, years, d, delta=0.1, cid=cid)

    def test_safety_band_error_names_the_customer(self):
        draws = hand_built_draws(np.zeros((1, 3, 3)))
        offers = offer_rows((1, 0, 0.0), (2, 0, -0.55), (3, 0, -0.58))
        with pytest.raises(InvalidInputError, match=r"customer 2: shifted discount -0\.65"):
            assign_segments(draws, offers, customer_table([1, 2, 3]), delta=0.10)

    @given(st.floats(-8.0, -0.2), st.floats(-0.4, 0.4))
    @settings(max_examples=100)
    def test_negative_discount_coefficient_gives_negative_elasticity(self, b_disc, discount):
        draws = hand_built_draws([[[0.5, 0.2, b_disc]]])
        assert elasticity(draws, 1, discount) < 0.0


class TestAssignSegment:
    def test_boundary_elasticity_is_inelastic(self):
        assert assign_segment(-1.0, 0.6) == "inelastic-loyal"

    def test_boundary_loyalty_is_not_loyal(self):
        assert assign_segment(-1.5, 0.5) == "elastic-not-loyal"

    def test_positive_elasticity(self):
        assert assign_segment(0.2, 0.9) == "inelastic-loyal"

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            assign_segment(float("nan"), 0.5)
        with pytest.raises(InvalidInputError):
            assign_segment(0.0, 1.5)

    @given(st.floats(-10, 10), st.floats(0, 1))
    @settings(max_examples=200)
    def test_every_customer_gets_exactly_one_segment(self, elasticity, loyalty):
        assert assign_segment(elasticity, loyalty) in SEGMENTS


def reference_elasticity(p0, p1, price0, price1):
    """The scalar arc elasticity, one Python-float pair at a time."""
    return ((p1 - p0) / ((p0 + p1) / 2.0)) / ((price1 - price0) / ((price0 + price1) / 2.0))


def reference_segment(elasticity, loyalty):
    """The scalar segment rule: elasticity >= -1 is inelastic, loyalty > 0.5 loyal."""
    elastic_part = "inelastic" if elasticity >= -1.0 else "elastic"
    return f"{elastic_part}-{'loyal' if loyalty > 0.5 else 'not-loyal'}"


class TestArrayPasses:
    @given(
        rows=st.lists(
            st.tuples(
                st.floats(1e-6, 1.0),
                st.floats(1e-6, 1.0),
                st.floats(0.4, 1.6),
                st.sampled_from([-0.1, -0.05, 1e-9]),
                st.one_of(st.just(0.5), st.floats(0.0, 1.0)),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_arrays_equal_the_scalar_reference(self, rows):
        p0, p1, price0, shift, loyalty = (np.array(column) for column in zip(*rows))
        price1 = price0 + shift
        elasticity = arc_elasticity(p0, p1, price0, price1)
        columns = (a.tolist() for a in (p0, p1, price0, price1))
        expected = [reference_elasticity(*row) for row in zip(*columns)]
        assert elasticity.tolist() == expected
        # the boundaries themselves: elasticity exactly -1, loyalty exactly 0.5
        for e in (elasticity, np.full(len(rows), -1.0)):
            labels = assign_segment(e, loyalty).tolist()
            assert labels == [reference_segment(x, y) for x, y in zip(e.tolist(), loyalty)]

    def test_boundary_labels(self):
        labels = assign_segment([-1.0, -1.0, -1.0000001, 2.0], [0.5, 0.5000001, 0.5, 0.0])
        assert labels.tolist() == [
            "inelastic-not-loyal", "inelastic-loyal", "elastic-not-loyal", "inelastic-not-loyal"
        ]

    def test_non_finite_elasticity_is_refused_by_customer(self):
        betas = np.zeros((2, 3, 3))
        betas[1, 1, 2] = np.nan  # customer 2's discount coefficient in one draw
        offers = offer_rows((3, 0, 0.1), (2, 0, 0.1), (1, 0, 0.1))
        with pytest.raises(InvalidInputError, match=r"^customer 2: elasticity must be finite, got nan$"):
            assign_segments(hand_built_draws(betas), offers, customer_table([1, 2, 3]))
        with pytest.raises(InvalidInputError, match=r"^elasticity must be finite, got inf$"):
            assign_segment([0.0, np.inf], [0.5, 0.5])
        with pytest.raises(InvalidInputError, match=r"^loyalty must lie in \[0, 1\], got 1\.5$"):
            assign_segment([0.0, 0.0], [0.5, 1.5])


class TestDistribution:
    def test_identical_customers(self):
        assignments = [SegmentAssignment(i, -0.5, 0.9, "inelastic-loyal") for i in range(9)]
        shares = segment_distribution(assignments)
        assert shares["inelastic-loyal"] == 100.0
        assert sum(shares.values()) == pytest.approx(100.0, abs=0.1)

    def test_one_per_segment(self):
        assignments = [
            SegmentAssignment(1, -0.2, 0.2, "inelastic-not-loyal"),
            SegmentAssignment(2, -0.2, 0.9, "inelastic-loyal"),
            SegmentAssignment(3, -2.0, 0.2, "elastic-not-loyal"),
            SegmentAssignment(4, -2.0, 0.9, "elastic-loyal"),
        ]
        shares = segment_distribution(assignments)
        assert all(v == 25.0 for v in shares.values())

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            segment_distribution([])

    def test_assign_segments_covers_all_customers(self):
        betas = np.array([[[0.5, 0.2, -1.0], [0.1, 0.0, -9.0]]])
        draws = hand_built_draws(betas, customer_ids=[1, 2])
        offers = offer_rows((1, 1, 0.2), (2, 3, -0.1))
        # the table lists customer 2 first: loyalty is joined by id
        customers = customer_table([2, 1], loyalty=[0.1, 0.9])
        assignments = assign_segments(draws, offers, customers)
        assert [a.customer_id for a in assignments] == [1, 2]
        assert [a.loyalty for a in assignments] == [0.9, 0.1]
        with pytest.raises(InvalidInputError, match="^customer 2 is not in the customer table$"):
            assign_segments(draws, offers, customer_table([1, 3]))
        shares = segment_distribution(assignments)
        assert sum(shares.values()) == pytest.approx(100.0, abs=0.1)


class TestRepeatedCustomer:
    """Customer 1 holds two test offers, so it would sit twice in one
    segment and read as two thirds of two customers."""

    OFFERS = Offers([1, 1, 2], [1, 2, 1], [[1, 1, 0.2], [1, 2, 0.1], [1, 3, -0.1]], [-1, -1, -1])

    def test_assign_segments_refuses_a_second_test_offer(self):
        draws = hand_built_draws(np.zeros((1, 2, 3)), customer_ids=[1, 2])
        with pytest.raises(InvalidInputError, match="^customer 1 has more than one test offer$"):
            assign_segments(draws, self.OFFERS, customer_table([1, 2], loyalty=[0.9, 0.1]))

    def test_segment_data_refuses_a_repeated_customer(self):
        # as a hand-edited segments.csv would list the offers' customers
        assignments = [
            SegmentAssignment(cid, -0.5, 0.9, INELASTIC_LOYAL)
            for cid in self.OFFERS.customer_id.tolist()
        ]
        with pytest.raises(InvalidInputError, match="^customer 1 is assigned more than once$"):
            segment_data_from_assignments(assignments, NopConfig())
