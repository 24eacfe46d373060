import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offerlab.choice import CustomerProfile, OfferAttributes, OfferObservation, logistic
from offerlab.errors import InvalidInputError


def softmax_with_outside_option(u):
    """The 2-way softmax of (u, 0), as a reference for ``logistic``."""
    m = max(u, 0.0)
    return math.exp(u - m) / (math.exp(u - m) + math.exp(-m))


class TestUtility:
    """A utility is an offer's design row ``as_array()`` dotted with a
    coefficient row (k, beta_contract, beta_discount)."""

    def test_zero_coefficients(self):
        assert OfferAttributes(3, 0.2).as_array() @ np.zeros(3) == 0.0

    def test_dot_product(self):
        # oracle: 1.0*1 + 0.5*2 + (-2.0)*0.1 = 1.8
        value = OfferAttributes(2, 0.1).as_array() @ [1.0, 0.5, -2.0]
        assert value == pytest.approx(1.8, abs=1e-12)

    def test_intercept_only(self):
        assert OfferAttributes(0, 0.0).as_array() @ [4.2, 0.0, 0.0] == 4.2

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            OfferAttributes(float("inf"), 0.0)
        with pytest.raises(InvalidInputError):
            OfferAttributes(1, float("nan"))

    @given(
        st.floats(-20, 20),
        st.floats(-20, 20),
        st.floats(-20, 20),
        st.floats(-5, 5),
        st.floats(-5, 5),
        st.floats(-5, 5),
        st.floats(-5, 5),
    )
    def test_linearity_in_attributes(self, k, b1, b2, y1, d1, y2, d2):
        b = np.array([k, b1, b2])
        a = OfferAttributes(y1, d1).as_array()
        c = OfferAttributes(y2, d2).as_array()
        both = OfferAttributes(y1 + y2, d1 + d2, intercept=2.0).as_array()
        assert a @ b + c @ b == pytest.approx(both @ b, abs=1e-9, rel=1e-9)


class TestChoiceProbabilities:
    """Against the zero-utility outside option, ``logistic(u)`` is the
    offer's share of the 2-way softmax of (u, 0)."""

    def test_scalar_logistic(self):
        p = float(logistic(1.8))
        assert abs(p - softmax_with_outside_option(1.8)) <= 2 * math.ulp(p)
        assert round(p, 4) == 0.8581

    def test_overflow_safe(self):
        p = logistic(np.array([-1e6, 1e6]))
        assert np.isfinite(p).all()
        assert 0.0 <= p[0] < p[1] <= 1.0

    @given(st.floats(-30, 30))
    @settings(max_examples=200)
    def test_simplex_output(self, u):
        assert 0.0 < logistic(u) < 1.0

    @given(st.floats(-30, 30))
    @settings(max_examples=200)
    def test_matches_two_way_softmax(self, u):
        p = float(logistic(u))
        assert abs(p - softmax_with_outside_option(u)) <= 2 * math.ulp(p)


class TestAcceptProbability:
    """``logistic`` of the utility is the acceptance probability."""

    def test_zero_utility(self):
        assert logistic(0.0) == 0.5

    def test_saturation(self):
        assert logistic(-50.0) < 1e-9

    def test_logistic_of_dot_product(self):
        p = logistic(OfferAttributes(2, 0.1).as_array() @ [1.0, 0.5, -2.0])
        assert p == pytest.approx(1.0 / (1.0 + math.exp(-1.8)), abs=1e-12)

    @given(st.floats(-30, 30), st.floats(-30, 30))
    @settings(max_examples=200)
    def test_monotone_in_utility(self, u1, u2):
        if u1 + 1e-9 < u2:  # strict order needs float-resolvable separation
            assert logistic(u1) < logistic(u2)

    def test_decreasing_in_discount_for_negative_coefficient(self):
        X = np.array([OfferAttributes(0, d).as_array() for d in np.linspace(-0.5, 0.5, 11)])
        probs = logistic(X @ [0.5, 0.0, -3.0])
        assert np.all(np.diff(probs) < 0)

    @given(st.floats(-30, 30))
    @settings(max_examples=200)
    def test_complement_symmetry(self, u):
        assert abs(logistic(u) + logistic(-u) - 1.0) <= 1e-12


class TestDomainTypes:
    def test_observed_attribute_invariants(self):
        OfferAttributes(3, 0.25).validate_observed()
        with pytest.raises(InvalidInputError):
            OfferAttributes(2.5, 0.0).validate_observed()
        with pytest.raises(InvalidInputError):
            OfferAttributes(2, 0.75).validate_observed()
        with pytest.raises(InvalidInputError):
            OfferAttributes(2, 0.0, intercept=0.0).validate_observed()

    def test_fractional_years_allowed_unvalidated(self):
        attrs = OfferAttributes(1 / 12, -0.1)
        assert attrs.contract_length == pytest.approx(1 / 12)

    def test_observation_validation(self):
        attrs = OfferAttributes(1, 0.0)
        with pytest.raises(InvalidInputError):
            OfferObservation(0, 1, attrs)
        with pytest.raises(InvalidInputError):
            OfferObservation(1, 0, attrs)
        with pytest.raises(InvalidInputError):
            OfferObservation(1, 1, attrs, outcome="maybe")
        assert OfferObservation(1, 1, attrs, outcome="accepted").label == 1
        assert OfferObservation(1, 1, attrs, outcome="rejected").label == 0
        with pytest.raises(InvalidInputError):
            OfferObservation(1, 1, attrs).label

    def test_profile_bounds(self):
        with pytest.raises(InvalidInputError):
            CustomerProfile(1, 1.2, 0.0, 0.0)
        profile = CustomerProfile(1, 0.4, -0.1, 0.2)
        assert profile.covariates == pytest.approx([-0.1, 0.2])
