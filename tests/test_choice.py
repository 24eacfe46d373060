import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offerlab.choice import (
    ACCEPTED,
    REJECTED,
    UNLABELED,
    Customers,
    Offers,
    as_ids,
    join,
    logistic,
)
from offerlab.errors import DataIntegrityError, InvalidInputError


def offer_table(*rows, label=UNLABELED, intercept=1.0):
    """An ``Offers`` table of (contract years, discount) rows for customers
    1, 2, ... on occasion 1."""
    n = len(rows)
    X = np.column_stack([np.full(n, intercept), np.array(rows, dtype=float).reshape(n, 2)])
    return Offers(np.arange(1, n + 1), np.ones(n), X, np.full(n, label))


def softmax_with_outside_option(u):
    """The 2-way softmax of (u, 0), as a reference for ``logistic``."""
    m = max(u, 0.0)
    return math.exp(u - m) / (math.exp(u - m) + math.exp(-m))


class TestUtility:
    """A utility is an offer's design row (intercept, contract years,
    discount) dotted with a coefficient row (k, beta_contract,
    beta_discount)."""

    def test_zero_coefficients(self):
        assert offer_table((3, 0.2)).X[0] @ np.zeros(3) == 0.0

    def test_dot_product(self):
        # oracle: 1.0*1 + 0.5*2 + (-2.0)*0.1 = 1.8
        value = offer_table((2, 0.1)).X[0] @ [1.0, 0.5, -2.0]
        assert value == pytest.approx(1.8, abs=1e-12)

    def test_intercept_only(self):
        assert offer_table((0, 0.0)).X[0] @ [4.2, 0.0, 0.0] == 4.2

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
        a, c = offer_table((y1, d1), (y2, d2)).X
        both = offer_table((y1 + y2, d1 + d2), intercept=2.0).X[0]
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
        p = logistic(offer_table((2, 0.1)).X[0] @ [1.0, 0.5, -2.0])
        assert p == pytest.approx(1.0 / (1.0 + math.exp(-1.8)), abs=1e-12)

    @given(st.floats(-30, 30), st.floats(-30, 30))
    @settings(max_examples=200)
    def test_monotone_in_utility(self, u1, u2):
        if u1 + 1e-9 < u2:  # strict order needs float-resolvable separation
            assert logistic(u1) < logistic(u2)

    def test_decreasing_in_discount_for_negative_coefficient(self):
        table = offer_table(*((0, d) for d in np.linspace(-0.5, 0.5, 11)))
        probs = logistic(table.X @ [0.5, 0.0, -3.0])
        assert np.all(np.diff(probs) < 0)

    @given(st.floats(-30, 30))
    @settings(max_examples=200)
    def test_complement_symmetry(self, u):
        assert abs(logistic(u) + logistic(-u) - 1.0) <= 1e-12


class TestDomainTypes:
    """The offer and customer tables.  ``Offers.validate`` is the one check
    of recorded offers, on the simulated and the CSV path alike."""

    def test_observed_attribute_invariants(self):
        assert offer_table((3, 0.25), (0, -0.5), (5, 0.5)).validate("t") is not None
        with pytest.raises(DataIntegrityError, match="contract_length_years = 2.5"):
            offer_table((2.5, 0.0)).validate("t")
        with pytest.raises(DataIntegrityError, match="offer_discount = 0.75"):
            offer_table((2, 0.75)).validate("t")
        with pytest.raises(DataIntegrityError, match="X1 = 0.0"):
            offer_table((2, 0.0), intercept=0.0).validate("t")

    def test_non_finite_rejected(self):
        for column in range(3):
            for value in (float("inf"), float("-inf"), float("nan")):
                table = offer_table((1, 0.0), (2, 0.1))
                table.X[1, column] = value
                with pytest.raises(DataIntegrityError, match=rf"= {value} at .* = \(2, 1\)"):
                    table.validate("t")

    def test_fractional_years_allowed_unvalidated(self):
        # the profit objective evaluates the model at 1-month (1/12 year)
        # contracts; only recorded offers must use whole years
        table = offer_table((1 / 12, -0.1))
        assert table.X[0, 1] == pytest.approx(1 / 12)
        with pytest.raises(DataIntegrityError, match="whole year"):
            table.validate("t")

    def test_observation_validation(self):
        table = offer_table((1, 0.0))
        with pytest.raises(DataIntegrityError, match="customer_id = 0"):
            Offers([0], [1], table.X, [UNLABELED]).validate("t")
        with pytest.raises(DataIntegrityError, match="occasion = 0"):
            Offers([1], [0], table.X, [UNLABELED]).validate("t")
        with pytest.raises(DataIntegrityError, match="label = 2"):
            Offers([1], [1], table.X, [2]).validate("t")
        assert offer_table((1, 0.0), label=ACCEPTED).labels().tolist() == [1]
        assert offer_table((1, 0.0), label=REJECTED).labels().tolist() == [0]
        with pytest.raises(InvalidInputError, match=r"offer \(1, 1\) is unlabeled"):
            table.labels()

    def test_message_names_where_column_key_and_value(self):
        table = offer_table((1, 0.0), (2, 0.9), (3, 0.8))
        with pytest.raises(DataIntegrityError) as exc:
            table.validate("train.csv")
        assert str(exc.value) == (
            "train.csv: offer_discount = 0.9 at (customer_id, occasion) = (2, 1) "
            "must lie in [-0.5, 0.5]"
        )

    def test_repeated_key_refused(self):
        table = offer_table((1, 0.0), (2, 0.1), (3, 0.2))
        repeated = Offers([4, 7, 4], [2, 1, 2], table.X, table.label)
        with pytest.raises(DataIntegrityError, match=r"t repeats \(customer_id, occasion\) = \(4, 2\)"):
            repeated.validate("t")

    def test_columns_of_unequal_shape_refused(self):
        table = offer_table((1, 0.0), (2, 0.1))
        with pytest.raises(DataIntegrityError, match="unequal shape"):
            Offers([1], [1], table.X, [UNLABELED]).validate("t")

    def test_take_and_equality(self):
        table = offer_table((1, 0.0), (2, 0.1), (3, 0.2))
        picked = table.take([2, 0])
        assert picked == Offers([3, 1], [1, 1], [[1, 3, 0.2], [1, 1, 0.0]], [UNLABELED] * 2)
        assert table.take(np.array([False, True, False])) == table.take([1])
        assert picked != table and picked != table.take([2, 1])
        assert len(picked) == 2

    def test_customer_covariates_and_equality(self):
        table = Customers([4, 2], [0.4, 0.9], [-0.1, 0.4], [0.2, -0.3])
        ids, Z = table.covariates(include_demographic=True)
        assert ids.tolist() == [4, 2] and Z.tolist() == [[-0.1, 0.2], [0.4, -0.3]]
        assert table.covariates(include_demographic=False)[1].tolist() == [[-0.1], [0.4]]
        assert table.take([1, 0]) == Customers([2, 4], [0.9, 0.4], [0.4, -0.1], [-0.3, 0.2])
        assert table != table.take([1, 0]) and len(table) == 2
        assert table.validate("t") is table

    @pytest.mark.parametrize(
        "column, values, named",
        [("customer_id", [1.5], "customer_id 1.5"), ("occasion", [2.7], "occasion 2.7"),
         ("label", [0.5], "label 0.5"), ("label", [True], "label True"),
         ("customer_id", [2**63], f"customer_id {2**63}")],
    )
    def test_offer_integer_column_that_is_no_whole_number_refused(self, column, values, named):
        # a cast to int64 held customer 1, occasion 2 for [1.5], [2.7]
        columns = dict(customer_id=[1], occasion=[2], X=[[1.0, 1.0, 0.1]], label=[REJECTED])
        columns[column] = values
        with pytest.raises(InvalidInputError, match=f"^{re.escape(named)} is not a 64-bit integer$"):
            Offers(**columns)

    @pytest.mark.parametrize("label", [[300], np.array([-129])])
    def test_label_outside_int8_refused_not_wrapped(self, label):
        # an int8 cast held 300 as 44
        with pytest.raises(InvalidInputError, match=rf"^label {label[0]} does not fit in int8$"):
            Offers([1], [1], [[1.0, 1.0, 0.1]], label)

    def test_customer_id_that_is_no_whole_number_refused(self):
        # a cast to int64 held id 3
        with pytest.raises(InvalidInputError, match=r"^customer_id 3\.9 is not a 64-bit integer$"):
            Customers([3.9], [0.5], [0.0], [0.0])
        with pytest.raises(InvalidInputError, match=r"^customer_id nan is not a 64-bit integer$"):
            Customers([1, math.nan], [0.5, 0.5], [0.0, 0.0], [0.0, 0.0])

    def test_whole_numbers_of_any_type_are_held_as_integers(self):
        offers = Offers([3.0], np.array([2], dtype=np.uint8), [[1, 1, 0.1]], [1.0])
        assert offers == Offers([3], [2], [[1, 1, 0.1]], [ACCEPTED])
        assert [offers.customer_id.dtype, offers.occasion.dtype, offers.label.dtype] == [
            np.int64, np.int64, np.int8
        ]
        assert Customers([4.0], [0.5], [0.0], [0.0]).customer_id.tolist() == [4]


class TestJoin:
    @settings(max_examples=200)
    @given(
        keys=st.lists(st.integers(-(2**62), 2**62), unique=True, max_size=30),
        ids=st.lists(st.integers(-(2**62), 2**62), max_size=30),
        data=st.data(),
    )
    def test_agrees_with_a_dict_lookup(self, keys, ids, data):
        # ids drawn partly from the keys, in any order, some absent
        if keys:
            ids += data.draw(st.lists(st.sampled_from(keys), max_size=30))
        ids = data.draw(st.permutations(ids))
        row_of = {key: row for row, key in enumerate(keys)}
        assert join(keys, ids).tolist() == [row_of.get(i, -1) for i in ids]
        missing = [i for i in ids if i not in row_of]
        if missing:
            with pytest.raises(KeyError) as exc:
                join(keys, ids, unknown=KeyError)
            assert exc.value.args == (missing[0],)
        else:
            assert join(keys, ids, unknown=KeyError).tolist() == [row_of[i] for i in ids]

    @given(keys=st.lists(st.integers(1, 50), min_size=1, max_size=20), data=st.data())
    def test_a_repeated_key_is_refused(self, keys, data):
        repeated = data.draw(st.sampled_from(keys))
        keys = data.draw(st.permutations(keys + [repeated]))
        with pytest.raises(DataIntegrityError, match=r"^key -?\d+ is repeated$"):
            join(keys, [1])

    @settings(max_examples=200)
    @given(
        keys=st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-(2**62), 2**62)), unique=True, max_size=30
        ),
        absent=st.lists(st.tuples(st.integers(-3, 3), st.integers(-5, 5)), max_size=10),
        data=st.data(),
    )
    def test_key_tuples_agree_with_a_dict_lookup(self, keys, absent, data):
        ids = absent + (data.draw(st.lists(st.sampled_from(keys), max_size=30)) if keys else [])
        ids = data.draw(st.permutations(ids))
        row_of = {key: row for row, key in enumerate(keys)}
        columns = tuple(np.array(c, dtype=np.int64).reshape(-1) for c in zip(*keys)) or ([], [])
        id_columns = tuple(np.array(c, dtype=np.int64).reshape(-1) for c in zip(*ids)) or ([], [])
        assert join(columns, id_columns).tolist() == [row_of.get(i, -1) for i in ids]
        missing = [i for i in ids if i not in row_of]
        if missing:
            with pytest.raises(KeyError) as exc:
                join(columns, id_columns, unknown=KeyError)
            assert exc.value.args == (missing[0],)

    @pytest.mark.parametrize(
        "values",
        [
            [], (), [5, 2**63 - 1, -(2**63)], np.array([3, 1]),
            np.array([7, 0], dtype=np.uint32), np.array([4.0, -1.0]),
            [2**60 + 1, 1.0], np.array([2.0**53 - 1]),
        ],
    )
    def test_whole_ids_pass(self, values):
        ids = as_ids(values)
        assert ids.dtype == np.int64 and ids.tolist() == list(values)

    @pytest.mark.parametrize(
        "values, first",
        [
            ([1.9], "1.9"),
            ([1, 1.9], "1.9"),
            ([2, 3, 2**64], str(2**64)),
            (np.array([1, 2**64 - 1], dtype=np.uint64), str(2**64 - 1)),
            ([math.nan], "nan"),
            ([True], "True"),
            (["7"], "'7'"),
            ([2, True], "True"),
            ([1, "7"], "'7'"),
            (np.array([2.0**53 + 2]), "9007199254740994.0"),
            ([1.0, -(2.0**53)], "-9007199254740992.0"),
            ([[1], [2, 3]], "[1]"),
        ],
    )
    def test_other_ids_are_refused_by_value(self, values, first):
        with pytest.raises(InvalidInputError, match=rf"^id {re.escape(first)} is not a 64-bit integer$"):
            as_ids(values)
        with pytest.raises(InvalidInputError, match="is not a 64-bit integer"):
            join([1, 2], values)

    def test_a_repeated_key_tuple_is_refused(self):
        with pytest.raises(DataIntegrityError, match=r"^key \(2, 7\) is repeated$"):
            join(([1, 2, 2], [7, 7, 7]), ([1], [7]))
        assert join(([1, 2, 2], [7, 7, 8]), ([2, 2, 1, 3], [8, 7, 7, 7])).tolist() == [2, 1, 0, -1]
