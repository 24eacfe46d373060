import math
import re

import numpy as np
import pytest

from offerlab.choice import ACCEPTED, UTILITY_CLAMP, Offers, logistic
from offerlab.config import PipelineConfig
from offerlab.errors import ConfigurationError, DataIntegrityError
from offerlab.simulate import (
    DEFAULT_OFFER_COUNTS,
    GroundTruthConfig,
    MixtureComponent,
    generate_offers,
    purpose_rng,
    simulate_dataset,
    simulate_responses,
    summarize_dataset,
)


def diag3(a, b, c):
    return ((a, 0.0, 0.0), (0.0, b, 0.0), (0.0, 0.0, c))


def point_mass_config(mean=(1.0, 0.2, -2.0), n=50, seed=1):
    mixture = (MixtureComponent(1.0, mean, diag3(0.0, 0.0, 0.0)),)
    return GroundTruthConfig(
        n_customers=n, mixture=mixture, loyalty_loadings=(0.0, 0.0, 0.0), seed=seed
    )


class TestConfigValidation:
    def test_default_config_valid(self):
        GroundTruthConfig()

    def test_weights_must_be_simplex(self):
        mixture = (MixtureComponent(0.7, (0, 0, 0), diag3(1, 1, 1)),)
        with pytest.raises(ConfigurationError):
            GroundTruthConfig(mixture=mixture)

    def test_covariance_must_be_psd(self):
        with pytest.raises(ConfigurationError, match="^cov is not positive semidefinite$"):
            MixtureComponent(1.0, (0, 0, 0), diag3(1, 1, -1))

    @pytest.mark.parametrize(
        "mean, cov, message",
        [
            ((0, 0), diag3(1, 1, 1), "mean and cov must be 3-dimensional"),
            ((0, 0, 0), ((1, 0), (0, 1)), "mean and cov must be 3-dimensional"),
            ((0, 0, 0), ((1, 0.5, 0), (0, 1, 0), (0, 0, 1)), "cov must be symmetric"),
        ],
        ids=["mean-2d", "cov-2x2", "asymmetric"],
    )
    def test_component_checks_itself(self, mean, cov, message):
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            MixtureComponent(1.0, mean, cov)

    def test_offer_counts_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            GroundTruthConfig(offer_count_distribution=((1, 0.5), (2, 0.4)))

    def test_empty_distribution_rejected(self):
        with pytest.raises(ConfigurationError):
            GroundTruthConfig(offer_count_distribution=())

    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda v: MixtureComponent(v, (0, 0, 0), diag3(1, 1, 1)), "weight"),
            (lambda v: MixtureComponent(1.0, (0, v, 0), diag3(1, 1, 1)), "mean[1]"),
            (lambda v: MixtureComponent(1.0, (0, 0, 0), diag3(1, 1, v)), "cov[2][2]"),
            (lambda v: GroundTruthConfig(loyalty_loadings=(v, 0.0, 0.0)), "loyalty_loadings[0]"),
            (
                lambda v: GroundTruthConfig(offer_count_distribution=((1, 1.0), (2, v))),
                "offer_count_distribution[1][1]",
            ),
            (lambda v: GroundTruthConfig(discount_bounds=(v, 0.5)), "discount_bounds[0]"),
        ],
        ids=["weight", "mean", "cov", "loadings", "offer-count-probability", "discount-bounds"],
    )
    def test_nan_refused_by_field(self, build, name):
        with pytest.raises(ConfigurationError) as info:
            build(math.nan)
        assert str(info.value) == f"{name} must be finite, got nan"

    def test_overflowing_coefficients_rejected(self):
        # a loyalty loading on a mean near the float maximum overflows to inf
        config = point_mass_config(mean=(1.5e308, 0.0, 0.0))
        config = GroundTruthConfig(
            n_customers=50, mixture=config.mixture, loyalty_loadings=(1e308, 0.0, 0.0), seed=1
        )
        with pytest.raises(ConfigurationError, match="non-finite coefficients"):
            generate_offers(config)

    @pytest.mark.parametrize("values", [[7], [-1], [0, 2, 6]])
    def test_contract_values_must_be_whole_years_in_range(self, values):
        # refused when the config is read, before any offer is drawn
        with pytest.raises(ConfigurationError, match=rf"contract_values .* got {re.escape(str(values))}"):
            PipelineConfig.from_dict({"ground_truth": {"contract_values": values}})
        with pytest.raises(ConfigurationError, match="contract_values"):
            GroundTruthConfig(contract_values=tuple(values))

    def test_default_offer_counts_sum_to_one(self):
        assert abs(sum(p for _, p in DEFAULT_OFFER_COUNTS) - 1.0) < 1e-12


def per_offer_labels(dataset):
    """Reference labels, one offer at a time: utility, a softmax over it and
    an appended zero-utility outside option, a clamp into the open unit
    interval, then one uniform draw on the "responses" stream; train offers
    first, then test offers."""
    rng = purpose_rng(dataset.seed, "responses")
    accepted = []
    offers = (dataset.train, dataset.test)
    ids = np.concatenate([o.customer_id for o in offers]).tolist()
    design = np.concatenate([o.X for o in offers]).tolist()
    for cid, (x1, years, discount) in zip(ids, design):
        k, b_contract, b_discount = (float(b) for b in dataset.true_coefficients[cid - 1])
        u = k * x1 + b_contract * years + b_discount * discount
        u = np.clip([u, 0.0], -UTILITY_CLAMP, UTILITY_CLAMP)
        z = np.exp(u - u.max())
        p = float(z[0] / z.sum())
        p = min(max(p, math.nextafter(0.0, 1.0)), math.nextafter(1.0, 0.0))
        accepted.append(rng.random() < p)
    return accepted


def true_coefficients(config):
    return generate_offers(config).true_coefficients


class TestTrueCoefficients:
    def test_degenerate_mixture_hits_mean_exactly(self):
        coeffs = true_coefficients(point_mass_config(mean=(1.5, -0.25, -3.0)))
        assert coeffs.shape == (50, 3)
        for b in coeffs:
            assert b == pytest.approx([1.5, -0.25, -3.0], abs=1e-12)

    def test_same_seed_identical(self):
        config = GroundTruthConfig(n_customers=40, seed=7)
        assert np.array_equal(true_coefficients(config), true_coefficients(config))

    def test_default_config_is_multimodal_in_intercept(self):
        coeffs = true_coefficients(GroundTruthConfig(n_customers=4000, seed=3))
        ks = coeffs[:, 0]
        hist, edges = np.histogram(ks, bins=28)
        # the valley between the reluctant mode (left) and the main mass
        # must dip well below both peaks
        centers = (edges[:-1] + edges[1:]) / 2
        left_peak = hist[centers < -2.5].max()
        right_peak = hist[centers > -0.5].max()
        valley = hist[(centers >= -2.5) & (centers <= -0.5)].min()
        assert valley < 0.5 * left_peak
        assert valley < 0.5 * right_peak

    def test_loyalty_loadings_shift_coefficients(self):
        base = point_mass_config(n=200, seed=11)
        loaded = GroundTruthConfig(
            n_customers=200,
            mixture=base.mixture,
            loyalty_loadings=(2.0, 0.0, 0.0),
            seed=11,
        )
        dataset = generate_offers(loaded)
        customers, coeffs = dataset.customers, dataset.true_coefficients
        assert customers.customer_id.tolist() == list(range(1, 201))
        expected = 1.0 + 2.0 * customers.loyalty_centered
        assert coeffs[:, 0] == pytest.approx(expected, abs=1e-9)


class TestGenerateOffers:
    def test_counts_follow_point_mass(self):
        config = GroundTruthConfig(
            n_customers=30,
            offer_count_distribution=((48, 1.0),),
            seed=5,
        )
        dataset = generate_offers(config)
        assert set(np.bincount(dataset.train.customer_id)[1:].tolist()) == {48}
        assert len(dataset.test) == 30

    def test_exactly_one_test_offer_per_customer(self):
        dataset = generate_offers(GroundTruthConfig(n_customers=60, seed=2))
        assert sorted(dataset.test.customer_id.tolist()) == list(range(1, 61))
        assert np.all(dataset.test.occasion == 1)

    def test_attribute_ranges_and_coverage(self):
        dataset = generate_offers(GroundTruthConfig(n_customers=4000, seed=9))
        assert np.all(dataset.train.X[:, 0] == 1.0)
        discounts = dataset.train.X[:, 2]
        contracts = set(dataset.train.X[:, 1].tolist())
        assert discounts.min() >= -0.5 and discounts.max() <= 0.5
        assert discounts.min() < -0.49 and discounts.max() > 0.49
        assert contracts == {0.0, 1.0, 2.0, 3.0, 4.0, 5.0}

    def test_share_with_single_offer_near_config(self):
        dataset = generate_offers(GroundTruthConfig(n_customers=4000, seed=13))
        counts = np.bincount(dataset.train.customer_id)[1:]
        singles = np.mean(counts == 1)
        assert singles == pytest.approx(0.690, abs=0.02)

    def test_offer_count_distribution_within_two_percent(self):
        config = GroundTruthConfig(n_customers=10_000, seed=17)
        dataset = generate_offers(config)
        empirical = np.bincount(np.bincount(dataset.train.customer_id)[1:])
        for value, prob in config.offer_count_distribution:
            share = (empirical[value] if value < len(empirical) else 0) / config.n_customers
            assert abs(share - prob) <= 0.02

    def test_centered_covariates(self):
        dataset = generate_offers(GroundTruthConfig(n_customers=500, seed=21))
        assert abs(dataset.customers.loyalty_centered.mean()) < 1e-9
        assert abs(dataset.customers.demographic_centered.mean()) < 1e-9


class TestSimulateResponses:
    def test_saturated_utility_accepts_everything(self):
        config = point_mass_config(mean=(50.0, 0.0, 0.0), n=40, seed=3)
        dataset = simulate_dataset(config)
        assert np.all(dataset.train.label == ACCEPTED)
        assert np.all(dataset.test.label == ACCEPTED)

    def test_zero_utility_half_accept(self):
        config = GroundTruthConfig(
            n_customers=5000,
            mixture=(MixtureComponent(1.0, (0.0, 0.0, 0.0), diag3(0, 0, 0)),),
            loyalty_loadings=(0.0, 0.0, 0.0),
            offer_count_distribution=((2, 1.0),),
            contract_values=(0,),
            discount_bounds=(0.0, 0.0),
            seed=23,
        )
        dataset = simulate_dataset(config)
        rate = np.mean(dataset.train.labels())
        # 10,000 rows at p=0.5: binomial 95% interval is about +/- 0.01
        assert rate == pytest.approx(0.5, abs=0.015)

    def test_default_acceptance_rate_in_calibrated_band(self):
        dataset = simulate_dataset(GroundTruthConfig(n_customers=1000, seed=29))
        rate = np.mean(dataset.train.labels())
        assert rate == pytest.approx(0.61, abs=0.10)

    def test_missing_coefficient_rejected(self):
        dataset = generate_offers(GroundTruthConfig(n_customers=5, seed=1))
        truth = dataset.true_coefficients
        with pytest.raises(DataIntegrityError, match=r"shape \(4, 3\), expected \(5, 3\)"):
            simulate_responses(truth[:4], dataset)
        with pytest.raises(DataIntegrityError, match=r"shape \(5, 2\), expected \(5, 3\)"):
            simulate_responses(truth[:, :2], dataset)

    def test_acceptance_frequency_converges_to_probability(self):
        # 10,000 replicate draws at one fixed offer
        p = float(logistic(np.array([1.0, 2.0, -0.2]) @ [0.4, 0.3, -2.0]))
        rng = purpose_rng(31, "responses")
        outcomes = [rng.random() < p for _ in range(10_000)]
        assert abs(np.mean(outcomes) - p) < 0.02

    def test_determinism_full_dataset(self):
        config = GroundTruthConfig(n_customers=80, seed=37)
        first, second = simulate_dataset(config), simulate_dataset(config)
        assert first == second
        assert np.array_equal(first.true_coefficients, second.true_coefficients)

    @pytest.mark.parametrize("seed", [5, 47, 20260809])
    def test_labels_match_per_offer_softmax_path(self, seed):
        config = GroundTruthConfig(n_customers=1000, seed=seed)
        labelled = simulate_dataset(config)
        expected = per_offer_labels(generate_offers(config))
        labels = np.concatenate([labelled.train.label, labelled.test.label])
        assert (labels == ACCEPTED).tolist() == expected


def summary_table(text):
    """The statistics block of a summary as {statistic: {column: cell}}."""
    header, *rows = text.split("\n\n")[0].split("\n")
    columns = [name.strip() for name in header.split("\t")[1:]]
    return {
        cells[0]: dict(zip(columns, (c.strip() for c in cells[1:])))
        for cells in (row.split("\t") for row in rows)
    }


class TestSummarize:
    def test_constant_column(self):
        dataset = generate_offers(point_mass_config(n=20, seed=41))
        table = summary_table(summarize_dataset(dataset.train))
        assert table["Min."]["X1"] == table["Max."]["X1"] == table["Mean"]["X1"] == "1"

    def test_layout_matches_offer_table(self):
        dataset = simulate_dataset(GroundTruthConfig(n_customers=30, seed=43))
        text = summarize_dataset(dataset.train, dataset.customers)
        table = summary_table(text)
        assert list(table) == ["Min.", "1st Qu.", "Median", "Mean", "3rd Qu.", "Max.", "Count"]
        assert list(table["Count"]) == [
            "id",
            "setnum",
            "X1",
            "contract_length_years",
            "offer_discount",
            "demographic_centered",
            "loyalty_centered",
        ]
        assert table["Count"]["loyalty_centered"] == "30"
        assert re.search(r"Outcome counts:\n  (accepted|rejected)\t\d+\n", text)

    def test_empty_subset_marker(self):
        text = summarize_dataset(Offers([], [], np.empty((0, 3)), []))
        assert "empty dataset" in text
