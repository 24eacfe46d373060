import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offerlab.choice import (
    ACCEPTED,
    CONTRACT_YEAR_VALUES,
    DISCOUNT_MAX,
    DISCOUNT_MIN,
    UTILITY_CLAMP,
    Customers,
    Offers,
    logistic,
)
from offerlab.config import PipelineConfig
from offerlab.errors import ConfigurationError, DataIntegrityError
from offerlab.simulate import (
    DEFAULT_MIXTURE,
    DEFAULT_OFFER_COUNTS,
    GroundTruthConfig,
    MixtureComponent,
    SimulatedDataset,
    _psd_factor,
    _unlabeled_offers,
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
        # refused by name, with no numpy overflow warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
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


class TestGrowingCustomers:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        extra=st.integers(1, 20),
        loadings=st.sampled_from([GroundTruthConfig().loyalty_loadings, (0.0, 0.0, 0.0)]),
    )
    @settings(max_examples=50, deadline=None)
    def test_earlier_customers_keep_their_draws(self, seed, n, extra, loadings):
        config = GroundTruthConfig(seed=seed, loyalty_loadings=loadings)
        small, large = (simulate_dataset(replace(config, n_customers=m)) for m in (n, n + extra))
        n_train = len(small.train)
        assert np.array_equal(small.customers.loyalty, large.customers.loyalty[:n])
        for part, whole, rows in ((small.train, large.train, n_train), (small.test, large.test, n)):
            for column in ("customer_id", "occasion", "X"):
                assert np.array_equal(getattr(part, column), getattr(whole, column)[:rows])
        # centering on the mean loyalty of every customer shifts all true
        # coefficients by one vector along the loyalty loadings
        shift = (large.customers.loyalty.mean() - small.customers.loyalty.mean()) * np.array(loadings)
        assert small.true_coefficients == pytest.approx(
            large.true_coefficients[:n] + shift, rel=0.0, abs=1e-12
        )
        if not any(loadings):
            # no shift: coefficients and training labels are a prefix too
            assert np.array_equal(small.true_coefficients, large.true_coefficients[:n])
            assert np.array_equal(small.train.label, large.train.label[:n_train])


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


def seed_simulate_dataset(config):
    """``simulate_dataset`` as first written, with one scalar numpy pass per
    customer and per offer, kept as the reference the simulator must
    reproduce bit for bit."""
    rng = purpose_rng(config.seed, "coefficients")
    n = config.n_customers
    weights = np.cumsum([c.weight for c in config.mixture])
    means = [np.asarray(c.mean, dtype=float) for c in config.mixture]
    factors = [_psd_factor(np.asarray(c.cov, dtype=float)) for c in config.mixture]
    loadings = np.asarray(config.loyalty_loadings, dtype=float)

    loyalty = np.empty(n)
    demographic = np.empty(n)
    raw_beta = np.empty((n, 3))
    for i in range(n):
        loyalty[i] = rng.random()
        demographic[i] = rng.random()
        comp = int(np.searchsorted(weights, rng.random(), side="right"))
        comp = min(comp, len(means) - 1)
        raw_beta[i] = means[comp] + factors[comp] @ rng.standard_normal(3)

    loyalty_c = loyalty - loyalty.mean()
    demographic_c = demographic - demographic.mean()
    betas = raw_beta + loyalty_c[:, None] * loadings[None, :]
    customers = Customers(np.arange(1, n + 1), loyalty, loyalty_c, demographic_c)

    rng = purpose_rng(config.seed, "offers")
    count_values = [c for c, _ in config.offer_count_distribution]
    count_cum = np.cumsum([p for _, p in config.offer_count_distribution])
    lo, hi = config.discount_bounds
    contracts = config.contract_values

    def attributes():
        return float(contracts[int(rng.integers(len(contracts)))]), float(rng.uniform(lo, hi))

    train, test = [], []
    for cid in range(1, config.n_customers + 1):
        n_offers = count_values[
            min(int(np.searchsorted(count_cum, rng.random(), side="right")), len(count_values) - 1)
        ]
        for occ in range(1, n_offers + 1):
            train.append((cid, occ, *attributes()))
        test.append((cid, 1, *attributes()))
    dataset = SimulatedDataset(
        train=_unlabeled_offers(train, "reference training offers"),
        test=_unlabeled_offers(test, "reference test offers"),
        customers=customers,
        true_coefficients=betas,
        seed=config.seed,
    )
    return simulate_responses(betas, dataset)


# no Cholesky factor (the contract coefficient has no variance), so the
# simulator factors this component's covariance by eigh
SINGULAR = MixtureComponent(
    1.0, (0.5, 0.1, -3.0), ((0.4, 0.0, 0.3), (0.0, 0.0, 0.0), (0.3, 0.0, 0.9))
)


@st.composite
def ground_truths(draw):
    lo = draw(st.floats(DISCOUNT_MIN, DISCOUNT_MAX))
    hi = draw(st.just(lo) | st.floats(lo, DISCOUNT_MAX))
    weight = draw(st.floats(0.0, 1.0))
    two = (replace(SINGULAR, weight=weight), replace(DEFAULT_MIXTURE[2], weight=1.0 - weight))
    mixture = draw(st.sampled_from([DEFAULT_MIXTURE, (SINGULAR,), two]))
    return GroundTruthConfig(
        n_customers=draw(st.integers(1, 300)),
        mixture=mixture,
        discount_bounds=(lo, hi),
        contract_values=tuple(
            draw(st.lists(st.sampled_from(CONTRACT_YEAR_VALUES), min_size=1, unique=True))
        ),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestReference:
    def test_singular_component_has_no_cholesky_factor(self):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(np.asarray(SINGULAR.cov))

    @given(config=ground_truths())
    @settings(max_examples=60, deadline=None)
    def test_simulate_dataset_equals_the_scalar_reference(self, config):
        dataset, reference = simulate_dataset(config), seed_simulate_dataset(config)
        assert dataset == reference  # every Offers and Customers column, exactly
        assert np.array_equal(dataset.true_coefficients, reference.true_coefficients)

    def test_default_config_equals_the_scalar_reference(self):
        config = GroundTruthConfig(n_customers=1000, seed=20260809)
        dataset, reference = simulate_dataset(config), seed_simulate_dataset(config)
        assert dataset == reference
        assert np.array_equal(dataset.true_coefficients, reference.true_coefficients)


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
