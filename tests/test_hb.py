import io
import json
import math
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offerlab import hb, shares
from offerlab.choice import ACCEPTED, REJECTED, UNLABELED, Offers, join, logistic
from offerlab.errors import (
    ConfigurationError,
    DataIntegrityError,
    EstimationError,
    InvalidInputError,
    OfferLabError,
    UnknownCustomerError,
)
from offerlab.hb import (
    DRAW_AVERAGED,
    POPULATION_MEAN,
    POSTERIOR_MEAN,
    McmcConfig,
    PosteriorDraws,
    _coef_index,
    _customer_loglik,
    _draw_components,
    _draw_delta,
    _draw_indicators,
    _member_covariates,
    _mvn_logpdf,
    _pooled_logit,
    _signed_design,
    _wishart_root,
    build_panel,
    fit_hb_mixed_logit,
    fit_hb_panel,
    fit_hb_panels,
    predict_panel_probabilities,
)
from offerlab.simulate import GroundTruthConfig, simulate_dataset


def small_fit(n_customers=40, total_draws=600, burn_in=120, ncomp=1, data_seed=51, chain_seed=4):
    dataset = simulate_dataset(GroundTruthConfig(n_customers=n_customers, seed=data_seed))
    covariates = dataset.customers.covariates(include_demographic=False)
    config = McmcConfig(total_draws=total_draws, burn_in=burn_in, seed=chain_seed)
    draws = fit_hb_mixed_logit(dataset.train, covariates, ncomp=ncomp, config=config)
    return dataset, draws


def hand_built_draws(betas, weights=None, means=None, customer_ids=None):
    """PosteriorDraws with explicit beta draws; mixture filled in trivially."""
    betas = np.asarray(betas, dtype=float)
    n_draws, n_cust, k = betas.shape
    if customer_ids is None:
        customer_ids = list(range(1, n_cust + 1))
    if means is None:
        means = betas.mean(axis=1, keepdims=True)
    if weights is None:
        weights = np.ones((n_draws, means.shape[1])) / means.shape[1]
    covs = np.tile(np.eye(k), (n_draws, means.shape[1], 1, 1))
    return PosteriorDraws(
        customer_ids=customer_ids,
        betas=betas,
        weights=np.asarray(weights, dtype=float),
        means=np.asarray(means, dtype=float),
        covariances=covs,
        delta=np.zeros((n_draws, k, 0)),
        log_likelihood=np.zeros(n_draws),
        acceptance_rates=np.full(n_cust, 0.3),
        config=McmcConfig(total_draws=n_draws + 1, burn_in=1, seed=0),
    )


class TestConfig:
    def test_burn_in_bounds(self):
        with pytest.raises(ConfigurationError):
            McmcConfig(total_draws=100, burn_in=100)
        with pytest.raises(ConfigurationError):
            McmcConfig(total_draws=100, burn_in=0)

    def test_keep_and_dirichlet(self):
        with pytest.raises(ConfigurationError):
            McmcConfig(keep=0)
        with pytest.raises(ConfigurationError):
            McmcConfig(dirichlet_concentration=0.0)

    def test_iw_dof_floor(self):
        # the floor depends on K, so it is checked where K is known
        config = McmcConfig(iw_dof=4)
        assert config.resolved_iw_dof(2) == 4
        with pytest.raises(ConfigurationError, match=r"^iw_dof = 4 must exceed n_params \+ 1 = 4$"):
            config.resolved_iw_dof(3)
        X, y, row_customer, customer_ids, _ = random_panel(3, 4, 0)
        config = replace(config, total_draws=60, burn_in=10)
        with pytest.raises(ConfigurationError, match="iw_dof = 4 must exceed"):
            fit_hb_panel(X, y, row_customer, customer_ids, config=config)

    @pytest.mark.parametrize(
        "name, value", [("iw_scale", 0.0), ("iw_scale", -1.0), ("rw_scale", 0.0)]
    )
    def test_nonpositive_scales_named(self, name, value):
        with pytest.raises(ConfigurationError, match=f"{name} must be > 0"):
            McmcConfig(**{name: value})

    def test_retained_count(self):
        assert McmcConfig(total_draws=5000, burn_in=500, keep=1).n_retained() == 4500
        assert McmcConfig(total_draws=1000, burn_in=100, keep=7).n_retained() == 128

    def test_empty_posterior_refused_by_keep(self):
        with pytest.raises(ConfigurationError, match="keep = 100 retains no draw of the 50"):
            McmcConfig(total_draws=60, burn_in=10, keep=100)
        # replace checks again, so no chain can start from such a config
        with pytest.raises(ConfigurationError, match="keep = 100"):
            replace(McmcConfig(total_draws=60, burn_in=10), keep=100)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name",
        ["rw_scale", "mu_prior_mean", "mu_prior_precision", "iw_scale", "dirichlet_concentration"],
    )
    def test_non_finite_float_refused_by_name(self, name, value):
        with pytest.raises(ConfigurationError, match=f"^{name} must be finite, got {value!r}$"):
            McmcConfig(total_draws=60, burn_in=10, **{name: value})
        with pytest.raises(ConfigurationError, match=f"^{name} must be finite"):
            replace(McmcConfig(total_draws=60, burn_in=10), **{name: value})


class TestPanel:
    def test_unlabeled_rows_rejected(self):
        rows = Offers([1], [1], [[1.0, 1.0, 0.1]], [UNLABELED])
        with pytest.raises(InvalidInputError):
            build_panel(rows)

    def test_missing_covariates_rejected(self):
        rows = Offers([1, 2], [1, 1], [[1.0, 1.0, 0.1]] * 2, [ACCEPTED, REJECTED])
        with pytest.raises(DataIntegrityError, match="^covariates missing for customer 2$"):
            build_panel(rows, covariates=([1], [[0.0]]))

    def test_covariate_rows_joined_by_id(self):
        rows = Offers([7, 3, 7], [1, 1, 2], [[1.0, 1.0, 0.1]] * 3, [ACCEPTED, REJECTED, REJECTED])
        *_, customer_ids, Z = build_panel(rows, covariates=([9, 7, 3], [[0.9, 9], [0.7, 7], [0.3, 3]]))
        assert customer_ids == [3, 7]
        assert Z.tolist() == [[0.3, 3], [0.7, 7]]

    def test_customers_sorted_by_id(self):
        X = [[1.0, 1.0, 0.1], [1.0, 0.0, -0.1], [1.0, 2.0, 0.0]]
        rows = Offers([9, 2, 9], [1, 1, 2], X, [ACCEPTED, REJECTED, REJECTED])
        X, y, row_customer, customer_ids, _ = build_panel(rows)
        assert customer_ids == [2, 9]
        assert row_customer.tolist() == [1, 0, 1]
        assert y.tolist() == [1.0, 0.0, 0.0]
        assert np.array_equal(X, rows.X)


class TestSampler:
    def test_retained_draw_count_matches_config(self):
        _, draws = small_fit(n_customers=8, total_draws=300, burn_in=60)
        assert draws.n_draws == (300 - 60) // 1

    def test_five_thousand_draw_schedule(self):
        dataset = simulate_dataset(GroundTruthConfig(n_customers=8, seed=61))
        config = McmcConfig(total_draws=5000, burn_in=500, seed=2)
        draws = fit_hb_mixed_logit(dataset.train, None, ncomp=1, config=config)
        assert draws.n_draws == 4500

    def test_single_component_weights_are_one(self):
        _, draws = small_fit(n_customers=12, total_draws=200, burn_in=40)
        assert np.all(draws.weights == 1.0)

    def test_determinism(self):
        _, a = small_fit(n_customers=15, total_draws=250, burn_in=50, chain_seed=9)
        _, b = small_fit(n_customers=15, total_draws=250, burn_in=50, chain_seed=9)
        assert np.array_equal(a.betas, b.betas)
        assert np.array_equal(a.covariances, b.covariances)
        assert np.array_equal(a.log_likelihood, b.log_likelihood)

    def test_retained_mixtures_satisfy_invariants(self):
        _, draws = small_fit(n_customers=25, total_draws=300, burn_in=60, ncomp=2)
        np.testing.assert_allclose(draws.weights.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(draws.weights >= 0)
        for r in range(0, draws.n_draws, 37):
            for k in range(draws.weights.shape[1]):
                np.linalg.cholesky(draws.covariances[r, k])  # raises unless SPD

    def test_acceptance_rates_within_diagnostic_band(self):
        _, draws = small_fit(n_customers=120, total_draws=800, burn_in=160, data_seed=71)
        assert draws.acceptance_rates.min() > 0.05
        assert draws.acceptance_rates.max() < 0.70

    def test_shrinkage_keeps_sparse_customers_near_population(self):
        dataset, draws = small_fit(n_customers=60, total_draws=600, burn_in=150, data_seed=81)
        counts = np.bincount(dataset.train.customer_id)
        post_mean = draws.betas.mean(axis=0)
        mean_mu = draws.means.mean(axis=0)[0]
        mean_sigma = draws.covariances.mean(axis=0)[0]
        mean_delta = draws.delta.mean(axis=0)
        scale = np.sqrt(np.diag(mean_sigma))
        singles = np.flatnonzero(counts == 1)
        assert singles.size
        z = dataset.customers.loyalty_centered[join(dataset.customers.customer_id, singles)]
        for idx, z_c in zip(join(draws.customer_ids, singles), z):
            prior_mean = mean_mu + mean_delta[:, 0] * z_c
            assert np.all(np.abs(post_mean[idx] - prior_mean) <= 5.0 * scale)

    def test_exact_inference_on_flat_prior_toy(self):
        # one customer, one parameter; population pinned to N(0, ~100)
        X = np.ones((4, 1))
        y = np.array([1.0, 1.0, 0.0, 1.0])
        row_customer = np.zeros(4, dtype=int)
        config = McmcConfig(
            total_draws=6000,
            burn_in=1000,
            seed=123,
            mu_prior_precision=1e8,
            iw_dof=2000,
            iw_scale=1998 * 100.0,
        )
        draws = fit_hb_panel(X, y, row_customer, [1], None, ncomp=1, config=config)
        mcmc_mean = float(draws.betas[:, 0, 0].mean())

        # dense quadrature of likelihood x N(0, 100)
        grid = np.linspace(-12.0, 12.0, 24001)
        loglik = 3 * (grid - np.logaddexp(0, grid)) - np.logaddexp(0, grid)
        logprior = -0.5 * grid**2 / 100.0
        w = np.exp(loglik + logprior - (loglik + logprior).max())
        quad_mean = float((grid * w).sum() / w.sum())
        assert mcmc_mean == pytest.approx(quad_mean, abs=0.05)

    def test_recovery_on_thousand_customer_dataset(self):
        dataset = simulate_dataset(GroundTruthConfig(n_customers=1000, seed=91))
        covariates = dataset.customers.covariates(include_demographic=False)
        config = McmcConfig(total_draws=800, burn_in=150, seed=14)
        draws = fit_hb_mixed_logit(dataset.train, covariates, ncomp=1, config=config)
        post = draws.betas.mean(axis=0)
        true = dataset.true_coefficients[np.array(draws.customer_ids) - 1]
        corr = np.corrcoef(post[:, 2], true[:, 2])[0, 1]
        assert corr >= 0.5

    def test_fit_holds_the_checked_ids_as_ints(self):
        X, y, row_customer, _, _ = random_panel(0, 2, 0)
        draws = fit_hb_panel(X, y, row_customer, np.array([1.0, 2.0]), config=STACK_CONFIG)
        assert draws.customer_ids == [1, 2] and {type(i) for i in draws.customer_ids} == {int}

    def test_zero_observation_guard(self):
        X = np.ones((2, 1))
        y = np.array([1.0, 0.0])
        row_customer = np.zeros(2, dtype=int)
        with pytest.raises(DataIntegrityError):
            fit_hb_panel(X, y, row_customer, [1, 2], None)


def random_panel(seed, n_customers, n_cov):
    """A shuffled panel of 1-3 offers per customer (ids from 100), each
    offer seen once accepted and once rejected: separable labels would send
    the pooled start and a tiny block's betas off to infinity."""
    rng = np.random.default_rng(seed)
    offer_customer = np.repeat(np.arange(n_customers), rng.integers(1, 4, n_customers))
    n = len(offer_customer)
    X = np.column_stack([np.ones(n), rng.integers(1, 6, n), rng.uniform(-0.3, 0.3, n)])
    rows = rng.permutation(2 * n)
    y = np.repeat([1.0, 0.0], n)[rows]
    Z = rng.normal(size=(n_customers, n_cov)) if n_cov else None
    customer_ids = list(range(100, 100 + n_customers))
    return np.vstack([X, X])[rows], y, np.tile(offer_customer, 2)[rows], customer_ids, Z


def assert_same_fit(got, expected):
    assert got.customer_ids == expected.customer_ids
    assert got.config == expected.config
    assert np.array_equal(got.acceptance_rates, expected.acceptance_rates)
    for name in PosteriorDraws._AXES:
        a, b = getattr(got, name), getattr(expected, name)
        assert a.shape == b.shape, name
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=0, err_msg=name)


STACK_CONFIG = McmcConfig(total_draws=24, burn_in=8)

# accepted Metropolis steps per customer and posterior means of the stacked
# fit of random_panel blocks of 7, 3 and 11 customers (ncomp 2, one
# covariate, STACK_CONFIG, seeds 1, 2, 3), recorded from the sweep that held
# per-customer state as (blocks, customers, K), to 13 significant digits
PINNED_STACK = [
    dict(
        accepted=[2, 9, 5, 3, 3, 3, 5],
        betas=[[0.547588238697, 1.134901216877, -1.121448911334],
               [0.1268155404434, -0.001832951038523, 0.651887129659],
               [-1.124478074943, 0.5437872656681, -0.901237264952],
               [0.01290789809188, 0.3912476706432, 0.6404903500346],
               [-1.187974440314, 0.8409767309002, -0.5036585658824],
               [-1.082363857488, -0.6381675741388, -1.486968603689],
               [-0.07645465164732, 0.2388187503291, -1.639797904223]],
        means=[[4.34776255523, -0.480480642528, -0.08406819871762],
               [0.3048019351106, -0.1413205864217, -0.2141795697298]],
        covariances=[[[2.139217595582, 0.0006730415806111, 0.1079728879877],
                      [0.0006730415806111, 1.206487251882, -0.2445945637515],
                      [0.1079728879877, -0.2445945637515, 1.581554505793]],
                     [[1.089691721167, -0.2226073621686, 0.2040995016491],
                      [-0.2226073621686, 1.626700929127, 0.1075612174019],
                      [0.2040995016491, 0.1075612174019, 1.312598222788]]],
        delta=[[-0.6160917875646], [0.2785107022468], [-0.5471181727887]],
    ),
    dict(
        accepted=[4, 5, 5],
        betas=[[-1.84273997724, 0.5769426498646, -1.326242522869],
               [-3.594506980099, 2.105516573864, -0.2539051035073],
               [-1.958883568413, 0.927875271661, 0.1279915689375]],
        means=[[-1.086966941019, 7.197613616759, 4.73543052911],
               [-3.456583478647, 1.475627410849, -0.2384527058097]],
        covariances=[[[2.902159625706, -0.1738282067176, 0.2880942120604],
                      [-0.1738282067176, 3.087896159036, 0.2680649598373],
                      [0.2880942120604, 0.2680649598373, 1.861736691956]],
                     [[1.638603451229, 0.4315801052458, 0.05395476330717],
                      [0.4315801052458, 1.860225709188, -0.09812333178092],
                      [0.05395476330717, -0.09812333178092, 1.40121417208]]],
        delta=[[-6.138855534576], [2.454283892641], [0.8443502621623]],
    ),
    dict(
        accepted=[5, 2, 8, 5, 5, 2, 5, 7, 8, 4, 8],
        betas=[[2.623824730089, -3.217819607081, 0.4562127964382],
               [0.5243173433741, -0.834218993443, -5.085261365706],
               [-2.572872236056, 0.4601101765726, -1.33643238153],
               [-2.586564526455, 1.171419581984, -2.245059937175],
               [2.621788689779, -0.7609458597594, -0.752678611878],
               [-0.7937653248654, 0.4997670681655, -0.6076353551861],
               [3.631992467934, -2.463201258297, -1.90369090645],
               [0.636288913257, -0.6124251321793, 1.139449093506],
               [0.6764799266949, -0.1874115787924, 0.768726098197],
               [-1.639209953612, 0.1636645134251, -1.196938666695],
               [-1.115336719753, 0.3934119737314, -1.836790034625]],
        means=[[1.000866220839, -1.073041166058, 0.3867465847182],
               [-0.2661338919628, -0.0968308102434, -2.297035168982]],
        covariances=[[[1.762793838753, -0.4181584433103, -0.4700763422415],
                      [-0.4181584433103, 1.033783111695, 0.1774624160972],
                      [-0.4700763422415, 0.1774624160972, 2.225327376621]],
                     [[2.042682713714, -0.4844503516791, -0.583760803003],
                      [-0.4844503516791, 1.118073377106, 0.3928193152767],
                      [-0.583760803003, 0.3928193152767, 1.522660331583]]],
        delta=[[1.575968642869], [-0.8990047354792], [0.9930460299747]],
    ),
]


# fit_hb_panel on random_panel(5, 12, 1) at 80/20 draws, keep 3, seed 9,
# by ncomp: each customer's accepted proposals, and the betas averaged over
# the 20 kept draws to 13 significant digits.  A changed draw (one flipped
# accept) moves the averages by about the proposal scale; BLAS rounding
# moves them far less than the 1e-9 they are compared at
PINNED_SMALL_FIT = {
    1: dict(
        accepted=[17, 17, 22, 19, 24, 12, 20, 22, 21, 19, 12, 14],
        betas=[[-2.646091158676, 0.9744473553388, 3.693233895793],
               [-0.8671505589336, 0.9983609483183, 0.4270379216612],
               [-0.2776597667049, 0.08061260879489, -0.9853405831589],
               [-0.03760667407555, -0.1150559780504, -2.888501844695],
               [-0.2366650886022, 0.2326238512072, 3.855090910934],
               [-0.3464204319174, -0.2052882804822, -1.719713926606],
               [0.001184199713914, -0.227180720789, -1.241144419345],
               [-2.60075682262, 1.210485091044, 2.226531258334],
               [0.4809699840347, -0.1810987356704, -3.029573987603],
               [-0.7127060056767, 0.7650588442333, -1.068579555553],
               [-1.390338295252, 0.6985893077846, 1.461709828665],
               [-0.004618146906085, -0.02727017111155, -0.2687020349397]],
    ),
    2: dict(
        accepted=[9, 13, 12, 14, 17, 12, 12, 14, 9, 8, 9, 15],
        betas=[[-0.9602766048241, 0.3806248548393, -2.173668519112],
               [-0.9324085956175, 1.038877883918, -2.12564173924],
               [0.3896509162426, 0.8926340672119, -3.419246442701],
               [3.275595443259, -1.456683513153, 4.607925614781],
               [-0.6175799901464, 0.6531683616525, -2.224629144264],
               [2.435605806435, -0.4836919181913, 3.837185550108],
               [2.455400896816, -0.5086452216018, 3.727122962172],
               [0.2864495305071, -2.766589809206, -8.262564115425],
               [1.914102239124, -0.4334343770148, -5.601898097809],
               [-0.9516554167704, 0.984992471769, -2.253922353948],
               [0.1421181231685, -0.0874930940208, -4.786165518299],
               [2.144635598397, -1.025845760606, 4.9316862727]],
    ),
}


class TestStacking:
    @settings(max_examples=50, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 25), min_size=1, max_size=4),
        ncomp=st.integers(1, 3),
        n_cov=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
        order=st.randoms(use_true_random=False),
    )
    def test_each_block_equals_its_solo_fit_in_any_order(self, sizes, ncomp, n_cov, seed, order):
        panels = [random_panel(seed + b, n, n_cov) for b, n in enumerate(sizes)]
        seeds = [seed + 100 * b for b in range(len(sizes))]
        stacked = fit_hb_panels(panels, ncomp, STACK_CONFIG, seeds)
        assert len(stacked) == len(panels)
        for panel, block_seed, fit in zip(panels, seeds, stacked):
            solo_config = replace(STACK_CONFIG, seed=block_seed)
            assert_same_fit(fit, fit_hb_panel(*panel, ncomp=ncomp, config=solo_config))
        perm = list(range(len(sizes)))
        order.shuffle(perm)
        permuted = fit_hb_panels(
            [panels[i] for i in perm], ncomp, STACK_CONFIG, [seeds[i] for i in perm]
        )
        for i, fit in zip(perm, permuted):
            assert_same_fit(fit, stacked[i])

    def test_reruns_are_byte_identical(self):
        panels = [random_panel(b, n, 1) for b, n in enumerate([7, 3, 11])]
        first = fit_hb_panels(panels, 2, STACK_CONFIG, [1, 2, 3])
        second = fit_hb_panels(panels, 2, STACK_CONFIG, [1, 2, 3])
        for a, b in zip(first, second):
            for name in PosteriorDraws._AXES:
                assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_stacked_chain_equals_its_pinned_record(self):
        panels = [random_panel(b, n, 1) for b, n in enumerate([7, 3, 11])]
        fits = fit_hb_panels(panels, 2, STACK_CONFIG, [1, 2, 3])
        for fit, pinned in zip(fits, PINNED_STACK):
            accepted = np.rint(fit.acceptance_rates * STACK_CONFIG.total_draws)
            assert accepted.tolist() == pinned["accepted"]
            for name in ("betas", "means", "covariances", "delta"):
                np.testing.assert_allclose(
                    getattr(fit, name).mean(axis=0), pinned[name], rtol=1e-9, atol=0, err_msg=name
                )

    @pytest.mark.parametrize("ncomp", [1, 3])
    @pytest.mark.parametrize("ulps", [-3, 2])
    def test_likelihood_rounding_reaches_only_the_trace(self, monkeypatch, ncomp, ulps):
        """The likelihood pass's values enter a draw only through the accept
        test's log-ratio, so moving every value a few ulps, as another
        summation order does, leaves every draw byte-identical and moves
        only the saved log-likelihood trace."""
        panels = [random_panel(b, n, 1) for b, n in enumerate([7, 3, 11])]
        config = McmcConfig(total_draws=120, burn_in=30)
        exact = fit_hb_panels(panels, ncomp, config, [1, 2, 3])
        original, toward = hb._customer_loglik, math.copysign(math.inf, ulps)

        def moved(*args):
            loglik = original(*args)
            for _ in range(abs(ulps)):
                loglik = np.nextafter(loglik, toward)
            return loglik

        monkeypatch.setattr(hb, "_customer_loglik", moved)
        for got, expected in zip(fit_hb_panels(panels, ncomp, config, [1, 2, 3]), exact):
            for name in ("betas", "means", "covariances", "weights", "delta", "acceptance_rates"):
                assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
            assert not np.array_equal(got.log_likelihood, expected.log_likelihood)

    @pytest.mark.parametrize("ncomp, pinned", PINNED_SMALL_FIT.items())
    def test_small_fit_equals_its_pinned_record(self, ncomp, pinned):
        """Any change to a draw of this fit moves its acceptance counts or
        its average betas."""
        config = McmcConfig(total_draws=80, burn_in=20, keep=3, seed=9)
        draws = fit_hb_panel(*random_panel(5, 12, 1), ncomp=ncomp, config=config)
        accepted = np.rint(draws.acceptance_rates * config.total_draws)
        assert accepted.tolist() == pinned["accepted"]
        np.testing.assert_allclose(draws.betas.mean(axis=0), pinned["betas"], rtol=1e-9, atol=0)

    def test_seed_count_differing_from_panel_count_named(self):
        panels = [random_panel(b, 5, 0) for b in range(3)]
        for seeds in ([1, 2], [1, 2, 3, 4]):
            with pytest.raises(InvalidInputError, match=f"^{len(seeds)} seeds for 3 panels$"):
                fit_hb_panels(panels, 1, STACK_CONFIG, seeds)

    def test_customer_without_rows_named_by_block(self):
        panels = [random_panel(b, 5, 0) for b in range(3)]
        X, y, row_customer, customer_ids, Z = panels[1]
        panels[1] = (X, y, row_customer, customer_ids + [999], Z)
        with pytest.raises(
            DataIntegrityError, match="^block 1: every customer needs at least one observation$"
        ):
            fit_hb_panels(panels, 1, STACK_CONFIG, [1, 2, 3])

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_block_without_customers_named_by_block(self, position):
        panels = [random_panel(b, 5, 1) for b in range(2)]
        empty = (np.empty((0, 3)), np.empty(0), np.empty(0, dtype=int), [], np.empty((0, 1)))
        panels.insert(position, empty)
        with pytest.raises(InvalidInputError, match=f"^block {position}: no customers to fit$"):
            fit_hb_panels(panels, 1, STACK_CONFIG, [1, 2, 3])

    @pytest.mark.parametrize(
        "step, message",
        [
            ("_draw_components", "Cholesky of inverse scale of component 0 failed at draw 3"),
            ("_draw_delta", "Cholesky of delta posterior failed at draw 3"),
        ],
    )
    def test_cholesky_failure_named_by_block_and_draw(self, monkeypatch, step, message):
        break_block_at_draw(monkeypatch, step, block=1, draw=3)
        panels = [random_panel(b, 6, 1) for b in range(3)]
        with pytest.raises(EstimationError, match=f"^block 1: {message}$") as info:
            fit_hb_panels(panels, 2, STACK_CONFIG, [1, 2, 3])
        assert info.value.block == 1

    @pytest.mark.parametrize(
        "name, position, value, rule",
        [("X", 0, math.nan, "must be finite"), ("Z", 4, math.inf, "must be finite"),
         ("y", 1, 2.0, "must be 0 or 1"), ("y", 1, math.nan, "must be 0 or 1"),
         ("row_customer", 3, 2.5, "must be a whole number")],
    )
    @pytest.mark.parametrize("n_blocks", [1, 2])
    def test_non_finite_input_named_by_block_and_array(self, name, position, value, rule, n_blocks):
        panels = [random_panel(b, 5, 1) for b in range(n_blocks)]
        X, y, row_customer, customer_ids, Z = (np.array(a, dtype=float) for a in panels[-1])
        if name != "row_customer":  # a fractional row_customer is refused, not truncated
            row_customer = row_customer.astype(int)
        {"X": X[:, 1], "Z": Z[:, 0], "y": y, "row_customer": row_customer}[name][position] = value
        panels[-1] = (X, y, row_customer, customer_ids.astype(int).tolist(), Z)
        message = rf"^block {n_blocks - 1}: {name} row {position} = .*{value!r}.* {rule}$"
        with pytest.raises(InvalidInputError, match=message):
            if n_blocks == 1:
                fit_hb_panel(*panels[0], config=replace(STACK_CONFIG, seed=1))
            else:
                fit_hb_panels(panels, 1, STACK_CONFIG, [1, 2])

    @pytest.mark.parametrize("index", [-1, -7, 5, 6])
    @pytest.mark.parametrize("n_blocks", [1, 2])
    def test_row_customer_outside_the_block_named_by_block_and_row(self, index, n_blocks):
        panels = [random_panel(b, 5, 1) for b in range(n_blocks)]
        X, y, row_customer, customer_ids, Z = panels[-1]
        row_customer = row_customer.copy()
        row_customer[3] = index
        panels[-1] = (X, y, row_customer, customer_ids, Z)
        message = rf"^block {n_blocks - 1}: row_customer row 3 = {index} must lie in \[0, 5\)$"
        with pytest.raises(InvalidInputError, match=message):
            fit_hb_panels(panels, 1, STACK_CONFIG, list(range(n_blocks)))

    @pytest.mark.parametrize("name, position", [("y", 1), ("row_customer", 2)])
    @pytest.mark.parametrize("n_blocks", [1, 2])
    def test_array_one_row_short_named_by_block_and_lengths(self, name, position, n_blocks):
        panels = [random_panel(b, 5, 1) for b in range(n_blocks)]
        panel = list(panels[-1])
        rows = len(panel[0])
        panel[position] = panel[position][:-1]
        panels[-1] = tuple(panel)
        message = rf"^block {n_blocks - 1}: {name} has {rows - 1} entries for the {rows} rows of X$"
        with pytest.raises(InvalidInputError, match=message):
            fit_hb_panels(panels, 1, STACK_CONFIG, list(range(n_blocks)))

    @pytest.mark.parametrize(
        "position, spoil, message",
        [
            (0, lambda X: X[:, 1], r"X has shape \(\d+,\), not 2-D"),
            (0, lambda X: X[:, :0], r"X has shape \(\d+, 0\), with no columns"),
            (4, lambda Z: Z[:, 0], r"Z has shape \(5,\), not 2-D"),
            (1, lambda y: y[:, None], r"y has shape \(\d+, 1\), not 1-D"),
            (2, lambda rows: rows[:, None], r"row_customer has shape \(\d+, 1\), not 1-D"),
            (3, lambda ids: [1.7] + ids[1:], r"customer id 1\.7 is not a 64-bit integer"),
            (3, lambda ids: ids[:1] * 2 + ids[2:], "repeats customer id 100"),
            (3, lambda ids: ids[:1] + [True] + ids[2:], "customer id True is not a 64-bit integer"),
        ],
        ids=["X-1d", "X-no-columns", "Z-1d", "y-2d", "row_customer-2d", "fractional-id",
             "repeated-id", "bool-id"],
    )
    @pytest.mark.parametrize("n_blocks, block", [(1, 0), (2, 0), (2, 1)])
    def test_malformed_array_or_id_named_by_block(self, position, spoil, message, n_blocks, block):
        panels = [random_panel(b, 5, 1) for b in range(n_blocks)]
        panel = list(panels[block])
        panel[position] = spoil(panel[position])
        panels[block] = tuple(panel)
        with pytest.raises(InvalidInputError, match=f"^block {block}: {message}$"):
            fit_hb_panels(panels, 1, STACK_CONFIG, list(range(n_blocks)))


class TestChain:
    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 12), min_size=1, max_size=3),
        ncomp=st.integers(1, 3),
        n_cov=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sweeps_keep_the_state_invariants_and_reproduce_the_fit(
        self, sizes, ncomp, n_cov, seed
    ):
        panels = [random_panel(seed + b, n, n_cov) for b, n in enumerate(sizes)]
        seeds = [seed + 100 * b for b in range(len(sizes))]
        config = STACK_CONFIG
        chain = hb._Chain(hb._checked_blocks(panels, ncomp, seeds), ncomp, config, seeds)
        padded = ~chain.valid
        start = (chain.member, chain.onehot, chain.counts)
        adapt_every = max(min(25, config.burn_in // 4), 1)  # the schedule of fit_hb_panels
        for it in range(1, config.total_draws + 1):
            chain.sweep(it)
            if it <= config.burn_in and it % adapt_every == 0:
                chain.adapt()
            assert not np.swapaxes(chain.beta, 1, 2)[padded].any()
            assert not np.moveaxis(chain.prop_factor, -1, 1)[padded].any()
            assert not chain.accept_counts[padded].any()
            assert np.array_equal(chain.loglik, _customer_loglik(*chain.rows, chain.beta))
            assert not np.swapaxes(chain.onehot, 1, 2)[padded].any()
            assert chain.counts.sum(axis=1).tolist() == sizes
            if ncomp == 1:
                membership = (chain.member, chain.onehot, chain.counts)
                assert all(now is then for now, then in zip(membership, start))
        for b, (fit, n) in enumerate(zip(fit_hb_panels(panels, ncomp, config, seeds), sizes)):
            roots, rates = chain.roots[b], chain.accept_counts[b, :n] / config.total_draws
            assert np.array_equal(fit.betas[-1], chain.beta[b, :, :n].T)
            assert np.array_equal(fit.weights[-1], chain.weights[b])
            assert np.array_equal(fit.means[-1], chain.mu[b])
            covariances = np.linalg.inv(roots @ np.swapaxes(roots, 1, 2))
            assert np.array_equal(fit.covariances[-1], covariances)
            assert np.array_equal(fit.delta[-1], chain.delta[b])
            assert fit.log_likelihood[-1] == chain.loglik[b, :n].sum()
            assert np.array_equal(fit.acceptance_rates, rates)


# a chain long enough for four proposal refits in burn-in, keeping every
# third draw after it
AHEAD_CONFIG = McmcConfig(total_draws=90, burn_in=40, keep=3, seed=17)
# the producer, which a test replaces by one that sends fewer sweeps
PRODUCE = hb._produce


def counting_forks(monkeypatch, cpus):
    """Make ``cpus`` CPUs usable and a chain of any size draw ahead; returns
    the list that each process this process starts is appended to."""
    started = []
    start = multiprocessing.process.BaseProcess.start

    def counted(process):
        started.append(process)
        start(process)

    monkeypatch.setattr(shares, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(hb, "DRAW_AHEAD_VALUES", 1)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted)
    return started


def assert_no_child_left():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestDrawAhead:
    """A chain of one block and one component draws its variates a sweep
    ahead in a forked process when a second CPU is usable, with the draws of
    the chain that draws them itself."""

    @pytest.mark.parametrize("n_cov", [0, 1, 2])
    @pytest.mark.parametrize("n_customers, seed", [(1, 3), (9, 5), (40, 8)])
    def test_drawn_ahead_fit_equals_the_in_process_fit(
        self, monkeypatch, n_customers, seed, n_cov
    ):
        panel = random_panel(seed, n_customers, n_cov)
        started = counting_forks(monkeypatch, 1)
        alone = fit_hb_panel(*panel, config=AHEAD_CONFIG)
        assert started == []
        monkeypatch.setattr(shares, "_usable_cpus", lambda: 2)
        ahead = fit_hb_panel(*panel, config=AHEAD_CONFIG)
        assert len(started) == 1
        assert ahead.customer_ids == alone.customer_ids and ahead.config == alone.config
        for name in PosteriorDraws._AXES:
            assert np.array_equal(getattr(ahead, name), getattr(alone, name)), name
        assert_no_child_left()

    def test_drawn_ahead_fit_equals_its_pinned_record(self, monkeypatch):
        started = counting_forks(monkeypatch, 2)
        config = McmcConfig(total_draws=80, burn_in=20, keep=3, seed=9)
        draws = fit_hb_panel(*random_panel(5, 12, 1), config=config)
        assert len(started) == 1
        accepted = np.rint(draws.acceptance_rates * config.total_draws)
        assert accepted.tolist() == PINNED_SMALL_FIT[1]["accepted"]
        np.testing.assert_allclose(
            draws.betas.mean(axis=0), PINNED_SMALL_FIT[1]["betas"], rtol=1e-9, atol=0
        )
        assert_no_child_left()

    @pytest.mark.parametrize(
        "produce, code, draw",
        [
            (lambda tape, write_end, read_end, sweeps: os._exit(3), 3, 2),
            # five sweeps sent, then a normal exit
            (lambda tape, *pipe_ends: PRODUCE(tape, *pipe_ends[:2], 5), 0, 7),
        ],
        ids=["killed", "short"],
    )
    def test_a_producer_that_exits_early_is_named(self, monkeypatch, produce, code, draw):
        counting_forks(monkeypatch, 2)
        monkeypatch.setattr(hb, "_produce", produce)
        message = (
            f"^the process drawing the chain's variates exited with code {code} "
            f"before sending those of draw {draw}$"
        )
        with pytest.raises(OfferLabError, match=message):
            fit_hb_panel(*random_panel(2, 6, 1), config=AHEAD_CONFIG)
        assert_no_child_left()

    @pytest.mark.parametrize("step", ["_draw_components", "_draw_delta"])
    def test_an_error_in_the_chain_leaves_no_child(self, monkeypatch, step):
        started = counting_forks(monkeypatch, 2)
        break_block_at_draw(monkeypatch, step, block=0, draw=5)
        with pytest.raises(EstimationError, match="^block 0: Cholesky of .* failed at draw 5$"):
            fit_hb_panel(*random_panel(2, 6, 1), config=AHEAD_CONFIG)
        assert len(started) == 1
        assert_no_child_left()

    def test_an_interrupt_leaves_no_child(self, monkeypatch):
        started = counting_forks(monkeypatch, 2)
        adapt = hb._Chain.adapt

        def interrupted(chain, covs=None):
            if covs is None:  # the first refit in burn-in, after draw 10
                raise KeyboardInterrupt
            adapt(chain, covs)

        monkeypatch.setattr(hb._Chain, "adapt", interrupted)
        with pytest.raises(KeyboardInterrupt):
            fit_hb_panel(*random_panel(2, 6, 1), config=AHEAD_CONFIG)
        assert len(started) == 1
        assert_no_child_left()

    def test_a_step_that_asks_for_another_variate_is_named(self, monkeypatch):
        counting_forks(monkeypatch, 2)
        original, calls = hb._draw_indicators, []

        def extra_draw(rngs, sizes, *args):
            calls.append(None)
            if len(calls) == 3:
                rngs[0].standard_normal(2)
            return original(rngs, sizes, *args)

        monkeypatch.setattr(hb, "_draw_indicators", extra_draw)
        # a draw's calls: (a)'s normals and uniforms, then (b)'s advance
        message = (
            r"^block 0: generator call 3 of draw 3 is standard_normal\(2\); "
            r"that of draw 1 was advance\(6\)$"
        )
        with pytest.raises(EstimationError, match=message):
            fit_hb_panel(*random_panel(2, 6, 1), config=AHEAD_CONFIG)
        assert_no_child_left()

    def test_a_step_that_skips_a_variate_is_named(self, monkeypatch):
        counting_forks(monkeypatch, 2)
        original = hb._draw_delta

        def skipped(rngs, dev, Zk, ZZ, roots, amu, draw):
            if draw == 4:
                return np.zeros((1, dev.shape[1], Zk.shape[2]))
            return original(rngs, dev, Zk, ZZ, roots, amu, draw)

        monkeypatch.setattr(hb, "_draw_delta", skipped)
        message = "^block 0: draw 4 made 9 of the 10 generator calls of draw 1$"
        with pytest.raises(EstimationError, match=message):
            fit_hb_panel(*random_panel(2, 6, 1), config=AHEAD_CONFIG)
        assert_no_child_left()

    @pytest.mark.parametrize(
        "cpus, ncomp, sizes",
        [(2, 1, [6, 4]), (2, 2, [6]), (2, 3, [6, 4]), (1, 1, [6])],
        ids=["stacked", "two-components", "stacked-three-components", "one-cpu"],
    )
    def test_these_chains_draw_in_process(self, monkeypatch, cpus, ncomp, sizes):
        panels = [random_panel(b, n, 1) for b, n in enumerate(sizes)]
        seeds = list(range(len(sizes)))
        started = counting_forks(monkeypatch, cpus)
        fits = fit_hb_panels(panels, ncomp, AHEAD_CONFIG, seeds)
        assert started == []
        monkeypatch.setattr(shares, "_usable_cpus", lambda: 1)
        for fit, expected in zip(fits, fit_hb_panels(panels, ncomp, AHEAD_CONFIG, seeds)):
            for name in PosteriorDraws._AXES:
                assert np.array_equal(getattr(fit, name), getattr(expected, name)), name

    @pytest.mark.parametrize("n_customers", [6, 511, 512])
    def test_a_chain_of_few_variates_a_sweep_draws_in_process(self, monkeypatch, n_customers):
        # 512 customers at K = 3 draw 2048 variates in step (a)
        started = counting_forks(monkeypatch, 2)
        monkeypatch.setattr(hb, "DRAW_AHEAD_VALUES", 2048)
        fit_hb_panel(*random_panel(2, n_customers, 0), config=STACK_CONFIG)
        assert len(started) == (n_customers == 512)
        assert_no_child_left()

    def test_a_daemonic_process_draws_in_process(self, monkeypatch):
        # a Pool worker may not start a process: one that tried would fail
        monkeypatch.setattr(shares, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(hb, "DRAW_AHEAD_VALUES", 1)
        panel = random_panel(2, 6, 1)
        pool = multiprocessing.get_context("fork").Pool(1)
        try:
            got = pool.apply(fit_hb_panel, panel, {"config": AHEAD_CONFIG})
        finally:
            pool.close()
            pool.join()
        expected = fit_hb_panel(*panel, config=AHEAD_CONFIG)
        for name in PosteriorDraws._AXES:
            assert np.array_equal(getattr(got, name), getattr(expected, name)), name

    def test_a_fit_inside_running_shares_draws_in_process(self, monkeypatch):
        started = counting_forks(monkeypatch, 2)
        monkeypatch.setattr(shares, "_sharing", True)
        fit_hb_panel(*random_panel(2, 6, 1), config=AHEAD_CONFIG)
        assert started == []


# two customers, six offers whose labels a plane separates: without a bound
# the pooled start ran off to about (-2e6, -9e5, 9e4), and the first
# covariance draw failed its Cholesky
SEPARABLE_PANEL = (
    np.array([[1.0, 1.0, -0.41], [1.0, 3.0, 0.47], [1.0, 4.0, 0.15],
              [1.0, 1.0, 0.45], [1.0, 4.0, -0.05], [1.0, 0.0, 0.32]]),
    np.array([0.0, 1.0, 1.0, 1.0, 1.0, 0.0]),
    np.array([0, 0, 0, 1, 1, 1]),
    [1, 2],
    None,
)


class TestPooledStart:
    def test_separable_panel_fits_with_finite_draws(self):
        X, y = SEPARABLE_PANEL[:2]
        start, info = _pooled_logit(X, y)
        assert np.all(np.abs(start) <= hb.POOLED_BOX) and np.isfinite(info).all()
        draws = fit_hb_panel(*SEPARABLE_PANEL, config=McmcConfig(total_draws=300, burn_in=50))
        for name in PosteriorDraws._AXES:
            assert np.isfinite(getattr(draws, name)).all(), name

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 30), n_cov=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_box_leaves_a_non_separable_start_bit_identical(self, n, n_cov, seed):
        X, y = random_panel(seed, n, n_cov)[:2]
        bounded = _pooled_logit(X, y)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hb, "POOLED_BOX", math.inf)
            unbounded = _pooled_logit(X, y)
        for a, b in zip(bounded, unbounded):
            assert np.array_equal(a, b)


def break_block_at_draw(monkeypatch, step, block, draw, chain=1):
    """Make ``step`` hand one block a negative definite prior scale at one
    draw of the ``chain``-th chain it sees, so that block's Cholesky fails."""
    original = getattr(hb, step)
    chains_seen = [0]

    def broken(*args):
        args = list(args)
        at = args[-1]  # every step takes the draw index last
        chains_seen[0] += at == 1
        if at == draw and chains_seen[0] == chain:
            n_blocks = len(args[0])
            if step == "_draw_components":  # V, the inverse-Wishart prior scale
                V = np.tile(args[-2], (n_blocks, 1, 1, 1))
                V[block] = -1e6 * np.eye(V.shape[-1])
                args[-2] = V
            else:  # amu, the prior precision of vec(delta)
                amu = np.full((n_blocks, 1, 1), args[-2])
                amu[block] = -1e6
                args[-2] = amu
        return original(*args)

    monkeypatch.setattr(hb, step, broken)


class TestSummaries:
    def test_posterior_mean_of_single_draw(self):
        draws = hand_built_draws([[[0.5, -0.2, 1.0]]])
        assert draws.scored_coefficients(POSTERIOR_MEAN)[0, 0] == pytest.approx([0.5, -0.2, 1.0])

    def test_symmetric_draws_cancel(self):
        b = np.array([[0.4, -1.0, 2.0]])
        draws = hand_built_draws([b, -b])
        assert draws.scored_coefficients(POSTERIOR_MEAN)[0, 0] == pytest.approx([0, 0, 0])


def dense_mvn_logpdf(x, cov):
    """Reference log N(x | 0, cov) for one row via slogdet and solve."""
    _, logdet = np.linalg.slogdet(cov)
    return -0.5 * (len(x) * math.log(2 * math.pi) + logdet + x @ np.linalg.solve(cov, x))


def random_roots(rng, ncomp, k):
    """Lower-triangular precision factors with a positive diagonal."""
    roots = np.tril(rng.normal(size=(ncomp, k, k)), -1)
    idx = np.arange(k)
    roots[:, idx, idx] = rng.uniform(0.3, 2.0, size=(ncomp, k))
    return roots


def step_layout(rows):
    """A (blocks, customers, width) array in the customers-last layout
    (blocks, width, customers) of the sampler's steps."""
    return np.ascontiguousarray(np.swapaxes(rows, -1, -2))


def population_state(rng, sizes, ncomp, k, n_cov):
    """Block-padded (blocks, customers, k) rows and (blocks, customers,
    n_cov) covariates, drawn for padded customers too, the components
    ``ind``, the real-customer mask ``valid`` and the (blocks, ncomp,
    customers) membership one-hot, which leaves padded customers out."""
    n_blocks, n_max = len(sizes), max(sizes)
    rows = rng.normal(scale=2.0, size=(n_blocks, n_max, k))
    Z = rng.normal(size=(n_blocks, n_max, n_cov))
    ind = rng.integers(0, ncomp, (n_blocks, n_max))
    valid = np.arange(n_max) < np.array(sizes)[:, None]
    onehot = ((ind[:, None] == np.arange(ncomp)[:, None]) & valid[:, None]).astype(float)
    return rows, Z, ind, valid, onehot


def in_order_utilities(X, coef):
    """Each row's x.beta, the K products summed in order over k, as the
    sampler's likelihood pass sums them."""
    u = X[:, 0] * coef[:, 0]
    for k in range(1, X.shape[1]):
        u += X[:, k] * coef[:, k]
    return u


def strided_customer_loglik(X, y, row_customer, betas):
    """The likelihood pass as written before it took rows by a flat index
    and formed log(1 + e^v) in place: rows gathered from the strided
    (customers, K) view, y applied as the sign of v = (1 - 2y) x.beta.
    Kept as the reference the sampler's pass must reproduce bit for bit."""
    flat = np.swapaxes(betas, 1, 2).reshape(-1, betas.shape[1])
    v = (1.0 - 2.0 * y) * in_order_utilities(X, np.take(flat, row_customer, axis=0))
    # log(1 + e^v) in the overflow-free form of numpy's scalar logaddexp(0, v);
    # the ufunc np.logaddexp takes several times as long
    row_ll = -(np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v))))
    return np.bincount(row_customer, weights=row_ll, minlength=len(flat)).reshape(len(betas), -1)


def every_component_sq_norms(diff, roots, member):
    """The (B, 2n) squared norms |P^T d|^2 of the current and proposed
    deviations under each customer's own component, picked from those under
    every component, each the K squares of one GEMM's projection summed in
    order."""
    n_blocks, ncomp, k, _ = roots.shape
    proj = np.matmul(np.swapaxes(roots, -1, -2), diff[:, None])
    every = proj[:, :, 0] ** 2
    for c in range(1, k):
        every += proj[:, :, c] ** 2
    own = np.tile(member - ncomp * np.arange(n_blocks)[:, None], 2)
    return np.take_along_axis(every, own[:, None], axis=1)[:, 0]


def masked_copy_metropolis(
    rngs, sizes, X, y, row_customer, beta, loglik, prop_factor, prior_mean, member, roots
):
    """Step (a) as written before it accepted by a select: masked copies
    into ``beta`` and ``loglik``, on the strided likelihood pass and the
    squared norms under every component.  Kept as the reference the
    sampler's step must reproduce bit for bit."""
    n = beta.shape[-1]
    # each customer's K normals, drawn consecutively, as contiguous (K, n) rows
    eps = hb._stacked(rngs, sizes, "standard_normal", 0.0, beta.shape[1:2])
    eps = np.ascontiguousarray(np.swapaxes(eps, 1, 2))
    proposal = beta + np.einsum("bijn,bjn->bin", prop_factor, eps)
    loglik_prop = strided_customer_loglik(X, y, row_customer, proposal)
    # the prior log-ratio of the proposed and the current deviation, from
    # one (K, 2n) product
    diff = np.empty(beta.shape[:2] + (2 * n,))
    np.subtract(beta, prior_mean, out=diff[..., :n])
    np.subtract(proposal, prior_mean, out=diff[..., n:])
    sq = every_component_sq_norms(diff, roots, member)
    log_ratio = (loglik_prop - loglik) + 0.5 * (sq[:, :n] - sq[:, n:])
    accept = np.log(hb._stacked(rngs, sizes, "random", 1.0)) < log_ratio
    np.copyto(beta, proposal, where=accept[:, None])
    np.copyto(loglik, loglik_prop, where=accept)
    return accept


def metropolis_state(rng, sizes, ncomp, k):
    """Block-padded step (a) inputs held as the sampler holds them: rows of
    1-3 offers for each real customer against the flattened (blocks *
    customers) columns, and a padded customer's beta and proposal factor
    zero, so it has no rows, proposes no step and its log likelihood is 0."""
    n_blocks, n_max = len(sizes), max(sizes)
    valid = np.arange(n_max) < np.array(sizes)[:, None]
    real = np.flatnonzero(valid.reshape(-1))
    row_customer = rng.permutation(np.repeat(real, rng.integers(1, 4, len(real))))
    X = rng.normal(scale=rng.choice([0.3, 1.0, 5.0]), size=(len(row_customer), k))
    y = rng.integers(0, 2, len(row_customer)).astype(float)
    beta = rng.normal(size=(n_blocks, k, n_max)) * valid[:, None]
    prop_factor = np.tril(rng.normal(scale=0.5, size=(n_blocks, n_max, k, k)))
    prop_factor = np.ascontiguousarray(np.moveaxis(prop_factor * valid[..., None, None], 1, -1))
    prior_mean = rng.normal(size=(n_blocks, k, n_max))
    member = ncomp * np.arange(n_blocks)[:, None] + rng.integers(0, ncomp, (n_blocks, n_max))
    roots = np.stack([random_roots(rng, ncomp, k) for _ in sizes])
    return X, y, row_customer, beta, prop_factor, prior_mean, member, roots


class TestSamplerParts:
    @given(
        n_blocks=st.integers(1, 3),
        ncomp=st.integers(1, 3),
        k=st.integers(1, 4),
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mvn_logpdf_matches_dense_reference(self, n_blocks, ncomp, k, n, seed):
        rng = np.random.default_rng(seed)
        roots = np.stack([random_roots(rng, ncomp, k) for _ in range(n_blocks)])
        diff = rng.normal(scale=2.0, size=(n_blocks, ncomp, n, k))
        got = _mvn_logpdf(step_layout(diff), roots)
        assert got.shape == (n_blocks, ncomp, n)
        for b in range(n_blocks):
            for c in range(ncomp):
                cov = np.linalg.inv(roots[b, c] @ roots[b, c].T)
                for i in range(n):
                    expected = dense_mvn_logpdf(diff[b, c, i], cov)
                    assert got[b, c, i] == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_wishart_root_is_lower_triangular_and_deterministic(self):
        scale = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 0.5]])
        dof, scales = np.array([[8.0]]), scale[None, None]
        root, z = _wishart_root([np.random.default_rng(7)], dof, scales, 1)
        assert root.shape == (1, 1, 3, 3) and z.shape == (1, 1, 3)
        assert np.array_equal(root, np.tril(root))
        assert np.all(np.diagonal(root, axis1=2, axis2=3) > 0)
        again = _wishart_root([np.random.default_rng(7)], dof, scales, 1)
        assert np.array_equal(root, again[0]) and np.array_equal(z, again[1])

    def test_wishart_root_mean_is_dof_times_inverse_scale(self):
        scale = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 0.5]])
        dof, n = 8, 4000
        # one block of n components, all drawn from one generator
        roots, _ = _wishart_root(
            [np.random.default_rng(11)], np.full((1, n), dof), np.tile(scale, (1, n, 1, 1)), 1
        )
        draws = roots[0] @ np.swapaxes(roots[0], 1, 2)
        sigma = np.linalg.inv(scale)
        # Var(W_ij) = dof * (sigma_ij^2 + sigma_ii * sigma_jj)
        se = np.sqrt(dof * (sigma**2 + np.outer(np.diag(sigma), np.diag(sigma))) / n)
        assert np.all(np.abs(draws.mean(axis=0) - dof * sigma) < 5 * se)

    def test_wishart_root_blocks_draw_from_their_own_generators(self):
        scale = np.tile(np.diag([2.0, 1.0, 0.5]), (2, 2, 1, 1))
        dof = np.array([[8.0, 9.0], [10.0, 8.0]])
        pair = _wishart_root([np.random.default_rng(1), np.random.default_rng(2)], dof, scale, 1)
        for b, seed in enumerate([1, 2]):
            alone = _wishart_root([np.random.default_rng(seed)], dof[[b]], scale[[b]], 1)
            assert np.array_equal(pair[0][b], alone[0][0])
            assert np.array_equal(pair[1][b], alone[1][0])

    @settings(max_examples=100, deadline=None)
    @given(
        n_blocks=st.integers(1, 3),
        n=st.integers(1, 8),
        k=st.integers(1, 4),
        rows=st.integers(1, 40),
        scale=st.sampled_from([0.1, 1.0, 10.0, 100.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_customer_loglik_matches_logaddexp_reference(self, n_blocks, n, k, rows, scale, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(scale=scale, size=(rows, k))
        y = rng.integers(0, 2, rows).astype(float)
        row_customer = rng.integers(0, n_blocks * n, rows)
        betas = rng.normal(size=(n_blocks, n, k))
        u = in_order_utilities(X, betas.reshape(-1, k)[row_customer])
        row_ll = -np.logaddexp(0.0, (1.0 - 2.0 * y) * u)
        expected = np.bincount(row_customer, weights=row_ll, minlength=n_blocks * n)
        row_coef = _coef_index(row_customer, k, n)
        got = _customer_loglik(_signed_design(X, y), row_customer, row_coef, step_layout(betas))
        assert got.shape == (n_blocks, n)
        np.testing.assert_allclose(got.reshape(-1), expected, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("u", [0.0, 5e-324, 709.0, 710.0, 800.0, 1e300])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_customer_loglik_exact_and_finite_at_extremes(self, u, sign, label):
        # one row per customer, x = u and beta = 1, so each customer's log
        # likelihood is its row's -log(1 + e^v) at v = (1 - 2y) u
        u = sign * u
        X, y, row_customer = np.array([[u]]), np.array([label]), np.array([0])
        row_coef = _coef_index(row_customer, 1, 1)
        got = _customer_loglik(_signed_design(X, y), row_customer, row_coef, np.ones((1, 1, 1)))
        assert np.isfinite(got).all()
        assert got[0, 0] == -np.logaddexp(0.0, (1.0 - 2.0 * label) * u)

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 8), min_size=1, max_size=3),
        ncomp=st.integers(1, 3),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_draw_components_matches_per_component_reference(self, sizes, ncomp, k, seed):
        rng = np.random.default_rng(seed)
        resid, _, ind, valid, onehot = population_state(rng, sizes, ncomp, k, 0)
        mubar = rng.normal(size=k)
        amu = rng.uniform(0.01, 2.0)
        nu = k + int(rng.integers(2, 6))
        W = rng.normal(size=(k, k))
        V = W @ W.T + k * np.eye(k)
        seeds = [seed + b for b in range(len(sizes))]
        rngs = [np.random.default_rng(s) for s in seeds]
        mu, roots = _draw_components(
            rngs, step_layout(resid), onehot, onehot.sum(axis=2), mubar, amu, nu, V, 1
        )
        assert mu.shape == (len(sizes), ncomp, k) and roots.shape == (len(sizes), ncomp, k, k)
        for b, (got_rng, twin) in enumerate(zip(rngs, map(np.random.default_rng, seeds))):
            for c in range(ncomp):
                members = resid[b][(ind[b] == c) & valid[b]]
                n_k = len(members)
                bbar = members.mean(axis=0) if n_k else np.zeros(k)
                scatter = (members - bbar).T @ (members - bbar)
                dev = bbar - mubar
                scale = V + scatter + amu * n_k / (amu + n_k) * np.outer(dev, dev)
                # Bartlett factor of Wishart(nu + n_k, scale^-1), row by row, then z
                A = np.zeros((k, k))
                for i in range(k):
                    A[i, i] = math.sqrt(twin.chisquare(nu + n_k - i))
                    A[i, :i] = twin.standard_normal(i)
                z = twin.standard_normal(k)
                root = np.linalg.cholesky(np.linalg.inv(scale)) @ A
                post_mean = (amu * mubar + n_k * bbar) / (amu + n_k)
                mean = post_mean + np.linalg.solve(root.T, z) / math.sqrt(amu + n_k)
                np.testing.assert_allclose(roots[b, c], root, rtol=1e-9, atol=1e-12)
                np.testing.assert_allclose(mu[b, c], mean, rtol=1e-9, atol=1e-12)
            assert got_rng.bit_generator.state == twin.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 8), min_size=1, max_size=3),
        ncomp=st.integers(1, 3),
        k=st.integers(1, 4),
        n_cov=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_draw_delta_matches_kronecker_reference(self, sizes, ncomp, k, n_cov, seed):
        rng = np.random.default_rng(seed)
        dev, Z, ind, valid, onehot = population_state(rng, sizes, ncomp, k, n_cov)
        roots = np.stack([random_roots(rng, ncomp, k) for _ in sizes])
        amu = rng.uniform(0.01, 2.0)
        seeds = [seed + b for b in range(len(sizes))]
        rngs = [np.random.default_rng(s) for s in seeds]
        Zk, ZZ = _member_covariates(step_layout(Z), onehot)
        delta = _draw_delta(rngs, step_layout(dev), Zk, ZZ, roots, amu, 1)
        assert delta.shape == (len(sizes), k, n_cov)
        for b, (got_rng, twin) in enumerate(zip(rngs, map(np.random.default_rng, seeds))):
            # A = amu I + sum_k kron(Z_k^T Z_k, P_k P_k^T) and its right-hand
            # side vec_F(sum_k P_k P_k^T dev_k^T Z_k), columns stacked
            A = amu * np.eye(k * n_cov)
            M = np.zeros((k, n_cov))
            for c in range(ncomp):
                rows = (ind[b] == c) & valid[b]
                Z_c, dev_c = Z[b][rows], dev[b][rows]
                precision = roots[b, c] @ roots[b, c].T
                A += np.kron(Z_c.T @ Z_c, precision)
                M += precision @ dev_c.T @ Z_c
            z = twin.standard_normal(k * n_cov)
            vec = np.linalg.solve(A, M.T.reshape(-1)) + np.linalg.cholesky(np.linalg.inv(A)) @ z
            np.testing.assert_allclose(delta[b], vec.reshape(n_cov, k).T, rtol=1e-9, atol=1e-12)
            assert got_rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("sizes", [[6], [4, 9, 1]])
    def test_one_component_indicators_are_zero_and_draw_only_uniforms(self, sizes):
        rngs = [np.random.default_rng(s) for s in range(len(sizes))]
        twins = [np.random.default_rng(s) for s in range(len(sizes))]
        n_blocks, n_max, k = len(sizes), max(sizes), 3
        rng = np.random.default_rng(99)
        resid = rng.normal(size=(n_blocks, n_max, k))
        mu = rng.normal(size=(n_blocks, 1, k))
        roots = np.stack([random_roots(rng, 1, k) for _ in range(n_blocks)])
        ind = _draw_indicators(rngs, sizes, step_layout(resid), mu, roots, np.ones((n_blocks, 1)))
        assert ind.shape == (n_blocks, n_max) and ind.dtype == np.intp
        assert not ind.any()
        for got, twin, n_b in zip(rngs, twins, sizes):
            twin.random(n_b)
            assert got.bit_generator.state == twin.bit_generator.state

    @settings(max_examples=80, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 9), min_size=1, max_size=3),
        ncomp=st.integers(1, 3),
        k=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_metropolis_and_loglik_equal_their_masked_copy_references_bit_for_bit(
        self, sizes, ncomp, k, seed
    ):
        rng = np.random.default_rng(seed)
        X, y, row_customer, beta, prop_factor, prior_mean, member, roots = metropolis_state(
            rng, sizes, ncomp, k
        )
        rows = (_signed_design(X, y), row_customer, _coef_index(row_customer, k, max(sizes)))
        loglik = _customer_loglik(*rows, beta)
        assert loglik.tobytes() == strided_customer_loglik(X, y, row_customer, beta).tobytes()

        def run(step, *rows):
            rngs = [np.random.default_rng([seed, b]) for b in range(len(sizes))]
            state = (beta.copy(), loglik.copy())
            accept = step(rngs, sizes, *rows, *state, prop_factor, prior_mean, member, roots)
            return accept, *state, [g.bit_generator.state for g in rngs]

        got = run(hb._metropolis, *rows)
        expected = run(masked_copy_metropolis, X, y, row_customer)
        for a, b in zip(got[:3], expected[:3]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert got[3] == expected[3]
        # the same pass on an accepted state gives the state's log likelihood
        assert got[2].tobytes() == _customer_loglik(*rows, got[1]).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 9), min_size=1, max_size=3),
        before=st.lists(st.sampled_from(["random", "standard_normal", "chisquare"]), max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_component_indicators_leave_each_stream_where_its_uniforms_would(
        self, sizes, before, seed
    ):
        # each block's generator has made the sampler's kinds of draws first
        rngs = [np.random.default_rng([seed, b]) for b in range(len(sizes))]
        twins = [np.random.default_rng([seed, b]) for b in range(len(sizes))]
        for rng in rngs + twins:
            for method in before:
                getattr(rng, method)(*([3.5] if method == "chisquare" else []), size=2)
        n_blocks, n_max, k = len(sizes), max(sizes), 2
        resid = np.zeros((n_blocks, k, n_max))
        mu, roots = np.zeros((n_blocks, 1, k)), np.tile(np.eye(k), (n_blocks, 1, 1, 1))
        _draw_indicators(rngs, sizes, resid, mu, roots, np.ones((n_blocks, 1)))
        for got, twin, n_b in zip(rngs, twins, sizes):
            twin.random(n_b)
            assert got.bit_generator.state == twin.bit_generator.state
            assert got.standard_normal(3).tobytes() == twin.standard_normal(3).tobytes()


def three_path_predict(draws, X, row_customer_ids, mode, fallback_population_mean, pairs):
    """Prediction as written before one kernel served every mode: a path
    per mode, chunking draw-averaged rows by ``pairs`` (draw, row) pairs.
    Kept as the reference the kernel must reproduce bit for bit."""
    X = np.asarray(X, dtype=float)
    pop_beta = draws.population_mean_coefficients()
    if mode == POPULATION_MEAN:
        return logistic(X @ pop_beta)
    unknown = None if fallback_population_mean else UnknownCustomerError
    idx = join(draws.customer_ids, row_customer_ids, unknown)
    known = idx >= 0
    out = np.empty(len(X))
    if mode == POSTERIOR_MEAN:
        mean = draws.betas.mean(axis=0)
        out[known] = logistic(np.einsum("ij,ij->i", X[known], mean[idx[known]]))
    else:
        ks = np.flatnonzero(known)
        chunk = max(1, pairs // draws.n_draws)
        for start in range(0, len(ks), chunk):
            rows = ks[start : start + chunk]
            u = np.einsum("rij,ij->ri", draws.betas[:, idx[rows], :], X[rows])
            out[rows] = logistic(u).mean(axis=0)
    out[~known] = logistic(X[~known] @ pop_beta)
    return out


class TestPrediction:
    # chunk bounds of half a row (so one row), 1, 2 and 7 rows, and the whole table
    @pytest.mark.parametrize("chunk_rows", [0.5, 1, 2, 7, None])
    def test_chunk_bound_leaves_draw_averaged_scores_bit_identical(self, monkeypatch, chunk_rows):
        rng = np.random.default_rng(5)
        n_draws, n_customers, n_rows = 40, 12, 30
        draws = hand_built_draws(rng.normal(size=(n_draws, n_customers, 3)))
        X = rng.normal(size=(n_rows, 3))
        ids = rng.integers(1, n_customers + 1, n_rows).tolist()
        # the reference scores each row on its own
        expected = np.array([
            np.mean(1.0 / (1.0 + np.exp(-(draws.betas[:, cid - 1, :] @ x))))
            for x, cid in zip(X, ids)
        ])
        pairs = int(n_draws * (chunk_rows or n_rows))
        monkeypatch.setattr(hb, "PREDICT_PAIRS", pairs)
        got = predict_panel_probabilities(draws, X, ids)
        monkeypatch.setattr(hb, "PREDICT_PAIRS", n_draws * n_rows)
        whole = predict_panel_probabilities(draws, X, ids)
        assert np.array_equal(got, whole)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_draws=st.integers(1, 60),
        n_customers=st.integers(1, 8),
        n_rows=st.integers(0, 40),
        k=st.integers(1, 4),
        ncomp=st.integers(1, 3),
        pairs=st.sampled_from([1, 7, 64, 1 << 15]),
        mode=st.sampled_from(hb.PREDICTION_MODES),
        unknown_share=st.sampled_from([0.0, 0.3]),
    )
    def test_every_mode_equals_the_three_path_reference_bit_for_bit(
        self, seed, n_draws, n_customers, n_rows, k, ncomp, pairs, mode, unknown_share
    ):
        rng = np.random.default_rng(seed)
        means = rng.normal(size=(n_draws, ncomp, k))
        weights = rng.dirichlet(np.ones(ncomp), size=n_draws)
        draws = hand_built_draws(
            rng.normal(scale=3.0, size=(n_draws, n_customers, k)), weights=weights, means=means
        )
        X = rng.normal(size=(n_rows, k))
        ids = rng.integers(1, n_customers + 1, n_rows)
        ids[rng.random(n_rows) < unknown_share] = 999  # not in the posterior
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hb, "PREDICT_PAIRS", pairs)
            for fallback in (False, True):
                try:
                    expected = three_path_predict(draws, X, ids, mode, fallback, pairs)
                except UnknownCustomerError:
                    with pytest.raises(UnknownCustomerError):
                        predict_panel_probabilities(draws, X, ids, mode, fallback)
                    continue
                got = predict_panel_probabilities(draws, X, ids, mode, fallback)
                assert got.tobytes() == expected.tobytes()

    def test_single_draw_modes_agree(self):
        draws = hand_built_draws([[[1.0, 0.5, -2.0]]])
        x = np.array([[1.0, 2.0, 0.1]])
        averaged = predict_panel_probabilities(draws, x, [1], mode=DRAW_AVERAGED)[0]
        point = predict_panel_probabilities(draws, x, [1], mode=POSTERIOR_MEAN)[0]
        assert averaged == point == pytest.approx(1 / (1 + math.exp(-1.8)), abs=1e-12)

    def test_draw_averaged_is_mean_of_per_draw_probabilities(self):
        betas = np.array([[[0.2, 0.1, -1.0]], [[1.4, -0.3, -4.0]], [[-0.8, 0.6, 0.5]]])
        draws = hand_built_draws(betas)
        x = np.array([1.0, 3.0, -0.25])
        expected = np.mean([1 / (1 + math.exp(-(b[0] @ x))) for b in betas])
        got = predict_panel_probabilities(draws, x[None, :], [1])[0]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_population_mean_mode_for_new_customer(self):
        means = np.array([[[1.0, 0.0, -2.0], [3.0, 0.0, -2.0]]])
        weights = np.array([[0.25, 0.75]])
        draws = hand_built_draws([[[9.9, 9.9, 9.9]]], weights=weights, means=means)
        x = np.array([[1.0, 0.0, 0.0]])
        expected = 1 / (1 + math.exp(-(0.25 * 1.0 + 0.75 * 3.0)))
        got = predict_panel_probabilities(draws, x, [777], mode=POPULATION_MEAN)[0]
        assert got == pytest.approx(expected, abs=1e-12)

    def test_unknown_customer_raises_without_fallback(self):
        draws = hand_built_draws([[[1.0, 0.5, -2.0]]])
        with pytest.raises(UnknownCustomerError):
            predict_panel_probabilities(draws, np.array([[1.0, 2.0, 0.1]]), [55])

    def test_a_fractional_customer_id_is_refused_not_truncated(self):
        # a cast to int64 would score the row as customer 1's
        draws = hand_built_draws([[[1.0, 0.5, -2.0]]])
        with pytest.raises(InvalidInputError, match=r"^id 1\.9 is not a 64-bit integer$"):
            predict_panel_probabilities(draws, np.array([[1.0, 2.0, 0.1]]), [1.9])

    def test_unknown_customer_fallback_matches_population_mode(self):
        draws = hand_built_draws([[[1.0, 0.5, -2.0]], [[0.2, 0.0, -1.0]]])
        x = np.array([[1.0, 2.0, 0.1]])
        fallback = predict_panel_probabilities(
            draws, x, [55], fallback_population_mean=True
        )
        population = predict_panel_probabilities(draws, x, [55], mode=POPULATION_MEAN)
        assert fallback[0] == pytest.approx(population[0], abs=1e-15)

    def test_unknown_mode_rejected(self):
        draws = hand_built_draws([[[1.0, 0.5, -2.0]]])
        with pytest.raises(InvalidInputError):
            predict_panel_probabilities(draws, np.ones((1, 3)), [1], mode="oracular")

    @pytest.mark.parametrize("mode", [DRAW_AVERAGED, POSTERIOR_MEAN, POPULATION_MEAN])
    @pytest.mark.parametrize(
        "X, ids, message",
        [
            # one row passed as a 1-D design: population-mean mode scored K ids
            (np.array([1.0, 2.0, 0.1]), [1],
             r"^X has shape \(3,\); the posterior's coefficients need \(rows, 3\)$"),
            (np.ones((2, 4)), [1, 2],
             r"^X has shape \(2, 4\); the posterior's coefficients need \(rows, 3\)$"),
            (np.ones((2, 3)), [1, 2, 2],
             r"^row_customer_ids has shape \(3,\); the 2 rows of X need \(2,\)$"),
            (np.ones((3, 3)), [1, 2],
             r"^row_customer_ids has shape \(2,\); the 3 rows of X need \(3,\)$"),
            (np.ones((2, 3)), [[1, 2]],
             r"^row_customer_ids has shape \(1, 2\); the 2 rows of X need \(2,\)$"),
        ],
    )
    def test_inputs_of_the_wrong_shape_refused_in_every_mode(self, mode, X, ids, message):
        draws = hand_built_draws([[[1.0, 0.5, -2.0], [0.2, 0.0, -1.0]]], customer_ids=[1, 2])
        with pytest.raises(InvalidInputError, match=message):
            predict_panel_probabilities(draws, X, ids, mode, fallback_population_mean=True)


def npy_bytes(array):
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def replace_array(path, name, array):
    """Overwrite one saved posterior array and record its shape in
    header.json, so that only the arrays can disagree."""
    np.save(path / f"{name}.npy", array)
    header = json.loads((path / "header.json").read_text())
    header["shapes"][name] = list(array.shape)
    (path / "header.json").write_text(json.dumps(header))


class TestPersistence:
    def test_round_trip(self, tmp_path):
        _, draws = small_fit(n_customers=10, total_draws=200, burn_in=40, ncomp=2)
        draws.save(tmp_path / "posterior")
        loaded = PosteriorDraws.load(tmp_path / "posterior")
        assert loaded.customer_ids == draws.customer_ids
        assert np.array_equal(loaded.betas, draws.betas)
        assert np.array_equal(loaded.weights, draws.weights)
        assert np.array_equal(loaded.delta, draws.delta)
        assert loaded.config == draws.config

    @pytest.mark.parametrize("name", ["betas", "acceptance_rates"])
    def test_array_with_one_customer_fewer_rejected_by_name(self, tmp_path, name):
        draws = hand_built_draws(np.zeros((4, 3, 3)))
        draws.save(tmp_path / "posterior")
        truncated = np.delete(getattr(draws, name), -1, axis=1 if name == "betas" else 0)
        np.save(tmp_path / "posterior" / f"{name}.npy", truncated)
        with pytest.raises(DataIntegrityError, match=f"posterior array {name} has shape"):
            PosteriorDraws.load(tmp_path / "posterior")

    @pytest.mark.parametrize(
        "name, axis, size, message",
        [
            ("weights", 0, 3, "betas and weights disagree on the draw axis: 4 against 3"),
            ("means", 0, 5, "betas and means disagree on the draw axis: 4 against 5"),
            ("covariances", 0, 3, "betas and covariances disagree on the draw axis: 4 against 3"),
            ("delta", 0, 3, "betas and delta disagree on the draw axis: 4 against 3"),
            ("log_likelihood", 0, 3, "betas and log_likelihood disagree on the draw axis"),
            ("means", 1, 3, "weights and means disagree on the ncomp axis: 2 against 3"),
            ("covariances", 1, 1, "weights and covariances disagree on the ncomp axis: 2 against 1"),
            ("means", 2, 2, "betas and means disagree on the K axis: 3 against 2"),
            ("covariances", 2, 2, "betas and covariances disagree on the K axis: 3 against 2"),
            ("covariances", 3, 4, "betas and covariances disagree on the K axis: 3 against 4"),
            ("delta", 1, 2, "betas and delta disagree on the K axis: 3 against 2"),
        ],
    )
    def test_arrays_disagreeing_with_each_other_rejected_by_name(
        self, tmp_path, name, axis, size, message
    ):
        means = np.zeros((4, 2, 3))  # two components
        hand_built_draws(np.zeros((4, 2, 3)), means=means).save(tmp_path / "posterior")
        array = np.load(tmp_path / "posterior" / f"{name}.npy")
        shape = list(array.shape)
        shape[axis] = size
        replace_array(tmp_path / "posterior", name, np.resize(array, shape))
        with pytest.raises(DataIntegrityError, match=f"^posterior arrays {message}"):
            PosteriorDraws.load(tmp_path / "posterior")

    def test_array_with_a_wrong_axis_count_rejected_by_name(self, tmp_path):
        hand_built_draws(np.zeros((4, 2, 3))).save(tmp_path / "posterior")
        replace_array(tmp_path / "posterior", "weights", np.ones(4))
        with pytest.raises(DataIntegrityError, match="^posterior array weights has 1 axes, not 2$"):
            PosteriorDraws.load(tmp_path / "posterior")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", list(PosteriorDraws._AXES))
    def test_non_finite_value_rejected_by_array_and_index(self, tmp_path, name, value):
        means = np.zeros((4, 2, 3))  # two components
        draws = hand_built_draws(np.zeros((4, 2, 3)), means=means)
        draws.delta = np.zeros((4, 3, 1))
        draws.save(tmp_path / "posterior")
        array = np.load(tmp_path / "posterior" / f"{name}.npy")
        index = tuple(size - 1 for size in array.shape)
        array[index] = value
        np.save(tmp_path / "posterior" / f"{name}.npy", array)
        message = f"posterior array {name} holds {value!r} at index {index}"
        with pytest.raises(DataIntegrityError) as info:
            PosteriorDraws.load(tmp_path / "posterior")
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda data: data[:-8], lambda data: data[:40], lambda data: b"",
            lambda data: b"junk" * 9, lambda data: npy_bytes(np.array([["a"]] * 4)),
            lambda data: npy_bytes(np.ones((4, 1), dtype=complex)),
        ],
        ids=["truncated-data", "truncated-header", "empty", "garbage", "strings", "complex"],
    )
    def test_unreadable_array_rejected_by_file(self, tmp_path, spoil):
        hand_built_draws(np.zeros((4, 2, 3))).save(tmp_path / "posterior")
        file = tmp_path / "posterior" / "weights.npy"
        file.write_bytes(spoil(file.read_bytes()))
        with pytest.raises(DataIntegrityError, match=f"^{file} is not a readable float array: "):
            PosteriorDraws.load(tmp_path / "posterior")

    def test_save_refuses_a_fractional_customer_id_not_truncating_it(self, tmp_path):
        draws = hand_built_draws(np.zeros((2, 2, 3)), customer_ids=[1.7, 2])
        with pytest.raises(InvalidInputError, match=r"^customer id 1\.7 is not a 64-bit integer"):
            draws.save(tmp_path / "posterior")

    def test_save_returns_the_files_it_wrote(self, tmp_path):
        names = hand_built_draws(np.zeros((2, 2, 3))).save(tmp_path / "posterior")
        assert sorted(names) == sorted(p.name for p in (tmp_path / "posterior").iterdir())
        assert names[0] == "header.json"

    def test_header_disagreeing_with_customer_ids_rejected(self, tmp_path):
        draws = hand_built_draws(np.zeros((4, 3, 3)))
        draws.save(tmp_path / "posterior")
        header_path = tmp_path / "posterior" / "header.json"
        header = json.loads(header_path.read_text())
        header["customer_ids"] = header["customer_ids"][:-1]
        header_path.write_text(json.dumps(header))
        with pytest.raises(DataIntegrityError, match="not 2 customers on axis 1"):
            PosteriorDraws.load(tmp_path / "posterior")

    def test_repeated_customer_id_rejected_by_name(self, tmp_path):
        hand_built_draws(np.zeros((2, 2, 3)), customer_ids=[5, 5]).save(tmp_path / "posterior")
        header_path = tmp_path / "posterior" / "header.json"
        with pytest.raises(DataIntegrityError) as info:
            PosteriorDraws.load(tmp_path / "posterior")
        assert str(info.value) == f"{header_path} repeats customer id 5"

    @pytest.mark.parametrize("bad", [1.5, "7", True, None, 2**63])
    def test_non_integer_customer_id_rejected_by_name(self, tmp_path, bad):
        hand_built_draws(np.zeros((2, 2, 3))).save(tmp_path / "posterior")
        header_path = tmp_path / "posterior" / "header.json"
        header = json.loads(header_path.read_text())
        header["customer_ids"][1] = bad
        header_path.write_text(json.dumps(header))
        with pytest.raises(DataIntegrityError) as info:
            PosteriorDraws.load(tmp_path / "posterior")
        assert str(info.value) == f"{header_path}: customer id {bad!r} is not a 64-bit integer"

    def test_header_config_with_unknown_key_rejected_by_name(self, tmp_path):
        hand_built_draws(np.zeros((2, 3, 3))).save(tmp_path / "posterior")
        header_path = tmp_path / "posterior" / "header.json"
        header = json.loads(header_path.read_text())
        header["config"]["total_draw"] = 700
        header_path.write_text(json.dumps(header))
        expected = r"header\.json: config has unknown keys \['total_draw'\]"
        with pytest.raises(ConfigurationError, match=expected):
            PosteriorDraws.load(tmp_path / "posterior")

    def test_header_config_out_of_range_rejected_by_name(self, tmp_path):
        hand_built_draws(np.zeros((2, 3, 3))).save(tmp_path / "posterior")
        header_path = tmp_path / "posterior" / "header.json"
        header = json.loads(header_path.read_text())
        header["config"].update(total_draws=5000, burn_in=9000)
        header_path.write_text(json.dumps(header))
        with pytest.raises(ConfigurationError) as info:
            PosteriorDraws.load(tmp_path / "posterior")
        assert str(info.value) == f"{header_path}: config: need 0 < burn_in < total_draws"

    @pytest.mark.parametrize(
        "settings, retained",
        [(dict(total_draws=5000, burn_in=500), 4500), (dict(keep=2), 1), (dict(burn_in=2), 2)],
        ids=["total-draws", "keep", "burn-in"],
    )
    def test_header_config_disagreeing_with_the_draw_count_rejected(
        self, tmp_path, settings, retained
    ):
        # three draws kept of total_draws 4, burn_in 1, keep 1
        hand_built_draws(np.zeros((3, 2, 3))).save(tmp_path / "posterior")
        header_path = tmp_path / "posterior" / "header.json"
        header = json.loads(header_path.read_text())
        header["config"].update(settings)
        header_path.write_text(json.dumps(header))
        with pytest.raises(DataIntegrityError) as info:
            PosteriorDraws.load(tmp_path / "posterior")
        assert str(info.value) == (
            f"{header_path}: config retains {retained} draws, the posterior arrays hold 3"
        )

    @pytest.mark.parametrize("iw_dof", [2, 4, 5, None])
    def test_header_iw_dof_checked_against_the_arrays_k(self, tmp_path, iw_dof):
        # K = 3, so the prior needs iw_dof > 4; None resolves to K + 3
        hand_built_draws(np.zeros((2, 3, 3))).save(tmp_path / "posterior")
        header_path = tmp_path / "posterior" / "header.json"
        header = json.loads(header_path.read_text())
        header["config"]["iw_dof"] = iw_dof
        header_path.write_text(json.dumps(header))
        if iw_dof is not None and iw_dof <= 4:
            with pytest.raises(DataIntegrityError) as info:
                PosteriorDraws.load(tmp_path / "posterior")
            assert str(info.value) == (
                f"{header_path}: config: iw_dof = {iw_dof} must exceed n_params + 1 = 4"
            )
        else:
            assert PosteriorDraws.load(tmp_path / "posterior").config.iw_dof == iw_dof

    def test_missing_array_is_a_missing_artifact(self, tmp_path):
        from offerlab.errors import MissingArtifactError

        hand_built_draws(np.zeros((2, 3, 3))).save(tmp_path / "posterior")
        (tmp_path / "posterior" / "weights.npy").unlink()
        with pytest.raises(MissingArtifactError, match="weights.npy"):
            PosteriorDraws.load(tmp_path / "posterior")

    @pytest.mark.parametrize(
        "text, message", [("{not json", "is not valid JSON"), ("[1, 2]", "must hold a JSON object")]
    )
    def test_unreadable_header_rejected_by_name(self, tmp_path, text, message):
        hand_built_draws(np.zeros((2, 3, 3))).save(tmp_path / "posterior")
        header_path = tmp_path / "posterior" / "header.json"
        header_path.write_text(text)
        with pytest.raises(DataIntegrityError, match=message) as info:
            PosteriorDraws.load(tmp_path / "posterior")
        assert str(header_path) in str(info.value)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("format", None, "format must hold a str, got nothing"),
            ("customer_ids", None, "customer_ids must hold a list, got nothing"),
            ("config", None, "config must hold a dict, got nothing"),
            ("shapes", None, "shapes must hold a dict, got nothing"),
            ("customer_ids", 3, "customer_ids must hold a list, got 3"),
            ("shapes", [], "shapes must hold a dict, got []"),
        ],
    )
    def test_header_key_missing_or_mistyped_rejected_by_name(self, tmp_path, key, value, message):
        hand_built_draws(np.zeros((2, 3, 3))).save(tmp_path / "posterior")
        header_path = tmp_path / "posterior" / "header.json"
        header = json.loads(header_path.read_text())
        if value is None:
            del header[key]
        else:
            header[key] = value
        header_path.write_text(json.dumps(header))
        with pytest.raises(DataIntegrityError) as info:
            PosteriorDraws.load(tmp_path / "posterior")
        assert str(info.value) == f"{header_path}: {message}"

    def test_missing_header_raises(self, tmp_path):
        from offerlab.errors import MissingArtifactError

        with pytest.raises(MissingArtifactError):
            PosteriorDraws.load(tmp_path / "nothing")
