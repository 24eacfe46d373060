import io
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offerlab import hb
from offerlab.choice import ACCEPTED, REJECTED, UNLABELED, Offers, join, logistic
from offerlab.errors import (
    ConfigurationError,
    DataIntegrityError,
    EstimationError,
    InvalidInputError,
    UnknownCustomerError,
)
from offerlab.hb import (
    DRAW_AVERAGED,
    POPULATION_MEAN,
    POSTERIOR_MEAN,
    McmcConfig,
    PosteriorDraws,
    _customer_loglik,
    _draw_indicators,
    _mvn_logpdf,
    _pooled_logit,
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
            for k in range(draws.ncomp):
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
         ("y", 1, 2.0, "must be 0 or 1"), ("y", 1, math.nan, "must be 0 or 1")],
    )
    @pytest.mark.parametrize("n_blocks", [1, 2])
    def test_non_finite_input_named_by_block_and_array(self, name, position, value, rule, n_blocks):
        panels = [random_panel(b, 5, 1) for b in range(n_blocks)]
        X, y, row_customer, customer_ids, Z = (np.array(a, dtype=float) for a in panels[-1])
        {"X": X[:, 1], "Z": Z[:, 0], "y": y}[name][position] = value
        panels[-1] = (X, y, row_customer.astype(int), customer_ids.astype(int).tolist(), Z)
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


class TestSamplerParts:
    @given(
        n_blocks=st.integers(1, 3),
        ncomp=st.integers(1, 3),
        k=st.integers(1, 4),
        n=st.integers(1, 6),
        per_component=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mvn_logpdf_matches_dense_reference(self, n_blocks, ncomp, k, n, per_component, seed):
        rng = np.random.default_rng(seed)
        roots = np.stack([random_roots(rng, ncomp, k) for _ in range(n_blocks)])
        shape = (n_blocks, ncomp, n, k) if per_component else (n_blocks, n, k)
        diff = rng.normal(scale=2.0, size=shape)
        got = _mvn_logpdf(diff, roots)
        assert got.shape == (n_blocks, ncomp, n)
        for b in range(n_blocks):
            for c in range(ncomp):
                cov = np.linalg.inv(roots[b, c] @ roots[b, c].T)
                for i in range(n):
                    x = diff[b, c, i] if per_component else diff[b, i]
                    expected = dense_mvn_logpdf(x, cov)
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
        u = np.einsum("ij,ij->i", X, betas.reshape(-1, k)[row_customer])
        row_ll = y * u - np.logaddexp(0.0, u)
        expected = np.bincount(row_customer, weights=row_ll, minlength=n_blocks * n)
        got = _customer_loglik(X, y, row_customer, betas)
        assert got.shape == (n_blocks, n)
        np.testing.assert_allclose(got.reshape(-1), expected, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("u", [0.0, 5e-324, 709.0, 710.0, 800.0, 1e300])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_customer_loglik_exact_and_finite_at_extremes(self, u, sign, label):
        # one row per customer, x = u and beta = 1, so each customer's log
        # likelihood is its row's y * u - log(1 + e^u)
        u = sign * u
        X, y, row_customer = np.array([[u]]), np.array([label]), np.array([0])
        got = _customer_loglik(X, y, row_customer, np.ones((1, 1, 1)))
        assert np.isfinite(got).all()
        assert got[0, 0] == label * u - np.logaddexp(0.0, u)

    @pytest.mark.parametrize("sizes", [[6], [4, 9, 1]])
    def test_one_component_indicators_are_zero_and_draw_only_uniforms(self, sizes):
        rngs = [np.random.default_rng(s) for s in range(len(sizes))]
        twins = [np.random.default_rng(s) for s in range(len(sizes))]
        n_blocks, n_max, k = len(sizes), max(sizes), 3
        rng = np.random.default_rng(99)
        resid = rng.normal(size=(n_blocks, n_max, k))
        mu = rng.normal(size=(n_blocks, 1, k))
        roots = np.stack([random_roots(rng, 1, k) for _ in range(n_blocks)])
        ind = _draw_indicators(rngs, sizes, resid, mu, roots, np.ones((n_blocks, 1)))
        assert ind.shape == (n_blocks, n_max) and ind.dtype == np.intp
        assert not ind.any()
        for got, twin, n_b in zip(rngs, twins, sizes):
            twin.random(n_b)
            assert got.bit_generator.state == twin.bit_generator.state


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
