"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as the
criteria execute.  The desk-scale pipeline run (criteria 1 and 2) is shared
through a session fixture.
"""

import itertools
import json
import os
import time

import numpy as np
import pytest

from offerlab import evaluate, hb, profit, segments, simulate
from offerlab.choice import join
from offerlab.config import PipelineConfig
from offerlab.datasets import KFOLD_BY_OCCASION, ResamplingScheme
from offerlab.simulate import GroundTruthConfig, MixtureComponent
from offerlab.storage import derive_seed
from tests.test_evaluate import brute_force_auc, capture_at, delong_by_hand
from tests.test_hb import hand_built_draws
from tests.test_profit import grid_oracle


def report(criterion, passed, detail):
    marker = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {marker} ({detail})")
    assert passed, f"criterion {criterion}: {detail}"


def diag3(a, b, c):
    return ((a, 0.0, 0.0), (0.0, b, 0.0), (0.0, 0.0, c))


@pytest.fixture(scope="module")
def desk_run():
    """Simulate 300 customers with defaults, fit ncomp=1 at R=2000/200,
    score the one-offer-per-customer test set."""
    config = PipelineConfig.from_dict({"ground_truth": {"n_customers": 300}})
    t0 = time.time()
    dataset = simulate.simulate_dataset(config.ground_truth)
    covariates = dataset.customers.covariates(include_demographic=False)
    draws = hb.fit_hb_mixed_logit(
        dataset.train, covariates, ncomp=1, config=config.mcmc
    )
    scores = hb.predict_panel_probabilities(
        draws, dataset.test.X, dataset.test.customer_id.tolist()
    )
    elapsed = time.time() - t0
    return config, dataset, draws, scores, elapsed


class TestCriterion1EndToEnd:
    def test_desk_scale_auc_accuracy_runtime(self, desk_run):
        config, dataset, draws, scores, elapsed = desk_run
        assert config.mcmc.total_draws == 2000 and config.mcmc.burn_in == 200
        data = evaluate.ScoredLabels(scores, dataset.test.labels())
        base_rate = float(np.mean(dataset.train.labels()))
        auc = evaluate.auc(data)
        accuracy = evaluate.accuracy_at_base_rate(data, base_rate)
        report(
            "1",
            auc >= 0.75 and accuracy >= 0.70 and elapsed < 300.0,
            f"AUC={auc:.4f} (>=0.75), accuracy={accuracy:.4f} (>=0.70), "
            f"runtime={elapsed:.1f}s (<300s)",
        )


class TestCriterion2Recovery:
    def test_discount_coefficient_correlations(self, desk_run):
        _, dataset, draws, _, _ = desk_run
        posterior = draws.betas.mean(axis=0)
        true = dataset.true_coefficients[np.array(draws.customer_ids) - 1]
        counts = np.bincount(
            join(draws.customer_ids, dataset.train.customer_id),
            minlength=draws.n_customers,
        )
        multi = counts >= 2
        corr_all = float(np.corrcoef(posterior[:, 2], true[:, 2])[0, 1])
        corr_multi = float(np.corrcoef(posterior[multi, 2], true[multi, 2])[0, 1])
        report(
            "2",
            corr_multi >= 0.5 and corr_all >= 0.3,
            f"corr(>=2 offers)={corr_multi:.3f} (>=0.5), corr(all)={corr_all:.3f} (>=0.3)",
        )


class TestCriterion3OptimizerOracle:
    def test_twenty_random_instances(self):
        # twenty random segments, then a deterministic sweep of the mean
        # discount coefficient from elastic to price-insensitive; the random
        # draws all have interior optima on the 60-month contract, so the
        # sweep is what puts oracle optima at both bounds and on shorter
        # contracts (asserted below)
        rng = np.random.default_rng(derive_seed(20260809, 3))
        instances = []
        for _ in range(20):
            n = int(rng.integers(4, 13))
            n_draws = int(rng.integers(60, 121))
            betas = np.stack(
                [
                    np.column_stack(
                        [
                            rng.normal(0.5, 1.2, n),
                            rng.normal(0.1, 0.4, n),
                            rng.normal(-3.0, 2.5, n),
                        ]
                    )
                    for _ in range(n_draws)
                ]
            )
            instances.append((betas, rng.random(n), 60 + 80 * rng.random(n)))
        sweep = np.random.default_rng(20261018)
        for b2 in np.linspace(-10.0, 0.0, 10):
            n, n_draws = int(sweep.integers(4, 13)), int(sweep.integers(60, 121))
            mean = [sweep.uniform(-1.0, 2.0), sweep.uniform(-1.5, 0.5), b2]
            betas = sweep.normal(mean, [1.0, 0.3, 0.5], size=(n_draws, n, 3))
            instances.append((betas, sweep.random(n), 60 + 80 * sweep.random(n)))
        config = profit.NopConfig()
        lo, hi = config.bounds_for("inelastic-loyal")
        worst_gap = 0.0
        worst_time = 0.0
        at_lo = at_hi = shorter = 0
        for betas, loyalty, mrp in instances:
            n = betas.shape[1]
            seg = profit.SegmentData(
                segment="inelastic-loyal",
                customer_ids=tuple(range(1, n + 1)),
                loyalty=loyalty,
                mrp=mrp,
            )
            draws = hand_built_draws(betas, customer_ids=list(range(1, n + 1)))
            t0 = time.time()
            policy = profit.optimize_policy(seg, draws, config)
            oracle = grid_oracle(seg, draws, config, r_step=0.001)
            elapsed = time.time() - t0
            gap = (oracle.nop_value - policy.nop_value) / max(abs(oracle.nop_value), 1e-12)
            worst_gap = max(worst_gap, gap)
            worst_time = max(worst_time, elapsed)
            at_lo += oracle.r == lo
            at_hi += oracle.r == hi
            shorter += oracle.months < 60
        report(
            "3",
            worst_gap <= 0.001 and worst_time < 10.0 and min(at_lo, at_hi, shorter) >= 1,
            f"worst NOP gap={worst_gap:.2e} (<=1e-3), slowest instance={worst_time:.2f}s (<10s) "
            f"over {len(instances)} instances; oracle optima at r={lo}: {at_lo}, at r={hi}: "
            f"{at_hi}, on contracts under 60 months: {shorter} (each >=1)",
        )


class TestCriterion4PolicyDirections:
    def test_inelastic_and_elastic_cells(self):
        mixture = (
            MixtureComponent(0.5, (1.2, 0.25, -0.05), diag3(0.04, 0.005, 0.001)),
            MixtureComponent(0.5, (0.6, -1.2, -7.0), diag3(0.09, 0.004, 0.36)),
        )
        config = GroundTruthConfig(
            n_customers=240, mixture=mixture, loyalty_loadings=(0, 0, 0), seed=4242
        )
        dataset = simulate.generate_offers(config)
        ids = list(range(1, config.n_customers + 1))
        betas = dataset.true_coefficients[None]
        draws = hand_built_draws(betas, customer_ids=ids)
        assignments = segments.assign_segments(draws, dataset.test, dataset.customers)
        nop_config = profit.NopConfig()
        grouped = profit.segment_data_from_assignments(assignments, nop_config)
        policies = {
            name: profit.optimize_policy(grouped[name], draws, nop_config)
            for name in segments.SEGMENTS
        }
        inelastic_ok = all(
            policies[s].r == pytest.approx(0.5, abs=1e-9) and policies[s].months == 60
            for s in ("inelastic-not-loyal", "inelastic-loyal")
        )
        elastic_ok = all(
            policies[s].r < 0.0 and policies[s].months <= 24
            for s in ("elastic-not-loyal", "elastic-loyal")
        )
        detail = "; ".join(
            f"{s}: r={policies[s].r:+.3f}, m={policies[s].months}" for s in segments.SEGMENTS
        )
        report("4", inelastic_ok and elastic_ok, detail)


class TestCriterion5EvaluationOracles:
    def test_auc_matches_pairwise_oracle_exhaustively(self):
        rng = np.random.default_rng(55)
        checked = 0
        for n in range(2, 9):
            distinct = rng.permutation(n) / n
            tied = np.round(rng.random(n) * 3) / 3
            for scores in (distinct, tied):
                for pattern in itertools.product((0, 1), repeat=n):
                    if len(set(pattern)) < 2:
                        continue
                    data = evaluate.ScoredLabels(scores, pattern)
                    assert evaluate.auc(data) == brute_force_auc(scores, pattern)
                    checked += 1
        labels = [1, 1, 1, 1, 0, 0, 0, 0, 0, 1]
        scores_a = [0.9, 0.8, 0.6, 0.55, 0.5, 0.4, 0.53, 0.2, 0.1, 0.7]
        scores_b = [0.7, 0.9, 0.3, 0.6, 0.2, 0.5, 0.4, 0.35, 0.15, 0.45]
        result = evaluate.delong_test(scores_a, scores_b, labels)
        auc_a, auc_b, _, z = delong_by_hand(scores_a, scores_b, labels)
        same = evaluate.delong_test(scores_a, scores_a, labels)
        delong_ok = (
            same.z == 0.0
            and same.p_value == 1.0
            and abs(result.z - z) < 1e-10
            and abs(result.auc_a - auc_a) < 1e-10
            and abs(result.auc_b - auc_b) < 1e-10
        )
        report(
            "5",
            delong_ok,
            f"{checked} exhaustive AUC cases exact; DeLong fixture |dz|<1e-10, "
            f"identical-input z=0 p=1",
        )


class TestCriterion6PresentValue:
    def test_closed_forms(self):
        linear_exact = (
            profit.present_value(100.0, 5.0, 0.5, 1, 0.0) == 145.0
            and profit.present_value(100.0, 5.0, 0.5, 60, 0.0) == 60 * 145.0
        )
        annuity = profit.present_value(100.0, 0.0, 0.0, 12, 0.12)
        annuity_ok = abs(annuity - 1125.51) <= 0.01
        report(
            "6",
            linear_exact and annuity_ok,
            f"zero-rate identity exact; annuity={annuity:.4f} within 0.01 of 1125.51",
        )


class TestCriterion7Lift:
    def test_strong_signal_capture(self):
        base = GroundTruthConfig()
        scale = 2.0
        # doubled coefficients concentrate the signal; the intercept shift
        # re-centers acceptance to a low base rate, without which capture at
        # the top 20% is bounded by 0.2 / positive-rate and cannot reach 0.6
        mixture = tuple(
            MixtureComponent(
                c.weight,
                tuple(
                    scale * m + (-7.5 if j == 0 else 0.0)
                    for j, m in enumerate(c.mean)
                ),
                tuple(tuple(scale**2 * x for x in row) for row in c.cov),
            )
            for c in base.mixture
        )
        config = GroundTruthConfig(
            n_customers=400,
            mixture=mixture,
            loyalty_loadings=tuple(scale * l for l in base.loyalty_loadings),
            offer_count_distribution=((6, 1.0),),
            seed=321,
        )
        dataset = simulate.simulate_dataset(config)
        covariates = dataset.customers.covariates(include_demographic=False)
        draws = hb.fit_hb_mixed_logit(
            dataset.train,
            covariates,
            ncomp=1,
            config=hb.McmcConfig(total_draws=800, burn_in=150, seed=11),
        )
        scores = hb.predict_panel_probabilities(
            draws, dataset.test.X, dataset.test.customer_id.tolist()
        )
        data = evaluate.ScoredLabels(scores, dataset.test.labels())
        points = evaluate.lift_curve(data, granularity=100)
        captures = [c for _, c in points]
        capture20 = capture_at(points, 0.20)
        monotone = all(b >= a for a, b in zip(captures, captures[1:]))
        report(
            "7",
            capture20 >= 0.60 and monotone and captures[-1] == 1.0,
            f"top-20% capture={capture20:.3f} (>=0.60), monotone={monotone}, "
            f"terminal={captures[-1]}",
        )


class TestCriterion8Tuning:
    def test_ncomp_one_selected(self):
        wins = 0
        details = []
        for rep in range(5):
            master = derive_seed(20260809, 800, rep)
            config = GroundTruthConfig(n_customers=200, seed=master)
            dataset = simulate.simulate_dataset(config)
            covariates = dataset.customers.covariates(include_demographic=False)
            mcmc = hb.McmcConfig(total_draws=1000, burn_in=150, seed=master)
            scheme = ResamplingScheme(kind=KFOLD_BY_OCCASION, folds=5, repeats=2)
            result = evaluate.tune_ncomp(dataset.train, covariates, [1, 2, 3], scheme, mcmc)
            wins += result.selected_ncomp == 1
            details.append(str(result.selected_ncomp))
        report("8", wins >= 4, f"ncomp=1 selected in {wins}/5 replications (picked {details})")


class TestCriterion9Determinism:
    def test_all_subcommands_byte_identical(self, tmp_path):
        from offerlab.cli import STAGES, main

        out = tmp_path / "run"
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "seed": 777,
                    "out_dir": str(out),
                    "ground_truth": {"n_customers": 40},
                    "mcmc": {"total_draws": 250, "burn_in": 50},
                    "ncomp_candidates": [1, 2],
                    "resampling": {"kind": "k-fold-by-occasion", "folds": 2, "repeats": 1},
                }
            )
        )

        def run_all():
            for subcommand in STAGES:
                assert main([subcommand, "--config", str(config_path)]) == 0
            return {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file()
            }

        first = run_all()
        second = run_all()
        identical = first == second
        report(
            "9",
            identical and len(first) > 10,
            f"{len(first)} artifacts byte-identical across reruns of all {len(STAGES)} subcommands",
        )


class TestCriterion10SegmentShares:
    def test_shares_sum_to_hundred(self, desk_run):
        config, dataset, draws, _, _ = desk_run
        assignments = segments.assign_segments(
            draws, dataset.test, dataset.customers, delta=config.elasticity_delta
        )
        shares = segments.segment_distribution(assignments)
        total = sum(shares.values())
        report(
            "10",
            abs(total - 100.0) <= 0.1 and len(shares) == 4,
            f"shares={ {k: round(v, 1) for k, v in shares.items()} }, total={total:.4f}",
        )


class TestCriterion11RetailBestEffort:
    def test_online_retail_if_supplied(self):
        path = os.environ.get("OFFERLAB_RETAIL_CSV")
        if not path or not os.path.exists(path):
            print(
                "ACCEPTANCE 11: SKIP (set OFFERLAB_RETAIL_CSV to the Online Retail II "
                "CSV to run the best-effort ingestion check)"
            )
            pytest.skip("Online Retail II CSV not supplied")
        from offerlab.datasets import (
            ingest_retail_csv,
            multinomial_to_panel,
            split_per_customer_holdout,
        )

        data = ingest_retail_csv(path)
        n_products = len(np.unique(data.product_id))
        _, rows_per_occasion = np.unique(
            np.column_stack([data.customer_id, data.occasion]), axis=0, return_counts=True
        )
        row_identity = bool(np.all(rows_per_occasion == n_products))
        train, validation = split_per_customer_holdout(data.customer_id, data.occasion, seed=1)
        X, y, row_customer, customer_ids, _ = multinomial_to_panel(data.take(train))
        draws = hb.fit_hb_panel(
            X,
            y,
            row_customer,
            customer_ids,
            None,
            ncomp=1,
            config=hb.McmcConfig(total_draws=600, burn_in=120, seed=3),
        )
        held_out = data.take(validation)
        Xv, yv, _, _, _ = multinomial_to_panel(held_out)
        scores = hb.predict_panel_probabilities(
            draws, Xv, held_out.customer_id, fallback_population_mean=True
        )
        auc = evaluate.auc(evaluate.ScoredLabels(scores, yv.astype(int)))
        report("11", row_identity and auc >= 0.75, f"row identity={row_identity}, holdout AUC={auc:.4f}")
