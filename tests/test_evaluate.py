import itertools
import math
import multiprocessing
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from offerlab import shares
from offerlab.datasets import (
    KFOLD_BY_OCCASION,
    PER_CUSTOMER_HOLDOUT,
    ResamplingScheme,
    split_kfold_by_occasion,
    split_per_customer_holdout,
)
from offerlab.errors import (
    DegenerateInputError,
    EstimationError,
    InvalidInputError,
    OfferLabError,
)
from offerlab.evaluate import (
    ScoredLabels,
    TuningRow,
    accuracy_at_base_rate,
    auc,
    delong_test,
    lift_curve,
    tune_ncomp,
)
from offerlab.hb import (
    DRAW_AVERAGED,
    McmcConfig,
    build_panel,
    fit_hb_panel,
    fit_hb_panels,
    predict_panel_probabilities,
)
from offerlab.simulate import GroundTruthConfig, simulate_dataset
from offerlab.storage import derive_seed
from tests.test_profit import in_pool_worker


def capture_at(points, fraction: float) -> float:
    """Capture value of the lift point nearest the requested fraction."""
    return min(points, key=lambda p: abs(p[0] - fraction))[1]


def brute_force_auc(scores, labels):
    """O(n^2) pairwise oracle: concordant pairs count 1, ties 0.5."""
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def delong_by_hand(scores_a, scores_b, labels):
    """Placement-value recomputation with explicit loops (independent of
    the vectorized implementation)."""

    def psi(x, y):
        return 1.0 if x > y else (0.5 if x == y else 0.0)

    def placements(scores):
        pos = [s for s, l in zip(scores, labels) if l == 1]
        neg = [s for s, l in zip(scores, labels) if l == 0]
        v10 = [sum(psi(p, n) for n in neg) / len(neg) for p in pos]
        v01 = [sum(psi(p, n) for p in pos) / len(pos) for n in neg]
        return v10, v01

    va10, va01 = placements(scores_a)
    vb10, vb01 = placements(scores_b)
    auc_a = sum(va10) / len(va10)
    auc_b = sum(vb10) / len(vb10)

    def cov(u, v, mu, mv):
        return sum((x - mu) * (y - mv) for x, y in zip(u, v)) / (len(u) - 1)

    s10aa = cov(va10, va10, auc_a, auc_a)
    s10bb = cov(vb10, vb10, auc_b, auc_b)
    s10ab = cov(va10, vb10, auc_a, auc_b)
    m01a = sum(va01) / len(va01)
    m01b = sum(vb01) / len(vb01)
    s01aa = cov(va01, va01, m01a, m01a)
    s01bb = cov(vb01, vb01, m01b, m01b)
    s01ab = cov(va01, vb01, m01a, m01b)
    variance = (s10aa + s10bb - 2 * s10ab) / len(va10) + (s01aa + s01bb - 2 * s01ab) / len(va01)
    z = (auc_a - auc_b) / math.sqrt(variance)
    return auc_a, auc_b, variance, z


class TestScoredLabels:
    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            ScoredLabels([0.1, 0.2], [1])

    def test_label_domain(self):
        with pytest.raises(InvalidInputError):
            ScoredLabels([0.1], [2])

    @pytest.mark.parametrize("bad", [0.5, 1.7, float("nan")])
    def test_label_other_than_0_or_1_refused_before_the_int_cast(self, bad):
        # a cast first held 0.5 as 0 and 1.7 as 1, and warned on NaN
        scores, labels = [0.1, 0.9, 0.5, 0.3], [0, 1, bad, 1]
        for score in (
            lambda: ScoredLabels(scores, labels),
            lambda: auc(ScoredLabels(scores, labels)),
            lambda: delong_test(scores, scores[::-1], labels),
        ):
            with pytest.raises(InvalidInputError, match="^labels must be 0/1$"):
                score()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_scores_rejected_by_name(self, bad):
        with pytest.raises(InvalidInputError, match=r"2 score\(s\) not finite, the first at index 1"):
            ScoredLabels([0.9, bad, 0.2, bad], [1, 0, 1, 0])


class TestAuc:
    def test_perfect_separation(self):
        data = ScoredLabels([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert auc(data) == 1.0

    def test_all_ties(self):
        data = ScoredLabels([0.4] * 6, [1, 0, 1, 0, 1, 0])
        assert auc(data) == 0.5

    def test_pairwise_concordance_example(self):
        # oracle: pairs (.9,.4) (.9,.8) concordant; (.35,.4) (.35,.8) not -> 2/4
        data = ScoredLabels([0.9, 0.4, 0.35, 0.8], [1, 0, 1, 0])
        assert auc(data) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateInputError):
            auc(ScoredLabels([0.5, 0.6], [1, 1]))

    def test_nan_score_rejected(self):
        # a NaN sorts last, so the AUC would read 1.0
        with pytest.raises(InvalidInputError, match="index 0"):
            auc(ScoredLabels([float("nan"), 0.8, 0.2, 0.1], [1, 1, 0, 0]))

    def test_matches_brute_force_for_all_small_datasets(self):
        # every label pattern with both classes, n <= 8, two score shapes
        rng = np.random.default_rng(0)
        for n in range(2, 9):
            distinct = rng.permutation(n) / n
            tied = np.round(rng.random(n) * 3) / 3
            for scores in (distinct, tied):
                for pattern in itertools.product((0, 1), repeat=n):
                    if len(set(pattern)) < 2:
                        continue
                    data = ScoredLabels(scores, pattern)
                    assert auc(data) == brute_force_auc(scores, pattern)

    @given(st.lists(st.tuples(st.integers(0, 64), st.integers(0, 1)), min_size=4, max_size=40))
    @settings(max_examples=100)
    def test_monotone_transform_invariance(self, rows):
        # grid-valued scores keep exp() injective in float arithmetic
        scores = [s / 64 for s, _ in rows]
        labels = [l for _, l in rows]
        if len(set(labels)) < 2:
            return
        data = ScoredLabels(scores, labels)
        warped = ScoredLabels([math.exp(3 * s) for s in scores], labels)
        assert auc(data) == auc(warped)

    @given(st.lists(st.tuples(st.floats(0, 1), st.integers(0, 1)), min_size=4, max_size=40))
    @settings(max_examples=100)
    def test_label_flip_complement(self, rows):
        scores = [s for s, _ in rows]
        labels = [l for _, l in rows]
        if len(set(labels)) < 2:
            return
        direct = auc(ScoredLabels(scores, labels))
        flipped = auc(ScoredLabels(scores, [1 - l for l in labels]))
        assert direct + flipped == pytest.approx(1.0, abs=1e-12)


class TestAccuracy:
    def test_perfect_scores(self):
        data = ScoredLabels([1.0, 0.0, 1.0], [1, 0, 1])
        assert accuracy_at_base_rate(data, 0.5) == 1.0

    def test_all_positives_scored_low(self):
        data = ScoredLabels([0.3, 0.2], [1, 1])
        assert accuracy_at_base_rate(data, 0.6) == 0.0

    def test_threshold_by_hand(self):
        # scores [0.7, 0.2] vs 0.61 -> predict [1, 0]; labels [1, 1] -> 0.5
        data = ScoredLabels([0.7, 0.2], [1, 1])
        assert accuracy_at_base_rate(data, 0.61) == 0.5

    def test_degenerate_base_rate(self):
        data = ScoredLabels([0.7], [1])
        with pytest.raises(InvalidInputError):
            accuracy_at_base_rate(data, 1.0)
        with pytest.raises(InvalidInputError):
            accuracy_at_base_rate(data, 0.0)


class TestLiftCurve:
    def test_perfect_ranking_captures_all_at_base_rate(self):
        data = ScoredLabels([0.9, 0.8, 0.7, 0.3, 0.2, 0.1], [1, 1, 1, 0, 0, 0])
        points = lift_curve(data, granularity=10)
        assert capture_at(points, 0.5) == 1.0

    def test_endpoints(self):
        data = ScoredLabels([0.5, 0.6, 0.4], [0, 1, 1])
        points = lift_curve(data, granularity=7)
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)

    def test_identical_scores_near_diagonal(self):
        data = ScoredLabels([0.5] * 200, [i % 2 for i in range(200)])
        points = lift_curve(data, granularity=20)
        for fraction, capture in points:
            assert abs(capture - fraction) <= 1 / 20 + 1e-9

    def test_monotone_and_terminates_at_one(self):
        rng = np.random.default_rng(3)
        scores = rng.random(500)
        labels = (rng.random(500) < scores).astype(int)
        points = lift_curve(ScoredLabels(scores, labels), granularity=50)
        captures = [c for _, c in points]
        assert all(b >= a for a, b in zip(captures, captures[1:]))
        assert captures[-1] == 1.0

    def test_stable_tie_break_by_original_index(self):
        data = ScoredLabels([0.5, 0.5, 0.5, 0.5], [1, 0, 0, 0])
        points = lift_curve(data, granularity=4)
        # the positive sits first among the ties, so the top quarter holds it
        assert capture_at(points, 0.25) == 1.0

    def test_no_positives_rejected(self):
        with pytest.raises(DegenerateInputError):
            lift_curve(ScoredLabels([0.1, 0.2], [0, 0]))

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        granularity=st.integers(1, 400),
        ties=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_points_equal_the_per_point_loop(self, seed, n, granularity, ties):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, 4, n) / 4 if ties else rng.random(n)
        labels = rng.integers(0, 2, n)
        labels[rng.integers(n)] = 1
        data = ScoredLabels(scores, labels)
        cum = np.cumsum(labels[np.argsort(-scores, kind="mergesort")])
        expected = []
        for i in range(granularity + 1):
            top = round(i * n / granularity)
            capture = float(cum[top - 1]) / labels.sum() if top > 0 else 0.0
            expected.append((i / granularity, capture))
        assert lift_curve(data, granularity) == expected


class TestDelong:
    def test_identical_scores(self):
        labels = [1, 0, 1, 0, 1]
        scores = [0.9, 0.2, 0.7, 0.4, 0.6]
        result = delong_test(scores, scores, labels)
        assert result.z == 0.0
        assert result.p_value == 1.0

    def test_swap_negates_z(self):
        rng = np.random.default_rng(11)
        labels = rng.integers(0, 2, 60)
        labels[:2] = [0, 1]
        a = rng.random(60) + labels
        b = rng.random(60)
        fwd = delong_test(a, b, labels)
        rev = delong_test(b, a, labels)
        assert fwd.z == pytest.approx(-rev.z, abs=1e-12)
        assert fwd.p_value == pytest.approx(rev.p_value, abs=1e-12)

    def test_ten_row_fixture_matches_hand_recomputation(self):
        labels = [1, 1, 1, 1, 0, 0, 0, 0, 0, 1]
        scores_a = [0.9, 0.8, 0.6, 0.55, 0.5, 0.4, 0.53, 0.2, 0.1, 0.7]
        scores_b = [0.7, 0.9, 0.3, 0.6, 0.2, 0.5, 0.4, 0.35, 0.15, 0.45]
        result = delong_test(scores_a, scores_b, labels)
        auc_a, auc_b, variance, z = delong_by_hand(scores_a, scores_b, labels)
        assert result.auc_a == pytest.approx(auc_a, abs=1e-10)
        assert result.auc_b == pytest.approx(auc_b, abs=1e-10)
        assert result.z == pytest.approx(z, abs=1e-10)
        assert result.p_value == pytest.approx(math.erfc(abs(z) / math.sqrt(2)), abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 80), levels=st.integers(1, 12))
    def test_aucs_equal_auc_exactly(self, seed, n, levels):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, n)
        labels[:2] = [0, 1]
        a, b = rng.integers(0, levels, (2, n)) / levels  # few levels: many ties
        try:
            result = delong_test(a, b, labels)
        except DegenerateInputError:  # zero variance with unequal AUCs
            assume(False)
        assert result.auc_a == auc(ScoredLabels(a, labels))
        assert result.auc_b == auc(ScoredLabels(b, labels))

    def test_perfect_vs_random_is_significant(self):
        rng = np.random.default_rng(7)
        labels = np.array([1] * 50 + [0] * 50)
        perfect = labels + rng.random(100) * 0.5  # disjoint support by class
        random = rng.random(100)
        result = delong_test(perfect, random, labels)
        assert result.p_value < 0.05

    def test_zero_variance_different_auc_rejected(self):
        # both models separate perfectly -> all placements 1, variance 0,
        # but equal AUCs; force unequal AUCs with constant scores on one side
        labels = [1, 1, 0, 0]
        a = [0.9, 0.8, 0.1, 0.2]  # AUC 1
        b = [0.9, 0.8, 0.1, 0.2]
        result = delong_test(a, b, labels)
        assert result.p_value == 1.0
        c = [0.1, 0.2, 0.8, 0.9]  # AUC 0, also zero variance
        with pytest.raises(DegenerateInputError):
            delong_test(a, c, labels)

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateInputError):
            delong_test([0.5, 0.6], [0.4, 0.7], [1, 1])

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_nan_score_rejected(self, side):
        labels = [1, 0, 1, 0, 1]
        good = [0.9, 0.2, 0.7, 0.4, 0.6]
        bad = [0.9, 0.2, float("nan"), 0.4, 0.6]
        a, b = (bad, good) if side == "a" else (good, bad)
        with pytest.raises(InvalidInputError, match="1 score\\(s\\) not finite, the first at index 2"):
            delong_test(a, b, labels)


class TestTuningSelection:
    def test_argmax_wins(self):
        from offerlab.evaluate import TuningRow, select_ncomp

        rows = [
            TuningRow(1, 0.80, 0.7),
            TuningRow(2, 0.83, 0.7),
            TuningRow(3, 0.81, 0.7),
        ]
        assert select_ncomp(rows) == 2

    def test_ties_go_to_smallest(self):
        from offerlab.evaluate import TuningRow, select_ncomp

        rows = [
            TuningRow(1, 0.82, 0.7),
            TuningRow(2, 0.82, 0.7),
            TuningRow(3, 0.80, 0.7),
        ]
        assert select_ncomp(rows) == 1

    def test_single_candidate_selected_trivially(self):
        from offerlab.datasets import KFOLD_BY_OCCASION, ResamplingScheme
        from offerlab.evaluate import tune_ncomp
        from offerlab.hb import McmcConfig
        from offerlab.simulate import GroundTruthConfig, simulate_dataset

        dataset = simulate_dataset(GroundTruthConfig(n_customers=20, seed=71))
        covariates = dataset.customers.covariates(include_demographic=False)
        scheme = ResamplingScheme(kind=KFOLD_BY_OCCASION, folds=2, repeats=1)
        config = McmcConfig(total_draws=120, burn_in=30, seed=5)
        result = tune_ncomp(dataset.train, covariates, [2], scheme, config)
        assert result.selected_ncomp == 2
        assert len(result.rows) == 1

    def test_empty_candidates_rejected(self):
        from offerlab.datasets import ResamplingScheme
        from offerlab.evaluate import tune_ncomp
        from offerlab.hb import McmcConfig

        with pytest.raises(InvalidInputError):
            tune_ncomp([], None, [], ResamplingScheme(), McmcConfig())


def per_cell_tuning_rows(offers, covariates, candidates, scheme, config):
    """Scalar reference for tuning: one fit_hb_panel chain per cell, fitted
    and scored one cell at a time."""
    keys = (offers.customer_id, offers.occasion)
    cells = []
    for repeat in range(scheme.repeats):
        split_seed = derive_seed(config.seed, 7001, repeat)
        if scheme.kind == KFOLD_BY_OCCASION:
            for fold, (train, valid) in enumerate(
                split_kfold_by_occasion(*keys, scheme.folds, split_seed)
            ):
                seed = derive_seed(config.seed, 7013, repeat, fold)
                cells.append((offers.take(train), offers.take(valid), seed))
        else:
            train, valid = split_per_customer_holdout(*keys, split_seed)
            seed = derive_seed(config.seed, 7013, repeat, 0)
            cells.append((offers.take(train), offers.take(valid), seed))
    cells = [cell for cell in cells if len(np.unique(cell[1].labels())) == 2]
    rows = []
    for ncomp in sorted(candidates):
        aucs, accuracies = [], []
        for train, valid, seed in cells:
            X, y, row_customer, customer_ids, Z = build_panel(train, covariates)
            draws = fit_hb_panel(
                X, y, row_customer, customer_ids, Z, ncomp=ncomp, config=replace(config, seed=seed)
            )
            scores = predict_panel_probabilities(
                draws,
                valid.X,
                valid.customer_id.tolist(),
                mode=DRAW_AVERAGED,
                fallback_population_mean=True,
            )
            data = ScoredLabels(scores, valid.labels())
            aucs.append(auc(data))
            base_rate = float(np.mean(y))
            accuracies.append(
                accuracy_at_base_rate(data, base_rate) if 0 < base_rate < 1 else float("nan")
            )
        rows.append(TuningRow(ncomp, float(np.mean(aucs)), float(np.nanmean(accuracies))))
    return rows


def small_tuning_problem(kind=KFOLD_BY_OCCASION):
    dataset = simulate_dataset(GroundTruthConfig(n_customers=40, seed=83))
    covariates = dataset.customers.covariates(include_demographic=False)
    scheme = ResamplingScheme(kind=kind, folds=3, repeats=2)
    return dataset.train, covariates, scheme, McmcConfig(total_draws=80, burn_in=20, seed=17)


class TestStackedTuning:
    @pytest.mark.parametrize("kind", [KFOLD_BY_OCCASION, PER_CUSTOMER_HOLDOUT])
    def test_rows_equal_the_per_cell_loop_exactly(self, kind):
        offers, covariates, scheme, config = small_tuning_problem(kind)
        report = tune_ncomp(offers, covariates, [1, 2], scheme, config)
        assert report.rows == per_cell_tuning_rows(offers, covariates, [1, 2], scheme, config)

    def test_cholesky_failure_names_repeat_and_fold(self, monkeypatch):
        from tests.test_hb import break_block_at_draw

        offers, covariates, scheme, config = small_tuning_problem()
        # ncomp 1's one chain stacks repeat 0's three folds, then repeat 1's:
        # repeat 1, fold 1 is its block 4
        break_block_at_draw(monkeypatch, "_draw_components", block=4, draw=3, chain=1)
        expected = (
            "^ncomp 1, repeat 1, fold 1: block 4: Cholesky of inverse scale of component 0 "
            "failed at draw 3$"
        )
        with pytest.raises(EstimationError, match=expected):
            tune_ncomp(offers, covariates, [1, 2], scheme, config)

    def test_one_stacked_chain_per_candidate_holds_every_cell(self, monkeypatch):
        import offerlab.evaluate as evaluate

        offers, covariates, scheme, config = small_tuning_problem()
        built, calls = [], []

        def spy_build_panel(*args):
            built.append(build_panel(*args))
            return built[-1]

        def spy_fit_hb_panels(panels, ncomp, chain_config, seeds):
            calls.append((ncomp, list(panels), list(seeds)))
            return fit_hb_panels(panels, ncomp, chain_config, seeds)

        monkeypatch.setattr(evaluate, "build_panel", spy_build_panel)
        monkeypatch.setattr(evaluate, "fit_hb_panels", spy_fit_hb_panels)
        # the spies record into this process's memory, which a forked share
        # cannot reach: one share scores every candidate here
        monkeypatch.setattr(shares, "_usable_cpus", lambda: 1)
        tune_ncomp(offers, covariates, [1, 2, 3], scheme, config)
        cells = [(r, f) for r in range(scheme.repeats) for f in range(scheme.folds)]
        assert len(built) == len(cells)  # every cell of this problem is usable
        assert [ncomp for ncomp, _, _ in calls] == [1, 2, 3]
        for _, panels, seeds in calls:
            assert len(panels) == len(built)
            assert all(got is cell for got, cell in zip(panels, built))
            assert seeds == [derive_seed(config.seed, 7013, r, f) for r, f in cells]


def score_by_process(monkeypatch, in_caller, in_child):
    """Replace ``_scored_candidate`` by ``in_caller`` in this process and by
    ``in_child`` in every forked share."""
    import offerlab.evaluate as evaluate

    caller = os.getpid()

    def scored_candidate(cells, ncomp, config):
        run = in_caller if os.getpid() == caller else in_child
        return run(cells, ncomp, config)

    monkeypatch.setattr(evaluate, "_scored_candidate", scored_candidate)


class TestTuningShares:
    """tune_ncomp scores one share of the candidates in the caller and every
    other share in a forked process, one share per usable CPU."""

    @pytest.fixture(params=[1, 2, 3], ids=lambda n: f"{n}cpu")
    def cpus(self, request, monkeypatch):
        monkeypatch.setattr(shares, "_usable_cpus", lambda: request.param)
        yield request.param
        assert multiprocessing.active_children() == []

    @pytest.fixture(scope="class")
    def reference(self):
        offers, covariates, scheme, config = small_tuning_problem()
        rows = per_cell_tuning_rows(offers, covariates, [1, 2, 3], scheme, config)
        return (offers, covariates, scheme, config), rows

    def test_rows_equal_the_per_cell_loop_for_any_share_count(self, cpus, reference):
        (offers, covariates, scheme, config), rows = reference
        assert tune_ncomp(offers, covariates, [1, 2, 3], scheme, config).rows == rows

    @pytest.mark.parametrize(
        "candidates, expected",
        [
            ([1, 2, 3], {1: [[1, 2, 3]], 2: [[3], [1, 2]], 3: [[3], [2], [1]]}),
            ([1, 2, 3, 4], {1: [[1, 2, 3, 4]], 2: [[1, 4], [2, 3]], 3: [[4], [3], [1, 2]]}),
        ],
    )
    def test_largest_candidate_first_to_the_lightest_share(
        self, monkeypatch, cpus, candidates, expected
    ):
        import offerlab.evaluate as evaluate

        # every candidate scores (pid, ncomp) in one cell: the AUC column
        # then says which process scored which candidate
        monkeypatch.setattr(
            evaluate, "_scored_candidate", lambda cells, ncomp, config: [(os.getpid(), ncomp)]
        )
        offers, covariates, scheme, config = small_tuning_problem()
        report = tune_ncomp(offers, covariates, candidates, scheme, config)
        assert [row.mean_accuracy for row in report.rows] == candidates
        shares = {}
        for row in report.rows:
            shares.setdefault(row.mean_auc, []).append(row.ncomp)
        assert shares.pop(os.getpid()) == expected[cpus][0]
        assert sorted(shares.values()) == sorted(expected[cpus][1:])

    def test_cholesky_failure_named_at_any_share_count(self, monkeypatch, cpus):
        TestStackedTuning().test_cholesky_failure_names_repeat_and_fold(monkeypatch)

    def test_each_share_stops_at_its_first_failure_and_the_smallest_wins(
        self, monkeypatch, cpus, tmp_path
    ):
        import offerlab.evaluate as evaluate

        started = tmp_path / "started"

        def failing(cells, ncomp, config):
            with started.open("a") as log:  # every process appends here
                log.write(f"{ncomp}\n")
            raise EstimationError(f"ncomp {ncomp} failed")

        monkeypatch.setattr(evaluate, "_scored_candidate", failing)
        offers, covariates, scheme, config = small_tuning_problem()
        with pytest.raises(EstimationError, match="^ncomp 1 failed$"):
            tune_ncomp(offers, covariates, [1, 2, 3], scheme, config)
        # the shares are {1, 2, 3}; {3} and {1, 2}; {3}, {2} and {1}
        expected = {1: [1], 2: [1, 3], 3: [1, 2, 3]}[cpus]
        assert sorted(int(n) for n in started.read_text().split()) == expected

    def test_child_exit_without_result_named(self, monkeypatch, cpus):
        import offerlab.evaluate as evaluate

        score_by_process(monkeypatch, evaluate._scored_candidate, lambda *args: os._exit(3))
        offers, covariates, scheme, config = small_tuning_problem()
        if cpus == 1:  # no child: the caller scores every candidate
            tune_ncomp(offers, covariates, [1, 2, 3], scheme, config)
            return
        share = {2: "1, 2", 3: "2"}[cpus]  # the first child's share
        message = rf"^the process tuning ncomp \[{share}\] exited with code 3 before sending a result$"
        with pytest.raises(OfferLabError, match=message):
            tune_ncomp(offers, covariates, [1, 2, 3], scheme, config)

    def test_without_fork_the_caller_scores_every_candidate(self, monkeypatch, cpus):
        def in_caller(cells, ncomp, config):
            return [(0.5, ncomp)]

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        score_by_process(monkeypatch, in_caller, lambda *args: os._exit(3))
        offers, covariates, scheme, config = small_tuning_problem()
        report = tune_ncomp(offers, covariates, [1, 2, 3], scheme, config)
        assert [row.mean_accuracy for row in report.rows] == [1, 2, 3]

    def test_a_pool_worker_scores_every_candidate_itself(self, cpus, reference):
        # a daemonic process may not have children
        (offers, covariates, scheme, config), rows = reference
        report = in_pool_worker(tune_ncomp, offers, covariates, [1, 2, 3], scheme, config)
        assert report.rows == rows

    def test_interrupt_in_the_caller_stops_every_child(self, monkeypatch, cpus):
        def interrupted(*args):
            raise KeyboardInterrupt

        # a child would run on for a minute after the caller stops
        score_by_process(monkeypatch, interrupted, lambda *args: time.sleep(60))
        offers, covariates, scheme, config = small_tuning_problem()
        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            tune_ncomp(offers, covariates, [1, 2, 3], scheme, config)
        assert time.perf_counter() - started < 30
