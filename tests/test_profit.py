import math
import multiprocessing
import os
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offerlab import profit, shares
from offerlab.choice import UTILITY_CLAMP, join, logistic
from offerlab.errors import ConfigurationError, InvalidInputError, OfferLabError
from offerlab.hb import DRAW_AVERAGED, POPULATION_MEAN, POSTERIOR_MEAN, PREDICTION_MODES
from offerlab.profit import (
    NopConfig,
    OfferPolicy,
    SegmentData,
    _r_grid,
    _SegmentObjective,
    annuity_factor,
    contract_months_to_years,
    optimize_policy,
    present_value,
    segment_data_from_assignments,
    segment_objective,
)
from offerlab.segments import SEGMENTS, SegmentAssignment, assign_segment
from tests.test_hb import hand_built_draws


def nop(prob, loyalty, pv, initial_cost):
    """Next-offer profit of one customer-offer: the scalar reference that
    the oracle sums below add up."""
    return prob * loyalty * (pv - initial_cost)


def make_segment(betas_per_customer, loyalty, mrp=None, segment="inelastic-loyal"):
    """SegmentData plus a single-draw posterior built from explicit betas."""
    betas = np.asarray(betas_per_customer, dtype=float)
    if betas.ndim == 2:
        betas = betas[None, :, :]
    n = betas.shape[1]
    ids = list(range(1, n + 1))
    draws = hand_built_draws(betas, customer_ids=ids)
    seg = SegmentData(
        segment=segment,
        customer_ids=tuple(ids),
        loyalty=np.asarray(loyalty, dtype=float),
        mrp=np.full(n, 100.0) if mrp is None else np.asarray(mrp, dtype=float),
    )
    return seg, draws


def random_segment(rng, n, n_draws, scale=1.0):
    """A criterion-3-style segment: n customers, n_draws coefficient draws."""
    betas = scale * rng.normal([0.5, 0.1, -3.0], [1.2, 0.4, 2.5], size=(n_draws, n, 3))
    return make_segment(betas, rng.random(n), 60 + 80 * rng.random(n))


def grid_oracle(seg, draws, config, r_step=0.001, mode=DRAW_AVERAGED) -> OfferPolicy:
    """Exhaustive argmax over the r grid x contract options, the oracle the
    optimizer is verified against.  The grid steps by about ``r_step`` and
    always holds both bounds."""
    if not (math.isfinite(r_step) and r_step > 0):
        raise InvalidInputError(f"r_step must be finite and > 0, got {r_step!r}")
    if seg.n_customers == 0:
        raise InvalidInputError(f"segment {seg.segment!r} has no customers")
    objective = _SegmentObjective(seg, draws, config, mode)
    lo, hi = config.bounds_for(seg.segment)
    rs = _r_grid(lo, hi, max(int(round((hi - lo) / r_step)), 1) + 1)
    best = None
    for months in sorted(config.contract_options):
        values, _ = objective.values_and_slopes(rs, months)
        i = int(np.argmax(values))
        if best is None or values[i] > best.nop_value:
            r = float(rs[i])
            best = OfferPolicy(
                segment=seg.segment,
                r=r,
                months=int(months),
                nop_value=float(values[i]),
                n_customers=seg.n_customers,
                at_bound=r in (lo, hi),
            )
    return best


def population_mean_draw(draws):
    """A one-draw posterior holding the population mean for every customer."""
    betas = np.tile(draws.population_mean_coefficients(), (1, draws.n_customers, 1))
    return hand_built_draws(betas, customer_ids=draws.customer_ids)


def reference_values(seg, draws, config, rs, months, mode=DRAW_AVERAGED):
    """Per-customer, per-draw recomputation of the objective with math.exp."""
    betas = {
        DRAW_AVERAGED: draws.betas,
        POSTERIOR_MEAN: draws.betas.mean(axis=0)[None],
        POPULATION_MEAN: population_mean_draw(draws).betas,
    }[mode]
    years = contract_months_to_years(months)
    out = []
    for r in rs:
        total = 0.0
        for i in range(seg.n_customers):
            probs = []
            for b0, b1, b2 in betas[:, i, :]:
                u = min(max(b0 + b1 * years + b2 * r, -UTILITY_CLAMP), UTILITY_CLAMP)
                probs.append(1.0 / (1.0 + math.exp(-u)))
            prob = math.fsum(probs) / len(probs)
            pv = present_value(seg.mrp[i], config.monthly_cost, r, months, config.annual_rate)
            total += nop(prob, seg.loyalty[i], pv, config.initial_cost)
        out.append(total)
    return np.array(out)


def values_of(objective, rs, months):
    """The profit at each rate in ``rs``, without its derivative."""
    return objective.values_and_slopes(rs, months)[0]


class SeedObjective:
    """The scalar objective as first written (one numpy pass per r), kept as
    the reference the batched objective must reproduce."""

    def __init__(self, seg, draws, config, mode):
        idx = join(draws.customer_ids, seg.customer_ids)
        if mode == POSTERIOR_MEAN:
            self.betas = draws.betas.mean(axis=0)[None, idx, :]
        else:
            self.betas = draws.betas[:, idx, :]
        self.pairs = self.betas[..., 0].size
        self.seg = seg
        self.config = config

    def value(self, r, months):
        years = contract_months_to_years(months)
        u = self.betas[:, :, 0] + self.betas[:, :, 1] * years + self.betas[:, :, 2] * r
        probs = logistic(u).mean(axis=0)
        factor = annuity_factor(months, self.config.annual_rate)
        pv = (self.seg.mrp * (1.0 + r) - self.config.monthly_cost) * factor
        return float(np.sum(probs * self.seg.loyalty * (pv - self.config.initial_cost)))

    def slope(self, r, months):
        """f'(r), with the draw mean of dp/dr = b2 * p * (1 - p)."""
        years = contract_months_to_years(months)
        b2 = self.betas[:, :, 2]
        p = logistic(self.betas[:, :, 0] + self.betas[:, :, 1] * years + b2 * r)
        probs, dprobs = p.mean(axis=0), (b2 * p * (1.0 - p)).mean(axis=0)
        factor = annuity_factor(months, self.config.annual_rate)
        margin = (self.seg.mrp * (1.0 + r) - self.config.monthly_cost) * factor
        margin -= self.config.initial_cost
        return float(np.sum(self.seg.loyalty * (probs * self.seg.mrp * factor + dprobs * margin)))

    def values(self, rs, months):
        return np.array([self.value(float(r), months) for r in rs])

    def values_and_slopes(self, rs, months):
        rs = [float(r) for r in rs]
        return self.values(rs, months), np.array([self.slope(r, months) for r in rs])


def seed_bisect_slope(objective, months: int, a: float, b: float, best_r: float, best_v: float):
    """Bisection on the sign of f' over [a, b] down to REFINE_TOL, one
    (f, f') evaluation per midpoint.  (best_r, best_v) is the scan's best
    point, at one end; returns the best point probed, never worse.

    The rate refinement as first written, kept as the reference that
    ``profit._itp_slope`` must reproduce where f' changes sign once."""
    for _ in range(max(0, math.ceil(math.log2((b - a) / profit.REFINE_TOL)))):
        m = 0.5 * (a + b)
        values, slopes = objective.values_and_slopes([m], months)
        if values[0] > best_v:
            best_r, best_v = m, float(values[0])
        if slopes[0] > 0:
            a = m
        else:
            b = m
    return best_r, best_v


class StubObjective:
    """values_and_slopes of a stub profit f with derivative df, one rate
    per call, recording each rate asked for and the value it got."""

    def __init__(self, f, df):
        self.f, self.df, self.probes = f, df, {}

    def values_and_slopes(self, rs, months):
        (r,) = rs
        self.probes[r] = value = self.f(r)
        return np.array([value]), np.array([self.df(r)])


def one_root(root):
    """A stub with f' > 0 left of ``root``, f'(root) = 0 and f' < 0 right
    of it; f is steeper on the right, so two nodes rarely tie."""
    def f(r):
        return -(r - root) ** 2 * (1.0 if r <= root else 1.5)

    def df(r):
        return -2.0 * (r - root) * (1.0 if r <= root else 1.5)

    return f, df


def grid_steps(a, b):
    """Bisection's step count over [a, b]: its grid has 2**steps cells."""
    return max(0, math.ceil(math.log2((b - a) / profit.REFINE_TOL)))


def scan_best(f, a, b):
    """The scan's best point: the end of [a, b] with the higher profit."""
    return (a, f(a)) if f(a) >= f(b) else (b, f(b))


class TestPresentValue:
    def test_single_undiscounted_term(self):
        assert present_value(100.0, 5.0, 0.5, 1, 0.0) == 145.0

    def test_zero_rate_is_linear_in_months(self):
        assert present_value(100.0, 5.0, 0.5, 60, 0.0) == 60 * 145.0

    def test_annuity_fixture(self):
        # closed form: 100 * (1 - 1.01^-12) / 0.01 = 1125.50775...
        assert present_value(100.0, 0.0, 0.0, 12, 0.12) == pytest.approx(1125.51, abs=0.01)

    def test_months_floor(self):
        with pytest.raises(InvalidInputError):
            present_value(100.0, 5.0, 0.0, 0, 0.12)

    @given(st.floats(-0.5, 0.5), st.floats(-0.4, 0.5), st.integers(1, 60))
    @settings(max_examples=100)
    def test_increasing_in_rate_when_margin_positive(self, r1, r2, months):
        if r1 + 1e-9 >= r2:
            return
        lo = present_value(100.0, 5.0, r1, months, 0.12)
        hi = present_value(100.0, 5.0, r2, months, 0.12)
        assert lo < hi

    @given(st.integers(1, 59), st.floats(0.0, 0.5))
    @settings(max_examples=100)
    def test_increasing_in_months_when_margin_positive(self, months, r):
        shorter = present_value(100.0, 5.0, r, months, 0.12)
        longer = present_value(100.0, 5.0, r, months + 1, 0.12)
        assert shorter < longer

    @given(st.floats(0.0, 0.5), st.floats(0.01, 0.5))
    @settings(max_examples=100)
    def test_decreasing_in_discount_rate(self, d1, extra):
        a = present_value(100.0, 5.0, 0.2, 24, d1)
        b = present_value(100.0, 5.0, 0.2, 24, d1 + extra)
        assert b < a

    def test_matches_term_by_term_sum(self):
        mrp, mrc, r, months, d = 87.5, 4.0, -0.2, 37, 0.09
        expected = sum(
            (mrp * (1 + r) - mrc) / (1 + d / 12) ** m for m in range(1, months + 1)
        )
        assert present_value(mrp, mrc, r, months, d) == pytest.approx(expected, rel=1e-12)


class TestNop:
    """Each customer adds probability x loyalty x (present value - initial
    cost) to the objective; here one customer on a 12-month offer at r = 0,
    whose acceptance probability is set through saturated draws."""

    CONFIG = NopConfig(initial_cost=10.0)

    def value(self, intercepts, loyalty):
        betas = [[[k, 0.0, 0.0]] for k in intercepts]  # one draw per intercept
        seg, draws = make_segment(betas, [loyalty])
        return segment_objective(0.0, 12, seg, draws, self.CONFIG)

    def margin(self):
        c = self.CONFIG
        return present_value(100.0, c.monthly_cost, 0.0, 12, c.annual_rate) - c.initial_cost

    def test_zero_probability(self):
        assert self.value([-UTILITY_CLAMP], 0.9) == pytest.approx(0.0, abs=1e-250)

    def test_zero_loyalty(self):
        assert self.value([0.0], 0.0) == 0.0

    def test_direct_product(self):
        assert self.value([0.0], 0.8) == pytest.approx(0.5 * 0.8 * self.margin(), rel=1e-12)

    @given(st.integers(0, 4), st.floats(0, 1))
    @settings(max_examples=50)
    def test_linear_in_loyalty_and_probability(self, accepting, loyalty):
        # `accepting` of 4 draws accept for certain, the rest never do
        intercepts = [UTILITY_CLAMP] * accepting + [-UTILITY_CLAMP] * (4 - accepting)
        expected = accepting / 4 * loyalty * self.margin()
        assert self.value(intercepts, loyalty) == pytest.approx(expected, rel=1e-9, abs=1e-9)


class TestSegmentObjective:
    def test_empty_segment(self):
        seg, draws = make_segment(np.zeros((1, 3)), [0.5])
        empty = SegmentData("inelastic-loyal", (), np.array([]), np.array([]))
        assert segment_objective(0.1, 12, empty, draws, NopConfig()) == 0.0

    def test_saturated_customer_reduces_to_present_value(self):
        seg, draws = make_segment([[500.0, 0.0, 0.0]], loyalty=[1.0])
        config = NopConfig(annual_rate=0.0)
        months, r = 24, 0.3
        value = segment_objective(r, months, seg, draws, config)
        assert value == pytest.approx(months * (100.0 * (1 + r) - 5.0), rel=1e-9)

    def test_matches_per_customer_recomputation(self):
        rng = np.random.default_rng(4)
        betas = rng.normal([0.5, 0.2, -3.0], [0.5, 0.1, 1.0], size=(7, 3))
        loyalty = rng.random(7)
        mrp = 80 + 40 * rng.random(7)
        seg, draws = make_segment(betas, loyalty, mrp)
        config = NopConfig()
        r, months = -0.15, 36
        years = contract_months_to_years(months)
        expected = 0.0
        for i in range(7):
            u = betas[i, 0] + betas[i, 1] * years + betas[i, 2] * r
            prob = 1 / (1 + math.exp(-u))
            pv = present_value(mrp[i], config.monthly_cost, r, months, config.annual_rate)
            expected += nop(prob, loyalty[i], pv, config.initial_cost)
        assert segment_objective(r, months, seg, draws, config) == pytest.approx(
            expected, rel=1e-9
        )

    def test_rejects_rate_outside_trained_band(self):
        seg, draws = make_segment([[0.5, 0.2, -3.0]], [0.5])
        with pytest.raises(InvalidInputError):
            segment_objective(0.75, 12, seg, draws, NopConfig())

    def test_draw_averaged_probability_used(self):
        betas = np.array([[[2.0, 0.0, 0.0]], [[-2.0, 0.0, 0.0]]])
        seg, _ = make_segment(betas[0], [1.0])
        draws = hand_built_draws(betas, customer_ids=[1])
        config = NopConfig(annual_rate=0.0, monthly_cost=0.0)
        value = segment_objective(0.0, 1, seg, draws, config)
        expected_prob = (logistic(2.0) + logistic(-2.0)) / 2
        assert value == pytest.approx(expected_prob * 100.0, rel=1e-9)


class TestBatchedObjective:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        n_draws=st.integers(1, 5),
        scale=st.sampled_from([1.0, 400.0]),
        n_rates=st.integers(1, 30),
        months=st.sampled_from(NopConfig().contract_options),
        mode=st.sampled_from(PREDICTION_MODES),
        block=st.sampled_from([1, 4, 13, profit.VALUES_BLOCK]),
    )
    @settings(max_examples=150, deadline=None)
    def test_values_match_per_customer_recomputation(
        self, seed, n, n_draws, scale, n_rates, months, mode, block
    ):
        # scale 400 puts |u| past the clamp; small blocks split both the
        # rate grid and the customers over several blocks
        rng = np.random.default_rng(seed)
        seg, draws = random_segment(rng, n, n_draws, scale)
        config = NopConfig()
        rs = rng.uniform(-0.5, 0.5, n_rates)
        with mock.patch.object(profit, "VALUES_BLOCK", block):
            values = values_of(profit._SegmentObjective(seg, draws, config, mode), rs, months)
        expected = reference_values(seg, draws, config, rs, months, mode)
        assert values == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_clip_path_matches_reference(self):
        # u = -800 - r: only the clamp keeps exp(-u) finite and the
        # probability at 1 / (1 + e^700) rather than 0
        seg, draws = make_segment([[[-800.0, 0.0, 1.0]], [[-810.0, 0.0, -1.0]]], [1.0])
        config = NopConfig()
        objective = profit._SegmentObjective(seg, draws, config, DRAW_AVERAGED)
        rs = np.linspace(-0.5, 0.5, 11)
        with np.errstate(over="raise"):
            values = values_of(objective, rs, 12)
        assert np.all(values > 0.0)
        assert values == pytest.approx(
            reference_values(seg, draws, config, rs, 12), rel=1e-12, abs=0.0
        )

    def test_value_is_the_one_point_batch(self):
        rng = np.random.default_rng(3)
        seg, draws = random_segment(rng, 9, 50)
        objective = profit._SegmentObjective(seg, draws, NopConfig(), DRAW_AVERAGED)
        rs = np.linspace(-0.5, 0.5, 101)
        batch = values_of(objective, rs, 24)
        assert [values_of(objective, [r], 24)[0] for r in rs] == list(batch)

    def test_bit_identical_to_seed_objective(self):
        rng = np.random.default_rng(8)
        seg, draws = random_segment(rng, 300, 120)
        config = NopConfig()
        rs = np.linspace(-0.5, 0.5, 101)
        seed = SeedObjective(seg, draws, config, DRAW_AVERAGED)
        for block in (97, profit.VALUES_BLOCK):
            with mock.patch.object(profit, "VALUES_BLOCK", block):
                objective = profit._SegmentObjective(seg, draws, config, DRAW_AVERAGED)
                for months in (1, 60):
                    assert np.array_equal(values_of(objective, rs, months), seed.values(rs, months))

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        n_draws=st.integers(1, 120),
        mode=st.sampled_from(PREDICTION_MODES),
        months=st.sampled_from(NopConfig().contract_options),
        r=st.floats(-0.49, 0.49),
    )
    @settings(max_examples=100, deadline=None)
    def test_slope_matches_central_difference(self, seed, n, n_draws, mode, months, r):
        rng = np.random.default_rng(seed)
        seg, draws = random_segment(rng, n, n_draws)
        self.assert_slope_matches_central_difference(seg, draws, mode, months, r)

    @pytest.mark.parametrize("u0", [-800.0, -700.3, -699.7, 699.7, 700.3, 800.0])
    @pytest.mark.parametrize("mode", PREDICTION_MODES)
    def test_slope_near_the_utility_clamp(self, u0, mode):
        # every utility stays within 0.25 of u0 for |r| <= 0.2, so none
        # crosses the clamp at +-700 inside a difference step; beyond -700
        # p is constant and only the margin's slope is left
        rng = np.random.default_rng(700)
        betas = np.stack(
            [u0 + rng.uniform(-0.05, 0.05, (4, 3)), np.zeros((4, 3)), rng.uniform(-1, 1, (4, 3))],
            axis=-1,
        )
        seg, draws = make_segment(betas, rng.random(3), 60 + 80 * rng.random(3))
        for r in np.linspace(-0.2, 0.2, 5):
            self.assert_slope_matches_central_difference(seg, draws, mode, 24, float(r))

    @staticmethod
    def assert_slope_matches_central_difference(seg, draws, mode, months, r, h=1e-5):
        """f' within 1e-6 of (f(r + h) - f(r - h)) / 2h, relative to the
        larger of |f'| and |f| (f' vanishes at an optimum; r spans a band of
        width 1, so f sets the scale there)."""
        objective = profit._SegmentObjective(seg, draws, NopConfig(), mode)
        values, slopes = objective.values_and_slopes([r], months)
        below, above = values_of(objective, [r - h, r + h], months)
        assert slopes[0] == pytest.approx(
            (above - below) / (2 * h), rel=1e-6, abs=1e-6 * abs(values[0])
        )

    @pytest.mark.parametrize("bad", [0.5000001, -0.75, float("nan"), float("inf")])
    def test_rate_outside_band_or_nan_rejected(self, bad):
        seg, draws = make_segment([[0.5, 0.2, -3.0]], [0.5])
        objective = profit._SegmentObjective(seg, draws, NopConfig(), DRAW_AVERAGED)
        with pytest.raises(InvalidInputError, match="leaves the trained band"):
            objective.values_and_slopes([0.0, bad, 0.1], 12)
        with pytest.raises(InvalidInputError, match="leaves the trained band"):
            objective.values_and_slopes(bad, 12)


class TestItpSlope:
    """The rate search over bisection's grid: where f' changes sign once in
    the bracket, bisection's point bit for bit, from at most n + 1 probes."""

    @given(
        a=st.floats(-0.5, 0.4),
        width=st.floats(1e-6, 0.1),
        where=st.sampled_from(["anywhere", "node", "nominal node", "first cell", "last cell"]),
        t=st.floats(0.0, 1.0),
        k=st.integers(1, 2**14 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_one_sign_change_is_bisection(self, a, width, where, t, k):
        b = a + width
        steps = grid_steps(a, b)
        cells = 1 << steps
        k = 1 + k % max(cells - 1, 1)
        root = {
            "anywhere": a + t * (b - a),
            # f' = 0 exactly at the float bisection computes for node k
            "node": profit._grid_rate(a, b, steps, k) if steps else a,
            "nominal node": a + (b - a) * k / cells,
            "first cell": a + t * (b - a) / cells,
            "last cell": b - t * (b - a) / cells,
        }[where]
        f, df = one_root(root)
        best = scan_best(f, a, b)
        reference = StubObjective(f, df)
        expected = seed_bisect_slope(reference, 12, a, b, *best)
        search = StubObjective(f, df)
        assert profit._itp_slope(search, 12, a, b, (df(a), df(b)), *best) == expected
        assert len(search.probes) <= steps + 1
        assert len(reference.probes) == steps

    @given(
        a=st.floats(-0.5, 0.4),
        width=st.floats(1e-5, 0.1),
        t=st.floats(0.0, 1.0),
        up=st.sampled_from([1e-9, 1.0, 1e9]),
        down=st.sampled_from([3e-9, 3.0, 3e9]),
    )
    @settings(max_examples=300, deadline=None)
    def test_a_step_in_the_slope_is_bisection_within_n_plus_1(self, a, width, t, up, down):
        # f' jumps from up to -down at the root: interpolation lands next to
        # one end on every probe, so only the projection bounds the probes
        b = a + width
        root = a + t * width

        def f(r):
            return up * (r - root) if r < root else -down * (r - root)

        def df(r):
            return up if r < root else -down

        best = scan_best(f, a, b)
        search = StubObjective(f, df)
        found = profit._itp_slope(search, 12, a, b, (df(a), df(b)), *best)
        assert found == seed_bisect_slope(StubObjective(f, df), 12, a, b, *best)
        assert len(search.probes) <= grid_steps(a, b) + 1

    @given(
        a=st.floats(-0.5, 0.4),
        width=st.floats(1e-5, 0.1),
        turns=st.floats(0.5, 60.0),
        phase=st.floats(0.0, 6.3),
    )
    @settings(max_examples=200, deadline=None)
    def test_several_sign_changes(self, a, width, turns, phase):
        b = a + width
        w = 2 * math.pi * turns / width
        objective = StubObjective(
            lambda r: math.sin(w * (r - a) + phase), lambda r: w * math.cos(w * (r - a) + phase)
        )
        self.assert_probed_and_bounded(objective, a, b, objective.df(a), objective.df(b))

    @given(
        a=st.floats(-0.5, 0.4),
        width=st.floats(1e-5, 0.1),
        ends=st.tuples(st.floats(), st.floats()),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_slopes(self, a, width, ends, data):
        # same-sign ends, NaN and infinite slopes, values in any order
        draw = data.draw
        objective = StubObjective(
            lambda r: draw(st.floats(-1e3, 1e3)), lambda r: draw(st.floats())
        )
        self.assert_probed_and_bounded(objective, a, a + width, *ends)

    @staticmethod
    def assert_probed_and_bounded(objective, a, b, slope_a, slope_b):
        """At most n + 1 probes, each strictly inside [a, b]; the point
        returned is the scan point or the best probe, with its value."""
        best_v = objective.f(a)
        r, v = profit._itp_slope(objective, 12, a, b, (slope_a, slope_b), a, best_v)
        probes = objective.probes
        assert len(probes) <= grid_steps(a, b) + 1
        assert all(a < m < b for m in probes)
        assert (r, v) == (a, best_v) or (probes[r] == v and v > best_v)
        assert v == max([best_v, *probes.values()])

    def test_grid_rate_is_bisections_midpoint(self):
        # every node of a 2**5 grid, against bisection's own floats
        a, b, steps = -0.3, -0.2, 5
        nodes = {}

        def walk(lo, hi, a, b):
            if hi - lo > 1:
                mid, m = (lo + hi) // 2, 0.5 * (a + b)
                nodes[mid] = m
                walk(lo, mid, a, m)
                walk(mid, hi, m, b)

        walk(0, 1 << steps, a, b)
        assert [profit._grid_rate(a, b, steps, k) for k in range(1, 32)] == [
            nodes[k] for k in range(1, 32)
        ]

    def test_policy_is_bisections_on_criterion_3_segments(self):
        rng = np.random.default_rng(20261019)
        config = NopConfig()

        def bisection(objective, months, a, b, ends, best_r, best_v):
            return seed_bisect_slope(objective, months, a, b, best_r, best_v)

        for _ in range(8):
            seg, draws = random_segment(rng, int(rng.integers(3, 13)), int(rng.integers(20, 81)))
            policy = optimize_policy(seg, draws, config)
            with mock.patch.object(profit, "_itp_slope", bisection):
                assert optimize_policy(seg, draws, config) == policy


class ClampedObjective(profit._SegmentObjective):
    """The objective with the clamped kernel forced on for every option."""

    def _select(self, months):
        super()._select(months)
        self.clamped = True


class TestClampFreeKernel:
    """Where no utility can reach the clamp, the kernel skips the clip and
    the clamp mask; its values and slopes stay bit for bit the same."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        n_draws=st.integers(1, 60),
        scale=st.sampled_from([0.1, 1.0, 3.0, 10.0]),
        months=st.sampled_from(NopConfig().contract_options),
        mode=st.sampled_from(PREDICTION_MODES),
    )
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_the_clamped_path(self, seed, n, n_draws, scale, months, mode):
        rng = np.random.default_rng(seed)
        seg, draws = random_segment(rng, n, n_draws, scale)
        rs = np.concatenate([[-0.5, 0.5], rng.uniform(-0.5, 0.5, 20)])
        for block in (97, profit.VALUES_BLOCK):
            with mock.patch.object(profit, "VALUES_BLOCK", block):
                objective = profit._SegmentObjective(seg, draws, NopConfig(), mode)
                values, slopes = objective.values_and_slopes(rs, months)
                clamped = ClampedObjective(seg, draws, NopConfig(), mode)
                expected = clamped.values_and_slopes(rs, months)
            assert not objective.clamped
            assert np.array_equal(values, expected[0]) and np.array_equal(slopes, expected[1])

    @pytest.mark.parametrize(
        "draws, clamped",
        [
            # u reaches 699.4 + 0.5 = 699.9 at r = -0.5 and at r = 0.5
            ([[699.4, 0.0, -1.0], [699.4, 0.0, 1.0]], False),
            # a third draw's |b2| = 1.4 lifts max|a| + 0.5 max|b2| to 700.1
            ([[699.4, 0.0, -1.0], [699.4, 0.0, 1.0], [0.0, 0.0, 1.4]], True),
            ([[-699.4, 0.0, 1.0], [0.0, 0.0, -1.4]], True),
        ],
    )
    def test_a_bound_at_the_clamp_takes_the_clamped_path(self, draws, clamped):
        seg, draws = make_segment([[beta] for beta in draws], [0.7])
        rs = np.linspace(-0.5, 0.5, 11)
        objective = profit._SegmentObjective(seg, draws, NopConfig(), DRAW_AVERAGED)
        with mock.patch.object(profit.np, "clip", wraps=np.clip) as clip:
            values, slopes = objective.values_and_slopes(rs, 12)
        assert objective.clamped is clamped and clip.called is clamped
        expected = ClampedObjective(seg, draws, NopConfig(), DRAW_AVERAGED)
        expected = expected.values_and_slopes(rs, 12)
        assert np.array_equal(values, expected[0]) and np.array_equal(slopes, expected[1])


class TestOptimizePolicy:
    def test_discount_insensitive_segment_hits_upper_bound(self):
        rng = np.random.default_rng(9)
        betas = np.column_stack(
            [rng.normal(1.0, 0.3, 12), rng.normal(0.2, 0.05, 12), rng.normal(0.0, 0.01, 12)]
        )
        seg, draws = make_segment(betas, rng.random(12))
        policy = optimize_policy(seg, draws, NopConfig())
        assert policy.r == pytest.approx(0.5, abs=1e-9)
        assert policy.months == 60
        assert not policy.degenerate

    def test_pinned_bounds(self):
        seg, draws = make_segment([[0.5, 0.1, -2.0]], [0.8])
        config = NopConfig(r_bounds={s: (0.15, 0.15) for s in SEGMENTS})
        policy = optimize_policy(seg, draws, config)
        assert policy.r == 0.15
        assert policy.months in config.contract_options

    def test_zero_loyalty_degenerate_flag(self):
        seg, draws = make_segment([[0.5, 0.1, -2.0]], [0.0])
        policy = optimize_policy(seg, draws, NopConfig())
        assert policy.degenerate
        assert policy.at_bound
        assert policy.r == 0.5
        assert policy.months == 60
        assert policy.nop_value == 0.0

    def test_agrees_with_grid_oracle_on_random_instances(self):
        rng = np.random.default_rng(21)
        config = NopConfig()
        for _ in range(5):
            n = int(rng.integers(3, 10))
            betas = np.column_stack(
                [
                    rng.normal(0.5, 1.0, n),
                    rng.normal(0.0, 0.4, n),
                    rng.normal(-3.0, 2.0, n),
                ]
            )
            seg, draws = make_segment(betas, rng.random(n), 60 + 80 * rng.random(n))
            policy = optimize_policy(seg, draws, config)
            oracle = grid_oracle(seg, draws, config, r_step=0.002)
            assert policy.nop_value >= oracle.nop_value - 0.001 * abs(oracle.nop_value)

    def test_matches_grid_oracle_argmax(self):
        # a sweep from elastic to price-insensitive segments puts optima at
        # both bounds, inside the range and on 12- to 60-month contracts;
        # the search and the oracle's 0.001 grid agree on the contract and
        # on whether the optimum is a bound, and the search is never worse
        rng = np.random.default_rng(20261018)
        config = NopConfig()
        for b2 in np.linspace(-10.0, 0.0, 10):
            n, n_draws = int(rng.integers(4, 13)), int(rng.integers(60, 121))
            mean = [rng.uniform(-1.0, 2.0), rng.uniform(-1.5, 0.5), b2]
            betas = rng.normal(mean, [1.0, 0.3, 0.5], size=(n_draws, n, 3))
            seg, draws = make_segment(betas, rng.random(n), 60 + 80 * rng.random(n))
            policy = optimize_policy(seg, draws, config)
            oracle = grid_oracle(seg, draws, config, r_step=0.001)
            assert (policy.months, policy.at_bound) == (oracle.months, oracle.at_bound)
            gap = (oracle.nop_value - policy.nop_value) / abs(oracle.nop_value)
            assert gap <= 1e-6

    def test_evaluation_budget(self):
        # one COARSE_POINTS scan, then single-rate probes of bisection's
        # grid, whose cells are at most REFINE_TOL wide, over a bracket one
        # scan interval (0.1) wide: at most steps + 1, yet these options
        # take at most 6
        rates = []

        class Counting(profit._SegmentObjective):
            def values_and_slopes(self, rs, months):
                rates.append((months, len(rs)))
                return super().values_and_slopes(rs, months)

        rng = np.random.default_rng(5)
        seg, draws = random_segment(rng, 8, 40)
        config = NopConfig()
        with mock.patch.object(profit, "_SegmentObjective", Counting):
            optimize_policy(seg, draws, config)
        steps = math.ceil(math.log2(0.1 / profit.REFINE_TOL))
        assert len(rates) > len(config.contract_options)  # some option bisected
        for months in config.contract_options:
            calls = [k for m, k in rates if m == months]
            assert calls[0] == profit.COARSE_POINTS == 11
            assert calls[1:] == [1] * len(calls[1:]) and len(calls) - 1 <= steps

    def test_repeated_contract_months_are_searched_once(self, monkeypatch):
        scans = []

        class Counting(profit._SegmentObjective):
            def values_and_slopes(self, rs, months):
                if len(rs) == profit.COARSE_POINTS:
                    scans.append(months)
                return super().values_and_slopes(rs, months)

        monkeypatch.setattr(shares, "_usable_cpus", lambda: 1)
        seg, draws = random_segment(np.random.default_rng(5), 8, 40)
        once = optimize_policy(seg, draws, NopConfig(contract_options=(12, 60)))
        with mock.patch.object(profit, "_SegmentObjective", Counting):
            repeated = optimize_policy(seg, draws, NopConfig(contract_options=(12, 12, 60)))
        assert repeated == once
        assert scans == [12, 60]

    def test_empty_segment_rejected(self):
        _, draws = make_segment([[0.5, 0.1, -2.0]], [0.8])
        empty = SegmentData("elastic-loyal", (), np.array([]), np.array([]))
        with pytest.raises(InvalidInputError):
            optimize_policy(empty, draws, NopConfig())

    @pytest.mark.parametrize("mode", [DRAW_AVERAGED, POSTERIOR_MEAN])
    def test_matches_seed_scalar_objective(self, mode):
        rng = np.random.default_rng(20260809)
        config = NopConfig()
        for _ in range(6):
            seg, draws = random_segment(rng, int(rng.integers(1, 13)), int(rng.integers(60, 121)))
            policy = optimize_policy(seg, draws, config, mode=mode)
            with mock.patch.object(profit, "_SegmentObjective", SeedObjective):
                seed = optimize_policy(seg, draws, config, mode=mode)
            assert (policy.r, policy.months) == (seed.r, seed.months)
            assert policy.nop_value == pytest.approx(seed.nop_value, rel=1e-12)
            assert (policy.degenerate, policy.at_bound) == (seed.degenerate, seed.at_bound)

    def test_at_bound_flag(self):
        rng = np.random.default_rng(9)
        insensitive = np.column_stack(
            [rng.normal(1.0, 0.3, 12), rng.normal(0.2, 0.05, 12), rng.normal(0.0, 0.01, 12)]
        )
        seg, draws = make_segment(insensitive, rng.random(12))
        assert optimize_policy(seg, draws, NopConfig()).at_bound
        sensitive, draws = make_segment([[2.0, 0.0, -12.0]], [1.0])
        policy = optimize_policy(sensitive, draws, NopConfig())
        assert -0.5 < policy.r < 0.5 and not policy.at_bound

    def test_posterior_mean_mode_runs(self):
        seg, draws = make_segment([[0.5, 0.1, -2.0]], [0.8])
        policy = optimize_policy(seg, draws, NopConfig(), mode=POSTERIOR_MEAN)
        assert policy.months in NopConfig().contract_options

    @pytest.mark.parametrize("seed", range(4))
    def test_population_mean_is_the_plug_in_posterior(self, seed):
        # population-mean scores every customer at one shared draw, so its
        # policy is the draw-averaged policy of that draw, bit for bit
        rng = np.random.default_rng(seed)
        seg, draws = random_segment(rng, 7, 30)
        config = NopConfig(r_bounds={seg.segment: (-0.3, 0.4)})
        policy = optimize_policy(seg, draws, config, mode=POPULATION_MEAN)
        assert policy == optimize_policy(seg, population_mean_draw(draws), config)


def in_pool_worker(function, *args):
    """``function(*args)`` in the one worker of a forked ``Pool``, a
    daemonic process."""
    pool = multiprocessing.get_context("fork").Pool(1)
    try:
        return pool.apply(function, args)
    finally:
        pool.close()
        pool.join()


def insensitive_case():  # the optimum sits at the upper bound
    rng = np.random.default_rng(9)
    betas = np.column_stack(
        [rng.normal(1.0, 0.3, 12), rng.normal(0.2, 0.05, 12), rng.normal(0.0, 0.01, 12)]
    )
    return (*make_segment(betas, rng.random(12)), NopConfig())


def short_contract_case():  # an interior optimum on a 24-month contract
    rng = np.random.default_rng(0)
    betas = rng.normal([1.0, -1.2, -5.0], [0.8, 0.3, 1.5], size=(40, 7, 3))
    return (*make_segment(betas, rng.random(7), 60 + 80 * rng.random(7)), NopConfig())


def zero_loyalty_case():
    return (*make_segment([[0.5, 0.1, -2.0]], [0.0]), NopConfig())


def pinned_rate_case():
    config = NopConfig(r_bounds={s: (0.15, 0.15) for s in SEGMENTS})
    return (*make_segment([[0.5, 0.1, -2.0]], [0.8]), config)


def one_option_case():
    seg, draws = random_segment(np.random.default_rng(4), 6, 30)
    return seg, draws, NopConfig(contract_options=(24,))


# (segment, draws, config) builders and the (months, at_bound, degenerate)
# of their policy
SHARE_CASES = {
    "at-bound": (insensitive_case, (60, True, False)),
    "interior": (short_contract_case, (24, False, False)),
    "degenerate": (zero_loyalty_case, (60, True, True)),
    "lo-equals-hi": (pinned_rate_case, (60, True, False)),
    "one-option": (one_option_case, (24, False, False)),
}


def log_months(monkeypatch, log, in_caller, in_child):
    """Replace ``_best_option`` by one that appends "pid months" to ``log``
    and then runs ``in_caller`` in this process and ``in_child`` in every
    forked share."""
    caller = os.getpid()

    def best_option(objective, rs, months):
        with log.open("a") as fh:  # every process appends here
            fh.write(f"{os.getpid()} {months}\n")
        run = in_caller if os.getpid() == caller else in_child
        return run(objective, rs, months)

    monkeypatch.setattr(profit, "_best_option", best_option)


def months_by_process(log):
    by_pid = {}
    for line in log.read_text().split("\n")[:-1]:
        pid, months = map(int, line.split())
        by_pid.setdefault(pid, []).append(months)
    return by_pid


class TestOptimizeShares:
    """optimize_policy searches the contract options of a segment of at
    least VALUES_BLOCK (customer, draw) pairs in one share per usable CPU.
    VALUES_BLOCK is lowered to 1 here, so that every segment is large."""

    @pytest.fixture(params=[1, 2, 3], ids=lambda n: f"{n}cpu")
    def cpus(self, request, monkeypatch):
        monkeypatch.setattr(shares, "_usable_cpus", lambda: request.param)
        monkeypatch.setattr(profit, "VALUES_BLOCK", 1)
        return request.param

    @pytest.fixture(scope="class")
    def serial(self):
        """Each case's policy at the package's VALUES_BLOCK, searched in the
        caller: the cases are too small to fork."""
        return {case: optimize_policy(*build()) for case, (build, _) in SHARE_CASES.items()}

    @pytest.mark.parametrize("case", SHARE_CASES)
    def test_policy_equals_the_serial_one(self, serial, cpus, case):
        build, (months, at_bound, degenerate) = SHARE_CASES[case]
        policy = optimize_policy(*build())
        assert (policy.months, policy.at_bound, policy.degenerate) == (months, at_bound, degenerate)
        assert policy == serial[case]

    def test_which_process_searched_which_months(self, monkeypatch, cpus, tmp_path):
        log = tmp_path / "searched"
        log_months(monkeypatch, log, profit._best_option, profit._best_option)
        seg, draws, config = short_contract_case()
        optimize_policy(seg, draws, config)
        expected = {
            1: [[1, 12, 24, 36, 60]],
            2: [[1, 24, 60], [12, 36]],
            3: [[12, 60], [1, 36], [24]],
        }[cpus]
        by_pid = months_by_process(log)
        assert by_pid.pop(os.getpid()) == expected[0]
        assert sorted(by_pid.values()) == sorted(expected[1:])

    @pytest.mark.parametrize("extra, forks", [(0, True), (1, False)])
    def test_a_segment_below_one_block_stays_in_the_caller(
        self, monkeypatch, tmp_path, extra, forks
    ):
        monkeypatch.setattr(shares, "_usable_cpus", lambda: 2)
        seg, draws, config = short_contract_case()
        monkeypatch.setattr(profit, "VALUES_BLOCK", seg.n_customers * draws.n_draws + extra)
        log = tmp_path / "searched"
        log_months(monkeypatch, log, profit._best_option, profit._best_option)
        optimize_policy(seg, draws, config)
        assert len(months_by_process(log)) == (2 if forks else 1)

    def test_smallest_failing_month_raised_after_every_share(self, monkeypatch, cpus, tmp_path):
        def failing(objective, rs, months):
            raise InvalidInputError(f"months {months} failed")

        log = tmp_path / "searched"
        log_months(monkeypatch, log, failing, failing)
        seg, draws, config = short_contract_case()
        with pytest.raises(InvalidInputError, match="^months 1 failed$"):
            optimize_policy(seg, draws, config)
        # each share stops at its first month: 1; 1 and 12; 12, 1 and 24
        searched = sorted(m for months in months_by_process(log).values() for m in months)
        assert searched == {1: [1], 2: [1, 12], 3: [1, 12, 24]}[cpus]

    def test_child_exit_without_result_named(self, monkeypatch, cpus, tmp_path):
        log_months(monkeypatch, tmp_path / "searched", profit._best_option, lambda *a: os._exit(3))
        seg, draws, config = short_contract_case()
        if cpus == 1:  # no child: the caller searches every month
            assert optimize_policy(seg, draws, config).months == 24
            return
        share = {2: "12, 36", 3: "1, 36"}[cpus]  # the first child's share
        message = (
            rf"^the process optimizing inelastic-loyal months \[{share}\] exited with code 3 "
            "before sending a result$"
        )
        with pytest.raises(OfferLabError, match=message):
            optimize_policy(seg, draws, config)

    def test_interrupt_in_the_caller_stops_every_child(self, monkeypatch, cpus, tmp_path):
        def interrupted(*args):
            raise KeyboardInterrupt

        # a child would run on for a minute after the caller stops
        log_months(monkeypatch, tmp_path / "searched", interrupted, lambda *a: time.sleep(60))
        seg, draws, config = short_contract_case()
        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            optimize_policy(seg, draws, config)
        assert time.perf_counter() - started < 30

    def test_a_pool_worker_searches_every_month_itself(self, cpus):
        # a daemonic process may not have children
        seg, draws, config = short_contract_case()
        serial = optimize_policy(seg, draws, config)
        assert in_pool_worker(optimize_policy, seg, draws, config) == serial


class TestGridOracle:
    def test_single_grid_point(self):
        seg, draws = make_segment([[0.5, 0.1, -2.0]], [0.8])
        config = NopConfig(
            r_bounds={s: (0.2, 0.2) for s in SEGMENTS}, contract_options=(12,)
        )
        policy = grid_oracle(seg, draws, config)
        assert policy.r == 0.2
        assert policy.months == 12

    def test_monotone_objective_returns_upper_bound(self):
        seg, draws = make_segment([[3.0, 0.1, 0.0]], [1.0])
        policy = grid_oracle(seg, draws, NopConfig(), r_step=0.01)
        assert policy.r == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("r_step", [-0.001, 0.0, float("nan"), float("inf"), -float("inf")])
    def test_step_not_finite_and_positive_rejected_by_name(self, r_step):
        seg, draws = make_segment([[0.5, 0.1, -2.0]], [0.8])
        with pytest.raises(InvalidInputError, match="r_step"):
            grid_oracle(seg, draws, NopConfig(), r_step=r_step)

    @pytest.mark.parametrize("r_step", [5.0, 0.3, 0.001])
    @pytest.mark.parametrize(
        "betas, bound",
        [([[3.0, 0.1, 0.0]], 0.5), ([[-10.0, 0.0, -20.0]], -0.5)],
        ids=["increasing", "decreasing"],
    )
    def test_grid_holds_both_bounds(self, r_step, betas, bound):
        # a step wider than the range, or one that does not divide it,
        # still scores both bounds, and the bound optimum is flagged
        seg, draws = make_segment(betas, [1.0])
        policy = grid_oracle(seg, draws, NopConfig(), r_step=r_step)
        assert (policy.r, policy.at_bound) == (bound, True)


def reference_segment_data(assignments, config, mrp=None):
    """The record-by-record grouping that ``segment_data_from_assignments``
    replaced, kept as its reference: every record's values are checked
    before any record's segment."""
    seen = set()
    for a in assignments:
        if a.customer_id in seen:
            raise InvalidInputError(f"customer {a.customer_id} is assigned more than once")
        seen.add(a.customer_id)
    expected = []
    for a in assignments:
        try:
            expected.append(str(assign_segment(a.elasticity, a.loyalty)))
        except InvalidInputError as exc:
            raise InvalidInputError(f"customer {a.customer_id}: {exc}") from None
    for a, segment in zip(assignments, expected):
        if segment != a.segment:
            raise InvalidInputError(
                f"customer {a.customer_id} is assigned to {a.segment!r}, but its elasticity "
                f"{a.elasticity!r} and loyalty {a.loyalty!r} give {segment!r}"
            )
    mrp = mrp or {}
    out = {}
    for segment in SEGMENTS:
        members = [a for a in assignments if a.segment == segment]
        out[segment] = SegmentData(
            segment=segment,
            customer_ids=tuple(a.customer_id for a in members),
            loyalty=np.array([a.loyalty for a in members]),
            mrp=np.array([mrp.get(a.customer_id, config.default_mrp) for a in members]),
        )
    return out


def outcome(build, *args):
    """``build(*args)`` as comparable values, or the message it raised."""
    try:
        grouped = build(*args)
    except InvalidInputError as exc:
        return str(exc)
    return {
        segment: (seg.customer_ids, seg.loyalty.tolist(), seg.mrp.tolist())
        for segment, seg in grouped.items()
    }


class TestSegmentDataReference:
    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(st.floats(-3.0, 1.0), st.sampled_from([math.nan, math.inf, -1.0])),
                st.one_of(st.floats(0.0, 1.0), st.sampled_from([math.nan, -0.1, 1.5, 0.5])),
                st.one_of(st.none(), st.sampled_from(SEGMENTS)),  # None: the rule's segment
                st.one_of(st.none(), st.floats(1.0, 500.0)),  # None: no mrp on file
            ),
            max_size=12,
        ),
        ids=st.permutations(range(1, 13)),
    )
    @settings(max_examples=300, deadline=None)
    def test_array_pass_equals_the_per_record_reference(self, rows, ids):
        assignments, mrp = [], {}
        for cid, (elasticity, loyalty, segment, price) in zip(ids, rows):
            if segment is None:
                try:
                    segment = str(assign_segment(elasticity, loyalty))
                except InvalidInputError:
                    segment = SEGMENTS[0]
            assignments.append(SegmentAssignment(cid, elasticity, loyalty, segment))
            if price is not None:
                mrp[cid] = price
        config = NopConfig(default_mrp=80.0)
        assert outcome(segment_data_from_assignments, assignments, config, mrp) == outcome(
            reference_segment_data, assignments, config, mrp
        )


class TestNopConfig:
    def test_bounds_must_stay_in_trained_band(self):
        with pytest.raises(ConfigurationError):
            NopConfig(r_bounds={s: (-0.7, 0.5) for s in SEGMENTS})

    def test_bounds_for_an_unknown_segment_are_refused(self):
        bounds = {"elastic_loyal": (-0.2, 0.3), "inelastic-loyal": (0.0, 0.1)}
        with pytest.raises(ConfigurationError, match=r"unknown segments \['elastic_loyal'\]; "
                           r"the segments are \['inelastic-not-loyal', 'inelastic-loyal', "):
            NopConfig(r_bounds=bounds)
        # a segment left out keeps the trained band
        config = NopConfig(r_bounds={"inelastic-loyal": (0.0, 0.1)})
        assert config.bounds_for("inelastic-loyal") == (0.0, 0.1)
        assert config.bounds_for("elastic-loyal") == profit.TRAINED_DISCOUNT_BAND

    def test_contract_options_floor(self):
        with pytest.raises(ConfigurationError):
            NopConfig(contract_options=(0, 12))

    def test_segment_data_grouping(self):
        assignments = [
            SegmentAssignment(1, -0.5, 0.9, "inelastic-loyal"),
            SegmentAssignment(2, -2.5, 0.2, "elastic-not-loyal"),
            SegmentAssignment(3, -0.1, 0.8, "inelastic-loyal"),
        ]
        config = NopConfig()
        grouped = segment_data_from_assignments(assignments, config, mrp={2: 55.0})
        assert grouped["inelastic-loyal"].customer_ids == (1, 3)
        assert grouped["elastic-not-loyal"].mrp == pytest.approx([55.0])
        assert grouped["inelastic-loyal"].mrp == pytest.approx([100.0, 100.0])
        assert grouped["elastic-loyal"].n_customers == 0

    @pytest.mark.parametrize("value", [0.0, -5.0, math.nan])
    def test_default_mrp_must_be_positive(self, value):
        # NaN meets the finiteness rule every config field shares first
        rule = "must be finite" if math.isnan(value) else "must be > 0"
        with pytest.raises(ConfigurationError, match=f"^default_mrp {rule}, got {value!r}$"):
            NopConfig(default_mrp=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "fields, name",
        [
            (lambda v: dict(annual_rate=v), "annual_rate"),
            (lambda v: dict(monthly_cost=v), "monthly_cost"),
            (lambda v: dict(initial_cost=v), "initial_cost"),
            (lambda v: dict(default_mrp=v), "default_mrp"),
            (lambda v: dict(r_bounds={"elastic-loyal": (-0.2, v)}), "r_bounds['elastic-loyal'][1]"),
        ],
        ids=["annual_rate", "monthly_cost", "initial_cost", "default_mrp", "r_bounds"],
    )
    def test_non_finite_float_refused_by_name(self, fields, name, value):
        with pytest.raises(ConfigurationError) as info:
            NopConfig(**fields(value))
        assert str(info.value) == f"{name} must be finite, got {value!r}"

    @pytest.mark.parametrize(
        "elasticity, loyalty, segment, message",
        [
            (-0.5, 0.9, "elastic-loyal", "customer 2 is assigned to 'elastic-loyal', but its "
             "elasticity -0.5 and loyalty 0.9 give 'inelastic-loyal'"),
            (-0.5, 0.3, "inelastic-loyal", "customer 2 is assigned to 'inelastic-loyal', but its "
             "elasticity -0.5 and loyalty 0.3 give 'inelastic-not-loyal'"),
            (math.nan, 0.9, "inelastic-loyal", "customer 2: elasticity must be finite, got nan"),
            (-0.5, 40.0, "inelastic-loyal", "customer 2: loyalty must lie in [0, 1], got 40.0"),
            (-0.5, math.nan, "inelastic-loyal", "customer 2: loyalty must lie in [0, 1], got nan"),
        ],
    )
    def test_segment_data_refuses_a_segment_the_rule_does_not_give(
        self, elasticity, loyalty, segment, message
    ):
        assignments = [
            SegmentAssignment(1, -2.5, 0.2, "elastic-not-loyal"),
            SegmentAssignment(2, elasticity, loyalty, segment),
            SegmentAssignment(3, -0.1, 0.8, "inelastic-loyal"),
        ]
        with pytest.raises(InvalidInputError) as info:
            segment_data_from_assignments(assignments, NopConfig())
        assert str(info.value) == message

    def test_segment_data_refuses_a_fractional_customer_id(self):
        # a cast to int64 would file the row under customer 1
        assignments = [SegmentAssignment(1.5, -0.5, 0.9, "inelastic-loyal")]
        with pytest.raises(InvalidInputError, match=r"^id 1\.5 is not a 64-bit integer$"):
            segment_data_from_assignments(assignments, NopConfig())

    def test_months_to_years(self):
        assert contract_months_to_years(1) == pytest.approx(1 / 12)
        assert contract_months_to_years(60) == 5.0

    def test_annuity_factor_zero_rate(self):
        assert annuity_factor(60, 0.0) == 60.0
