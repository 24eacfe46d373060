"""Next-offer profit evaluation and the per-segment pricing program.

The decision variables are a continuous discount rate r (bounded per
segment) and a discrete contract length in months.  The objective sums,
over the segment's customers, acceptance probability x loyalty x (present
value of the contract margin - initial cost).  Contract months map to the
model's contract-year attribute as months / 12.

The objective's derivative in r is exact: with u = b0 + b1 * years + b2 * r,
dp/dr = b2 * p * (1 - p), so

    f'(r) = sum_i L_i * (pbar_i * mrp_i * A + sbar_i * (PV_i(r) - c0))

where pbar_i and sbar_i are customer i's draw means of p and of
b2 * p * (1 - p), A is the annuity factor and c0 the initial cost.  The
optimizer scans r coarsely and then bisects on the sign of f'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .choice import DISCOUNT_MAX, DISCOUNT_MIN, UTILITY_CLAMP, first_repeat, join
from .errors import ConfigurationError, InvalidInputError, UnknownCustomerError
from .hb import DRAW_AVERAGED, PosteriorDraws
from .segments import SEGMENTS, assign_segment, first_refused_pair
from .storage import check_finite_fields

# the choice model was trained on discounts in this band; the objective
# refuses to extrapolate outside it
TRAINED_DISCOUNT_BAND = (DISCOUNT_MIN, DISCOUNT_MAX)

DEFAULT_CONTRACT_OPTIONS = (1, 12, 24, 36, 60)

# elements of each of the objective's two scratch blocks, one for the
# probabilities and one for their derivative (512 KB of float64 each):
# large enough to amortize numpy's per-call overhead, small enough to stay
# in a core's L2 cache and to keep memory flat however long the r grid
VALUES_BLOCK = 1 << 16

# optimize_policy scans this many evenly spaced rates per contract option,
# then bisects on the sign of f' between the best one and the neighbour its
# slope points to, until the bracket is at most this wide
COARSE_POINTS = 11
REFINE_TOL = 1e-5


def contract_months_to_years(months: float) -> float:
    """Contract attribute seen by the choice model (1 month -> 1/12 year)."""
    return months / 12.0


@dataclass(frozen=True)
class NopConfig:
    """Economic constants, per-segment discount bounds, contract options.
    A segment that ``r_bounds`` leaves out keeps the trained band."""

    annual_rate: float = 0.12  # rate-of-return d used to discount cash flows
    monthly_cost: float = 5.0  # recurring cost to serve, per customer-month
    initial_cost: float = 0.0
    default_mrp: float = 100.0  # undiscounted monthly recurring price
    r_bounds: dict[str, tuple[float, float]] = field(
        default_factory=lambda: {s: TRAINED_DISCOUNT_BAND for s in SEGMENTS}
    )
    contract_options: tuple[int, ...] = DEFAULT_CONTRACT_OPTIONS

    def __post_init__(self):
        check_finite_fields(self)
        if self.annual_rate < 0:
            raise ConfigurationError("annual_rate must be >= 0")
        if not self.default_mrp > 0:
            raise ConfigurationError(f"default_mrp must be > 0, got {self.default_mrp!r}")
        if not self.contract_options or min(self.contract_options) < 1:
            raise ConfigurationError("contract_options must be non-empty months >= 1")
        unknown = sorted(set(self.r_bounds) - set(SEGMENTS))
        if unknown:
            raise ConfigurationError(
                f"r_bounds has unknown segments {unknown}; the segments are {list(SEGMENTS)}"
            )
        lo_band, hi_band = TRAINED_DISCOUNT_BAND
        for segment, (lo, hi) in self.r_bounds.items():
            if lo > hi:
                raise ConfigurationError(f"bounds for {segment} have lower > upper")
            if lo < lo_band or hi > hi_band:
                raise ConfigurationError(
                    f"bounds for {segment} leave the trained discount band {TRAINED_DISCOUNT_BAND}"
                )

    def bounds_for(self, segment: str):
        return self.r_bounds.get(segment, TRAINED_DISCOUNT_BAND)


@dataclass(frozen=True)
class OfferPolicy:
    """Chosen discount rate and contract months for one segment."""

    segment: str
    r: float
    months: int
    nop_value: float
    n_customers: int = 0
    degenerate: bool = False  # no customer contributes profit; r and months are defaults
    at_bound: bool = False  # r sits at a bound of the segment's discount range


@dataclass(frozen=True)
class SegmentData:
    """The customers an optimized policy will be offered to."""

    segment: str
    customer_ids: tuple
    loyalty: np.ndarray
    mrp: np.ndarray

    @property
    def n_customers(self) -> int:
        return len(self.customer_ids)


def segment_data_from_assignments(assignments, config: NopConfig, mrp: dict | None = None):
    """Group segment assignments into SegmentData, one per segment, in
    assignment order.  A customer assigned twice, or whose elasticity and
    loyalty ``assign_segment`` refuses or gives another segment, is an
    InvalidInputError naming the first such customer."""
    assignments = list(assignments)
    ids = np.array([a.customer_id for a in assignments], dtype=np.int64)
    repeat = first_repeat(ids)
    if repeat >= 0:
        raise InvalidInputError(f"customer {ids[repeat]} is assigned more than once")
    elasticity = np.array([a.elasticity for a in assignments], dtype=float)
    loyalty = np.array([a.loyalty for a in assignments], dtype=float)
    try:
        segments = assign_segment(elasticity, loyalty)
    except InvalidInputError:
        row, message = first_refused_pair(elasticity, loyalty)
        raise InvalidInputError(f"customer {assignments[row].customer_id}: {message}") from None
    wrong = segments != np.array([a.segment for a in assignments], dtype=str)
    if wrong.any():
        row = int(np.argmax(wrong))
        a = assignments[row]
        raise InvalidInputError(
            f"customer {a.customer_id} is assigned to {a.segment!r}, but its elasticity "
            f"{a.elasticity!r} and loyalty {a.loyalty!r} give {str(segments[row])!r}"
        )
    mrp = mrp or {}
    prices = np.array([mrp.get(i, config.default_mrp) for i in ids.tolist()], dtype=float)
    out = {}
    for segment in SEGMENTS:
        mask = segments == segment
        out[segment] = SegmentData(
            segment=segment,
            customer_ids=tuple(ids[mask].tolist()),
            loyalty=loyalty[mask],
            mrp=prices[mask],
        )
    return out


def annuity_factor(months: int, annual_rate: float) -> float:
    """Sum of monthly discount factors 1 / (1 + d/12)^m for m = 1..months."""
    if months < 1:
        raise InvalidInputError(f"months must be >= 1, got {months}")
    if annual_rate < 0:
        raise InvalidInputError("annual_rate must be >= 0")
    if annual_rate == 0.0:
        return float(months)
    g = 1.0 + annual_rate / 12.0
    return float(np.sum(g ** -np.arange(1, months + 1, dtype=float)))


def present_value(mrp: float, mrc: float, r: float, months: int, annual_rate: float) -> float:
    """Present value of the contract's monthly margin mrp*(1+r) - mrc."""
    return (mrp * (1.0 + r) - mrc) * annuity_factor(months, annual_rate)


class _SegmentObjective:
    """Reusable evaluator of a segment's total next-offer profit and its
    derivative in r.

    The segment's coefficient draws are copied once into contiguous
    (customers x draws) arrays, so each customer's draw mean is one pairwise
    sum over contiguous memory.  Utilities are kept negated: negation is
    exact, so ``exp(na + r * nb)`` is ``exp(-u)`` bit for bit.  Only the
    contract option being searched keeps its base utility and annuity
    factor, so memory stays at a few copies of one draw slice.
    """

    def __init__(self, seg: SegmentData, draws: PosteriorDraws, config: NopConfig, mode: str):
        if draws.n_params != 3:
            raise InvalidInputError("the objective requires the 3-attribute offer model")
        idx = join(draws.customer_ids, seg.customer_ids, UnknownCustomerError)
        betas = draws.scored_coefficients(mode)
        self.b0 = np.ascontiguousarray(betas[:, idx, 0].T)
        self.b1 = np.ascontiguousarray(betas[:, idx, 1].T)
        self.nb = np.negative(np.ascontiguousarray(betas[:, idx, 2].T))
        self.seg = seg
        self.config = config
        self._months = None
        self._scratch = np.empty((2, 0))

    def _select(self, months: int) -> None:
        """Negated base utility -(b0 + b1 * years) and the annuity factor of
        one contract option."""
        if months == self._months:
            return
        na = self.b1 * contract_months_to_years(months)
        na += self.b0
        self.na = np.negative(na, out=na)
        self.factor = annuity_factor(months, self.config.annual_rate)
        self._months = months

    def _draw_means(self, rs: np.ndarray, cols: int):
        """(len(rs), customers) draw means of the acceptance probability p
        and of dp/dr = b2 * p * (1 - p), computed in place in the two
        scratch blocks, ``cols`` customers at a time."""
        n, n_draws = self.na.shape
        size = len(rs) * cols * n_draws
        if self._scratch.shape[1] < size:
            self._scratch = np.empty((2, size))
        r = rs[:, None, None]
        probs = np.empty((len(rs), n))
        slopes = np.empty((len(rs), n))
        for j in range(0, n, cols):
            nb = self.nb[j : j + cols]
            buf, sbuf = (s[: len(rs) * nb.size].reshape(len(rs), *nb.shape) for s in self._scratch)
            np.multiply(r, nb, out=buf)
            buf += self.na[j : j + cols]
            np.clip(buf, -UTILITY_CLAMP, UTILITY_CLAMP, out=buf)
            # 1 where u is above the lower clamp; below it p is constant
            # in r (above the upper one, 1 - p is exactly 0)
            np.less(buf, UTILITY_CLAMP, out=sbuf)
            np.exp(buf, out=buf)
            buf += 1.0
            np.divide(1.0, buf, out=buf)
            np.add.reduce(buf, axis=2, out=probs[:, j : j + cols])
            # -nb * p * (1 - p) where free, summed here and negated below
            sbuf *= buf
            np.subtract(1.0, buf, out=buf)
            sbuf *= buf
            sbuf *= nb
            np.add.reduce(sbuf, axis=2, out=slopes[:, j : j + cols])
        probs /= n_draws
        slopes /= -n_draws
        return probs, slopes

    def values_and_slopes(self, rs, months: int):
        """Total next-offer profit at each discount rate in ``rs`` and its
        derivative in r, scored in blocks of at most VALUES_BLOCK (rate,
        customer, draw) elements."""
        rs = np.asarray(rs, dtype=float).reshape(-1)
        lo, hi = TRAINED_DISCOUNT_BAND
        outside = ~((rs >= lo) & (rs <= hi))
        if outside.any():
            r = float(rs[np.argmax(outside)])
            raise InvalidInputError(f"discount rate {r!r} leaves the trained band [{lo}, {hi}]")
        out = np.zeros(rs.size)
        d_out = np.zeros(rs.size)
        self._select(months)
        n, n_draws = self.na.shape
        cols = max(1, min(n, VALUES_BLOCK // n_draws))
        rows = max(1, VALUES_BLOCK // (cols * n_draws))
        mrp, loyalty, config = self.seg.mrp, self.seg.loyalty, self.config
        for i in range(0, rs.size, rows):
            r = rs[i : i + rows]
            probs, slopes = self._draw_means(r, cols)
            margin = (mrp * (1.0 + r[:, None]) - config.monthly_cost) * self.factor
            margin -= config.initial_cost
            out[i : i + rows] = np.sum(probs * loyalty * margin, axis=1)
            d = probs * (mrp * self.factor) + slopes * margin
            d_out[i : i + rows] = np.sum(loyalty * d, axis=1)
        return out, d_out


def segment_objective(
    r: float,
    months: int,
    seg: SegmentData,
    draws: PosteriorDraws,
    config: NopConfig,
    mode: str = DRAW_AVERAGED,
) -> float:
    """Total next-offer profit of offering (r, months) to a segment."""
    values, _ = _SegmentObjective(seg, draws, config, mode).values_and_slopes([r], months)
    return float(values[0])


def _bisect_slope(objective, months: int, a: float, b: float, best_r: float, best_v: float):
    """Bisection on the sign of f' over [a, b] down to REFINE_TOL, one
    (f, f') evaluation per midpoint.  (best_r, best_v) is the scan's best
    point, at one end; returns the best point probed, never worse."""
    for _ in range(max(0, math.ceil(math.log2((b - a) / REFINE_TOL)))):
        m = 0.5 * (a + b)
        values, slopes = objective.values_and_slopes([m], months)
        if values[0] > best_v:
            best_r, best_v = m, float(values[0])
        if slopes[0] > 0:
            a = m
        else:
            b = m
    return best_r, best_v


def _r_grid(lo: float, hi: float, n_points: int) -> np.ndarray:
    if lo == hi:
        return np.array([lo])
    return np.linspace(lo, hi, n_points)


def optimize_policy(
    seg: SegmentData,
    draws: PosteriorDraws,
    config: NopConfig,
    mode: str = DRAW_AVERAGED,
) -> OfferPolicy:
    """Best (r, months) for a segment.  Per contract option, f and f' are
    scored at COARSE_POINTS evenly spaced rates in one batched call; from
    the best of them, f' points to the neighbouring interval that holds a
    higher value, which ``_bisect_slope`` narrows to REFINE_TOL.  A best
    point at a bound whose slope points out of the range stays exactly at
    the bound.  Ties across contract options go to the shorter contract."""
    if seg.n_customers == 0:
        raise InvalidInputError(f"segment {seg.segment!r} has no customers")
    objective = _SegmentObjective(seg, draws, config, mode)
    lo, hi = config.bounds_for(seg.segment)
    rs = _r_grid(lo, hi, COARSE_POINTS)
    best = None  # (value, r, months) of the best contract option so far
    degenerate = True  # until some option scores a nonzero profit
    for months in sorted(config.contract_options):
        values, slopes = objective.values_and_slopes(rs, months)
        degenerate &= not np.any(values != 0.0)
        i = int(np.argmax(values))
        r_star, v_star = float(rs[i]), float(values[i])
        bracket = None
        if slopes[i] > 0 and i + 1 < len(rs):
            bracket = (r_star, float(rs[i + 1]))
        elif slopes[i] < 0 and i > 0:
            bracket = (float(rs[i - 1]), r_star)
        if bracket:
            r_star, v_star = _bisect_slope(objective, months, *bracket, r_star, v_star)
        if best is None or v_star > best[0]:
            best = (v_star, r_star, months)
    # nothing to optimize (e.g. zero loyalty everywhere): flag it, at defaults
    value, r, months = (0.0, hi, max(config.contract_options)) if degenerate else best
    return OfferPolicy(
        segment=seg.segment, r=r, months=int(months), nop_value=value,
        n_customers=seg.n_customers, degenerate=degenerate, at_bound=r in (lo, hi),
    )

