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
optimizer scans r coarsely, then searches bisection's grid for the sign
change of f' by ITP, which interpolates f' between the bracket's ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .choice import DISCOUNT_MAX, DISCOUNT_MIN, UTILITY_CLAMP, as_ids, first_repeat, join
from .errors import ConfigurationError, InvalidInputError, UnknownCustomerError
from .hb import DRAW_AVERAGED, PosteriorDraws
from .segments import SEGMENTS, assign_segment
from .shares import scored_in_shares
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
# then narrows the interval between the best one and the neighbour its
# slope points to onto one cell of bisection's grid, whose cells are at
# most this wide
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
    ids = as_ids([a.customer_id for a in assignments])
    repeat = first_repeat(ids)
    if repeat >= 0:
        raise InvalidInputError(f"customer {ids[repeat]} is assigned more than once")
    elasticity = np.array([a.elasticity for a in assignments], dtype=float)
    loyalty = np.array([a.loyalty for a in assignments], dtype=float)
    segments = assign_segment(elasticity, loyalty, ids)
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

    ``clamped`` says whether some utility of the option may reach the
    clamp at a rate in the trained band: max|na| + max|r| * max|nb| bounds
    every |u|.  Where it cannot, the clip and the clamp mask are identity
    operations, and the kernel skips them.
    """

    def __init__(self, seg: SegmentData, draws: PosteriorDraws, config: NopConfig, mode: str):
        if draws.n_params != 3:
            raise InvalidInputError("the objective requires the 3-attribute offer model")
        idx = join(draws.customer_ids, seg.customer_ids, UnknownCustomerError)
        betas = draws.scored_coefficients(mode)
        self.b0 = np.ascontiguousarray(betas[:, idx, 0].T)
        self.b1 = np.ascontiguousarray(betas[:, idx, 1].T)
        self.nb = np.negative(np.ascontiguousarray(betas[:, idx, 2].T))
        # |r * nb| over the band, from scalar reductions: a segment-sized
        # |nb| would raise peak memory
        rate = max(map(abs, TRAINED_DISCOUNT_BAND))
        self._nb_reach = rate * max(self.nb.max(initial=0.0), -self.nb.min(initial=0.0))
        self.seg = seg
        self.config = config
        self._months = None
        self._scratch = np.empty((2, 0))

    @property
    def pairs(self) -> int:
        """The (customer, scored draw) pairs that each rate sums over."""
        return self.nb.size

    def _select(self, months: int) -> None:
        """Negated base utility -(b0 + b1 * years) and the annuity factor of
        one contract option."""
        if months == self._months:
            return
        na = self.b1 * contract_months_to_years(months)
        na += self.b0
        self.na = np.negative(na, out=na)
        reach = max(na.max(initial=0.0), -na.min(initial=0.0)) + self._nb_reach
        self.clamped = not reach < UTILITY_CLAMP
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
            if self.clamped:
                np.clip(buf, -UTILITY_CLAMP, UTILITY_CLAMP, out=buf)
                # 1 where u is above the lower clamp; below it p is constant
                # in r (above the upper one, 1 - p is exactly 0)
                np.less(buf, UTILITY_CLAMP, out=sbuf)
            np.exp(buf, out=buf)
            buf += 1.0
            np.divide(1.0, buf, out=buf)
            np.add.reduce(buf, axis=2, out=probs[:, j : j + cols])
            # -nb * p * (1 - p) where free, summed here and negated below;
            # without the clamp, (1 - p) * p is the same product bit for bit
            if self.clamped:
                sbuf *= buf
                np.subtract(1.0, buf, out=buf)
            else:
                np.subtract(1.0, buf, out=sbuf)
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


def _grid_rate(a: float, b: float, steps: int, k: int) -> float:
    """The rate bisection of [a, b] computes for node k of its grid of
    2**steps cells (0 < k < 2**steps): bisection's own ``0.5 * (a + b)``
    steps, replayed down to the bracket whose midpoint is k."""
    lo, hi = 0, 1 << steps
    while True:
        mid, m = (lo + hi) >> 1, 0.5 * (a + b)
        if k == mid:
            return m
        if k > mid:
            a, lo = m, mid
        else:
            b, hi = m, mid


def _itp_slope(objective, months: int, a: float, b: float, ends, best_r: float, best_v: float):
    """The cell of bisection's grid over [a, b] where f' changes sign, found
    by ITP (Oliveira & Takahashi 2020) over the grid's node indices, one
    (f, f') evaluation per probe.  ``ends`` is f' at a and at b, from the
    scan; (best_r, best_v) is the scan's best point, at one end.  Returns
    the best point probed, never worse.

    The grid has 2**n cells, n being bisection's step count down to
    REFINE_TOL; each probe is a node index, evaluated at the float that
    bisection computes there.  The probe interpolates f' linearly when
    f'(lo) > 0 >= f'(hi), else it is the midpoint; then it is truncated
    and projected as ITP prescribes (kappa1 = 0.2 / 2**n, kappa2 = 2,
    n0 = 1) and rounded to a node.  f' > 0 moves the lower end, as in
    bisection.  So when f' changes sign once, the search ends in
    bisection's final cell and returns its point; it never takes more
    than n + 1 probes."""
    steps = max(0, math.ceil(math.log2((b - a) / REFINE_TOL)))
    lo, hi = 0, 1 << steps
    slope_lo, slope_hi = ends
    kappa1 = 0.2 / hi
    for j in range(steps + 1):
        if hi - lo <= 1:
            break
        x = half = 0.5 * (lo + hi)
        if slope_lo > 0 >= slope_hi and math.isfinite(slope_lo - slope_hi):
            x = lo + (hi - lo) * (slope_lo / (slope_lo - slope_hi))
            delta = kappa1 * (hi - lo) ** 2
            if delta <= abs(half - x):
                x += math.copysign(delta, half - x)
            else:
                x = half
        # the projection onto |x - half| <= 2**(n - j) - (hi - lo) / 2 is
        # the clip to these nodes, which keeps the worst case at n + 1 probes
        radius = 1 << (steps - j)
        k = min(max(math.floor(x + 0.5), lo + 1, hi - radius), hi - 1, lo + radius)
        m = _grid_rate(a, b, steps, k)
        values, slopes = objective.values_and_slopes([m], months)
        if values[0] > best_v:
            best_r, best_v = m, float(values[0])
        if slopes[0] > 0:
            lo, slope_lo = k, float(slopes[0])
        else:
            hi, slope_hi = k, float(slopes[0])
    return best_r, best_v


def _r_grid(lo: float, hi: float, n_points: int) -> np.ndarray:
    if lo == hi:
        return np.array([lo])
    return np.linspace(lo, hi, n_points)


def _best_option(objective, rs, months: int):
    """``(value, r, nonzero)`` of one contract option: f and f' at the scan
    rates ``rs`` in one batched call; from the best of them, f' points to
    the neighbouring interval that holds a higher value, which
    ``_itp_slope`` narrows to one cell of bisection's grid, at most
    REFINE_TOL wide.  A best point at a bound whose slope points out of the
    range stays exactly at the bound.  ``nonzero`` says whether any scan
    rate scored a nonzero profit."""
    values, slopes = objective.values_and_slopes(rs, months)
    i = int(np.argmax(values))
    r_star, v_star = float(rs[i]), float(values[i])
    bracket = None
    if slopes[i] > 0 and i + 1 < len(rs):
        bracket = slice(i, i + 2)
    elif slopes[i] < 0 and i > 0:
        bracket = slice(i - 1, i + 1)
    if bracket:
        a, b = rs[bracket].tolist()
        ends = slopes[bracket].tolist()
        r_star, v_star = _itp_slope(objective, months, a, b, ends, r_star, v_star)
    return v_star, r_star, bool(np.any(values != 0.0))


def optimize_policy(
    seg: SegmentData,
    draws: PosteriorDraws,
    config: NopConfig,
    mode: str = DRAW_AVERAGED,
) -> OfferPolicy:
    """Best (r, months) for a segment: ``_best_option`` searches the rate
    of each distinct contract option once, an 11-rate scan and then an ITP
    search of bisection's grid on the sign of f', and ties across options
    go to the shorter contract.

    The options share no state, so a segment of at least VALUES_BLOCK
    (customer, scored draw) pairs has them searched on every usable CPU by
    ``shares.scored_in_shares``: the caller scores one share of the months
    and a forked process each other share, reading the objective's draws
    copy-on-write and sending back only each option's (value, r, nonzero).
    A smaller segment is searched in the caller, where the whole search
    costs about as much as a fork.  The policy is the same for any number
    of shares, and so is the error: the smallest failing month's, raised
    once every share has finished."""
    if seg.n_customers == 0:
        raise InvalidInputError(f"segment {seg.segment!r} has no customers")
    objective = _SegmentObjective(seg, draws, config, mode)
    lo, hi = config.bounds_for(seg.segment)
    rs = _r_grid(lo, hi, COARSE_POINTS)
    options = scored_in_shares(
        config.contract_options,
        lambda months: _best_option(objective, rs, months),
        f"optimizing {seg.segment} months",
        fork=objective.pairs >= VALUES_BLOCK,
    )
    best = None  # (value, r, months) of the best contract option so far
    degenerate = True  # until some option scores a nonzero profit
    for months, (value, r, nonzero) in options.items():
        degenerate &= not nonzero
        if best is None or value > best[0]:
            best = (value, r, months)
    # nothing to optimize (e.g. zero loyalty everywhere): flag it, at defaults
    value, r, months = (0.0, hi, max(config.contract_options)) if degenerate else best
    return OfferPolicy(
        segment=seg.segment, r=r, months=int(months), nop_value=value,
        n_customers=seg.n_customers, degenerate=degenerate, at_bound=r in (lo, hi),
    )
