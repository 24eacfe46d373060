"""Fabricates ground-truth coefficients and synthetic offer datasets.

Customer tastes are drawn from a mixture of multivariate normals whose
means are shifted by a centered loyalty covariate; offers are drawn
uniformly over the attribute ranges, with the per-customer training offer
count following a configurable long-tailed distribution.  Responses are
independent Bernoulli draws at each offer's logit acceptance probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .choice import (
    CONTRACT_YEAR_VALUES,
    DESIGN_NAMES,
    DISCOUNT_MAX,
    DISCOUNT_MIN,
    OUTCOMES,
    UNLABELED,
    Customers,
    Offers,
    logistic,
)
from .errors import ConfigurationError, DataIntegrityError
from .storage import check_finite_fields, seeded_rng

# Independent sub-stream per purpose: relabeling responses, for example,
# never disturbs the offers already drawn, and because every customer is
# processed in id order with a self-contained block of draws, growing
# n_customers leaves earlier customers' draws untouched.
_STREAMS = {"coefficients": 0, "offers": 1, "responses": 2}


def purpose_rng(seed: int, purpose: str) -> np.random.Generator:
    """PCG64 generator keyed by (seed, purpose)."""
    return seeded_rng(seed, _STREAMS[purpose])


Vector3 = tuple[float, float, float]


def _psd_factor(cov: np.ndarray) -> np.ndarray:
    """Cholesky-like factor; accepts positive semidefinite matrices so a
    degenerate (zero-variance) component is a legal configuration."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.linalg.eigh(cov)
        if np.min(eigvals) < -1e-10:
            raise ConfigurationError("cov is not positive semidefinite")
        return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


@dataclass(frozen=True)
class MixtureComponent:
    weight: float
    mean: Vector3  # (k, beta_contract, beta_discount)
    cov: tuple[Vector3, Vector3, Vector3]  # symmetric positive semidefinite

    def __post_init__(self):
        check_finite_fields(self)
        cov = np.asarray(self.cov, dtype=float)
        if np.shape(self.mean) != (3,) or cov.shape != (3, 3):
            raise ConfigurationError("mean and cov must be 3-dimensional")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ConfigurationError("cov must be symmetric")
        _psd_factor(cov)


# Default ground truth, shaped like a real B2B offer book: roughly 61%
# overall acceptance, a clearly bimodal intercept distribution (a large
# eager segment and a smaller reluctant one), negative-centered discount
# coefficients, and loyalty loading on both the intercept and the discount
# slope.  The component-level intercept and discount slope move together,
# so the population covariance carries real structure for the estimator to
# exploit.
def _cov3(var_k, var_yr, var_disc, corr_k_disc):
    cov = corr_k_disc * (var_k * var_disc) ** 0.5
    return (
        (var_k, 0.0, cov),
        (0.0, var_yr, 0.0),
        (cov, 0.0, var_disc),
    )


DEFAULT_MIXTURE = (
    MixtureComponent(0.45, (1.6, 0.35, -2.4), _cov3(0.35, 0.030, 0.50, 0.6)),
    MixtureComponent(0.35, (0.0, 0.20, -3.2), _cov3(0.30, 0.030, 0.50, 0.6)),
    MixtureComponent(0.20, (-3.5, 0.05, -5.2), _cov3(0.45, 0.020, 1.00, 0.6)),
)
DEFAULT_LOYALTY_LOADINGS = (2.2, 0.0, 6.0)

# Long-tailed offer-count distribution (share of customers by number of
# training offers); mean ~1.7 offers per customer.
DEFAULT_OFFER_COUNTS = (
    (1, 0.690),
    (2, 0.181),
    (3, 0.055),
    (4, 0.027),
    (5, 0.017),
    (6, 0.013),
    (7, 0.006),
    (8, 0.001),
    (9, 0.003),
    (10, 0.001),
    (12, 0.001),
    (14, 0.001),
    (15, 0.001),
    (17, 0.001),
    (24, 0.001),
    (48, 0.001),
)


@dataclass(frozen=True)
class GroundTruthConfig:
    """Everything needed to fabricate a dataset, including the seed."""

    n_customers: int = 1000
    mixture: tuple[MixtureComponent, ...] = DEFAULT_MIXTURE
    loyalty_loadings: Vector3 = DEFAULT_LOYALTY_LOADINGS
    offer_count_distribution: tuple[tuple[int, float], ...] = DEFAULT_OFFER_COUNTS
    discount_bounds: tuple[float, float] = (DISCOUNT_MIN, DISCOUNT_MAX)
    contract_values: tuple[int, ...] = CONTRACT_YEAR_VALUES
    seed: int = 20210521

    def __post_init__(self):
        check_finite_fields(self)
        if self.n_customers < 1:
            raise ConfigurationError("n_customers must be >= 1")
        # an empty mixture or offer count distribution fails its sum check
        weights = np.array([c.weight for c in self.mixture], dtype=float)
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
            raise ConfigurationError("mixture weights must lie on the simplex")
        if len(self.loyalty_loadings) != 3:
            raise ConfigurationError("loyalty_loadings must have 3 entries")
        probs = np.array([p for _, p in self.offer_count_distribution], dtype=float)
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > 1e-9:
            raise ConfigurationError("offer count probabilities must sum to 1")
        if min(c for c, _ in self.offer_count_distribution) < 1:
            raise ConfigurationError("offer counts must be >= 1")
        lo, hi = self.discount_bounds
        if not (DISCOUNT_MIN <= lo <= hi <= DISCOUNT_MAX):
            raise ConfigurationError(
                f"discount bounds must satisfy {DISCOUNT_MIN} <= lo <= hi <= {DISCOUNT_MAX}"
            )
        if not self.contract_values or not set(self.contract_values) <= set(CONTRACT_YEAR_VALUES):
            raise ConfigurationError(
                f"contract_values must be a non-empty list of whole years in 0..5, "
                f"got {list(self.contract_values)}"
            )


@dataclass(frozen=True)
class SimulatedDataset:
    """Training offers (many per customer) and test offers (one per
    customer) as ``Offers`` tables, the ``Customers`` table (ids 1..n in
    order), and the true coefficients that generated them: a
    ``(n_customers, 3)`` array whose row ``i`` belongs to customer ``i + 1``.
    ``==`` leaves that array out (an ndarray has no single truth value);
    compare it with ``np.array_equal``."""

    train: Offers
    test: Offers
    customers: Customers
    true_coefficients: np.ndarray = field(compare=False)
    seed: int = 0

    @property
    def n_customers(self) -> int:
        return len(self.customers)


def _draw_population(config: GroundTruthConfig):
    """Single pass over customers drawing the customer table and the true
    coefficients.

    Per customer: a mixture component is sampled by weight, a multivariate
    normal is drawn through the component's covariance factor, and the
    loyalty loadings times the centered loyalty are added to the mean.
    """
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

    if not np.isfinite(betas).all():
        raise ConfigurationError("ground truth draws non-finite coefficients")
    customers = Customers(np.arange(1, n + 1), loyalty, loyalty_c, demographic_c)
    return customers.validate("simulated customers"), betas


def generate_offers(config: GroundTruthConfig) -> SimulatedDataset:
    """Draw unlabeled training and test offers for every customer.

    Training offer counts follow ``offer_count_distribution``; discounts are
    uniform over ``discount_bounds`` and contract lengths uniform over
    ``contract_values``.  Each customer also gets exactly one test offer.
    """
    customers, coefficients = _draw_population(config)
    rng = purpose_rng(config.seed, "offers")
    count_values = [c for c, _ in config.offer_count_distribution]
    count_cum = np.cumsum([p for _, p in config.offer_count_distribution])
    lo, hi = config.discount_bounds
    contracts = config.contract_values

    def attributes():
        return float(contracts[int(rng.integers(len(contracts)))]), float(rng.uniform(lo, hi))

    train, test = [], []  # (customer_id, occasion, contract years, discount)
    for cid in range(1, config.n_customers + 1):
        n_offers = count_values[
            min(int(np.searchsorted(count_cum, rng.random(), side="right")), len(count_values) - 1)
        ]
        for occ in range(1, n_offers + 1):
            train.append((cid, occ, *attributes()))
        test.append((cid, 1, *attributes()))
    return SimulatedDataset(
        train=_unlabeled_offers(train, "simulated training offers"),
        test=_unlabeled_offers(test, "simulated test offers"),
        customers=customers,
        true_coefficients=coefficients,
        seed=config.seed,
    )


def _unlabeled_offers(rows, where: str) -> Offers:
    customer_id, occasion, years, discount = zip(*rows)
    X = np.column_stack([np.ones(len(rows)), years, discount])
    return Offers(customer_id, occasion, X, np.full(len(rows), UNLABELED)).validate(where)


def simulate_responses(truth: np.ndarray, dataset: SimulatedDataset) -> SimulatedDataset:
    """Label every offer with an independent Bernoulli draw at its logit
    acceptance probability under the true coefficients ``truth`` (row ``i``
    for customer ``i + 1``).

    The offers of ``train + test`` are scored as one design matrix and
    labelled with one uniform draw each, in that order, from the dataset
    seed's responses stream.  Probabilities are clamped into the open unit
    interval, so finite utility never makes an outcome certain.
    """
    truth = np.asarray(truth, dtype=float)
    expected = (dataset.n_customers, 3)
    if truth.shape != expected:
        raise DataIntegrityError(
            f"true coefficients have shape {truth.shape}, expected {expected} "
            f"for {dataset.n_customers} customers"
        )
    offers = (dataset.train, dataset.test)
    X = np.concatenate([o.X for o in offers])
    rows = np.concatenate([o.customer_id for o in offers]) - 1
    p = logistic(np.einsum("ij,ij->i", X, truth[rows]))
    p = np.clip(p, math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0))
    # accepted is 1, rejected 0
    label = purpose_rng(dataset.seed, "responses").random(len(X)) < p
    n_train = len(dataset.train)
    return replace(
        dataset,
        train=replace(dataset.train, label=label[:n_train]),
        test=replace(dataset.test, label=label[n_train:]),
    )


def simulate_dataset(config: GroundTruthConfig) -> SimulatedDataset:
    """Generate offers and label them in one call."""
    dataset = generate_offers(config)
    return simulate_responses(dataset.true_coefficients, dataset)


# the rows of the dataset summary: each statistic of a column
SUMMARY_STATS = {
    "Min.": np.min,
    "1st Qu.": lambda values: np.quantile(values, 0.25),
    "Median": lambda values: np.quantile(values, 0.5),
    "Mean": np.mean,
    "3rd Qu.": lambda values: np.quantile(values, 0.75),
    "Max.": np.max,
    "Count": np.size,
}


def summarize_dataset(offers: Offers, customers: Customers | None = None) -> str:
    """A text table of descriptive statistics per column plus outcome
    counts; given a customer table, also of its centered covariates.

    An empty offer table produces an explicit empty-report marker rather
    than an error, so filtered subsets are safe to summarize.
    """
    if not len(offers):
        return "(empty dataset: no observations to summarize)\n"
    columns = {
        "id": offers.customer_id.astype(float),
        "setnum": offers.occasion.astype(float),
        **dict(zip(DESIGN_NAMES, offers.X.T)),
    }
    if customers:
        columns["demographic_centered"] = customers.demographic_centered
        columns["loyalty_centered"] = customers.loyalty_centered
    widths = [max(len(name), 12) for name in columns]
    lines = ["\t".join([""] + [name.ljust(w) for name, w in zip(columns, widths)])]
    for label, stat in SUMMARY_STATS.items():
        cells = [f"{stat(values):.6g}".ljust(w) for values, w in zip(columns.values(), widths)]
        lines.append("\t".join([label] + cells))
    labels, counts = np.unique(offers.label, return_counts=True)
    outcomes = sorted(zip((OUTCOMES[k] for k in labels.tolist()), counts.tolist()))
    lines += ["", "Outcome counts:"] + [f"  {outcome}\t{count}" for outcome, count in outcomes]
    return "\n".join(lines) + "\n"
