"""Hierarchical Bayes estimation of customer-level binary-logit coefficients.

One Gibbs sweep alternates (a) a random-walk Metropolis update of every
customer's coefficient vector against its logit likelihood times a
mixture-of-normals population prior whose means are shifted by customer
covariates, and (b) conjugate updates of the population parameters:
component indicators, Dirichlet weights, normal / inverse-Wishart component
moments, and a multivariate regression of the coefficients on covariates.

The sampler operates on a generic design matrix, so the same machinery
estimates the 3-attribute offer model and dummy-coded multinomial panels.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .choice import logistic
from .errors import (
    ConfigurationError,
    DataIntegrityError,
    EstimationError,
    InvalidInputError,
    MissingArtifactError,
    UnknownCustomerError,
)
from .storage import load_dataclass, write_array_atomic, write_json_atomic

log = logging.getLogger(__name__)

DRAW_AVERAGED = "draw-averaged"
POSTERIOR_MEAN = "posterior-mean"
POPULATION_MEAN = "population-mean"
PREDICTION_MODES = (DRAW_AVERAGED, POSTERIOR_MEAN, POPULATION_MEAN)

_LOG_2PI = math.log(2.0 * math.pi)

# design rows per draw-averaged prediction block: bounds the
# (draws x rows) utility temporary
PREDICT_CHUNK = 1024

# ridge on the pooled logit's Newton steps, which start the sampler
POOLED_RIDGE = 1e-6


@dataclass(frozen=True)
class McmcConfig:
    """Chain length, proposal scaling, and prior hyperparameters.

    ``rw_scale`` defaults to 2.93 / sqrt(K) at fit time.  The component
    priors are mean ~ N(mu_prior_mean, Sigma / mu_prior_precision),
    Sigma ~ InvWishart(iw_dof, iw_scale * I) with iw_dof defaulting to
    K + 3 and iw_scale to iw_dof, and weights ~ Dirichlet(concentration).
    """

    total_draws: int = 2000
    burn_in: int = 200
    keep: int = 1
    rw_scale: float | None = None
    mu_prior_mean: float = 0.0
    mu_prior_precision: float = 0.01
    iw_dof: int | None = None
    iw_scale: float | None = None
    dirichlet_concentration: float = 5.0
    seed: int = 0

    def validate(self, n_params: int) -> "McmcConfig":
        if not 0 < self.burn_in < self.total_draws:
            raise ConfigurationError("need 0 < burn_in < total_draws")
        if self.keep < 1:
            raise ConfigurationError("keep must be >= 1")
        if self.mu_prior_precision <= 0:
            raise ConfigurationError("mu_prior_precision must be > 0")
        if self.resolved_iw_dof(n_params) <= n_params + 1:
            raise ConfigurationError("iw_dof must exceed n_params + 1")
        for name in ("iw_scale", "rw_scale"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(f"{name} must be > 0, got {value!r}")
        if self.dirichlet_concentration <= 0:
            raise ConfigurationError("dirichlet_concentration must be > 0")
        return self

    def resolved_iw_dof(self, n_params: int) -> int:
        return self.iw_dof if self.iw_dof is not None else n_params + 3

    def resolved_iw_scale(self, n_params: int) -> float:
        return (
            self.iw_scale if self.iw_scale is not None else float(self.resolved_iw_dof(n_params))
        )

    def resolved_rw_scale(self, n_params: int) -> float:
        return self.rw_scale if self.rw_scale is not None else 2.93 / math.sqrt(n_params)

    def n_retained(self) -> int:
        return (self.total_draws - self.burn_in) // self.keep


@dataclass
class PosteriorDraws:
    """Retained MCMC draws plus per-customer acceptance diagnostics."""

    customer_ids: list
    betas: np.ndarray  # (n_draws, n_customers, K)
    weights: np.ndarray  # (n_draws, ncomp)
    means: np.ndarray  # (n_draws, ncomp, K)
    covariances: np.ndarray  # (n_draws, ncomp, K, K)
    delta: np.ndarray  # (n_draws, K, n_covariates)
    log_likelihood: np.ndarray  # (n_draws,)
    acceptance_rates: np.ndarray  # (n_customers,)
    config: McmcConfig
    _index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self._index:
            self._index = {cid: i for i, cid in enumerate(self.customer_ids)}

    @property
    def n_draws(self) -> int:
        return self.betas.shape[0]

    @property
    def n_customers(self) -> int:
        return self.betas.shape[1]

    @property
    def n_params(self) -> int:
        return self.betas.shape[2]

    @property
    def ncomp(self) -> int:
        return self.weights.shape[1]

    def index_of(self, customer_id) -> int:
        try:
            return self._index[customer_id]
        except KeyError:
            raise UnknownCustomerError(customer_id)

    def __contains__(self, customer_id) -> bool:
        return customer_id in self._index

    def population_mean_coefficients(self) -> np.ndarray:
        """Posterior mean of the weighted mixture mean; used for customers
        that were not in the training data."""
        return np.einsum("rk,rkp->p", self.weights, self.means) / self.n_draws

    def posterior_mean_matrix(self) -> np.ndarray:
        return self.betas.mean(axis=0)

    # -- persistence ----------------------------------------------------

    _ARRAYS = (
        "betas",
        "weights",
        "means",
        "covariances",
        "delta",
        "log_likelihood",
        "acceptance_rates",
    )

    def save(self, path) -> None:
        """Write a header.json plus one .npy file per draw array."""
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        header = {
            "format": "hb-posterior-v1",
            "customer_ids": [int(c) for c in self.customer_ids],
            "config": asdict(self.config),
            "shapes": {name: list(getattr(self, name).shape) for name in self._ARRAYS},
        }
        for name in self._ARRAYS:
            write_array_atomic(path / f"{name}.npy", getattr(self, name))
        write_json_atomic(path / "header.json", header)

    @classmethod
    def load(cls, path) -> "PosteriorDraws":
        path = Path(path)
        header_path = path / "header.json"
        if not header_path.exists():
            raise MissingArtifactError(str(header_path))
        try:
            header = json.loads(header_path.read_text())
        except json.JSONDecodeError as exc:
            raise DataIntegrityError(f"{header_path} is not valid JSON: {exc}") from None
        if not isinstance(header, dict):
            raise DataIntegrityError(f"{header_path} must hold a JSON object")
        kinds = {"format": str, "customer_ids": list, "config": dict, "shapes": dict}
        for key, kind in kinds.items():
            if not isinstance(header.get(key), kind):
                got = repr(header[key]) if key in header else "nothing"
                raise DataIntegrityError(
                    f"{header_path}: {key} must hold a {kind.__name__}, got {got}"
                )
        if header["format"] != "hb-posterior-v1":
            raise DataIntegrityError(f"unrecognized posterior format in {header_path}")
        for name in cls._ARRAYS:
            if not (path / f"{name}.npy").exists():
                raise MissingArtifactError(str(path / f"{name}.npy"))
        arrays = {name: np.load(path / f"{name}.npy") for name in cls._ARRAYS}
        n_customers = len(header["customer_ids"])
        for name, array in arrays.items():
            expected = header["shapes"].get(name)
            if list(array.shape) != expected:
                raise DataIntegrityError(
                    f"posterior array {name} has shape {list(array.shape)}, "
                    f"header.json records {expected}"
                )
        for name, axis in (("betas", 1), ("acceptance_rates", 0)):
            if arrays[name].shape[axis : axis + 1] != (n_customers,):
                raise DataIntegrityError(
                    f"posterior array {name} has shape {list(arrays[name].shape)}, "
                    f"not {n_customers} customers on axis {axis} as header.json lists"
                )
        return cls(
            customer_ids=list(header["customer_ids"]),
            config=load_dataclass(McmcConfig, header["config"], f"{header_path}: config"),
            **arrays,
        )


# ---------------------------------------------------------------------------
# Panel construction
# ---------------------------------------------------------------------------


def build_panel(offers, covariates: dict | None = None):
    """Estimation arrays of a labeled offer table (``choice.Offers``).

    Returns (X, y, row_customer, customer_ids, Z): ``X`` is the table's
    design, customers are ordered by ascending id and ``row_customer`` maps
    each row to its customer's position.  An unlabeled row is an
    ``InvalidInputError``.
    """
    if not len(offers):
        raise InvalidInputError("no observations to fit")
    y = offers.labels().astype(float)
    customer_ids, row_customer = np.unique(offers.customer_id, return_inverse=True)
    customer_ids = customer_ids.tolist()
    if covariates is None:
        Z = np.zeros((len(customer_ids), 0))
    else:
        missing = [cid for cid in customer_ids if cid not in covariates]
        if missing:
            raise DataIntegrityError(f"covariates missing for customers {missing[:5]}")
        Z = np.array([np.asarray(covariates[cid], dtype=float) for cid in customer_ids])
        if Z.ndim == 1:
            Z = Z[:, None]
    return offers.X, y, row_customer, customer_ids, Z


# ---------------------------------------------------------------------------
# Sampler internals
# ---------------------------------------------------------------------------


def _pooled_logit(X: np.ndarray, y: np.ndarray):
    """Newton fit of a pooled logit; returns (beta_hat, mean per-row
    information matrix at the optimum)."""
    n, k = X.shape
    beta = np.zeros(k)
    for _ in range(50):
        p = logistic(X @ beta)
        w = np.clip(p * (1.0 - p), 1e-10, None)
        H = (X * w[:, None]).T @ X + POOLED_RIDGE * np.eye(k)
        g = X.T @ (y - p) - POOLED_RIDGE * beta
        step = np.linalg.solve(H, g)
        beta = beta + step
        if np.max(np.abs(step)) < 1e-10:
            break
    p = logistic(X @ beta)
    w = p * (1.0 - p)
    info = (X * w[:, None]).T @ X / n
    return beta, info


def _customer_loglik(X, y, row_customer, n_customers, betas):
    """Per-customer binary-logit log likelihood at one beta per customer."""
    u = np.einsum("ij,ij->i", X, betas[row_customer])
    row_ll = y * u - np.logaddexp(0.0, u)
    return np.bincount(row_customer, weights=row_ll, minlength=n_customers)


def _chol_or_abort(matrix, draw, what):
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        raise EstimationError(f"Cholesky of {what} failed at draw {draw}")


def _mvn_logpdf(diff, roots):
    """(ncomp, n) matrix of log N(diff_i | 0, Sigma_k), each Sigma_k given by
    its lower-triangular precision factor ``roots[k]`` (Sigma_k^-1 = P_k
    P_k^T).  ``diff`` is one (n, K) block shared by every component or one
    (ncomp, n, K) block per component."""
    proj = diff @ roots
    # -0.5 * log|Sigma_k| = sum(log diag P_k)
    half_logdet = np.log(np.diagonal(roots, axis1=1, axis2=2)).sum(axis=1)
    norm = half_logdet - 0.5 * roots.shape[1] * _LOG_2PI
    return norm[:, None] - 0.5 * np.einsum("cnk,cnk->cn", proj, proj)


def _wishart_root(rng, dof, scale, draw, what):
    """Lower-triangular factor P of a Wishart(dof, scale^-1) draw P P^T, i.e.
    the precision factor of an inverse-Wishart(dof, scale) draw, via the
    Bartlett decomposition (deterministic under the supplied generator)."""
    k = scale.shape[0]
    L = _chol_or_abort(np.linalg.inv(scale), draw, f"inverse scale of {what}")
    A = np.zeros((k, k))
    for i in range(k):
        A[i, i] = math.sqrt(rng.chisquare(dof - i))
        for j in range(i):
            A[i, j] = rng.standard_normal()
    return L @ A


def _metropolis(rng, X, y, row_customer, beta, loglik, prop_factor, prior_mean, ind, roots):
    """(a) Random-walk Metropolis update of all customers at once against the
    logit likelihood times N(prior_mean_i, Sigma_{ind_i}).  Updates ``beta``
    and its per-customer ``loglik`` in place; returns the accept mask."""
    n_cust, n_params = beta.shape
    eps = rng.standard_normal((n_cust, n_params))
    proposal = beta + np.einsum("nij,nj->ni", prop_factor, eps)
    loglik_prop = _customer_loglik(X, y, row_customer, n_cust, proposal)
    rows = np.arange(n_cust)
    logprior_cur = _mvn_logpdf(beta - prior_mean, roots)[ind, rows]
    logprior_prop = _mvn_logpdf(proposal - prior_mean, roots)[ind, rows]
    log_ratio = (loglik_prop - loglik) + (logprior_prop - logprior_cur)
    accept = np.log(rng.random(n_cust)) < log_ratio
    beta[accept] = proposal[accept]
    loglik[accept] = loglik_prop[accept]
    return accept


def _draw_indicators(rng, resid, mu, roots, weights):
    """(b) Component indicators on the covariate-adjusted coefficients."""
    log_post = np.log(weights)[None, :] + _mvn_logpdf(resid - mu[:, None, :], roots).T
    log_post -= log_post.max(axis=1, keepdims=True)
    probs = np.exp(log_post)
    probs /= probs.sum(axis=1, keepdims=True)
    u = rng.random(len(resid))
    ind = np.minimum((u[:, None] > np.cumsum(probs, axis=1)).sum(axis=1), len(weights) - 1)
    return ind.astype(np.intp)


def _draw_weights(rng, ind, dir_alpha):
    """(c) Dirichlet weights (degenerate at exactly 1 for one component)."""
    if len(dir_alpha) == 1:
        return np.ones(1)
    return rng.dirichlet(dir_alpha + np.bincount(ind, minlength=len(dir_alpha)))


def _draw_components(rng, resid, ind, ncomp, mubar, amu, nu, V, draw):
    """(d) Per-component normal / inverse-Wishart moments; returns the means
    (ncomp, K) and precision factors (ncomp, K, K).  The mean's covariance
    Sigma_k / (amu + n_k) is drawn as P_k^-T z / sqrt(amu + n_k)."""
    n_params = resid.shape[1]
    mu = np.empty((ncomp, n_params))
    roots = np.empty((ncomp, n_params, n_params))
    for k in range(ncomp):
        members = resid[ind == k]
        n_k = len(members)
        if n_k:
            bbar = members.mean(axis=0)
            centered = members - bbar
            scatter = centered.T @ centered
            dev = bbar - mubar
            iw_scale_post = V + scatter + (amu * n_k / (amu + n_k)) * np.outer(dev, dev)
            post_mean = (amu * mubar + n_k * bbar) / (amu + n_k)
        else:
            iw_scale_post = V
            post_mean = mubar
        roots[k] = _wishart_root(rng, nu + n_k, iw_scale_post, draw, f"component {k}")
        z = rng.standard_normal(n_params)
        mu[k] = post_mean + np.linalg.solve(roots[k].T, z) / math.sqrt(amu + n_k)
    return mu, roots


def _draw_delta(rng, dev, Z, ind, roots, amu, draw):
    """(e) Covariate loading (K, n_cov) via Bayes multivariate regression of
    ``dev`` = beta - mu[ind] on ``Z`` (GLS over components, prior precision
    amu * I on vec(delta))."""
    n_params, n_cov = dev.shape[1], Z.shape[1]
    dim = n_params * n_cov
    A = amu * np.eye(dim)
    b = np.zeros(dim)
    for k, root in enumerate(roots):
        mask = ind == k
        precision = root @ root.T
        Zk = Z[mask]
        A += np.kron(Zk.T @ Zk, precision)
        b += (precision @ dev[mask].T @ Zk).flatten(order="F")
    A_inv = np.linalg.inv(A)
    vec = A_inv @ b + _chol_or_abort(A_inv, draw, "delta posterior") @ rng.standard_normal(dim)
    return vec.reshape((n_params, n_cov), order="F")


def fit_hb_panel(
    X: np.ndarray,
    y: np.ndarray,
    row_customer: np.ndarray,
    customer_ids,
    Z: np.ndarray | None = None,
    ncomp: int = 1,
    config: McmcConfig | None = None,
) -> PosteriorDraws:
    """Run the Metropolis-within-Gibbs chain on estimation arrays.

    ``row_customer`` maps each row to a position in ``customer_ids``; ``Z``
    holds one covariate row per customer (may be zero-width).
    """
    config = config or McmcConfig()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    row_customer = np.asarray(row_customer, dtype=np.intp)
    n_cust = len(customer_ids)
    n_params = X.shape[1]
    if ncomp < 1:
        raise ConfigurationError("ncomp must be >= 1")
    config.validate(n_params)
    if np.bincount(row_customer, minlength=n_cust).min() < 1:
        raise DataIntegrityError("every customer needs at least one observation")
    Z = np.zeros((n_cust, 0)) if Z is None else np.asarray(Z, dtype=float)
    n_cov = Z.shape[1]

    rng = np.random.default_rng(np.random.SeedSequence(config.seed & 0xFFFFFFFFFFFFFFFF))

    # Priors
    amu = config.mu_prior_precision
    mubar = np.full(n_params, config.mu_prior_mean)
    nu = config.resolved_iw_dof(n_params)
    V = config.resolved_iw_scale(n_params) * np.eye(n_params)
    dir_alpha = np.full(ncomp, config.dirichlet_concentration)
    prior_cov_guess = V / (nu - n_params - 1)

    # Random-walk proposal: scaled inverse of the pooled-likelihood Hessian
    # approximation for each customer (rows * mean row information) plus the
    # precision of the current population covariance -- without the prior
    # term the proposal is far wider than a sparse customer's posterior and
    # the chain stalls.  The population covariance is re-estimated a few
    # times during burn-in and frozen afterwards, so retained draws come
    # from a fixed-kernel chain.  Falls back to a fraction of the prior
    # covariance when the pooled Hessian is singular.
    scale = config.resolved_rw_scale(n_params)
    rows_per_cust = np.bincount(row_customer, minlength=n_cust)
    beta_pool, info = _pooled_logit(X, y)

    def proposal_factors(population_cov):
        try:
            pop_precision = np.linalg.inv(population_cov)
            factor_by_count = {}
            for m in np.unique(rows_per_cust):
                precision = m * info + pop_precision
                factor_by_count[m] = np.linalg.cholesky(scale**2 * np.linalg.inv(precision))
            return np.stack([factor_by_count[m] for m in rows_per_cust])
        except np.linalg.LinAlgError:
            fallback = np.linalg.cholesky(scale**2 * 0.5 * prior_cov_guess)
            return np.tile(fallback, (n_cust, 1, 1))

    prop_factor = proposal_factors(prior_cov_guess)
    adapt_every = max(min(25, config.burn_in // 4), 1)

    # State.  Customer betas start at the pooled fit plus prior-scale noise:
    # an all-equal start has zero scatter, which collapses the first
    # covariance draw and can trap the chain in an over-shrunk state.
    beta = np.tile(beta_pool, (n_cust, 1)) + rng.standard_normal(
        (n_cust, n_params)
    ) @ np.linalg.cholesky(prior_cov_guess).T
    ind = np.zeros(n_cust, dtype=np.intp)
    weights = np.full(ncomp, 1.0 / ncomp)
    mu = np.tile(beta_pool, (ncomp, 1))
    # component covariances are held as precision factors P_k (Sigma_k^-1 =
    # P_k P_k^T); Sigma_k itself is formed only for adaptation and output
    roots = np.tile(np.linalg.cholesky(np.linalg.inv(prior_cov_guess)), (ncomp, 1, 1))
    # start the covariate loading at its pooled interaction estimate; a zero
    # start can settle into a sign-flipped basin that the chain corrects
    # only slowly
    delta = np.zeros((n_params, n_cov))
    if n_cov:
        z_rows = Z[row_customer]
        X_ext = np.hstack([X] + [X * z_rows[:, [j]] for j in range(n_cov)])
        beta_ext, _ = _pooled_logit(X_ext, y)
        delta = np.stack(
            [beta_ext[n_params * (j + 1) : n_params * (j + 2)] for j in range(n_cov)],
            axis=1,
        )
    loglik_cust = _customer_loglik(X, y, row_customer, n_cust, beta)
    accept_counts = np.zeros(n_cust)

    n_keep = config.n_retained()
    out_betas = np.empty((n_keep, n_cust, n_params))
    out_weights = np.empty((n_keep, ncomp))
    out_means = np.empty((n_keep, ncomp, n_params))
    out_roots = np.empty((n_keep, ncomp, n_params, n_params))
    out_delta = np.empty((n_keep, n_params, n_cov))
    out_loglik = np.empty(n_keep)

    kept = 0
    for it in range(1, config.total_draws + 1):
        shift = Z @ delta.T
        accept_counts += _metropolis(
            rng, X, y, row_customer, beta, loglik_cust, prop_factor, mu[ind] + shift, ind, roots
        )
        resid = beta - shift
        ind = _draw_indicators(rng, resid, mu, roots, weights)
        weights = _draw_weights(rng, ind, dir_alpha)
        mu, roots = _draw_components(rng, resid, ind, ncomp, mubar, amu, nu, V, it)
        if n_cov:
            delta = _draw_delta(rng, beta - mu[ind], Z, ind, roots, amu, it)

        if it <= config.burn_in and it % adapt_every == 0:
            # population covariance incl. between-component spread
            Sigma = np.linalg.inv(roots @ np.swapaxes(roots, 1, 2))
            pop_mean = weights @ mu
            centered = mu - pop_mean
            pop_cov = np.einsum("k,kij->ij", weights, Sigma) + (
                centered.T * weights
            ) @ centered
            prop_factor = proposal_factors(pop_cov)

        if it > config.burn_in and (it - config.burn_in) % config.keep == 0:
            out_betas[kept] = beta
            out_weights[kept] = weights
            out_means[kept] = mu
            out_roots[kept] = roots
            out_delta[kept] = delta
            out_loglik[kept] = float(loglik_cust.sum())
            kept += 1

    rates = accept_counts / config.total_draws
    low, high = float(rates.min()), float(rates.max())
    if low < 0.05 or high > 0.70:
        log.warning(
            "Metropolis acceptance rates outside (0.05, 0.70): min=%.3f max=%.3f", low, high
        )

    return PosteriorDraws(
        customer_ids=list(customer_ids),
        betas=out_betas,
        weights=out_weights,
        means=out_means,
        covariances=np.linalg.inv(out_roots @ np.swapaxes(out_roots, -1, -2)),
        delta=out_delta,
        log_likelihood=out_loglik,
        acceptance_rates=rates,
        config=config,
    )


def fit_hb_mixed_logit(
    offers,
    covariates: dict | None = None,
    ncomp: int = 1,
    config: McmcConfig | None = None,
) -> PosteriorDraws:
    """Fit the offer model (intercept, contract years, discount) by HB MCMC.

    ``covariates`` maps customer_id to a covariate vector entering the
    population means; omit it for a covariate-free population distribution.
    """
    X, y, row_customer, customer_ids, Z = build_panel(offers, covariates)
    return fit_hb_panel(X, y, row_customer, customer_ids, Z, ncomp=ncomp, config=config)


# ---------------------------------------------------------------------------
# Posterior summaries and prediction
# ---------------------------------------------------------------------------


def predict_panel_probabilities(
    draws: PosteriorDraws,
    X: np.ndarray,
    row_customer_ids,
    mode: str = DRAW_AVERAGED,
    fallback_population_mean: bool = False,
) -> np.ndarray:
    """Acceptance probabilities for arbitrary design rows.

    Unknown customers raise UnknownCustomerError unless
    ``fallback_population_mean`` is set, in which case their rows are scored
    at the population mean coefficients.
    """
    if mode not in PREDICTION_MODES:
        raise InvalidInputError(f"mode must be one of {PREDICTION_MODES}, got {mode!r}")
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    pop_beta = draws.population_mean_coefficients()
    if mode == POPULATION_MEAN:
        return logistic(X @ pop_beta)

    known = np.empty(n, dtype=bool)
    idx = np.zeros(n, dtype=np.intp)
    for i, cid in enumerate(row_customer_ids):
        inside = cid in draws
        known[i] = inside
        if inside:
            idx[i] = draws.index_of(cid)
        elif not fallback_population_mean:
            raise UnknownCustomerError(cid)

    out = np.empty(n)
    if mode == POSTERIOR_MEAN:
        mean = draws.posterior_mean_matrix()
        out[known] = logistic(np.einsum("ij,ij->i", X[known], mean[idx[known]]))
    else:
        ks = np.flatnonzero(known)
        for start in range(0, len(ks), PREDICT_CHUNK):
            rows = ks[start : start + PREDICT_CHUNK]
            # (n_draws, chunk): utility of each row under each retained draw
            u = np.einsum("rij,ij->ri", draws.betas[:, idx[rows], :], X[rows])
            out[rows] = logistic(u).mean(axis=0)
    out[~known] = logistic(X[~known] @ pop_beta)
    return out
