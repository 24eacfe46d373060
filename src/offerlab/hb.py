"""Hierarchical Bayes estimation of customer-level binary-logit coefficients.

One Gibbs sweep alternates (a) a random-walk Metropolis update of every
customer's coefficient vector against its logit likelihood times a
mixture-of-normals population prior whose means are shifted by customer
covariates, and (b) conjugate updates of the population parameters:
component indicators, Dirichlet weights, normal / inverse-Wishart component
moments, and a multivariate regression of the coefficients on covariates.

The sampler operates on a generic design matrix, so the same machinery
estimates the 3-attribute offer model and dummy-coded multinomial panels.

One chain can carry several independent panels ("blocks") along a leading
block axis (``fit_hb_panels``): the five steps run as batched numpy calls
over (block, component), while every block draws its variates from its own
generator in the order of a one-block fit, so a block's draws do not depend
on what it is stacked with.  All blocks share one ``McmcConfig`` and differ
only in their seeds.  ``fit_hb_panel`` is the one-block call, and
cross-validated tuning fits every cell of one candidate as one stacked
chain.

The sweep skips work whose result is known in advance: with one component
the indicator step draws only its uniforms, which keeps every stream in
place, and returns zeros, as the weight step returns ones.  log(1 + e^u) is
numpy's scalar ``logaddexp`` formula written out in ufuncs, several times
faster than ``np.logaddexp`` and different from it only in the last bit.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .choice import first_repeat, join, logistic
from .errors import (
    ConfigurationError,
    DataIntegrityError,
    EstimationError,
    InvalidInputError,
    MissingArtifactError,
    UnknownCustomerError,
)
from .storage import (
    check_finite_fields, load_dataclass, seeded_rng, write_array_atomic, write_json_atomic
)

log = logging.getLogger(__name__)

DRAW_AVERAGED = "draw-averaged"
POSTERIOR_MEAN = "posterior-mean"
POPULATION_MEAN = "population-mean"
PREDICTION_MODES = (DRAW_AVERAGED, POSTERIOR_MEAN, POPULATION_MEAN)

_LOG_2PI = math.log(2.0 * math.pi)

# (draw, row) pairs per prediction block, at least one row:
# bounds the (draws x rows x K) coefficient gather and the (draws x rows)
# utility temporary however many draws the posterior keeps
PREDICT_PAIRS = 1 << 15

# ridge on the pooled logit's Newton steps, which start the sampler
POOLED_RIDGE = 1e-6
# the box |coefficient| <= POOLED_BOX the pooled start stays in: on a panel
# whose labels a plane separates, the Newton steps run off towards infinity
POOLED_BOX = 30.0


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

    def __post_init__(self):
        check_finite_fields(self)
        if not 0 < self.burn_in < self.total_draws:
            raise ConfigurationError("need 0 < burn_in < total_draws")
        if self.keep < 1:
            raise ConfigurationError("keep must be >= 1")
        if self.n_retained() < 1:
            raise ConfigurationError(
                f"keep = {self.keep} retains no draw of the "
                f"{self.total_draws - self.burn_in} after burn-in"
            )
        for name in ("mu_prior_precision", "iw_scale", "rw_scale", "dirichlet_concentration"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(f"{name} must be > 0, got {value!r}")

    def resolved_iw_dof(self, n_params: int) -> int:
        """The prior's inverse-Wishart dof at K = ``n_params``; it must exceed K + 1."""
        dof = self.iw_dof if self.iw_dof is not None else n_params + 3
        if dof <= n_params + 1:
            raise ConfigurationError(f"iw_dof = {dof} must exceed n_params + 1 = {n_params + 1}")
        return dof

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
    """Retained MCMC draws plus per-customer acceptance diagnostics.

    ``_AXES`` names each array's axes by letter: D draws, N customers, C
    mixture components, K coefficients, V covariates (the draw layout of
    ``bayesm::rhierMnlRwMixture``); ``save`` and ``load`` read it."""

    customer_ids: list
    betas: np.ndarray
    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    delta: np.ndarray
    log_likelihood: np.ndarray
    acceptance_rates: np.ndarray
    config: McmcConfig

    _AXES = dict(
        betas="DNK", weights="DC", means="DCK", covariances="DCKK", delta="DKV",
        log_likelihood="D", acceptance_rates="N",
    )
    _AXIS_NAMES = dict(D="draw", C="ncomp", K="K", V="covariate")

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

    def population_mean_coefficients(self) -> np.ndarray:
        """Posterior mean of the weighted mixture mean; used for customers
        that were not in the training data."""
        return np.einsum("rk,rkp->p", self.weights, self.means) / self.n_draws

    def scored_coefficients(self, mode: str) -> np.ndarray:
        """The (draws, customers, K) coefficients that prediction ``mode``
        scores each customer with: every retained draw (draw-averaged),
        their mean as one draw (posterior-mean), or one read-only draw that
        holds ``population_mean_coefficients`` for every customer
        (population-mean)."""
        if mode not in PREDICTION_MODES:
            raise InvalidInputError(f"mode must be one of {PREDICTION_MODES}, got {mode!r}")
        if mode == POPULATION_MEAN:
            shape = (1, self.n_customers, self.n_params)
            return np.broadcast_to(self.population_mean_coefficients(), shape)
        return self.betas.mean(axis=0, keepdims=True) if mode == POSTERIOR_MEAN else self.betas

    # -- persistence ----------------------------------------------------

    def save(self, path) -> list[str]:
        """Write a header.json plus one .npy file per draw array; returns
        the names of the files written."""
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        header = {
            "format": "hb-posterior-v1",
            "customer_ids": [int(c) for c in self.customer_ids],
            "config": asdict(self.config),
            "shapes": {name: list(getattr(self, name).shape) for name in self._AXES},
        }
        for name in self._AXES:
            write_array_atomic(path / f"{name}.npy", getattr(self, name))
        write_json_atomic(path / "header.json", header)
        return ["header.json"] + [f"{name}.npy" for name in self._AXES]

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
        ids = header["customer_ids"]
        for cid in ids:
            if type(cid) is not int or not -(2**63) <= cid < 2**63:
                raise DataIntegrityError(
                    f"{header_path}: customer id {cid!r} is not a 64-bit integer"
                )
        repeat = first_repeat(np.array(ids, dtype=np.int64))
        if repeat >= 0:
            raise DataIntegrityError(f"{header_path} repeats customer id {ids[repeat]}")
        config = load_dataclass(McmcConfig, header["config"], f"{header_path}: config")
        arrays = {}
        for name in cls._AXES:
            file = path / f"{name}.npy"
            if not file.exists():
                raise MissingArtifactError(str(file))
            try:  # a dtype that does not cast safely to float64 is refused too
                arrays[name] = np.load(file).astype(float, casting="safe", copy=False)
            except (ValueError, EOFError, TypeError) as exc:
                raise DataIntegrityError(f"{file} is not a readable float array: {exc}") from None
            expected = header["shapes"].get(name)
            if list(arrays[name].shape) != expected:
                raise DataIntegrityError(
                    f"posterior array {name} has shape {list(arrays[name].shape)}, "
                    f"header.json records {expected}"
                )
        # (first array, size) of each axis letter; N's is the header's id count
        sizes = {"N": (None, len(ids))}
        for name, axes in cls._AXES.items():
            array = arrays[name]
            if array.ndim != len(axes):
                raise DataIntegrityError(
                    f"posterior array {name} has {array.ndim} axes, not {len(axes)}"
                )
            for axis, (letter, size) in enumerate(zip(axes, array.shape)):
                first, expected = sizes.setdefault(letter, (name, size))
                if size != expected:
                    raise DataIntegrityError(
                        f"posterior array {name} has shape {list(array.shape)}, not {expected} "
                        f"customers on axis {axis} as header.json lists" if letter == "N" else
                        f"posterior arrays {first} and {name} disagree on the "
                        f"{cls._AXIS_NAMES[letter]} axis: {expected} against {size}"
                    )
            finite = np.isfinite(array)
            if not finite.all():
                index = tuple(int(i) for i in np.unravel_index(np.argmin(finite), array.shape))
                raise DataIntegrityError(
                    f"posterior array {name} holds {array[index].item()!r} at index {index}"
                )
        try:
            config.resolved_iw_dof(sizes["K"][1])
        except ConfigurationError as exc:
            raise DataIntegrityError(f"{header_path}: config: {exc}") from None
        if config.n_retained() != sizes["D"][1]:
            raise DataIntegrityError(
                f"{header_path}: config retains {config.n_retained()} draws, "
                f"the posterior arrays hold {sizes['D'][1]}"
            )
        return cls(customer_ids=ids, config=config, **arrays)


# ---------------------------------------------------------------------------
# Panel construction
# ---------------------------------------------------------------------------


def build_panel(offers, covariates=None):
    """Estimation arrays of a labeled offer table (``choice.Offers``).

    Returns (X, y, row_customer, customer_ids, Z): ``X`` is the table's
    design, customers are ordered by ascending id and ``row_customer`` maps
    each row to its customer's position.  ``covariates`` is the
    ``(customer_id, rows)`` pair of ``Customers.covariates``; ``Z`` holds the
    row of each customer, and a customer without one is a
    ``DataIntegrityError``.  An unlabeled row is an ``InvalidInputError``.
    """
    if not len(offers):
        raise InvalidInputError("no observations to fit")
    y = offers.labels().astype(float)
    customer_ids, row_customer = np.unique(offers.customer_id, return_inverse=True)
    customer_ids = customer_ids.tolist()
    if covariates is None:
        Z = np.zeros((len(customer_ids), 0))
    else:
        keys, rows = covariates
        missing = "covariates missing for customer {}".format
        at = join(keys, customer_ids, lambda cid: DataIntegrityError(missing(cid)))
        Z = np.asarray(rows, dtype=float)[at]
    return offers.X, y, row_customer, customer_ids, Z


# ---------------------------------------------------------------------------
# Sampler internals
# ---------------------------------------------------------------------------
#
# The chain runs over a leading block axis: every per-customer array is held
# block-padded as (B, n, ...) with n the largest block's customer count, and
# every population array as (B, ncomp, ...).  Padded customers have no rows,
# draw no variates and are masked out of the population steps, so a block's
# draws do not depend on what it is stacked with.


def _pooled_logit(X: np.ndarray, y: np.ndarray):
    """Newton fit of a pooled logit; returns (beta_hat, mean per-row
    information matrix at beta_hat).  A step that would leave the box
    ``|beta| <= POOLED_BOX`` ends the fit at the iterate before it."""
    n, k = X.shape
    beta = np.zeros(k)
    for _ in range(50):
        p = logistic(X @ beta)
        w = np.clip(p * (1.0 - p), 1e-10, None)
        H = (X * w[:, None]).T @ X + POOLED_RIDGE * np.eye(k)
        g = X.T @ (y - p) - POOLED_RIDGE * beta
        step = np.linalg.solve(H, g)
        if np.max(np.abs(beta + step)) > POOLED_BOX:
            break
        beta = beta + step
        if np.max(np.abs(step)) < 1e-10:
            break
    p = logistic(X @ beta)
    w = p * (1.0 - p)
    info = (X * w[:, None]).T @ X / n
    return beta, info


def _stacked(rngs, sizes, method, fill, tail=()):
    """(B, n, *tail) variates: block b's rows drawn by its generator's
    ``method`` at the block's real size ``sizes[b]``, padded rows set to
    ``fill``.  One block is returned as a view of its draw."""
    if len(rngs) == 1:
        return getattr(rngs[0], method)((sizes[0], *tail))[None]
    out = np.full((len(rngs), max(sizes), *tail), fill)
    for b, (rng, n) in enumerate(zip(rngs, sizes)):
        out[b, :n] = getattr(rng, method)((n, *tail))
    return out


def _customer_loglik(X, y, row_customer, betas):
    """(B, n) per-customer binary-logit log likelihood at one beta per
    customer; ``row_customer`` indexes the flattened (B * n) customers."""
    flat = betas.reshape(-1, betas.shape[-1])
    u = np.einsum("ij,ij->i", X, np.take(flat, row_customer, axis=0))
    # log(1 + e^u) in the overflow-free form of numpy's scalar logaddexp(0, u);
    # the ufunc np.logaddexp takes several times as long
    softplus = np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))
    row_ll = y * u - softplus
    return np.bincount(row_customer, weights=row_ll, minlength=len(flat)).reshape(betas.shape[:-1])


def _chol_or_abort(matrices, draw, what):
    """Cholesky factors of a (B, ...) stack of matrices.  A failure is an
    EstimationError naming the first failing block; ``what`` is formatted
    with the failing matrix's index, e.g. "component {1}"."""
    try:
        return np.linalg.cholesky(matrices)
    except np.linalg.LinAlgError:
        for index in np.ndindex(matrices.shape[:-2]):
            try:
                np.linalg.cholesky(matrices[index])
            except np.linalg.LinAlgError:
                raise EstimationError(
                    f"block {index[0]}: Cholesky of {what.format(*index)} failed at draw {draw}",
                    block=index[0],
                ) from None
        raise


def _mvn_logpdf(diff, roots):
    """(B, ncomp, n) log N(diff_i | 0, Sigma_k) of each block, each Sigma_k
    given by its lower-triangular precision factor ``roots[b, k]``
    (Sigma_k^-1 = P_k P_k^T).  ``diff`` is one (B, n, K) block shared by
    every component or one (B, ncomp, n, K) block per component."""
    if diff.ndim == 3:
        diff = diff[:, None]
    proj = diff @ roots
    # -0.5 * log|Sigma_k| = sum(log diag P_k)
    half_logdet = np.log(np.diagonal(roots, axis1=2, axis2=3)).sum(axis=2)
    norm = half_logdet - 0.5 * roots.shape[-1] * _LOG_2PI
    return norm[..., None] - 0.5 * np.einsum("bcnk,bcnk->bcn", proj, proj)


def _wishart_root(rngs, dof, scale, draw):
    """Lower-triangular factors P (B, ncomp, K, K) of Wishart(dof, scale^-1)
    draws P P^T, i.e. the precision factors of inverse-Wishart(dof, scale)
    draws, via the Bartlett decomposition; ``dof`` is (B, ncomp) and
    ``scale`` (B, ncomp, K, K).  Also returns one standard-normal K-vector
    per (block, component), z (B, ncomp, K).  Block b draws from
    ``rngs[b]``, component by component: the Bartlett variates row by row
    (the chi-square, then the normals left of the diagonal), then z."""
    n_blocks, ncomp, k, _ = scale.shape
    L = _chol_or_abort(np.linalg.inv(scale), draw, "inverse scale of component {1}")
    A = np.zeros(scale.shape)
    z = np.empty((n_blocks, ncomp, k))
    for b, rng in enumerate(rngs):
        for c, component_dof in enumerate(dof[b].tolist()):
            factor = A[b, c]
            for i in range(k):
                factor[i, i] = math.sqrt(rng.chisquare(component_dof - i))
                if i:
                    factor[i, :i] = rng.standard_normal(i)
            z[b, c] = rng.standard_normal(k)
    return L @ A, z


def _metropolis(
    rngs, sizes, X, y, row_customer, beta, loglik, prop_factor, prior_mean, member, roots
):
    """(a) Random-walk Metropolis update of every customer of every block at
    once against the logit likelihood times N(prior_mean_i, Sigma_{ind_i}),
    where ``member`` (B, n) is b * ncomp + ind_i.  Updates ``beta`` (B, n,
    K) and its per-customer ``loglik`` (B, n) in place; returns the (B, n)
    accept mask.  A padded customer proposes a zero step and is never
    accepted."""
    eps = _stacked(rngs, sizes, "standard_normal", 0.0, beta.shape[-1:])
    proposal = beta + np.einsum("bnij,bnj->bni", prop_factor, eps)
    loglik_prop = _customer_loglik(X, y, row_customer, proposal)
    # flat index of (b, ind_i, i) in a (B, ncomp, n) density array
    n = beta.shape[1]
    pick = member * n + np.arange(n)
    logprior_cur = np.take(_mvn_logpdf(beta - prior_mean, roots), pick)
    logprior_prop = np.take(_mvn_logpdf(proposal - prior_mean, roots), pick)
    log_ratio = (loglik_prop - loglik) + (logprior_prop - logprior_cur)
    accept = np.log(_stacked(rngs, sizes, "random", 1.0)) < log_ratio
    np.copyto(beta, proposal, where=accept[..., None])
    np.copyto(loglik, loglik_prop, where=accept)
    return accept


def _draw_indicators(rngs, sizes, resid, mu, roots, weights):
    """(b) Component indicators (B, n) on the covariate-adjusted
    coefficients.  With one component every indicator is 0; its uniforms
    are still drawn, so every later variate of each stream stays in place."""
    u = _stacked(rngs, sizes, "random", 1.0)
    if weights.shape[1] == 1:
        return np.zeros(u.shape, dtype=np.intp)
    log_post = np.log(weights)[..., None] + _mvn_logpdf(resid[:, None] - mu[..., None, :], roots)
    log_post -= log_post.max(axis=1, keepdims=True)
    probs = np.exp(log_post)
    probs /= probs.sum(axis=1, keepdims=True)
    ind = np.minimum((u[:, None] > np.cumsum(probs, axis=1)).sum(axis=1), weights.shape[1] - 1)
    return ind.astype(np.intp)


def _draw_weights(rngs, counts, dir_alpha):
    """(c) Dirichlet weights (B, ncomp) given the (B, ncomp) component counts
    (degenerate at exactly 1 for one component)."""
    if len(dir_alpha) == 1:
        return np.ones(counts.shape)
    return np.stack([rng.dirichlet(dir_alpha + n) for rng, n in zip(rngs, counts)])


def _draw_components(rngs, resid, onehot, counts, mubar, amu, nu, V, draw):
    """(d) Normal / inverse-Wishart moments of every (block, component), whose
    members are the customers ``onehot`` (B, ncomp, n) marks; returns the
    means (B, ncomp, K) and precision factors (B, ncomp, K, K).  The mean's
    covariance Sigma_k / (amu + n_k) is drawn as P_k^-T z / sqrt(amu + n_k)."""
    n_k = counts[..., None]
    bbar = (onehot @ resid) / np.maximum(n_k, 1.0)
    centered = (resid[:, None] - bbar[:, :, None]) * onehot[..., None]
    scatter = np.swapaxes(centered, -1, -2) @ centered
    dev = bbar - mubar
    shrink = (amu * n_k / (amu + n_k))[..., None]
    iw_scale_post = V + scatter + shrink * (dev[..., :, None] * dev[..., None, :])
    post_mean = (amu * mubar + n_k * bbar) / (amu + n_k)
    roots, z = _wishart_root(rngs, nu + counts, iw_scale_post, draw)
    step = np.linalg.solve(np.swapaxes(roots, -1, -2), z[..., None])[..., 0]
    return post_mean + step / np.sqrt(amu + n_k), roots


def _draw_delta(rngs, dev, Z, onehot, roots, amu, draw):
    """(e) Covariate loading (B, K, n_cov) of each block via Bayes
    multivariate regression of ``dev`` = beta - mu[ind] on ``Z`` (GLS over
    components, prior precision amu * I on vec(delta))."""
    n_blocks, _, n_params = dev.shape
    dim = n_params * Z.shape[-1]
    precision = roots @ np.swapaxes(roots, -1, -2)
    Zk = onehot[..., None] * Z[:, None]  # (B, ncomp, n, n_cov): members' rows
    ZZ = np.swapaxes(Zk, -1, -2) @ Z[:, None]
    # sum_k kron(Z_k^T Z_k, P_k P_k^T) and vec_F(sum_k P_k P_k^T dev_k^T Z_k)
    A = amu * np.eye(dim) + np.einsum("bcqr,bckl->bqkrl", ZZ, precision).reshape(
        n_blocks, dim, dim
    )
    rhs = (precision @ (np.swapaxes(dev, -1, -2)[:, None] @ Zk)).sum(axis=1)
    rhs = np.swapaxes(rhs, -1, -2).reshape(n_blocks, dim, 1)
    A_inv = np.linalg.inv(A)
    z = np.stack([rng.standard_normal(dim) for rng in rngs])[..., None]
    vec = A_inv @ rhs + _chol_or_abort(A_inv, draw, "delta posterior") @ z
    return np.swapaxes(vec.reshape(n_blocks, -1, n_params), -1, -2)


def _proposal_factors(rows_per_cust, info, population_cov, scale, prior_cov_guess):
    """(n, K, K) random-walk proposal factors of one block: the scaled
    inverse of each customer's pooled-likelihood Hessian approximation
    (rows * mean row information) plus the population precision; a fraction
    of the prior covariance when that is singular."""
    counts, by_customer = np.unique(rows_per_cust, return_inverse=True)
    try:
        precision = counts[:, None, None] * info + np.linalg.inv(population_cov)
        return np.linalg.cholesky(scale**2 * np.linalg.inv(precision))[by_customer]
    except np.linalg.LinAlgError:
        fallback = np.linalg.cholesky(scale**2 * 0.5 * prior_cov_guess)
        return np.tile(fallback, (len(rows_per_cust), 1, 1))


def _population_cov(weights, mu, roots):
    """Covariance of one block's mixture, between-component spread included."""
    Sigma = np.linalg.inv(roots @ np.swapaxes(roots, 1, 2))
    centered = mu - weights @ mu
    return np.einsum("k,kij->ij", weights, Sigma) + (centered.T * weights) @ centered


def fit_hb_panels(panels, ncomp: int, config: McmcConfig, seeds) -> list[PosteriorDraws]:
    """Run one Metropolis-within-Gibbs chain over a stack of panels (blocks).

    Each panel is the ``(X, y, row_customer, customer_ids, Z)`` of
    ``build_panel``: ``row_customer`` maps each row to a position in
    ``customer_ids`` and ``Z`` holds one covariate row per customer (may be
    None or zero-width).  Every block runs under ``config`` and draws every
    variate from its own generator, seeded from ``seeds[b]``, in the
    per-step order of a one-block fit, so its draws equal those of fitting
    it alone up to rounding.  Returns one PosteriorDraws per block, whose
    config is ``config`` with ``seed=seeds[b]``.
    """
    if not panels:
        raise InvalidInputError("no panels to fit")
    if ncomp < 1:
        raise ConfigurationError("ncomp must be >= 1")
    if len(seeds) != len(panels):
        raise InvalidInputError(f"{len(seeds)} seeds for {len(panels)} panels")
    n_params = np.shape(panels[0][0])[1]
    n_cov = 0 if panels[0][4] is None else np.shape(panels[0][4])[1]
    nu = config.resolved_iw_dof(n_params)
    blocks = []  # (X, y, row_customer, Z, rows per customer) of each block
    for b, (X_b, y_b, row_b, ids, Z_b) in enumerate(panels):
        X_b = np.asarray(X_b, dtype=float)
        row_b = np.asarray(row_b, dtype=np.intp)
        Z_b = np.zeros((len(ids), 0)) if Z_b is None else np.asarray(Z_b, dtype=float)
        if X_b.shape[1] != n_params or Z_b.shape != (len(ids), n_cov):
            raise InvalidInputError(
                f"block {b}: design width {X_b.shape[1]} and covariates {Z_b.shape} do not "
                f"match block 0's {n_params} and (customers, {n_cov})"
            )
        y_b = np.asarray(y_b, dtype=float)
        for name, array in (("y", y_b), ("row_customer", row_b)):
            if len(array) != len(X_b):
                raise InvalidInputError(
                    f"block {b}: {name} has {len(array)} entries for the {len(X_b)} rows of X"
                )
        for name, array, bad, rule in (
            ("X", X_b, ~np.isfinite(X_b), "must be finite"),
            ("Z", Z_b, ~np.isfinite(Z_b), "must be finite"),
            ("y", y_b, (y_b != 0) & (y_b != 1), "must be 0 or 1"),
            ("row_customer", row_b, (row_b < 0) | (row_b >= len(ids)),
             f"must lie in [0, {len(ids)})"),
        ):
            if bad.any():
                row = int(np.argmax(bad.reshape(len(array), -1).any(axis=1)))
                value = array[row].tolist()
                raise InvalidInputError(f"block {b}: {name} row {row} = {value} {rule}")
        rows_per_cust = np.bincount(row_b, minlength=len(ids))
        if rows_per_cust.min() < 1:
            raise DataIntegrityError(f"block {b}: every customer needs at least one observation")
        blocks.append((X_b, y_b, row_b, Z_b, rows_per_cust))

    sizes = [len(p[3]) for p in panels]
    n_blocks, n_max = len(panels), max(sizes)
    rngs = [seeded_rng(s) for s in seeds]
    # rows of every block against the flattened (B * n_max) customers
    X = np.concatenate([block[0] for block in blocks])
    y = np.concatenate([block[1] for block in blocks])
    row_customer = np.concatenate([block[2] + b * n_max for b, block in enumerate(blocks)])
    valid = np.arange(n_max) < np.array(sizes)[:, None]
    Z = np.zeros((n_blocks, n_max, n_cov))
    for b, (block, n) in enumerate(zip(blocks, sizes)):
        Z[b, :n] = block[3]

    # Priors
    amu = config.mu_prior_precision
    mubar = np.full(n_params, config.mu_prior_mean)
    V = config.resolved_iw_scale(n_params) * np.eye(n_params)
    dir_alpha = np.full(ncomp, config.dirichlet_concentration)
    prior_cov_guess = V / (nu - n_params - 1)

    # Random-walk proposal (see _proposal_factors): without the population
    # precision term the proposal is far wider than a sparse customer's
    # posterior and the chain stalls.  The population covariance is
    # re-estimated a few times during burn-in and frozen afterwards, so
    # retained draws come from a fixed-kernel chain.
    scale = config.resolved_rw_scale(n_params)
    adapt_every = max(min(25, config.burn_in // 4), 1)

    # State.  Customer betas start at the pooled fit plus prior-scale noise:
    # an all-equal start has zero scatter, which collapses the first
    # covariance draw and can trap the chain in an over-shrunk state.  The
    # covariate loading starts at its pooled interaction estimate; a zero
    # start can settle into a sign-flipped basin that the chain corrects
    # only slowly.
    infos = []
    prop_factor = np.zeros((n_blocks, n_max, n_params, n_params))
    beta = np.zeros((n_blocks, n_max, n_params))
    mu = np.empty((n_blocks, ncomp, n_params))
    delta = np.zeros((n_blocks, n_params, n_cov))
    start_factor = np.linalg.cholesky(prior_cov_guess).T
    for b, ((X_b, y_b, row_b, Z_b, rows_per_cust), rng, n) in enumerate(zip(blocks, rngs, sizes)):
        beta_pool, info = _pooled_logit(X_b, y_b)
        infos.append(info)
        prop_factor[b, :n] = _proposal_factors(
            rows_per_cust, info, prior_cov_guess, scale, prior_cov_guess
        )
        beta[b, :n] = beta_pool + rng.standard_normal((n, n_params)) @ start_factor
        mu[b] = beta_pool
        if n_cov:
            z_rows = Z_b[row_b]
            X_ext = np.hstack([X_b] + [X_b * z_rows[:, [j]] for j in range(n_cov)])
            beta_ext, _ = _pooled_logit(X_ext, y_b)
            delta[b] = beta_ext[n_params:].reshape(n_cov, n_params).T
    weights = np.full((n_blocks, ncomp), 1.0 / ncomp)
    # component covariances are held as precision factors P_k (Sigma_k^-1 =
    # P_k P_k^T); Sigma_k itself is formed only for adaptation and output
    roots = np.tile(np.linalg.cholesky(np.linalg.inv(prior_cov_guess)), (n_blocks, ncomp, 1, 1))
    # member[b, i] = b * ncomp + ind[b, i] indexes mu.reshape(-1, K)
    comp_offset = ncomp * np.arange(n_blocks)[:, None]
    member = np.repeat(comp_offset, n_max, axis=1)
    loglik_cust = _customer_loglik(X, y, row_customer, beta)
    accept_counts = np.zeros((n_blocks, n_max))

    n_keep = config.n_retained()
    out_betas = [np.empty((n_keep, n, n_params)) for n in sizes]
    out_weights = np.empty((n_keep, n_blocks, ncomp))
    out_means = np.empty((n_keep, n_blocks, ncomp, n_params))
    out_roots = np.empty((n_keep, n_blocks, ncomp, n_params, n_params))
    out_delta = np.empty((n_keep, n_blocks, n_params, n_cov))
    out_loglik = np.empty((n_keep, n_blocks))

    kept = 0
    for it in range(1, config.total_draws + 1):
        shift = Z @ np.swapaxes(delta, -1, -2)
        prior_mean = np.take(mu.reshape(-1, n_params), member, axis=0) + shift
        accept_counts += _metropolis(
            rngs, sizes, X, y, row_customer, beta, loglik_cust, prop_factor, prior_mean, member,
            roots,
        )
        resid = beta - shift
        ind = _draw_indicators(rngs, sizes, resid, mu, roots, weights)
        member = ind + comp_offset
        onehot = ((ind[:, None] == np.arange(ncomp)[:, None]) & valid[:, None]).astype(float)
        counts = onehot.sum(axis=2)
        weights = _draw_weights(rngs, counts, dir_alpha)
        mu, roots = _draw_components(rngs, resid, onehot, counts, mubar, amu, nu, V, it)
        if n_cov:
            dev = beta - np.take(mu.reshape(-1, n_params), member, axis=0)
            delta = _draw_delta(rngs, dev, Z, onehot, roots, amu, it)

        if it <= config.burn_in and it % adapt_every == 0:
            for b, (block, info, n) in enumerate(zip(blocks, infos, sizes)):
                pop_cov = _population_cov(weights[b], mu[b], roots[b])
                prop_factor[b, :n] = _proposal_factors(
                    block[4], info, pop_cov, scale, prior_cov_guess
                )

        if it > config.burn_in and (it - config.burn_in) % config.keep == 0:
            for b, n in enumerate(sizes):
                out_betas[b][kept] = beta[b, :n]
                out_loglik[kept, b] = loglik_cust[b, :n].sum()
            out_weights[kept] = weights
            out_means[kept] = mu
            out_roots[kept] = roots
            out_delta[kept] = delta
            kept += 1

    fits = []
    for b, (p, seed, n) in enumerate(zip(panels, seeds, sizes)):
        rates = accept_counts[b, :n] / config.total_draws
        low, high = float(rates.min()), float(rates.max())
        if low < 0.05 or high > 0.70:
            log.warning(
                "block %d: Metropolis acceptance rates outside (0.05, 0.70): min=%.3f max=%.3f",
                b, low, high,
            )
        block_roots = out_roots[:, b]
        fits.append(
            PosteriorDraws(
                customer_ids=list(p[3]),
                betas=out_betas[b],
                weights=np.ascontiguousarray(out_weights[:, b]),
                means=np.ascontiguousarray(out_means[:, b]),
                covariances=np.linalg.inv(block_roots @ np.swapaxes(block_roots, -1, -2)),
                delta=np.ascontiguousarray(out_delta[:, b]),
                log_likelihood=np.ascontiguousarray(out_loglik[:, b]),
                acceptance_rates=rates,
                config=replace(config, seed=seed),
            )
        )
    return fits


def fit_hb_panel(
    X: np.ndarray,
    y: np.ndarray,
    row_customer: np.ndarray,
    customer_ids,
    Z: np.ndarray | None = None,
    ncomp: int = 1,
    config: McmcConfig | None = None,
) -> PosteriorDraws:
    """Run the Metropolis-within-Gibbs chain on one panel's estimation arrays:
    the one-block call of ``fit_hb_panels``."""
    config = config or McmcConfig()
    return fit_hb_panels([(X, y, row_customer, customer_ids, Z)], ncomp, config, [config.seed])[0]


def fit_hb_mixed_logit(
    offers,
    covariates=None,
    ncomp: int = 1,
    config: McmcConfig | None = None,
) -> PosteriorDraws:
    """Fit the offer model (intercept, contract years, discount) by HB MCMC.

    ``covariates``, the ``(customer_id, rows)`` pair of
    ``Customers.covariates``, gives each customer's covariate row entering
    the population means; omit it for a covariate-free population
    distribution.
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
    """Acceptance probabilities for arbitrary design rows: each row's
    logistic probability averaged over the draws that ``mode`` scores its
    customer with (``PosteriorDraws.scored_coefficients``), PREDICT_PAIRS
    (draw, row) pairs at a time.  Rows scored at the population mean
    coefficients: all in population-mean mode, and an unknown customer's if
    ``fallback_population_mean`` is set (else an UnknownCustomerError)."""
    betas = draws.scored_coefficients(mode)
    X = np.asarray(X, dtype=float)
    out = np.empty(len(X))
    fallback = np.ones(len(X), dtype=bool)
    if mode != POPULATION_MEAN:
        unknown = None if fallback_population_mean else UnknownCustomerError
        idx = join(draws.customer_ids, row_customer_ids, unknown)
        fallback = idx < 0
        known = np.flatnonzero(~fallback)
        chunk = max(1, PREDICT_PAIRS // len(betas))
        for start in range(0, len(known), chunk):
            rows = known[start : start + chunk]
            # (draws, chunk): utility of each row under each scored draw
            u = np.einsum("rij,ij->ri", betas[:, idx[rows], :], X[rows])
            out[rows] = logistic(u).mean(axis=0)
    out[fallback] = logistic(X[fallback] @ draws.population_mean_coefficients())
    return out
