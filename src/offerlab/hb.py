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
on what it is stacked with.  Per-customer state is held customers-last,
(block, ..., customer), so each pass over the customers runs one long inner
loop (see "Sampler internals").  All blocks share one ``McmcConfig`` and differ
only in their seeds.  ``fit_hb_panel`` is the one-block call, and
cross-validated tuning fits every cell of one candidate as one stacked
chain.

The sweep skips work whose result is known in advance: with one component
the indicator step advances each generator past the uniforms it would draw,
which keeps every stream in place, and returns zeros, as the weight step
returns ones, and the membership and step (e)'s member covariates, which
then never change, are formed once.

Where a sweep's variates come from: every block draws from its own
generator, in-process, except in a chain of one block and one component
(the ``fit`` stage's at the default ``ncomp = 1``) of at least
``DRAW_AHEAD_VALUES`` variates a sweep, about 2000 customers, when
``shares.can_fork`` allows a second process.  Such a chain makes the same generator calls, with
the same arguments, every sweep, so sweep 1 records them and a process
forked then draws every later sweep's values one sweep ahead, in stream
order, and streams them over a pipe (``_sweeps``).  The steps call a
stand-in generator that checks each call against the recorded one, so the
draws are bit-identical to the in-process chain's and a step that changes
its draws is an error naming the call.

Step (a) forms only what its accept test reads.  A row's log likelihood is
-log(1 + e^v) at v = (1 - 2y) x.beta, the K products summed in order, and
log(1 + e^v) is numpy's scalar ``logaddexp`` formula written out in
in-place ufuncs, several times faster than ``np.logaddexp`` and different
from it only in the last bit.  The prior log-ratio is -(|P^T d'|^2 -
|P^T d|^2) / 2 under the customer's own component, whose normalizers
cancel.  Another summation order, or the full densities, would move these
values by a few ulps.  That reaches the saved log-likelihood trace, and a
draw only through the accept test, where it flips no decision in practice;
the tests pin both.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import logging
import math
import os
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .choice import as_ids, first_repeat, join, logistic
from .errors import (
    ConfigurationError,
    DataIntegrityError,
    EstimationError,
    InvalidInputError,
    OfferLabError,
    UnknownCustomerError,
)
from .shares import can_fork, forking
from .storage import (
    artifact_file,
    check_finite_fields,
    load_dataclass,
    read_json_artifact,
    seeded_rng,
    write_array_atomic,
    write_json_atomic,
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

# the fewest variates per sweep, step (a)'s n (K + 1), at which a one-block
# chain draws ahead: after a fork, each page of the chain's process takes a
# copy-on-write fault at its first write, and below this the faults cost
# about what moving the draws to the other CPU saves (at K = 3 the two
# matched at 1000 to 2000 customers on a 2-vCPU VM, keeping every draw)
DRAW_AHEAD_VALUES = 1 << 13
# the pipe size a chain that draws ahead asks for: several sweeps' variates
# of 5000 customers (about 160 KB each at K = 3)
PIPE_BYTES = 1 << 20

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
        header = {
            "format": "hb-posterior-v1",
            "customer_ids": as_ids(self.customer_ids, "customer id").tolist(),
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
        header = read_json_artifact(header_path)
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
        try:
            ids = as_ids(header["customer_ids"], "customer id")
        except InvalidInputError as exc:
            raise DataIntegrityError(f"{header_path}: {exc}") from None
        repeat = first_repeat(ids)
        if repeat >= 0:
            raise DataIntegrityError(f"{header_path} repeats customer id {ids[repeat]}")
        config = load_dataclass(McmcConfig, header["config"], f"{header_path}: config")
        arrays = {}
        # (first array, size) of each axis letter; N's is the header's id count
        sizes = {"N": (None, len(ids))}
        for name, axes in cls._AXES.items():
            file = artifact_file(path / f"{name}.npy")
            try:  # a dtype that does not cast safely to float64 is refused too
                arrays[name] = array = np.load(file).astype(float, casting="safe", copy=False)
            except (ValueError, EOFError, TypeError) as exc:
                raise DataIntegrityError(f"{file} is not a readable float array: {exc}") from None
            expected = header["shapes"].get(name)
            if list(array.shape) != expected:
                raise DataIntegrityError(
                    f"posterior array {name} has shape {list(array.shape)}, "
                    f"header.json records {expected}"
                )
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
        return cls(customer_ids=ids.tolist(), config=config, **arrays)


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
# ``_Chain.sweep`` is the one place the steps below are composed into a
# Gibbs sweep, over the state a ``_Chain`` holds.  The chain runs over a
# leading block axis and holds every per-customer array block-padded and
# customers-last, (B, ..., n) with n the largest block's customer count:
# beta and the prior mean are (B, K, n), the proposal factors (B, K, K, n)
# and the covariates (B, V, n), so every elementwise pass and every sum
# over K or V runs over contiguous n-long rows.  Population arrays are (B,
# ncomp, ...).  Padded customers have no rows, draw no variates and are
# masked out of the population steps, so a block's draws do not depend on
# what it is stacked with.  The likelihood pass gathers each offer row's K
# coefficients from beta as a (K, rows) array, by a flat index built once
# per fit, multiplies them by the (K, rows) signed design and sums them in
# order over K: half the time of a (rows, K) gather and einsum.  Step (a)'s
# prior ratio projects both deviations by one (K, 2n) GEMM per component,
# picks each customer's squared norm under its own component, and updates
# its state by np.where selects, half the time of masked copies.  Retained betas are transposed
# to (customers, K) as they are kept.  The steps draw from ``_Chain.rngs``:
# one generator per block, or, in a chain that draws ahead, a ``_Tape`` that
# hands out the values a forked ``_produce`` drew for the sweep, read from
# its pipe into one reused buffer.  Step (d)'s Bartlett variates are drawn
# into two lists and stored by one diagonal and one below-diagonal store.


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


def _coef_index(row_customer, n_params, n):
    """(K, rows) flat index of each offer row's K coefficients in the (B, K,
    n) betas, given ``row_customer``, its index among the flattened (B * n)
    customers."""
    block, i = np.divmod(row_customer, n)
    return n * np.arange(n_params)[:, None] + (block * (n_params * n) + i)


def _signed_design(X, y):
    """The (K, rows) design of the likelihood pass: each row's x times
    1 - 2y, so that the row's log likelihood is -log(1 + e^v) at its
    v = (1 - 2y) x.beta.  The sign flip is exact."""
    return np.ascontiguousarray((X * (1.0 - 2.0 * y)[:, None]).T)


def _customer_loglik(design, row_customer, row_coef, betas):
    """(B, n) per-customer binary-logit log likelihood at one beta per
    customer, ``betas`` (B, K, n); ``design`` is the ``_signed_design``,
    ``row_customer`` indexes the flattened (B * n) customers and
    ``row_coef`` is its ``_coef_index``."""
    terms = np.take(betas, row_coef)
    terms *= design
    v = terms[0]
    for term in terms[1:]:  # x_k beta_k summed in order over k
        v += term
    # -log(1 + e^v) in the overflow-free form of numpy's scalar logaddexp(0, v),
    # in place; the ufunc np.logaddexp takes several times as long
    row_ll = np.abs(v)
    np.negative(row_ll, out=row_ll)
    np.exp(row_ll, out=row_ll)
    np.log1p(row_ll, out=row_ll)
    np.negative(row_ll, out=row_ll)
    row_ll -= np.maximum(v, 0.0)
    n_cust = len(betas) * betas.shape[-1]
    return np.bincount(row_customer, weights=row_ll, minlength=n_cust).reshape(len(betas), -1)


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
    (Sigma_k^-1 = P_k P_k^T).  ``diff`` is one (B, ncomp, K, n) block per
    component."""
    proj = np.swapaxes(roots, -1, -2) @ diff  # P_k^T diff_i, one (K, n) GEMM per component
    # -0.5 * log|Sigma_k| = sum(log diag P_k)
    half_logdet = np.log(np.diagonal(roots, axis1=2, axis2=3)).sum(axis=2)
    norm = half_logdet - 0.5 * roots.shape[-1] * _LOG_2PI
    return norm[..., None] - 0.5 * np.einsum("bckn,bckn->bcn", proj, proj)


def _component_means(mu, member):
    """(B, K, n) mean of each customer's component, where ``member`` (B, n)
    is b * ncomp + ind_i; with one component the (B, K, 1) broadcast of mu."""
    if mu.shape[1] == 1:
        return mu[:, 0, :, None]
    return np.swapaxes(np.take(mu.reshape(-1, mu.shape[2]).T, member, axis=1), 0, 1)


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
    chisquares, normals = [], []
    for rng, block_dof in zip(rngs, dof.tolist()):
        for component_dof in block_dof:
            for i in range(k):
                chisquares.append(rng.chisquare(component_dof - i))
                if i:
                    normals.append(rng.standard_normal(i))
            normals.append(rng.standard_normal(k))
    # each (block, component)'s normals: the factor's lower triangle row by
    # row, then z
    m = k * (k - 1) // 2
    normals = np.concatenate(normals).reshape(-1, m + k)
    A = np.zeros((n_blocks * ncomp, k * k))
    A[:, :: k + 1] = np.sqrt(chisquares).reshape(-1, k)
    A[:, _below_diagonal(k)] = normals[:, :m]
    return L @ A.reshape(scale.shape), normals[:, m:].reshape(n_blocks, ncomp, k)


@functools.cache
def _below_diagonal(k):
    """Flat indices of the entries below the diagonal of a k x k matrix, row
    by row (``np.tril_indices`` takes longer than a small Bartlett draw)."""
    rows, cols = np.tril_indices(k, -1)
    index = rows * k + cols
    index.flags.writeable = False
    return index


def _own_sq_norms(diff, roots, member):
    """(B, m) squared norms |P^T d|^2 of the columns d of ``diff`` (B, K,
    m), which holds (K, n) blocks side by side, column i of each block
    customer i's; P = ``roots[b, ind_i]`` is the precision factor of the
    customer's own component, ``member`` (B, n) = b * ncomp + ind_i.  Each
    norm sums the K squares in order."""
    proj = np.swapaxes(roots, -1, -2) @ diff[:, None]  # one (K, m) GEMM per component
    proj *= proj
    norms = proj[:, :, 0]
    for c in range(1, roots.shape[-1]):
        norms += proj[:, :, c]
    if roots.shape[1] == 1:
        return norms[:, 0]
    m = diff.shape[-1]  # flat index of (b, ind_i, column) in the (B, ncomp, m) norms
    return np.take(norms, np.tile(member, m // member.shape[1]) * m + np.arange(m))


def _metropolis(
    rngs, sizes, design, row_customer, row_coef, beta, loglik, prop_factor, prior_mean, member,
    roots,
):
    """(a) Random-walk Metropolis update of every customer of every block at
    once against the logit likelihood times N(prior_mean_i, Sigma_{ind_i}),
    where ``member`` (B, n) is b * ncomp + ind_i.  Updates ``beta`` (B, K,
    n) and its per-customer ``loglik`` (B, n) in place; returns the (B, n)
    accept mask.  A padded customer proposes a zero step and is never
    accepted."""
    n = beta.shape[-1]
    # each customer's K normals, drawn consecutively, as contiguous (K, n) rows
    eps = _stacked(rngs, sizes, "standard_normal", 0.0, beta.shape[1:2])
    eps = np.ascontiguousarray(np.swapaxes(eps, 1, 2))
    proposal = beta + np.einsum("bijn,bjn->bin", prop_factor, eps)
    loglik_prop = _customer_loglik(design, row_customer, row_coef, proposal)
    # the prior log-ratio -(|P^T d'|^2 - |P^T d|^2) / 2 of the proposed and
    # the current deviation d' and d from the prior mean, under the
    # customer's own component: the normal's normalizers cancel.  Both
    # norms come from one (K, 2n) product
    diff = np.empty(beta.shape[:2] + (2 * n,))
    np.subtract(beta, prior_mean, out=diff[..., :n])
    np.subtract(proposal, prior_mean, out=diff[..., n:])
    sq = _own_sq_norms(diff, roots, member)
    log_ratio = (loglik_prop - loglik) + 0.5 * (sq[:, :n] - sq[:, n:])
    accept = np.log(_stacked(rngs, sizes, "random", 1.0)) < log_ratio
    beta[...] = np.where(accept[:, None], proposal, beta)
    loglik[...] = np.where(accept, loglik_prop, loglik)
    return accept


def _draw_indicators(rngs, sizes, resid, mu, roots, weights):
    """(b) Component indicators (B, n) on the covariate-adjusted
    coefficients ``resid`` (B, K, n).  With one component every indicator
    is 0, and each generator advances past the block's uniforms instead of
    drawing them: ``random`` takes one 64-bit output per double, and no
    draw of the sampler uses the generator's 32-bit buffer, which
    ``advance`` clears, so every later variate of each stream stays in
    place."""
    if weights.shape[1] == 1:
        for rng, n in zip(rngs, sizes):
            rng.bit_generator.advance(n)
        return np.zeros((len(rngs), resid.shape[-1]), dtype=np.intp)
    u = _stacked(rngs, sizes, "random", 1.0)
    log_post = np.log(weights)[..., None] + _mvn_logpdf(resid[:, None] - mu[..., None], roots)
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
    members are the customers ``onehot`` (B, ncomp, n) marks among the
    columns of ``resid`` (B, K, n); returns the means (B, ncomp, K) and
    precision factors (B, ncomp, K, K).  The mean's covariance
    Sigma_k / (amu + n_k) is drawn as P_k^-T z / sqrt(amu + n_k)."""
    n_k = counts[..., None]
    bbar = (onehot @ np.swapaxes(resid, -1, -2)) / np.maximum(n_k, 1.0)
    centered = (resid[:, None] - bbar[..., None]) * onehot[:, :, None]
    scatter = centered @ np.swapaxes(centered, -1, -2)
    dev = bbar - mubar
    shrink = (amu * n_k / (amu + n_k))[..., None]
    iw_scale_post = V + scatter + shrink * (dev[..., :, None] * dev[..., None, :])
    post_mean = (amu * mubar + n_k * bbar) / (amu + n_k)
    roots, z = _wishart_root(rngs, nu + counts, iw_scale_post, draw)
    step = np.linalg.solve(np.swapaxes(roots, -1, -2), z[..., None])[..., 0]
    return post_mean + step / np.sqrt(amu + n_k), roots


def _member_covariates(Z, onehot):
    """Each component's members' covariates Z_k (B, ncomp, n_cov, n), the
    customers ``onehot`` (B, ncomp, n) marks among the columns of ``Z`` (B,
    n_cov, n), and Z_k^T Z_k (B, ncomp, n_cov, n_cov): step (e)'s inputs
    that depend on the indicators alone."""
    Zk = onehot[:, :, None] * Z[:, None]
    return Zk, Zk @ np.swapaxes(Z, -1, -2)[:, None]


def _draw_delta(rngs, dev, Zk, ZZ, roots, amu, draw):
    """(e) Covariate loading (B, K, n_cov) of each block via Bayes
    multivariate regression of ``dev`` = beta - mu[ind] (B, K, n) on the
    covariates (GLS over components, prior precision amu * I on
    vec(delta)), given the ``_member_covariates`` Zk and ZZ."""
    n_blocks, n_params = dev.shape[:2]
    dim = n_params * Zk.shape[2]
    precision = roots @ np.swapaxes(roots, -1, -2)
    # sum_k kron(Z_k^T Z_k, P_k P_k^T) and vec_F(sum_k P_k P_k^T dev_k^T Z_k)
    A = amu * np.eye(dim) + np.einsum("bcqr,bckl->bqkrl", ZZ, precision).reshape(
        n_blocks, dim, dim
    )
    rhs = (precision @ (dev[:, None] @ np.swapaxes(Zk, -1, -2))).sum(axis=1)
    rhs = np.swapaxes(rhs, -1, -2).reshape(n_blocks, dim, 1)
    A_inv = np.linalg.inv(A)
    z = np.stack([rng.standard_normal(dim) for rng in rngs])[..., None]
    vec = A_inv @ rhs + _chol_or_abort(A_inv, draw, "delta posterior") @ z
    return np.swapaxes(vec.reshape(n_blocks, -1, n_params), -1, -2)


def _proposal_factors(rows_per_cust, info, population_cov, scale, prior_cov_guess):
    """(K, K, n) random-walk proposal factors of one block, customers last:
    the scaled inverse of each customer's pooled-likelihood Hessian
    approximation (rows * mean row information) plus the population
    precision; a fraction of the prior covariance when that is singular."""
    counts, by_customer = np.unique(rows_per_cust, return_inverse=True)
    try:
        precision = counts[:, None, None] * info + np.linalg.inv(population_cov)
        factors = np.linalg.cholesky(scale**2 * np.linalg.inv(precision))
    except np.linalg.LinAlgError:
        fallback = np.linalg.cholesky(scale**2 * 0.5 * prior_cov_guess)
        return np.repeat(fallback[..., None], len(rows_per_cust), axis=-1)
    return np.moveaxis(factors, 0, -1)[..., by_customer]


def _population_cov(weights, mu, roots):
    """Covariance of one block's mixture, between-component spread included."""
    Sigma = np.linalg.inv(roots @ np.swapaxes(roots, 1, 2))
    centered = mu - weights @ mu
    return np.einsum("k,kij->ij", weights, Sigma) + (centered.T * weights) @ centered


def _checked_blocks(panels, ncomp, seeds):
    """The (X, y, row_customer, Z, rows per customer, customer ids) of each
    panel of ``fit_hb_panels``; a malformed array is an error naming its block."""
    if not panels:
        raise InvalidInputError("no panels to fit")
    if ncomp < 1:
        raise ConfigurationError("ncomp must be >= 1")
    if len(seeds) != len(panels):
        raise InvalidInputError(f"{len(seeds)} seeds for {len(panels)} panels")
    blocks = []
    for b, (X_b, y_b, row_b, ids, Z_b) in enumerate(panels):
        if not len(ids):
            raise InvalidInputError(f"block {b}: no customers to fit")
        ids = as_ids(ids, f"block {b}: customer id")
        repeat = first_repeat(ids)
        if repeat >= 0:
            raise InvalidInputError(f"block {b}: repeats customer id {ids[repeat]}")
        X_b, y_b = np.asarray(X_b, dtype=float), np.asarray(y_b, dtype=float)
        row_b = np.asarray(row_b)
        Z_b = np.zeros((len(ids), 0)) if Z_b is None else np.asarray(Z_b, dtype=float)
        for name, array, ndim in (("X", X_b, 2), ("y", y_b, 1), ("row_customer", row_b, 1),
                                  ("Z", Z_b, 2)):
            if array.ndim != ndim:
                raise InvalidInputError(f"block {b}: {name} has shape {array.shape}, not {ndim}-D")
        if not X_b.shape[1]:
            raise InvalidInputError(f"block {b}: X has shape {X_b.shape}, with no columns")
        if not b:
            n_params, n_cov = X_b.shape[1], Z_b.shape[1]
        if X_b.shape[1] != n_params or Z_b.shape != (len(ids), n_cov):
            raise InvalidInputError(
                f"block {b}: design width {X_b.shape[1]} and covariates {Z_b.shape} do not "
                f"match block 0's {n_params} and (customers, {n_cov})"
            )
        for name, array in (("y", y_b), ("row_customer", row_b)):
            if len(array) != len(X_b):
                raise InvalidInputError(
                    f"block {b}: {name} has {len(array)} entries for the {len(X_b)} rows of X"
                )
        for name, array, bad, rule in (
            ("X", X_b, ~np.isfinite(X_b), "must be finite"),
            ("Z", Z_b, ~np.isfinite(Z_b), "must be finite"),
            ("y", y_b, (y_b != 0) & (y_b != 1), "must be 0 or 1"),
            ("row_customer", row_b, row_b != np.round(row_b), "must be a whole number"),
            ("row_customer", row_b, (row_b < 0) | (row_b >= len(ids)),
             f"must lie in [0, {len(ids)})"),
        ):
            if bad.any():
                row = int(np.argmax(bad.reshape(len(array), -1).any(axis=1)))
                value = array[row].tolist()
                raise InvalidInputError(f"block {b}: {name} row {row} = {value} {rule}")
        row_b = row_b.astype(np.intp, copy=False)
        rows_per_cust = np.bincount(row_b, minlength=len(ids))
        if rows_per_cust.min() < 1:
            raise DataIntegrityError(f"block {b}: every customer needs at least one observation")
        blocks.append((X_b, y_b, row_b, Z_b, rows_per_cust, ids))
    return blocks


class _Chain:
    """The state of one Metropolis-within-Gibbs chain over the
    ``_checked_blocks`` of ``fit_hb_panels``: ``sweep`` runs one Gibbs
    sweep, steps (a)-(e), and ``adapt`` refits the random-walk proposal.

    Customer betas start at their block's pooled fit plus prior-scale noise:
    an all-equal start has zero scatter, which collapses the first
    covariance draw and can trap the chain in an over-shrunk state.  The
    covariate loading starts at its pooled interaction estimate; a zero
    start can settle into a sign-flipped basin that the chain corrects only
    slowly.  The start proposal takes the prior covariance for the
    population's: without a population precision term the proposal is far
    wider than a sparse customer's posterior and the chain stalls."""

    def __init__(self, blocks, ncomp, config, seeds):
        self.sizes = sizes = [len(block[4]) for block in blocks]
        n_blocks, n_max = len(blocks), max(sizes)
        n_params, self.n_cov = blocks[0][0].shape[1], blocks[0][3].shape[1]
        self.rngs = [seeded_rng(s) for s in seeds]
        # every block's rows against the flattened (B * n_max) customers
        row_customer = np.concatenate([block[2] + b * n_max for b, block in enumerate(blocks)])
        X, y = (np.concatenate([block[i] for block in blocks]) for i in (0, 1))
        row_coef = _coef_index(row_customer, n_params, n_max)
        self.rows = (_signed_design(X, y), row_customer, row_coef)
        self.valid = np.arange(n_max) < np.array(sizes)[:, None]
        self.Z = np.zeros((n_blocks, self.n_cov, n_max))
        self.rows_per_cust = [block[4] for block in blocks]
        self.amu = config.mu_prior_precision
        self.mubar = np.full(n_params, config.mu_prior_mean)
        self.nu = config.resolved_iw_dof(n_params)
        self.V = config.resolved_iw_scale(n_params) * np.eye(n_params)
        self.dir_alpha = np.full(ncomp, config.dirichlet_concentration)
        self.prior_cov_guess = self.V / (self.nu - n_params - 1)
        self.scale = config.resolved_rw_scale(n_params)

        self.infos = []
        self.beta = np.zeros((n_blocks, n_params, n_max))
        self.mu = np.empty((n_blocks, ncomp, n_params))
        self.delta = np.zeros((n_blocks, n_params, self.n_cov))
        start_factor = np.linalg.cholesky(self.prior_cov_guess).T
        for b, ((X_b, y_b, row_b, Z_b, *_), rng, n) in enumerate(zip(blocks, self.rngs, sizes)):
            self.Z[b, :, :n] = Z_b.T
            beta_pool, info = _pooled_logit(X_b, y_b)
            self.infos.append(info)
            self.beta[b, :, :n] = (beta_pool + rng.standard_normal((n, n_params)) @ start_factor).T
            self.mu[b] = beta_pool
            if self.n_cov:
                z_rows = Z_b[row_b]
                X_ext = np.hstack([X_b] + [X_b * z_rows[:, [j]] for j in range(self.n_cov)])
                beta_ext, _ = _pooled_logit(X_ext, y_b)
                self.delta[b] = beta_ext[n_params:].reshape(self.n_cov, n_params).T
        self.weights = np.full((n_blocks, ncomp), 1.0 / ncomp)
        # component covariances are held as precision factors P_k (Sigma_k^-1 =
        # P_k P_k^T); Sigma_k itself is formed only for adaptation and output
        root = np.linalg.cholesky(np.linalg.inv(self.prior_cov_guess))
        self.roots = np.tile(root, (n_blocks, ncomp, 1, 1))
        self.prop_factor = np.zeros((n_blocks, n_params, n_params, n_max))
        self.adapt([self.prior_cov_guess] * n_blocks)
        # member[b, i] = b * ncomp + ind[b, i] indexes mu.reshape(-1, K)
        self.comp_offset = ncomp * np.arange(n_blocks)[:, None]
        self._assign(np.zeros((n_blocks, n_max), dtype=np.intp))
        self.loglik = _customer_loglik(*self.rows, self.beta)
        self.accept_counts = np.zeros((n_blocks, n_max))

    def _assign(self, ind):
        """Form the membership of the (B, n) component indicators ``ind``."""
        self.member = ind + self.comp_offset
        comps = np.arange(self.mu.shape[1])[:, None]
        self.onehot = ((ind[:, None] == comps) & self.valid[:, None]).astype(float)
        self.counts = self.onehot.sum(axis=2)
        if self.n_cov:
            self.Zk, self.ZZ = _member_covariates(self.Z, self.onehot)

    def sweep(self, it):
        """Gibbs sweep ``it`` (from 1), steps (a)-(e) in turn; one
        component's membership never changes."""
        shift = np.einsum("bkv,bvn->bkn", self.delta, self.Z)  # (B, K, n) covariate shift delta Z
        prior_mean = _component_means(self.mu, self.member) + shift
        self.accept_counts += _metropolis(
            self.rngs, self.sizes, *self.rows, self.beta, self.loglik, self.prop_factor,
            prior_mean, self.member, self.roots,
        )
        resid = self.beta - shift
        ind = _draw_indicators(self.rngs, self.sizes, resid, self.mu, self.roots, self.weights)
        if self.mu.shape[1] > 1:
            self._assign(ind)
        self.weights = _draw_weights(self.rngs, self.counts, self.dir_alpha)
        self.mu, self.roots = _draw_components(
            self.rngs, resid, self.onehot, self.counts, self.mubar, self.amu, self.nu, self.V, it
        )
        if self.n_cov:
            dev = self.beta - _component_means(self.mu, self.member)
            self.delta = _draw_delta(self.rngs, dev, self.Zk, self.ZZ, self.roots, self.amu, it)

    def adapt(self, covs=None):
        """Refit each block's proposal factors against its population
        covariance ``covs[b]``, by default that of its current draw."""
        if covs is None:
            covs = map(_population_cov, self.weights, self.mu, self.roots)
        for b, (cov, n) in enumerate(zip(covs, self.sizes)):
            self.prop_factor[b, ..., :n] = _proposal_factors(
                self.rows_per_cust[b], self.infos[b], cov, self.scale, self.prior_cov_guess
            )

    def population(self):
        """The population draw: weights, means, precision factors, loading."""
        return self.weights, self.mu, self.roots, self.delta


class _Tape:
    """A one-block chain's generator as its steps call it when the chain
    draws ahead (``_sweeps``).

    Sweep 1 draws from ``rng`` itself and records each call, (method,
    argument).  ``start`` then forks ``_produce`` on a copy of the
    generator and the record, and every later call is checked against the
    recorded call at its place and answered by that call's view of one
    buffer, into which ``read`` loads each sweep's values.  The next sweep
    overwrites the buffer, so a step consumes its draws within its sweep,
    as every step does."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = []  # (method, argument) of each call of sweep 1
        self.views = None  # each call's values in the buffer; None while recording
        self.made = 0  # calls made so far in draw ``draw``
        self.draw = 1
        self.buffer = self.data = self.pipe = self.child = None

    def standard_normal(self, size):
        return self._call("standard_normal", size)

    def random(self, size):
        return self._call("random", size)

    def chisquare(self, df):
        return self._call("chisquare", df)

    @property
    def bit_generator(self):
        return self

    def advance(self, delta):
        self._call("advance", delta)

    def _call(self, method, arg):
        if self.views is None:
            self.calls.append((method, arg))
            if method == "advance":
                return self.rng.bit_generator.advance(arg)
            return getattr(self.rng, method)(arg)
        made = self.made
        if made == len(self.calls) or self.calls[made] != (method, arg):
            recorded = "{}({!r})".format(*self.calls[made]) if made < len(self.calls) else "none"
            raise EstimationError(
                f"block 0: generator call {made + 1} of draw {self.draw} is {method}({arg!r}); "
                f"that of draw 1 was {recorded}",
                block=0,
            )
        self.made += 1
        view = self.views[made]
        return float(view) if method == "chisquare" else view

    def start(self, fork, sweeps: int) -> None:
        """Start the producer of the next ``sweeps`` sweeps by ``fork``
        (``shares.forking``) on a pipe grown to ``PIPE_BYTES`` where the
        platform lets it; every later call is replayed."""
        # the shape of each call's values; advance draws none
        shapes = [
            None if method == "advance" else () if method == "chisquare"
            else tuple(np.atleast_1d(arg).tolist())
            for method, arg in self.calls
        ]
        sizes = [0 if shape is None else math.prod(shape) for shape in shapes]
        self.buffer, self.made = np.empty(sum(sizes)), len(self.calls)
        self.data = memoryview(self.buffer).cast("B")
        self.views = [
            None if shape is None else self.buffer[start - size : start].reshape(shape)
            for shape, size, start in zip(shapes, sizes, itertools.accumulate(sizes))
        ]
        import fcntl

        read_end, write_end = os.pipe()
        try:
            if hasattr(fcntl, "F_SETPIPE_SZ"):
                with contextlib.suppress(OSError):  # beyond the user's limit: the default size
                    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
            self.child = fork(_produce, self, write_end, read_end, sweeps)
        except BaseException:
            os.close(read_end)
            raise
        finally:
            os.close(write_end)
        self.pipe = open(read_end, "rb", buffering=0)

    def read(self, draw: int) -> None:
        """Load draw ``draw``'s values from the producer, once the draw
        before has made every recorded call.  A producer that exits first
        is an ``OfferLabError``."""
        self.check_made()
        got = 0
        while got < len(self.data):
            count = self.pipe.readinto(self.data[got:])
            if not count:
                self.child.join()
                raise OfferLabError(
                    f"the process drawing the chain's variates exited with code "
                    f"{self.child.exitcode} before sending those of draw {draw}"
                )
            got += count
        self.made, self.draw = 0, draw

    def check_made(self) -> None:
        """Refuse a draw that made fewer calls than draw 1."""
        if self.made != len(self.calls):
            raise EstimationError(
                f"block 0: draw {self.draw} made {self.made} of the {len(self.calls)} "
                "generator calls of draw 1",
                block=0,
            )


def _produce(tape, write_end, read_end, sweeps):
    """A ``_Tape``'s producer, in the forked process: ``sweeps`` times,
    replay the tape's recorded calls on its copy of the generator into its
    buffer, and write the buffer to the pipe ``write_end``."""
    os.close(read_end)
    rng, data = tape.rng, tape.data
    with open(write_end, "wb", buffering=0) as pipe:
        for _ in range(sweeps):
            for (method, arg), view in zip(tape.calls, tape.views):
                if method == "advance":
                    rng.bit_generator.advance(arg)
                elif method == "chisquare":
                    view[...] = rng.chisquare(arg)
                else:
                    getattr(rng, method)(out=view)
            sent = 0
            while sent < len(data):
                sent += pipe.write(data[sent:])


@contextlib.contextmanager
def _sweeps(chain, total_draws: int):
    """A ``sweep(it)`` that runs ``chain.sweep(it)`` for ``it`` = 1, ...,
    ``total_draws`` in turn.

    A chain of one block and one component whose sweep draws at least
    ``DRAW_AHEAD_VALUES`` variates draws ahead when ``shares.can_fork``
    allows a second process: sweep 1 records its generator calls on a
    ``_Tape``, and a forked producer draws every later sweep's values, in
    stream order, while the chain computes.  The draws are those of the
    generator itself.  A stacked chain, or one of several components, whose
    Dirichlet and chi-square parameters follow the counts, draws
    in-process.  The producer is joined on every path."""
    n_blocks, n_params, n = chain.beta.shape
    small = n * (n_params + 1) < DRAW_AHEAD_VALUES
    if n_blocks > 1 or chain.mu.shape[1] > 1 or small or not can_fork():
        yield chain.sweep
        return
    tape = _Tape(chain.rngs[0])
    chain.rngs = [tape]
    try:
        with forking() as fork:

            def sweep(it):
                if it > 1:
                    tape.read(it)
                chain.sweep(it)
                if it == 1:
                    tape.start(fork, total_draws - 1)

            yield sweep
            tape.check_made()
    finally:
        if tape.pipe is not None:
            tape.pipe.close()


def fit_hb_panels(panels, ncomp: int, config: McmcConfig, seeds) -> list[PosteriorDraws]:
    """Run one Metropolis-within-Gibbs chain over a stack of panels (blocks).

    Each panel is the ``(X, y, row_customer, customer_ids, Z)`` of
    ``build_panel``: ``row_customer`` maps each row to a position in
    ``customer_ids`` and ``Z`` holds one covariate row per customer (may be
    None or zero-width).  Every block runs under ``config`` and draws every
    variate from its own generator, seeded from ``seeds[b]``, in the
    per-step order of a one-block fit, so its draws equal those of fitting
    it alone up to rounding.  Returns one PosteriorDraws per block, whose
    config is ``config`` with ``seed=seeds[b]``.  The proposal is refitted
    in burn-in only, so the retained draws come from a fixed-kernel chain.
    """
    blocks = _checked_blocks(panels, ncomp, seeds)
    chain = _Chain(blocks, ncomp, config, seeds)
    n_keep = config.n_retained()
    out_betas = [np.empty((n_keep, n, chain.beta.shape[1])) for n in chain.sizes]
    out_loglik = np.empty((n_keep, len(panels)))
    out_population = [np.empty((n_keep, *array.shape)) for array in chain.population()]
    adapt_every = max(min(25, config.burn_in // 4), 1)
    with _sweeps(chain, config.total_draws) as sweep:
        for it in range(1, config.total_draws + 1):
            sweep(it)
            if it <= config.burn_in and it % adapt_every == 0:
                chain.adapt()
            if it > config.burn_in and (it - config.burn_in) % config.keep == 0:
                kept = (it - config.burn_in) // config.keep - 1
                for b, n in enumerate(chain.sizes):
                    out_betas[b][kept] = chain.beta[b, :, :n].T
                    out_loglik[kept, b] = chain.loglik[b, :n].sum()
                for out, array in zip(out_population, chain.population()):
                    out[kept] = array

    fits = []
    for b, (block, seed, n) in enumerate(zip(blocks, seeds, chain.sizes)):
        rates = chain.accept_counts[b, :n] / config.total_draws
        low, high = float(rates.min()), float(rates.max())
        if low < 0.05 or high > 0.70:
            log.warning(
                "block %d: Metropolis acceptance rates outside (0.05, 0.70): min=%.3f max=%.3f",
                b, low, high,
            )
        weights, means, roots, delta = (np.ascontiguousarray(out[:, b]) for out in out_population)
        fits.append(
            PosteriorDraws(
                customer_ids=block[5].tolist(), betas=out_betas[b], weights=weights, means=means,
                covariances=np.linalg.inv(roots @ np.swapaxes(roots, -1, -2)), delta=delta,
                log_likelihood=np.ascontiguousarray(out_loglik[:, b]), acceptance_rates=rates,
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
    ``fallback_population_mean`` is set (else an UnknownCustomerError).
    ``X`` must be (rows, K) and ``row_customer_ids`` hold one id per row,
    in every mode; other shapes are an InvalidInputError."""
    betas = draws.scored_coefficients(mode)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != draws.n_params:
        raise InvalidInputError(
            f"X has shape {X.shape}; the posterior's coefficients need (rows, {draws.n_params})"
        )
    if np.shape(row_customer_ids) != X.shape[:1]:
        raise InvalidInputError(
            f"row_customer_ids has shape {np.shape(row_customer_ids)}; "
            f"the {len(X)} rows of X need {X.shape[:1]}"
        )
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
