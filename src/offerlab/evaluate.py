"""Predictive-accuracy toolkit: AUC, thresholded accuracy, lift curves,
the DeLong correlated-ROC test, and cross-validated mixture-size tuning."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .datasets import (
    KFOLD_BY_OCCASION,
    ResamplingScheme,
    split_kfold_by_occasion,
    split_per_customer_holdout,
)
from .errors import DegenerateInputError, EstimationError, InvalidInputError, OfferLabError
from .hb import DRAW_AVERAGED, McmcConfig, build_panel, fit_hb_panels, predict_panel_probabilities
from .storage import derive_seed


@dataclass(frozen=True)
class ScoredLabels:
    """Aligned score and binary-label vectors."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        labels = np.asarray(self.labels)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels.astype(int))
        if scores.ndim != 1 or scores.shape != labels.shape or scores.size == 0:
            raise InvalidInputError("scores and labels must be equal-length non-empty vectors")
        if not np.all(np.isin(self.labels, (0, 1))):
            raise InvalidInputError("labels must be 0/1")
        bad = np.flatnonzero(~np.isfinite(scores))
        if bad.size:
            raise InvalidInputError(
                f"{bad.size} score(s) not finite, the first at index {int(bad[0])}"
            )

    @property
    def n_positive(self) -> int:
        return int(self.labels.sum())

    @property
    def n_negative(self) -> int:
        return int(len(self.labels) - self.labels.sum())


def _placement_counts(scores: np.ndarray, labels: np.ndarray):
    """DeLong placement counts, exact half-integers: per positive, the
    negatives scored below it; per negative, the positives scored above it;
    ties count one half.  Divided by the other class's size they are the
    placement values V10 and V01."""
    pos, neg = scores[labels == 1], scores[labels == 0]

    def below(x, others):
        others = np.sort(others)
        return 0.5 * (np.searchsorted(others, x, "left") + np.searchsorted(others, x, "right"))

    return below(pos, neg), len(pos) - below(neg, pos)


def auc(data: ScoredLabels) -> float:
    """Mann-Whitney AUC: share of (positive, negative) pairs ranked
    correctly, ties counted one half."""
    n_pos, n_neg = data.n_positive, data.n_negative
    if n_pos == 0 or n_neg == 0:
        raise DegenerateInputError("AUC undefined without both classes")
    positive_counts, _ = _placement_counts(data.scores, data.labels)
    return float(positive_counts.sum()) / (n_pos * n_neg)


def accuracy_at_base_rate(data: ScoredLabels, base_rate: float) -> float:
    """Share of rows where (score > base_rate) matches the label."""
    if not 0.0 < base_rate < 1.0:
        raise InvalidInputError(f"base_rate must lie strictly in (0, 1), got {base_rate!r}")
    predicted = data.scores > base_rate
    return float(np.mean(predicted == (data.labels == 1)))


def lift_curve(data: ScoredLabels, granularity: int = 100):
    """Cumulative capture of positives within the top-scored fraction.

    Rows are sorted by descending score (stable; ties keep original order).
    Returns (fraction, capture) points including (0, 0) and (1, 1).
    """
    if granularity < 1:
        raise InvalidInputError("granularity must be >= 1")
    total = data.n_positive
    if total == 0:
        raise DegenerateInputError("lift curve undefined without positive labels")
    order = np.argsort(-data.scores, kind="mergesort")
    captured = np.concatenate([[0], np.cumsum(data.labels[order])])  # [k]: in the top k rows
    steps = np.arange(granularity + 1)
    top = np.round(steps * len(order) / granularity).astype(int)
    return list(zip((steps / granularity).tolist(), (captured[top] / total).tolist()))


@dataclass(frozen=True)
class DelongResult:
    auc_a: float
    auc_b: float
    z: float
    p_value: float


def delong_test(scores_a, scores_b, labels) -> DelongResult:
    """Paired test of two correlated ROC curves via placement values.

    Returns the two AUCs, the z statistic, and the two-sided normal p-value.
    Identical score vectors give z = 0, p = 1 by convention.
    """
    a = ScoredLabels(scores_a, labels)
    b = ScoredLabels(scores_b, labels)
    n_pos, n_neg = a.n_positive, a.n_negative
    if n_pos == 0 or n_neg == 0:
        raise DegenerateInputError("DeLong test undefined without both classes")

    c10_a, c01_a = _placement_counts(a.scores, a.labels)
    c10_b, c01_b = _placement_counts(b.scores, b.labels)
    auc_a, auc_b = auc(a), auc(b)
    diff = auc_a - auc_b

    def _cov(u, v):
        if len(u) < 2:
            return np.zeros((2, 2))
        return np.cov(np.stack([u, v]), ddof=1)

    s10 = _cov(c10_a / n_neg, c10_b / n_neg)
    s01 = _cov(c01_a / n_pos, c01_b / n_pos)
    variance = (s10[0, 0] + s10[1, 1] - 2 * s10[0, 1]) / n_pos + (
        s01[0, 0] + s01[1, 1] - 2 * s01[0, 1]
    ) / n_neg
    if variance <= 0.0:
        if abs(diff) < 1e-12:
            return DelongResult(auc_a, auc_b, 0.0, 1.0)
        raise DegenerateInputError("zero variance with unequal AUCs")
    z = diff / math.sqrt(variance)
    p = max(math.erfc(abs(z) / math.sqrt(2.0)), 5e-324)
    return DelongResult(auc_a, auc_b, z, p)


# ---------------------------------------------------------------------------
# Hyperparameter tuning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TuningRow:
    ncomp: int
    mean_auc: float
    mean_accuracy: float


@dataclass
class TuningReport:
    rows: list = field(default_factory=list)
    selected_ncomp: int = 1


class _Cell(NamedTuple):
    """One resampling cell: its training panel (``build_panel``), its
    validation offers and its chain seed."""

    repeat: int
    fold: int
    panel: tuple
    validation: object
    seed: int


def _scored_candidate(cells, ncomp, config):
    """Fit every cell as one stacked chain and score each cell's validation
    rows; returns one (AUC, accuracy) pair per cell.  The cells' draws are
    freed when this returns."""
    try:
        fits = fit_hb_panels([cell.panel for cell in cells], ncomp, config, [c.seed for c in cells])
    except EstimationError as exc:
        cell = cells[exc.block]
        raise EstimationError(
            f"ncomp {ncomp}, repeat {cell.repeat}, fold {cell.fold}: {exc}"
        ) from exc
    scored = []
    for draws, cell in zip(fits, cells):
        # occasions whose customer lost all training data fall back to the
        # population mean rather than erroring
        scores = predict_panel_probabilities(
            draws,
            cell.validation.X,
            cell.validation.customer_id,
            mode=DRAW_AVERAGED,
            fallback_population_mean=True,
        )
        base_rate = float(np.mean(cell.panel[1]))
        data = ScoredLabels(scores, cell.validation.labels())
        cell_accuracy = (
            accuracy_at_base_rate(data, base_rate) if 0.0 < base_rate < 1.0 else float("nan")
        )
        scored.append((auc(data), cell_accuracy))
    return scored


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _scored_share(cells, share, config):
    """``(ncomp, pairs)`` per candidate of ``share`` in ascending order,
    ending at the first failing candidate with ``(ncomp, error)``."""
    scored = []
    for ncomp in share:
        try:
            scored.append((ncomp, _scored_candidate(cells, ncomp, config)))
        except Exception as exc:
            scored.append((ncomp, exc))
            break
    return scored


def _send_share(sender, cells, share, config):
    sender.send(_scored_share(cells, share, config))


def tune_ncomp(
    offers,
    covariates,
    candidates,
    scheme: ResamplingScheme,
    config: McmcConfig,
) -> TuningReport:
    """Cross-validated selection of the mixture component count.

    Every candidate is evaluated on the same resampling cells (splits and
    per-cell chain seeds are derived from the config seed independently of
    the candidate, so candidate comparisons share their randomness); the
    candidate with the highest mean validation AUC wins, ties going to the
    smallest candidate.  For each candidate, every cell of every repeat is
    fitted as one block of one stacked chain (``fit_hb_panels``), each on
    its own random stream, and its draws are scored and freed when that
    chain ends.

    The chains share no state, so the candidates are split into one share
    per usable CPU: largest ``ncomp`` first, each to the share with the
    smallest sum of ``ncomp``.  The caller scores the first share; each
    other share runs in a forked process that sends back its (AUC,
    accuracy) pairs, and writes its own warnings to stderr.  With one CPU
    or candidate, or without ``fork``, the caller scores every candidate.
    The report is the same for any number of shares, and so is the error:
    each share stops at its first failing candidate, and the error of the
    smallest failing candidate is raised once every share has finished.
    """
    candidates = sorted(set(int(c) for c in candidates))
    if not candidates:
        raise InvalidInputError("candidates must be non-empty")
    keys = (offers.customer_id, offers.occasion)

    cells = []
    for repeat in range(scheme.repeats):
        split_seed = derive_seed(config.seed, 7001, repeat)
        if scheme.kind == KFOLD_BY_OCCASION:
            splits = split_kfold_by_occasion(*keys, scheme.folds, split_seed)
        else:
            splits = [split_per_customer_holdout(*keys, split_seed)]
        for fold, (train, validation) in enumerate(splits):
            validation = offers.take(validation)
            # AUC needs both outcome classes in a cell's validation rows; a
            # cell's usability depends only on the split, so every candidate
            # skips the same cells
            if len(np.unique(validation.labels())) == 2:
                panel = build_panel(offers.take(train), covariates)
                seed = derive_seed(config.seed, 7013, repeat, fold)
                cells.append(_Cell(repeat, fold, panel, validation, seed))
    if not cells:
        raise InvalidInputError("resampling produced no usable validation cells")

    import multiprocessing

    forks = "fork" in multiprocessing.get_all_start_methods()
    shares = [[] for _ in range(min(len(candidates), _usable_cpus()) if forks else 1)]
    for ncomp in reversed(candidates):
        min(shares, key=sum).insert(0, ncomp)
    children, received = [], 0
    try:
        for share in shares[1:]:
            receiver, sender = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.get_context("fork").Process(
                target=_send_share, args=(sender, cells, share, config)
            )
            child.start()
            sender.close()
            children.append((share, receiver, child))
        scored = _scored_share(cells, shares[0], config)
        for share, receiver, child in children:
            try:
                scored += receiver.recv()
            except EOFError:
                child.join()
                raise OfferLabError(
                    f"the process tuning ncomp {share} exited with code {child.exitcode} "
                    "before sending a result"
                ) from None
            received += 1
    finally:
        for *_, child in children[received:]:
            child.terminate()
        for _, receiver, child in children:
            child.join()
            receiver.close()
    scored = dict(scored)
    failed = [c for c in candidates if isinstance(scored.get(c), Exception)]
    if failed:
        raise scored[failed[0]]

    rows = []
    for ncomp in candidates:
        aucs, accuracies = zip(*scored[ncomp])
        rows.append(
            TuningRow(
                ncomp=ncomp,
                mean_auc=float(np.mean(aucs)),
                mean_accuracy=float(np.nanmean(accuracies)),
            )
        )
    return TuningReport(rows=rows, selected_ncomp=select_ncomp(rows))


def select_ncomp(rows) -> int:
    """Highest mean AUC wins; exact ties go to the smallest candidate."""
    best = max(rows, key=lambda r: r.mean_auc)
    return min(r.ncomp for r in rows if r.mean_auc == best.mean_auc)
