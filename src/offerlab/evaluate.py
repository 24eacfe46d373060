"""Predictive-accuracy toolkit: AUC, thresholded accuracy, lift curves,
the DeLong correlated-ROC test, and cross-validated mixture-size tuning."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .datasets import (
    KFOLD_BY_OCCASION,
    ResamplingScheme,
    split_kfold_by_occasion,
    split_per_customer_holdout,
)
from .errors import DegenerateInputError, EstimationError, InvalidInputError
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


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing the average rank of their run."""
    order = np.argsort(x, kind="mergesort")
    sx = x[order]
    boundaries = np.r_[True, sx[1:] != sx[:-1]]
    run_id = np.cumsum(boundaries) - 1
    counts = np.bincount(run_id)
    start = np.r_[0, np.cumsum(counts)[:-1]]
    avg = start + (counts - 1) / 2.0 + 1.0
    ranks = np.empty(len(x))
    ranks[order] = avg[run_id]
    return ranks


def auc(data: ScoredLabels) -> float:
    """Mann-Whitney AUC: share of (positive, negative) pairs ranked
    correctly, ties counted one half."""
    n_pos, n_neg = data.n_positive, data.n_negative
    if n_pos == 0 or n_neg == 0:
        raise DegenerateInputError("AUC undefined without both classes")
    ranks = _average_ranks(data.scores)
    pos_rank_sum = float(ranks[data.labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


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


def capture_at(points, fraction: float) -> float:
    """Capture value of the lift point nearest the requested fraction."""
    return min(points, key=lambda p: abs(p[0] - fraction))[1]


def _placement_values(scores: np.ndarray, labels: np.ndarray):
    """DeLong placement values (V10 per positive, V01 per negative)."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    neg_sorted = np.sort(neg)
    less = np.searchsorted(neg_sorted, pos, side="left")
    upto = np.searchsorted(neg_sorted, pos, side="right")
    v10 = (less + 0.5 * (upto - less)) / len(neg)
    pos_sorted = np.sort(pos)
    below = np.searchsorted(pos_sorted, neg, side="left")
    upto = np.searchsorted(pos_sorted, neg, side="right")
    greater = len(pos) - upto
    v01 = (greater + 0.5 * (upto - below)) / len(pos)
    return v10, v01


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

    v10_a, v01_a = _placement_values(a.scores, a.labels)
    v10_b, v01_b = _placement_values(b.scores, b.labels)
    auc_a = float(v10_a.mean())
    auc_b = float(v10_b.mean())
    diff = auc_a - auc_b

    def _cov(u, v):
        if len(u) < 2:
            return np.zeros((2, 2))
        return np.cov(np.stack([u, v]), ddof=1)

    s10 = _cov(v10_a, v10_b)
    s01 = _cov(v01_a, v01_b)
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


def _scored_repeat(cells, ncomp, config):
    """Fit one repeat's cells as one stacked chain and score each cell's
    validation rows; returns one (AUC, accuracy) pair per cell.  The
    cells' draws are freed when this returns."""
    try:
        fits = fit_hb_panels(
            [cell.panel for cell in cells],
            ncomp,
            [replace(config, seed=cell.seed) for cell in cells],
        )
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
    smallest candidate.  For each candidate, the cells of one repeat are
    fitted as one stacked chain (``fit_hb_panels``), each cell on its own
    random stream, and scored before the next repeat's chain starts.
    """
    candidates = sorted(set(int(c) for c in candidates))
    if not candidates:
        raise InvalidInputError("candidates must be non-empty")
    scheme.validate()
    keys = (offers.customer_id, offers.occasion)

    cells = []  # (repeat, fold, training offers, validation offers, cell_seed)
    for repeat in range(scheme.repeats):
        split_seed = derive_seed(config.seed, 7001, repeat)
        if scheme.kind == KFOLD_BY_OCCASION:
            splits = split_kfold_by_occasion(*keys, scheme.folds, split_seed)
        else:
            splits = [split_per_customer_holdout(*keys, split_seed)]
        for fold, (train, validation) in enumerate(splits):
            seed = derive_seed(config.seed, 7013, repeat, fold)
            cells.append((repeat, fold, offers.take(train), offers.take(validation), seed))
    # AUC needs both outcome classes in a cell's validation rows; a cell's
    # usability depends only on the split, so every candidate skips the
    # same cells
    cells = [
        _Cell(repeat, fold, build_panel(train, covariates), validation, seed)
        for repeat, fold, train, validation, seed in cells
        if len(np.unique(validation.labels())) == 2
    ]
    if not cells:
        raise InvalidInputError("resampling produced no usable validation cells")
    repeats = [[cell for cell in cells if cell.repeat == r] for r in range(scheme.repeats)]
    repeats = [group for group in repeats if group]

    rows = []
    for ncomp in candidates:
        scored = []
        for group in repeats:
            scored += _scored_repeat(group, ncomp, config)
        aucs, accuracies = zip(*scored)
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
