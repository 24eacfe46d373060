"""Predictive-accuracy toolkit: AUC, thresholded accuracy, lift curves,
the DeLong correlated-ROC test, and cross-validated mixture-size tuning."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
from .shares import scored_in_shares
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

    The chains share no state, so ``shares.scored_in_shares`` scores the
    candidates on every usable CPU, each weighing its ``ncomp``: the
    caller scores one share and a forked process each other share, which
    sends back its (AUC, accuracy) pairs and writes its own warnings to
    stderr.  The report is the same for any number of shares, and so is
    the error: the smallest failing candidate's, raised once every share
    has finished.
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

    scored = scored_in_shares(
        candidates,
        lambda ncomp: _scored_candidate(cells, ncomp, config),
        "tuning ncomp",
        weight=lambda ncomp: ncomp,
    )

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
