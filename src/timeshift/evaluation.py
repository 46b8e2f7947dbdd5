"""
Class balancing, leave-one-out cross-validation, direction/magnitude
classification, metric reports and the rule-based baselines' metric rows.

Direction is read off the predicted probability of decrease at 0.5; the
magnitude bands interpret an extreme probability (beyond 0.4/0.6) as a large
change and a probability near 0.5 as a small one, mirrored against the actual
change thresholded at +/-5 seconds. Every boundary value falls into the less
extreme class.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import Dataset, Direction, MagnitudeLevel
from .errors import (
    FoldSingleClassError,
    LengthMismatchError,
    NonConvergenceWarning,
    SingleClassError,
    TooFewSamplesError,
)
from .features import build_features, fit_scaler, transform
from .logistic import fit, labels_to_array, predict_proba
from .simulator import arousal_baseline, attention_baseline

# Row/column order of the 3x3 magnitude confusion matrix.
MAGNITUDE_ORDER = (
    MagnitudeLevel.HIGH_INCREASE,
    MagnitudeLevel.SMALL_CHANGE,
    MagnitudeLevel.HIGH_DECREASE,
)


@dataclass(frozen=True)
class Thresholds:
    """Probability bands and the small-change half-width in seconds."""

    prob_low: float = 0.4
    prob_high: float = 0.6
    delta_small: float = 5.0

    def __post_init__(self):
        if not 0.0 < self.prob_low < 0.5 < self.prob_high < 1.0:
            raise ValueError(
                "thresholds must satisfy 0 < prob_low < 0.5 < prob_high < 1"
            )
        if self.delta_small <= 0:
            raise ValueError("delta_small must be > 0")


DEFAULT_THRESHOLDS = Thresholds()


def classify_direction(p: float) -> Direction:
    """Decrease iff the probability of decrease exceeds 0.5 (0.5 -> increase)."""
    return Direction.DECREASE if p > 0.5 else Direction.INCREASE


def classify_predicted_magnitude(
    p: float, thresholds: Thresholds = DEFAULT_THRESHOLDS
) -> MagnitudeLevel:
    """Band the predicted probability; boundary values stay in the middle band."""
    if p > thresholds.prob_high:
        return MagnitudeLevel.HIGH_DECREASE
    if p < thresholds.prob_low:
        return MagnitudeLevel.HIGH_INCREASE
    return MagnitudeLevel.SMALL_CHANGE


def classify_actual_magnitude(
    delta_t: float, thresholds: Thresholds = DEFAULT_THRESHOLDS
) -> MagnitudeLevel:
    """Band the actual change; |delta_t| equal to the bound is a small change."""
    if delta_t > thresholds.delta_small:
        return MagnitudeLevel.HIGH_INCREASE
    if delta_t < -thresholds.delta_small:
        return MagnitudeLevel.HIGH_DECREASE
    return MagnitudeLevel.SMALL_CHANGE


@dataclass(frozen=True)
class PredictionOutcome:
    """Probability of decrease with its direction and magnitude readings."""

    probability_of_decrease: float
    direction: Direction
    predicted_magnitude: MagnitudeLevel

    @classmethod
    def from_probability(
        cls, p: float, thresholds: Thresholds = DEFAULT_THRESHOLDS
    ) -> "PredictionOutcome":
        # a certain fold (|logit| above ~37) rounds to exactly 0.0 or 1.0
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must lie in [0, 1], got {p}")
        return cls(
            probability_of_decrease=p,
            direction=classify_direction(p),
            predicted_magnitude=classify_predicted_magnitude(p, thresholds),
        )


@dataclass(frozen=True)
class MetricsReport:
    """
    Precision/recall are for the decrease class; f1 is their harmonic mean.
    confusion is the 2x2 count ((tp, fn), (fp, tn)) of confusion_2x2.
    """

    precision: float
    recall: float
    accuracy: float
    f1: float
    n: int
    confusion: tuple[tuple[int, int], tuple[int, int]]
    undefined_precision: bool = False


def balanced_indices(labels: Sequence[Direction], seed: int) -> np.ndarray:
    """
    Ascending row indices that downsample the majority class to exact balance.

    Sampling is uniform without replacement and deterministic per seed; every
    minority row is kept.

    Raises:
        SingleClassError: only one direction class is present.
    """
    y = labels_to_array(labels)
    dec_idx, inc_idx = np.flatnonzero(y == 1.0), np.flatnonzero(y == 0.0)
    if not len(dec_idx) or not len(inc_idx):
        raise SingleClassError("undersampling requires both classes")
    minority, majority = sorted([dec_idx, inc_idx], key=len)
    rng = np.random.default_rng(seed)
    kept_majority = rng.choice(len(majority), size=len(minority), replace=False)
    return np.sort(np.concatenate([minority, majority[kept_majority]]))


def undersample(dataset: Dataset, seed: int) -> Dataset:
    """
    Randomly downsample the majority class to exact balance (balanced_indices);
    the surviving samples keep their original order.
    """
    return Dataset(
        samples=tuple(
            dataset.samples[i] for i in balanced_indices(dataset.labels(), seed)
        ),
        provenance=dataset.provenance,
    )


def metrics(
    predictions: Sequence[Direction], actual: Sequence[Direction]
) -> MetricsReport:
    """
    Precision, recall, accuracy and f1 with the decrease class as positive.

    A degenerate predictor that never predicts the positive class gets
    precision 0 with undefined_precision=True instead of an error.

    Raises:
        LengthMismatchError: sequences differ in length.
        ValueError: empty input.
    """
    if len(predictions) != len(actual):
        raise LengthMismatchError(
            f"{len(predictions)} predictions vs {len(actual)} actual labels"
        )
    if not predictions:
        raise ValueError("cannot compute metrics on empty input")
    confusion = confusion_2x2(predictions, actual)
    (tp, fn), (fp, tn) = confusion
    undefined = (tp + fp) == 0
    precision = 0.0 if undefined else tp / (tp + fp)
    recall = 0.0 if (tp + fn) == 0 else tp / (tp + fn)
    f1 = 0.0 if (precision + recall) == 0 else 2 * precision * recall / (precision + recall)
    return MetricsReport(
        precision=precision,
        recall=recall,
        accuracy=(tp + tn) / len(predictions),
        f1=f1,
        n=len(predictions),
        confusion=confusion,
        undefined_precision=undefined,
    )


def confusion_2x2(
    predictions: Sequence[Direction], actual: Sequence[Direction]
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Rows = actual (decrease, increase), columns = predicted (decrease, increase)."""
    order = (Direction.DECREASE, Direction.INCREASE)
    counts = [[0, 0], [0, 0]]
    for p, a in zip(predictions, actual):
        counts[order.index(a)][order.index(p)] += 1
    return tuple(tuple(row) for row in counts)


# ---------------------------------------------------------------------------
# Leave-one-out cross-validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoocvResult:
    """
    Per-sample outcomes in sample order, their metrics, and the number of
    fold models whose fit stopped at the iteration cap.
    """

    outcomes: tuple[PredictionOutcome, ...]
    metrics: MetricsReport
    nonconverged: int


def loocv(
    dataset: Dataset,
    C: float = 12.06,
    seed: int = 0,
    target_s: float = 30.0,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> LoocvResult:
    """
    Leave-one-out cross-validation.

    Each sample is predicted by a scaler and model fitted on the other n-1
    samples only, so the held-out sample never leaks into standardization or
    training. Outcomes are ordered by sample index, independent of any
    execution order. A fold model that does not converge is still used; the
    folds' NonConvergenceWarnings are silenced and counted in nonconverged.

    Raises:
        TooFewSamplesError: fewer than 10 samples.
        FoldSingleClassError: some training fold loses one class entirely.
    """
    n = len(dataset)
    if n < 10:
        raise TooFewSamplesError(f"LOOCV needs >= 10 samples, got {n}")
    X = build_features(dataset.samples, target_s)
    y = labels_to_array(dataset.labels())

    outcomes = []
    nonconverged = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonConvergenceWarning)
        for i in range(n):
            mask = np.ones(n, dtype=bool)
            mask[i] = False
            y_train = y[mask]
            if y_train.min() == y_train.max():
                raise FoldSingleClassError(i)
            scaler = fit_scaler(X[mask])
            model = fit(transform(X[mask], scaler), y_train, C=C, seed=seed)
            nonconverged += not model.converged
            p = predict_proba(model, transform(X[i], scaler))
            outcomes.append(PredictionOutcome.from_probability(float(p), thresholds))

    report = metrics([o.direction for o in outcomes], dataset.labels())
    return LoocvResult(outcomes=tuple(outcomes), metrics=report, nonconverged=nonconverged)


# ---------------------------------------------------------------------------
# Magnitude analysis and rule-based baselines
# ---------------------------------------------------------------------------

def magnitude_confusion(
    outcomes: Sequence[PredictionOutcome],
    deltas: Sequence[float],
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> tuple[tuple[tuple[int, int, int], ...], dict[str, tuple[int, float]]]:
    """
    Cross-tabulate actual versus predicted magnitude bands.

    Returns the 3x3 counts (rows = actual, columns = predicted, both in
    MAGNITUDE_ORDER) and the five headline cells: the three diagonal hits and
    the two extreme misses (predicted one extreme, actual the other), each as
    (count, share of the predicted-class column total), i.e. "when the model
    says high increase, how often is that right".

    Raises:
        LengthMismatchError: outcomes and deltas differ in length.
    """
    if len(outcomes) != len(deltas):
        raise LengthMismatchError(f"{len(outcomes)} outcomes vs {len(deltas)} deltas")
    counts = [[0, 0, 0] for _ in range(3)]
    for outcome, delta in zip(outcomes, deltas):
        row = MAGNITUDE_ORDER.index(classify_actual_magnitude(delta, thresholds))
        col = MAGNITUDE_ORDER.index(outcome.predicted_magnitude)
        counts[row][col] += 1

    def cell(row: int, col: int) -> tuple[int, float]:
        column_total = sum(r[col] for r in counts)
        share = counts[row][col] / column_total if column_total else 0.0
        return counts[row][col], share

    five_cells = {
        "high_increase_hit": cell(0, 0),
        "small_change_hit": cell(1, 1),
        "high_decrease_hit": cell(2, 2),
        "high_increase_extreme_miss": cell(2, 0),  # said increase, fell hard
        "high_decrease_extreme_miss": cell(0, 2),  # said decrease, rose hard
    }
    return tuple(tuple(row) for row in counts), five_cells


def baseline_rows(dataset: Dataset) -> tuple[tuple[str, MetricsReport], ...]:
    """Metric rows of the attention and arousal rules, in that order."""
    actual = dataset.labels()
    transitions = [(s.prev.engagement, s.next.engagement) for s in dataset.samples]
    return tuple(
        (name, metrics([rule(prev, nxt) for prev, nxt in transitions], actual))
        for name, rule in (("attention", attention_baseline), ("arousal", arousal_baseline))
    )
