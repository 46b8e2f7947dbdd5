"""
Class balancing, leave-one-out cross-validation, direction/magnitude
classification, metric reports and the rule-based baselines' metric rows.

Direction is read off the predicted probability of decrease at 0.5; the
magnitude bands interpret an extreme probability (beyond 0.4/0.6) as a large
change and a probability near 0.5 as a small one, mirrored against the actual
change thresholded at +/-5 seconds. Every boundary value falls into the less
extreme class. Whole columns are banded at once: a band is an integer code
into MAGNITUDE_ORDER, and predictions and labels are boolean decrease masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import (
    Direction, EngagementLevel, MagnitudeLevel, TrialTable, check_fields, pair_deltas,
)
from .errors import (
    FoldSingleClassError,
    SingleClassError,
    TooFewSamplesError,
)
from .logistic import PINNED_C, fit_folds, labels_to_array
from .simulator import arousal_baseline, attention_baseline

# Row/column order of the 3x3 magnitude confusion matrix; a band code indexes
# it and its CSV words.
MAGNITUDE_ORDER = (
    MagnitudeLevel.HIGH_INCREASE,
    MagnitudeLevel.SMALL_CHANGE,
    MagnitudeLevel.HIGH_DECREASE,
)
MAGNITUDE_WORDS = np.array([level.value for level in MAGNITUDE_ORDER])


@dataclass(frozen=True)
class Thresholds:
    """Probability bands and the small-change half-width in seconds."""

    prob_low: float = 0.4
    prob_high: float = 0.6
    delta_small: float = field(default=5.0, metadata={"above": 0})

    def __post_init__(self):
        check_fields(self)
        if not 0.0 < self.prob_low < 0.5 < self.prob_high < 1.0:
            raise ValueError(
                "thresholds must satisfy 0 < prob_low < 0.5 < prob_high < 1"
            )


DEFAULT_THRESHOLDS = Thresholds()


def _bands(x, low, high):
    """Band code of each value: 0 below low, 2 above high, 1 from low to high."""
    return 1 + (x > high) - (x < low)


def predicted_bands(p, thresholds: Thresholds = DEFAULT_THRESHOLDS):
    """Band codes of probabilities of decrease; a boundary value stays in the middle band."""
    return _bands(p, thresholds.prob_low, thresholds.prob_high)


def actual_bands(delta_t, thresholds: Thresholds = DEFAULT_THRESHOLDS):
    """
    Band codes of actual changes, banded as -delta_t so that a large drop is
    HIGH_DECREASE; |delta_t| equal to the bound is a small change.
    """
    return _bands(np.negative(delta_t), -thresholds.delta_small, thresholds.delta_small)


def classify_direction(p: float) -> Direction:
    """Decrease iff the probability of decrease exceeds 0.5 (0.5 -> increase)."""
    return Direction.DECREASE if p > 0.5 else Direction.INCREASE


def classify_predicted_magnitude(p: float, thresholds: Thresholds = DEFAULT_THRESHOLDS):
    """The MagnitudeLevel of one probability of decrease."""
    return MAGNITUDE_ORDER[predicted_bands(p, thresholds)]


def classify_actual_magnitude(delta_t: float, thresholds: Thresholds = DEFAULT_THRESHOLDS):
    """The MagnitudeLevel of one actual change in seconds."""
    return MAGNITUDE_ORDER[actual_bands(delta_t, thresholds)]


@dataclass(frozen=True)
class MetricsReport:
    """
    Precision/recall are for the decrease class. confusion is the 2x2 count
    ((tp, fn), (fp, tn)): rows actual, columns predicted, decrease first.
    """

    precision: float
    recall: float
    accuracy: float
    confusion: tuple[tuple[int, int], tuple[int, int]]


def balanced_indices(labels, seed: int) -> np.ndarray:
    """
    Ascending row indices that downsample the majority class to exact balance;
    labels are read by labels_to_array (bool or 0/1).

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


def metrics(predictions, actual) -> MetricsReport:
    """
    Precision, recall and accuracy with the decrease class as positive.
    Both label sequences are read by labels_to_array (bool or 0/1).

    A degenerate predictor that never predicts the positive class gets
    precision 0 instead of an error.

    Raises:
        ValueError: the sequences differ in length or are empty.
    """
    if len(predictions) != len(actual):
        raise ValueError(f"{len(predictions)} predictions vs {len(actual)} actual labels")
    if not len(predictions):
        raise ValueError("cannot compute metrics on empty input")
    predicted = labels_to_array(predictions) == 1.0
    observed = labels_to_array(actual) == 1.0
    confusion = tuple(
        tuple(int(np.count_nonzero(a & p)) for p in (predicted, ~predicted))
        for a in (observed, ~observed)
    )
    (tp, fn), (fp, tn) = confusion
    return MetricsReport(
        precision=0.0 if (tp + fp) == 0 else tp / (tp + fp),
        recall=0.0 if (tp + fn) == 0 else tp / (tp + fn),
        accuracy=(tp + tn) / len(predictions),
        confusion=confusion,
    )


# ---------------------------------------------------------------------------
# Leave-one-out cross-validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoocvResult:
    """
    Each fold's predicted decrease (probability > 0.5), probability and Newton
    steps as arrays in sample order, and the metrics of the predictions.
    nonconverged counts the folds whose solve stopped at the iteration cap and
    constant_fold_columns the folds with a column constant within them.
    """

    outcomes: np.ndarray
    metrics: MetricsReport
    nonconverged: int
    probabilities: np.ndarray
    n_iter: np.ndarray
    constant_fold_columns: int


def loocv(X: np.ndarray, y, C: float = PINNED_C) -> LoocvResult:
    """
    Exact leave-one-out cross-validation of the (n, 5) raw feature matrix X
    with labels y (as labels_to_array reads them).

    Each sample is predicted by a scaler and model fitted on the other n-1
    samples only, so the held-out sample never leaks into standardization or
    training. fit_folds owns the folds: it builds each fold's scaler and
    solves all folds together, each from its group's start (which its
    held-out label cannot reach) to fit's gradient tolerance in its own
    coordinates. A column constant within a fold keeps weight 0 in that
    fold's model instead of failing the run, and the fold is counted in
    constant_fold_columns. A fold that does not converge is still used and
    counted in nonconverged.

    Raises:
        TooFewSamplesError: fewer than 10 samples.
        SingleClassError: only one class is present.
        FoldSingleClassError: some training fold loses one class entirely.
        NonFiniteFeatureError: a column's mean or std overflows.
        ValueError: a fold's probability lies outside [0, 1].
    """
    X = np.asarray(X, dtype=float)
    y = labels_to_array(y)
    n = len(y)
    if n < 10:
        raise TooFewSamplesError(f"LOOCV needs >= 10 samples, got {n}")
    for members in (np.flatnonzero(y == 1.0), np.flatnonzero(y == 0.0)):
        if not len(members):
            raise SingleClassError("LOOCV requires both classes")
        if len(members) == 1:  # the fold without its one member is single-class
            raise FoldSingleClassError(f"training fold {members[0]} contains a single class")

    probabilities, n_iter, converged, fixed = fit_folds(X, y, C)
    # a certain fold (|logit| above ~37) rounds to exactly 0.0 or 1.0
    outside = probabilities[~((probabilities >= 0.0) & (probabilities <= 1.0))]
    if outside.size:
        raise ValueError(f"probability must lie in [0, 1], got {outside[0]}")
    decrease = probabilities > 0.5
    return LoocvResult(
        outcomes=decrease,
        metrics=metrics(decrease, y),
        nonconverged=int(np.count_nonzero(~converged)),
        probabilities=probabilities,
        n_iter=n_iter,
        constant_fold_columns=int(np.count_nonzero(fixed)),
    )


# ---------------------------------------------------------------------------
# Magnitude analysis and rule-based baselines
# ---------------------------------------------------------------------------

def magnitude_confusion(
    probabilities,
    deltas,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
) -> tuple[tuple[tuple[int, int, int], ...], dict[str, tuple[int, float]]]:
    """
    Cross-tabulate actual versus predicted magnitude bands of aligned
    probabilities of decrease and actual changes.

    Returns the 3x3 counts (rows = actual, columns = predicted, both in
    MAGNITUDE_ORDER) and the five headline cells: the three diagonal hits and
    the two extreme misses (predicted one extreme, actual the other), each as
    (count, share of the predicted-class column total), i.e. "when the model
    says high increase, how often is that right".

    Raises:
        ValueError: probabilities and deltas differ in length.
    """
    probabilities = np.asarray(probabilities, dtype=float)
    deltas = np.asarray(deltas, dtype=float)
    if len(probabilities) != len(deltas):
        raise ValueError(f"{len(probabilities)} probabilities vs {len(deltas)} deltas")
    cells = 3 * actual_bands(deltas, thresholds) + predicted_bands(probabilities, thresholds)
    table = np.bincount(cells, minlength=9).reshape(3, 3)
    counts, column_totals = table.tolist(), table.sum(axis=0).tolist()

    def cell(row: int, col: int) -> tuple[int, float]:
        share = counts[row][col] / column_totals[col] if column_totals[col] else 0.0
        return counts[row][col], share

    five_cells = {
        "high_increase_hit": cell(0, 0),
        "small_change_hit": cell(1, 1),
        "high_decrease_hit": cell(2, 2),
        "high_increase_extreme_miss": cell(2, 0),  # said increase, fell hard
        "high_decrease_extreme_miss": cell(0, 2),  # said decrease, rose hard
    }
    return tuple(tuple(row) for row in counts), five_cells


def baseline_rows(trials: TrialTable, pairs: np.ndarray) -> tuple[tuple[str, MetricsReport], ...]:
    """Metric rows of the attention and arousal rules on the pairs, in that order."""
    prev, nxt = trials.level[pairs[:, 0]], trials.level[pairs[:, 1]]
    actual = pair_deltas(trials, pairs) < 0
    # each rule's decrease call on the nine transitions, looked up per pair
    tables = [
        (name, np.array([
            [rule(p, q) == Direction.DECREASE for q in EngagementLevel] for p in EngagementLevel
        ]))
        for name, rule in (("attention", attention_baseline), ("arousal", arousal_baseline))
    ]
    return tuple((name, metrics(table[prev, nxt], actual)) for name, table in tables)
