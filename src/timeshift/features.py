"""
Derivation of the five model features from trial pairs, plus z-scoring.

Feature order is fixed everywhere in the package:

    0  t1_rel_error                relative production error of the previous
                                   trial, in percent of the target interval
    1  t1_lower_than_30            previous self-evaluation: reported stopping
                                   before the target (1) or not (0)
    2  high_visual_sensitivity     reported a low-engagement stimulus as
                                   highly engaging (1) or not (0)
    3  v2_engagement_level         engagement level of the upcoming trial
    4  change_in_engagement_level  lower (0), same (1) or higher (2) upcoming
                                   engagement relative to the previous trial
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (
    DEFAULT_TARGET_S,
    Direction,
    EngagementLevel,
    TrialTable,
    _read_columns,
    _word_in,
    check_fields,
    direction_words,
    write_csv,
)
from .errors import (
    ConstantColumnError,
    FeatureDependencyError,
    MalformedRowError,
    NonPositiveTimeError,
    TooFewSamplesError,
)

FEATURE_NAMES = (
    "t1_rel_error",
    "t1_lower_than_30",
    "high_visual_sensitivity",
    "v2_engagement_level",
    "change_in_engagement_level",
)

N_FEATURES = len(FEATURE_NAMES)

FEATURE_CSV_COLUMNS = FEATURE_NAMES + ("label",)


@dataclass(frozen=True)
class ScalerStats:
    """Per-feature mean and population standard deviation used for z-scoring."""

    means: tuple[float, ...]
    std_devs: tuple[float, ...] = field(metadata={"key": "stds", "above": 0})  # the file's key

    def __post_init__(self):
        check_fields(self, prefix="model field ")
        if len(self.means) != N_FEATURES or len(self.std_devs) != N_FEATURES:
            raise ValueError("scaler stats must cover exactly the five features")


def identity_scaler() -> ScalerStats:
    """Scaler that leaves inputs unchanged (mean 0, std 1 per feature)."""
    return ScalerStats(means=(0.0,) * N_FEATURES, std_devs=(1.0,) * N_FEATURES)


def build_features(
    trials: TrialTable, pairs: np.ndarray, target_s: float = DEFAULT_TARGET_S
) -> np.ndarray:
    """
    The (n, 5) raw feature matrix of n trial pairs (pair_consecutive's
    (previous, next) rows), in FEATURE_NAMES order.

    Visual sensitivity is observable only after a LOW-engagement stimulus, so
    it is 1 only for a previous trial that was LOW and reported as highly
    engaging. The change in engagement is 0 (down), 1 (same) or 2 (up).

    Raises:
        NonPositiveTimeError: the target interval is not strictly positive.
    """
    if not math.isfinite(target_s) or target_s <= 0:
        raise NonPositiveTimeError(f"target interval must be > 0, got {target_s}")
    prev, nxt = pairs[:, 0], pairs[:, 1]
    prev_level, next_level = trials.level[prev], trials.level[nxt]
    X = np.empty((len(pairs), N_FEATURES))
    X[:, 0] = (trials.produced_s[prev] - target_s) / target_s * 100.0
    X[:, 1] = trials.reported_lower[prev]
    X[:, 2] = (prev_level == EngagementLevel.LOW) & trials.reported_high[prev]
    X[:, 3] = next_level
    X[:, 4] = np.sign(next_level - prev_level) + 1.0
    return X


def fit_scaler(X: np.ndarray) -> ScalerStats:
    """
    Fit per-column mean and population standard deviation of an (n, 5) matrix.

    Raises:
        TooFewSamplesError: fewer than two samples.
        ConstantColumnError: a column has zero variance.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != N_FEATURES:
        raise ValueError(f"expected an (n, {N_FEATURES}) matrix, got shape {X.shape}")
    if X.shape[0] < 2:
        raise TooFewSamplesError(f"need >= 2 samples to fit a scaler, got {X.shape[0]}")
    means = X.mean(axis=0)
    stds = X.std(axis=0)  # population (ddof=0)
    constant = np.flatnonzero(constant_columns(means, stds))
    if len(constant):
        raise ConstantColumnError(int(constant[0]))
    return ScalerStats(means=tuple(means), std_devs=tuple(stds))


def constant_columns(means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """True where a std is too small to z-score by: <= 1e-12 * max(1, |mean|)."""
    return stds <= 1e-12 * np.maximum(1.0, np.abs(means))


def transform(X: np.ndarray, stats: ScalerStats) -> np.ndarray:
    """z-score a 5-vector or an (n, 5) matrix: (x - mean) / std, per column."""
    X = np.asarray(X, dtype=float)
    return (X - np.asarray(stats.means)) / np.asarray(stats.std_devs)


# ---------------------------------------------------------------------------
# Feature matrix interchange CSV
# ---------------------------------------------------------------------------

def write_feature_csv(X: np.ndarray, decrease: np.ndarray, path: str | Path) -> None:
    """Write the (n, 5) feature matrix, labeled by a boolean decrease mask, as a feature CSV."""
    X = np.asarray(X, dtype=float)
    decrease = np.asarray(decrease, dtype=bool)
    if len(X) != len(decrease):
        raise ValueError("features and labels differ in length")

    def rows(block: slice):
        return zip(
            X[block, 0].tolist(),
            *X[block, 1:].T.astype(int).tolist(),
            direction_words(decrease[block]),
        )

    write_csv(path, FEATURE_CSV_COLUMNS, rows, len(X))


def load_feature_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """
    Load a feature CSV as the (n, 5) raw feature matrix and its labels, as a
    boolean mask that is True for decrease.

    Raises:
        EmptyFileError: the file has no header or no data rows.
        MissingColumnError: a required column is absent.
        MalformedRowError: a cell does not parse or lies outside its feature's
            domain; the error names the line and the column.
        FeatureDependencyError: a row pairs the two engagement features in a
            way no transition can produce.
    """
    # The coded columns go through int(), so text such as "1.0" is rejected there.
    cells = (
        (FEATURE_NAMES[0], float, np.float64),
        *((name, int, np.float64) for name in FEATURE_NAMES[1:]),
        ("label", _word_in({d.value: d is Direction.DECREASE for d in Direction}), np.bool_),
    )
    (*columns, labels), lines = _read_columns(Path(path), cells)
    X = np.column_stack(columns)
    _check_domain(X, lines)
    return X, labels


def _check_domain(X: np.ndarray, lines) -> None:
    """Reject the first cell outside its feature's domain, then impossible level pairs."""
    in_range = (X >= [-100.0, 0, 0, 0, 0]) & (X <= [np.inf, 1, 1, 2, 2])
    bad = ~(np.isfinite(X) & in_range)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise MalformedRowError(
            lines[row], f"{FEATURE_NAMES[col]} is out of range: {X[row, col]:g}"
        )
    # A "lower" change cannot land on HIGH and a "higher" one cannot land on
    # LOW: within the 0/1/2 codes these are exactly the rows where the two
    # features differ by 2.
    impossible = np.flatnonzero(np.abs(X[:, 3] - X[:, 4]) == 2)
    if len(impossible):
        i = impossible[0]
        raise FeatureDependencyError(
            f"line {lines[i]}: change_in_engagement_level={X[i, 4]:.0f} "
            f"is impossible with v2_engagement_level={X[i, 3]:.0f}"
        )
