"""
Derivation of the five model features from sample pairs, plus z-scoring.

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

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .data import DEFAULT_TARGET_S, Direction, EngagementLevel, SamplePair, TrialRecord
from .errors import (
    ConstantColumnError,
    EmptyFileError,
    FeatureDependencyError,
    MissingBaselineError,
    MissingColumnError,
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
class FeatureVector:
    """Raw (unstandardized) values of the five model features for one pair."""

    t1_rel_error: float
    t1_lower_than_30: int
    high_visual_sensitivity: int
    v2_engagement_level: int
    change_in_engagement_level: int

    def __post_init__(self):
        if not math.isfinite(self.t1_rel_error) or self.t1_rel_error < -100.0:
            raise ValueError(f"t1_rel_error out of range: {self.t1_rel_error}")
        for name in ("t1_lower_than_30", "high_visual_sensitivity"):
            if getattr(self, name) not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1, got {getattr(self, name)}")
        for name in ("v2_engagement_level", "change_in_engagement_level"):
            if getattr(self, name) not in (0, 1, 2):
                raise ValueError(f"{name} must be 0, 1 or 2, got {getattr(self, name)}")
        # A same-level transition cannot land on HIGH via "lower", and a
        # two-level rise cannot land on LOW; the two features are dependent.
        if self.change_in_engagement_level == 0 and self.v2_engagement_level == 2:
            raise FeatureDependencyError(
                "change_in_engagement_level=0 is impossible with v2_engagement_level=2"
            )
        if self.change_in_engagement_level == 2 and self.v2_engagement_level == 0:
            raise FeatureDependencyError(
                "change_in_engagement_level=2 is impossible with v2_engagement_level=0"
            )

    def as_array(self) -> np.ndarray:
        return np.array(
            [
                self.t1_rel_error,
                self.t1_lower_than_30,
                self.high_visual_sensitivity,
                self.v2_engagement_level,
                self.change_in_engagement_level,
            ],
            dtype=float,
        )


@dataclass(frozen=True)
class ScalerStats:
    """Per-feature mean and population standard deviation used for z-scoring."""

    means: tuple[float, ...]
    std_devs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "means", tuple(float(m) for m in self.means))
        object.__setattr__(self, "std_devs", tuple(float(s) for s in self.std_devs))
        if len(self.means) != N_FEATURES or len(self.std_devs) != N_FEATURES:
            raise ValueError("scaler stats must cover exactly the five features")
        for i, s in enumerate(self.std_devs):
            if not math.isfinite(s) or s <= 0:
                raise ValueError(f"std_devs[{i}] must be > 0, got {s}")


def identity_scaler() -> ScalerStats:
    """Scaler that leaves inputs unchanged (mean 0, std 1 per feature)."""
    return ScalerStats(means=(0.0,) * N_FEATURES, std_devs=(1.0,) * N_FEATURES)


def compute_rel_error(produced_time_s: float, target_s: float = DEFAULT_TARGET_S) -> float:
    """
    Relative production error in percent: (produced - target) / target * 100.

    Raises:
        NonPositiveTimeError: produced time or target is not strictly positive.
    """
    if not math.isfinite(produced_time_s) or produced_time_s <= 0:
        raise NonPositiveTimeError(f"produced time must be > 0, got {produced_time_s}")
    if not math.isfinite(target_s) or target_s <= 0:
        raise NonPositiveTimeError(f"target interval must be > 0, got {target_s}")
    return (produced_time_s - target_s) / target_s * 100.0


def derive_sensitivity(prev: TrialRecord) -> int:
    """
    1 if the participant reported a low-engagement stimulus as highly engaging.

    Only participants whose previous trial showed a LOW-engagement stimulus can
    be marked sensitive; everyone else defaults to 0 because the discrepancy
    cannot be observed for them.
    """
    sensitive = (
        prev.engagement == EngagementLevel.LOW and prev.reported_high_engagement
    )
    return int(sensitive)


def change_in_engagement(prev: EngagementLevel, next: EngagementLevel) -> int:
    """0 when engagement goes down, 1 when it stays, 2 when it goes up."""
    if next < prev:
        return 0
    if next > prev:
        return 2
    return 1


def build_features(pair: SamplePair, target_s: float = DEFAULT_TARGET_S) -> FeatureVector:
    """Compose the five features of a sample pair from its previous/next trials."""
    return FeatureVector(
        t1_rel_error=compute_rel_error(pair.prev.produced_time_s, target_s),
        t1_lower_than_30=int(pair.prev.reported_lower_than_30),
        high_visual_sensitivity=derive_sensitivity(pair.prev),
        v2_engagement_level=int(pair.next.engagement),
        change_in_engagement_level=change_in_engagement(
            pair.prev.engagement, pair.next.engagement
        ),
    )


def feature_matrix(features: Sequence[FeatureVector]) -> np.ndarray:
    """Stack feature vectors into an (n, 5) float matrix."""
    return np.array([f.as_array() for f in features], dtype=float)


def fit_scaler(features: Sequence[FeatureVector] | np.ndarray) -> ScalerStats:
    """
    Fit per-column mean and population standard deviation.

    Raises:
        TooFewSamplesError: fewer than two samples.
        ConstantColumnError: a column has zero variance.
    """
    X = features if isinstance(features, np.ndarray) else feature_matrix(features)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != N_FEATURES:
        raise ValueError(f"expected an (n, {N_FEATURES}) matrix, got shape {X.shape}")
    if X.shape[0] < 2:
        raise TooFewSamplesError(f"need >= 2 samples to fit a scaler, got {X.shape[0]}")
    means = X.mean(axis=0)
    stds = X.std(axis=0)  # population (ddof=0)
    for i in range(N_FEATURES):
        if stds[i] <= 1e-12 * max(1.0, abs(means[i])):
            raise ConstantColumnError(i)
    return ScalerStats(means=tuple(means), std_devs=tuple(stds))


def transform(
    features: FeatureVector | np.ndarray | Sequence[float], stats: ScalerStats
) -> np.ndarray:
    """z-score features: (x - mean) / std, per column."""
    if isinstance(features, FeatureVector):
        x = features.as_array()
    else:
        x = np.asarray(features, dtype=float)
    return (x - np.asarray(stats.means)) / np.asarray(stats.std_devs)


def label_engagement_from_performance(
    scene_stats: Mapping[str, float], baseline_scene: str
) -> dict[str, EngagementLevel]:
    """
    Assign engagement levels to scenes from non-timing task performance.

    The designated baseline scene is LOW. Among the remaining scenes the one
    with the worst (highest) mean error is HIGH; ties on the worst error are
    broken by lexicographically smallest scene id. Everything else is MEDIUM.

    Raises:
        MissingBaselineError: the baseline scene is not in the table.
        ValueError: fewer than two scenes.
    """
    if baseline_scene not in scene_stats:
        raise MissingBaselineError(f"baseline scene {baseline_scene!r} not present")
    if len(scene_stats) < 2:
        raise ValueError("need at least two scenes to label engagement")
    candidates = [s for s in scene_stats if s != baseline_scene]
    worst = min(candidates, key=lambda s: (-scene_stats[s], s))
    labels = {scene: EngagementLevel.MEDIUM for scene in scene_stats}
    labels[baseline_scene] = EngagementLevel.LOW
    labels[worst] = EngagementLevel.HIGH
    return labels


# ---------------------------------------------------------------------------
# Feature matrix interchange CSV
# ---------------------------------------------------------------------------

def write_feature_csv(
    features: Sequence[FeatureVector],
    labels: Sequence[Direction],
    path: str | Path,
) -> None:
    """Write the feature matrix with direction labels in the canonical schema."""
    if len(features) != len(labels):
        raise ValueError("features and labels differ in length")
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FEATURE_CSV_COLUMNS)
        for f, label in zip(features, labels):
            writer.writerow(
                [
                    repr(f.t1_rel_error),
                    f.t1_lower_than_30,
                    f.high_visual_sensitivity,
                    f.v2_engagement_level,
                    f.change_in_engagement_level,
                    label.value,
                ]
            )


def load_feature_csv(path: str | Path) -> tuple[list[FeatureVector], list[Direction]]:
    """
    Load a feature matrix CSV; the dependency between the engagement features
    is enforced on every row.
    """
    path = Path(path)
    features: list[FeatureVector] = []
    labels: list[Direction] = []
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise EmptyFileError(f"{path}: file is empty")
        for column in FEATURE_CSV_COLUMNS:
            if column not in reader.fieldnames:
                raise MissingColumnError(column)
        for row in reader:
            features.append(
                FeatureVector(
                    t1_rel_error=float(row["t1_rel_error"]),
                    t1_lower_than_30=int(row["t1_lower_than_30"]),
                    high_visual_sensitivity=int(row["high_visual_sensitivity"]),
                    v2_engagement_level=int(row["v2_engagement_level"]),
                    change_in_engagement_level=int(row["change_in_engagement_level"]),
                )
            )
            labels.append(Direction.parse(row["label"]))
    if not features:
        raise EmptyFileError(f"{path}: no data rows")
    return features, labels
