"""
Exact per-feature attributions for the linear-logit model, plus permutation
feature importance.

For a logistic model the logit is linear in the standardized features, so
with independent features the Shapley value of feature j has the closed form

    phi_j = w_j * (z_j - background_j)

measured in log-odds. The attributions are exact and deterministic: no
sampling, and the efficiency identity base + sum(phi) = output logit holds to
rounding error. Probabilities shown in reports are the sigmoid of the logit
endpoints, matching how prediction plots are usually displayed.

The background is the expectation point the attribution is measured against;
by default it is the training-set mean, which is the zero vector when the
scaler was fit on that same data. Reports label the background so the choice
stays visible.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import Direction
from .errors import EmptyGroupError, TooFewSamplesError
from .evaluation import classify_direction, metrics
from .features import FEATURE_NAMES, N_FEATURES
from .logistic import LogisticModel, _sigmoid, predict_proba


@dataclass(frozen=True)
class ShapAttribution:
    """Additive log-odds contributions of one sample's five features."""

    base_logit: float
    phi: tuple[float, ...]
    output_logit: float
    output_probability: float

    def __post_init__(self):
        object.__setattr__(self, "phi", tuple(float(v) for v in self.phi))
        if len(self.phi) != N_FEATURES:
            raise ValueError(f"expected {N_FEATURES} contributions")
        if abs(self.base_logit + sum(self.phi) - self.output_logit) > 1e-9:
            raise ValueError("attribution violates efficiency")

    def ranked_features(self) -> list[int]:
        """Feature indices by |phi| descending, ties in canonical order."""
        return sorted(range(N_FEATURES), key=lambda j: (-abs(self.phi[j]), j))


def shap_values(
    model: LogisticModel,
    z: np.ndarray | Sequence[float],
    background_means: np.ndarray | Sequence[float] | None = None,
) -> ShapAttribution:
    """
    Exact attribution of one standardized sample against a background: row 0
    of a one-row shap_matrix call.
    """
    base, phi, logits = shap_matrix(
        model, np.reshape(z, (1, N_FEATURES)), background_means
    )
    logit = float(logits[0])
    return ShapAttribution(
        base_logit=base,
        phi=tuple(phi[0]),
        output_logit=logit,
        output_probability=float(_sigmoid(logit)),
    )


def shap_matrix(
    model: LogisticModel,
    Z: np.ndarray,
    background_means: np.ndarray | Sequence[float] | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """
    Exact attributions of an (n, 5) standardized matrix against a background.

    background_means are the standardized-space feature means of the reference
    data; omit them for the all-zeros background of a scaler fit on that data.

    Returns (base_logit, phi matrix of shape (n, 5), output logits of shape (n,)).
    """
    Z = np.asarray(Z, dtype=float)
    bg = (
        np.zeros(N_FEATURES)
        if background_means is None
        else np.asarray(background_means, dtype=float)
    )
    w = np.asarray(model.coefficients)
    phi = (Z - bg) * w
    base = model.intercept + float(w @ bg)
    logits = model.intercept + Z @ w
    return base, phi, logits


@dataclass(frozen=True)
class FeatureShapSummary:
    feature: str
    mean_phi: float
    std_phi: float
    n: int


def aggregate_shap(
    phi: np.ndarray, group: np.ndarray | None = None
) -> list[FeatureShapSummary]:
    """
    Per-feature mean and spread of contributions, population- or group-wide.

    phi is the (n, 5) attribution matrix of shap_matrix; group is an optional
    boolean mask of length n that selects the sub-group's rows.

    Raises:
        EmptyGroupError: the mask selects no rows.
        ValueError: no attributions given.
    """
    phi = np.asarray(phi, dtype=float)
    if not len(phi):
        raise ValueError("need at least one attribution")
    if group is not None:
        phi = phi[np.asarray(group, dtype=bool)]
        if not len(phi):
            raise EmptyGroupError("sub-group mask selects no samples")
    return [
        FeatureShapSummary(
            feature=name,
            mean_phi=float(phi[:, j].mean()),
            std_phi=float(phi[:, j].std()),
            n=len(phi),
        )
        for j, name in enumerate(FEATURE_NAMES)
    ]


# ---------------------------------------------------------------------------
# Permutation feature importance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PermutationImportance:
    feature: str
    mean_drop: float
    std_drop: float


def _score(model: LogisticModel, Z: np.ndarray, y: Sequence[Direction], metric: str) -> float:
    probabilities = np.atleast_1d(predict_proba(model, Z))
    predicted = [classify_direction(float(p)) for p in probabilities]
    report = metrics(predicted, list(y))
    return report.f1 if metric == "f1" else report.accuracy


def permutation_importance(
    model: LogisticModel,
    Z: np.ndarray,
    y: Sequence[Direction],
    metric: str = "accuracy",
    n_repeats: int = 10,
    seed: int = 0,
) -> list[PermutationImportance]:
    """
    Mean and spread of the metric drop when each feature column is shuffled.

    Each (feature, repeat) uses its own derived substream, so results do not
    depend on evaluation order.

    Raises:
        TooFewSamplesError: fewer than 20 samples.
    """
    if metric not in ("accuracy", "f1"):
        raise ValueError(f"unsupported metric: {metric!r}")
    Z = np.asarray(Z, dtype=float)
    n = Z.shape[0]
    if n < 20:
        raise TooFewSamplesError(f"permutation importance needs >= 20 samples, got {n}")
    baseline = _score(model, Z, y, metric)
    results = []
    for j, name in enumerate(FEATURE_NAMES):
        drops = []
        for repeat in range(n_repeats):
            rng = np.random.default_rng([seed, j, repeat])
            drops.append(
                _column_permutation_drop(
                    model, Z, y, j, rng.permutation(n), baseline, metric
                )
            )
        results.append(
            PermutationImportance(
                feature=name,
                mean_drop=float(np.mean(drops)),
                std_drop=float(np.std(drops)),
            )
        )
    return results


def _column_permutation_drop(
    model: LogisticModel,
    Z: np.ndarray,
    y: Sequence[Direction],
    column: int,
    permutation: np.ndarray,
    baseline: float,
    metric: str,
) -> float:
    permuted = Z.copy()
    permuted[:, column] = Z[permutation, column]
    return baseline - _score(model, permuted, y, metric)


# ---------------------------------------------------------------------------
# Plot-ready exports
# ---------------------------------------------------------------------------

def write_scatter_csv(
    phi: np.ndarray,
    raw_features: np.ndarray,
    standardized: np.ndarray,
    path: str | Path,
) -> None:
    """
    One row per sample per feature: feature, raw and z values, contribution.

    phi, raw_features and standardized are aligned (n, 5) matrices; phi is the
    attribution matrix of shap_matrix. Values are written as plain decimal
    floats (shortest round-trip repr), converted one sample at a time.
    """
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "raw_value", "standardized_value", "phi"])
        for raw_row, std_row, phi_row in zip(
            np.asarray(raw_features, dtype=float),
            np.asarray(standardized, dtype=float),
            np.asarray(phi, dtype=float),
        ):
            writer.writerows(
                zip(FEATURE_NAMES, raw_row.tolist(), std_row.tolist(), phi_row.tolist())
            )


def waterfall_payload(
    attribution: ShapAttribution, raw_values: np.ndarray | Sequence[float]
) -> dict:
    """
    JSON-ready single-sample breakdown, entries ordered by |phi| descending.
    """
    raw = np.asarray(raw_values, dtype=float)
    return {
        "base": attribution.base_logit,
        "entries": [
            {
                "feature": FEATURE_NAMES[j],
                "value": float(raw[j]),
                "phi": attribution.phi[j],
            }
            for j in attribution.ranked_features()
        ],
        "output_logit": attribution.output_logit,
        "output_probability": attribution.output_probability,
    }
