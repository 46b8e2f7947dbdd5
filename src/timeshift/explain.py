"""
Exact per-feature attributions for the linear-logit model, at population
and individual level, with plot-ready exports.

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

from .data import atomic_write
from .features import FEATURE_NAMES, N_FEATURES
from .logistic import LogisticModel, _sigmoid


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


def aggregate_shap(phi: np.ndarray) -> list[FeatureShapSummary]:
    """
    Per-feature mean and spread of the rows of an (n, 5) attribution matrix
    from shap_matrix; pass phi[mask] for a sub-group.

    Raises:
        ValueError: no attributions given.
    """
    phi = np.asarray(phi, dtype=float)
    if not len(phi):
        raise ValueError("need at least one attribution")
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
    floats (shortest round-trip repr).
    """
    phi = np.asarray(phi, dtype=float)
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "raw_value", "standardized_value", "phi"])
        writer.writerows(
            zip(
                FEATURE_NAMES * len(phi),
                np.asarray(raw_features, dtype=float).ravel().tolist(),
                np.asarray(standardized, dtype=float).ravel().tolist(),
                phi.ravel().tolist(),
            )
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
