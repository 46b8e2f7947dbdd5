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

Attributions come as whole matrices from shap_matrix; a single sample's
waterfall is a one-row call, which keeps its logit bit-identical to w @ z.

The background is the expectation point the attribution is measured against;
by default it is the training-set mean, which is the zero vector when the
scaler was fit on that same data. Reports label the background so the choice
stays visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import write_csv
from .features import FEATURE_NAMES, N_FEATURES
from .logistic import LogisticModel, _sigmoid


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
    raw = np.asarray(raw_features, dtype=float)
    Z = np.asarray(standardized, dtype=float)

    def rows(block: slice):
        return zip(
            FEATURE_NAMES * len(phi[block]),
            raw[block].ravel().tolist(),
            Z[block].ravel().tolist(),
            phi[block].ravel().tolist(),
        )

    write_csv(path, ("feature", "raw_value", "standardized_value", "phi"), rows, len(phi))


def waterfall_payload(
    base: float, phi: np.ndarray, logits: np.ndarray, raw_values: np.ndarray | Sequence[float]
) -> dict:
    """
    JSON-ready breakdown of one sample from a one-row shap_matrix result;
    entries ordered by |phi| descending, ties in canonical feature order.

    Raises:
        ValueError: phi is not one row of five contributions, or
            base + sum(phi) misses the output logit by more than 1e-9.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (1, N_FEATURES):
        raise ValueError(f"expected one row of {N_FEATURES} contributions")
    contributions = phi[0].tolist()
    logit = float(logits[0])
    if abs(base + sum(contributions) - logit) > 1e-9:
        raise ValueError("attribution violates efficiency")
    raw = np.asarray(raw_values, dtype=float)
    return {
        "base": base,
        "entries": [
            {"feature": FEATURE_NAMES[j], "value": float(raw[j]), "phi": contributions[j]}
            for j in sorted(range(N_FEATURES), key=lambda j: (-abs(contributions[j]), j))
        ],
        "output_logit": logit,
        "output_probability": float(_sigmoid(logit)),
    }
