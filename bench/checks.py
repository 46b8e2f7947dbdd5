"""
Output checks for each CLI stage, recomputed from the benchmark's own inputs.

The checks are invariants, not stored bytes, so a change that alters artifact
bytes on purpose still passes. Each check returns a list of problems; an
empty list means the stage's outputs are correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from inputs import Cohort, Pairs, LEVELS

FEATURE_COLUMNS = (
    "t1_rel_error",
    "t1_lower_than_30",
    "high_visual_sensitivity",
    "v2_engagement_level",
    "change_in_engagement_level",
)
PROB_LOW, PROB_HIGH = 0.4, 0.6  # the CLI's default magnitude thresholds
REFIT_FOLDS = 3


def _rows(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _column(header: list[str], rows: list[list[str]], name: str) -> list[str]:
    j = header.index(name)
    return [row[j] for row in rows]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _close(a, b, tol: float) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= tol))


def _magnitude(p: float) -> str:
    if p > PROB_HIGH:
        return "high_decrease"
    if p < PROB_LOW:
        return "high_increase"
    return "small_change"


def _model(path: Path) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    model = json.loads(path.read_text())
    return (
        float(model["intercept"]),
        np.array(model["coefficients"], dtype=float),
        np.array(model["scaler"]["means"], dtype=float),
        np.array(model["scaler"]["stds"], dtype=float),
    )


def check_simulate(out: Path, n_participants: int, n_trials: int) -> list[str]:
    header, rows = _rows(out)
    problems = []
    if len(rows) != n_participants * n_trials:
        problems.append(f"{len(rows)} rows, expected {n_participants * n_trials}")
    if len(header) != 7:
        problems.append(f"header has {len(header)} columns")
    for i, row in enumerate(rows):
        try:
            pid, trial, level, produced, lower, high, extra = row
            ok = (
                pid
                and int(trial) >= 1
                and level in LEVELS
                and math.isfinite(float(produced))
                and float(produced) > 0
                and lower in ("true", "false")
                and high in ("true", "false")
                and (extra == "" or float(extra) >= 0)
            )
        except ValueError:
            ok = False
        if not ok:
            problems.append(f"row {i + 1} does not parse: {row}")
            break
    return problems


def check_extract(out: Path, pairs: Pairs) -> list[str]:
    header, rows = _rows(out)
    if len(rows) != len(pairs.decrease):
        return [f"{len(rows)} feature rows, expected {len(pairs.decrease)}"]
    problems = []
    rel = np.array(_column(header, rows, FEATURE_COLUMNS[0]), dtype=float)
    if not _close(rel, pairs.X[:, 0], 1e-12):
        problems.append("t1_rel_error differs from the recomputation")
    for j, name in enumerate(FEATURE_COLUMNS[1:], start=1):
        if not np.array_equal(
            np.array(_column(header, rows, name), dtype=int), pairs.X[:, j].astype(int)
        ):
            problems.append(f"{name} differs from the recomputation")
    labels = np.array(_column(header, rows, "label")) == "decrease"
    if not np.array_equal(labels, pairs.decrease):
        problems.append("label differs from the recomputation")
    return problems


def check_train(model_path: Path, pairs: Pairs) -> list[str]:
    manifest = json.loads(model_path.with_suffix(".manifest.json").read_text())
    problems = []
    if manifest.get("converged") is not True:
        problems.append("manifest does not say converged")
    if manifest.get("n_samples") != 2 * pairs.minority:
        problems.append(
            f"n_samples {manifest.get('n_samples')} != 2 x minority {pairs.minority}"
        )
    _model(model_path)  # parses
    return problems


def check_predict(out: Path, model_path: Path, pairs: Pairs) -> list[str]:
    b, w, mean, std = _model(model_path)
    header, rows = _rows(out)
    if len(rows) != len(pairs.decrease):
        return [f"{len(rows)} outcome rows, expected {len(pairs.decrease)}"]
    problems = []
    p = np.array(_column(header, rows, "probability"), dtype=float)
    if not _close(p, _sigmoid(b + ((pairs.X - mean) / std) @ w), 1e-12):
        problems.append("probability differs from sigmoid(b + w.z)")
    direction = np.where(p > 0.5, "decrease", "increase")
    if _column(header, rows, "direction_pred") != direction.tolist():
        problems.append("direction_pred disagrees with the probability")
    actual = np.where(pairs.decrease, "decrease", "increase")
    if _column(header, rows, "direction_actual") != actual.tolist():
        problems.append("direction_actual disagrees with the input")
    if _column(header, rows, "magnitude_pred") != [_magnitude(v) for v in p.tolist()]:
        problems.append("magnitude_pred disagrees with the thresholds")
    return problems


def check_explain(out_dir: Path, model_path: Path, pairs: Pairs, row: int) -> list[str]:
    b, w, mean, std = _model(model_path)
    Z = (pairs.X - mean) / std
    n = len(pairs.decrease)
    header, rows = _rows(out_dir / "shap_scatter.csv")
    if len(rows) != 5 * n:
        return [f"{len(rows)} scatter rows, expected 5 x {n}"]
    problems = []
    if _column(header, rows, "feature") != list(FEATURE_COLUMNS) * n:
        problems.append("scatter feature column is out of order")
    # raw_value and standardized_value are not parsed: with numpy >= 2 the
    # CLI writes them as 'np.float64(...)'. z comes from the model instead.
    phi = np.array(_column(header, rows, "phi"), dtype=float).reshape(n, 5)
    if not _close(phi, w * Z, 1e-12):
        problems.append("scatter phi differs from w.z")

    waterfall = json.loads((out_dir / "shap_waterfall.json").read_text())
    total = waterfall["base"] + sum(e["phi"] for e in waterfall["entries"])
    logit = b + float(Z[row] @ w)
    if abs(total - waterfall["output_logit"]) > 1e-9:
        problems.append("waterfall violates efficiency")
    if abs(waterfall["output_logit"] - logit) > 1e-9:
        problems.append(f"waterfall logit differs from row {row}")
    if abs(waterfall["output_probability"] - float(_sigmoid(np.array(logit)))) > 1e-12:
        problems.append("waterfall probability differs from sigmoid(logit)")

    aggregate = json.loads((out_dir / "shap_aggregate.json").read_text())
    means = [f["mean_phi"] for f in aggregate["features"]]
    if not _close(means, phi.mean(axis=0), 1e-9):
        problems.append("aggregate mean_phi differs from the scatter")
    return problems


def _fit(Z: np.ndarray, y: np.ndarray, C: float) -> np.ndarray:
    """Exact L2 logistic fit (intercept unpenalized) by plain Newton steps."""
    A = np.hstack([np.ones((len(y), 1)), Z])
    ridge = np.diag([0.0] + [1.0 / C] * Z.shape[1])
    theta = np.zeros(A.shape[1])
    for _ in range(100):
        p = _sigmoid(A @ theta)
        grad = A.T @ (p - y) + ridge @ theta
        if np.max(np.abs(grad)) < 1e-11:
            break
        hessian = (A * (p * (1.0 - p))[:, None]).T @ A + ridge
        theta = theta - np.linalg.solve(hessian, grad)
    return theta


def check_evaluate(report_path: Path, cohort: Cohort, pairs: Pairs, seed: int) -> list[str]:
    report = json.loads(report_path.read_text())
    header, rows = _rows(report_path.parent / report["per_sample_csv"])
    problems = []
    if report["n"] != 2 * pairs.minority or len(rows) != report["n"]:
        problems.append(
            f"n {report['n']} / {len(rows)} rows, expected 2 x minority {pairs.minority}"
        )
    predicted = _column(header, rows, "direction_pred")
    actual = _column(header, rows, "direction_actual")
    accuracy = sum(p == a for p, a in zip(predicted, actual)) / len(rows)
    if abs(report["accuracy"] - accuracy) > 1e-12:
        problems.append("report accuracy differs from the per-sample rows")

    kept = np.array([cohort.pair_index(i) for i in _column(header, rows, "id")])
    X, y = pairs.X[kept], pairs.decrease[kept].astype(float)
    expected = np.where(y == 1.0, "decrease", "increase").tolist()
    if actual != expected:
        problems.append("direction_actual disagrees with the input")
    probability = np.array(_column(header, rows, "probability"), dtype=float)
    rng = np.random.default_rng([seed, 1])
    for i in rng.choice(len(rows), size=min(REFIT_FOLDS, len(rows)), replace=False):
        mask = np.arange(len(rows)) != i
        mean, std = X[mask].mean(axis=0), X[mask].std(axis=0)
        theta = _fit((X[mask] - mean) / std, y[mask], report["C"])
        p = float(_sigmoid(theta[0] + ((X[i] - mean) / std) @ theta[1:]))
        if abs(p - probability[i]) > 1e-9:
            problems.append(f"fold {i}: refit gives {p!r}, report has {probability[i]!r}")
    return problems
