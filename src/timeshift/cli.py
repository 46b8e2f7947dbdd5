"""
Command-line pipeline: simulate -> extract -> train -> evaluate -> predict -> explain.

Configuration comes from an optional JSON file (--config) with per-flag
overrides; flags always win, as each setting has one key. Every artifact
embeds or sits next to the seed and the hash of the resolved configuration
that produced it, and identical configurations produce byte-identical artifacts.

Exit codes: 0 success, 2 invalid input, configuration or usage, 3 numerical
non-convergence (artifacts are still written). Each stderr line is JSON (data.report).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    DEFAULT_TARGET_S,
    EngagementLevel,
    TrialTable,
    atomic_write,
    check_fields,
    direction_words,
    load_trials,
    pair_consecutive,
    pair_deltas,
    read_object,
    report,
    write_csv,
    write_trials_csv,
)
from .errors import ConfigError, TimeshiftError, TooFewSamplesError
from .evaluation import (
    MAGNITUDE_WORDS,
    Thresholds,
    actual_bands,
    balanced_indices,
    baseline_rows,
    loocv,
    magnitude_confusion,
    predicted_bands,
)
from .explain import aggregate_shap, shap_matrix, waterfall_payload, write_scatter_csv
from .features import (
    FEATURE_NAMES,
    build_features,
    fit_scaler,
    load_feature_csv,
    transform,
    write_feature_csv,
)
from .logistic import (
    PINNED_C,
    PINNED_COEFFICIENTS,
    PINNED_INTERCEPT,
    LogisticModel,
    fit,
    load_model,
    predict_proba,
    save_model,
)
from .simulator import SimParams, cohort_levels, generate_trials


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration; see README for the JSON layout and value checks."""

    seed: int = field(default=0, metadata={"min": 0})
    target_interval_s: float = field(default=DEFAULT_TARGET_S, metadata={"above": 0})
    C: float = field(default=PINNED_C, metadata={"above": 0})
    thresholds: Thresholds = Thresholds()
    sim: SimParams | None = None
    n_participants: int = field(default=1000, metadata={"in_sim": True})
    n_trials: int = field(default=2, metadata={"in_sim": True})
    engagement_assignment: str | list[EngagementLevel] = field(
        default="random_uniform_9", metadata={"in_sim": True}
    )
    undersample: bool = True

    def __post_init__(self):
        check_fields(self)
        levels = cohort_levels(self.n_participants, self.n_trials, self.engagement_assignment)
        if levels is not None:
            object.__setattr__(self, "engagement_assignment", levels)

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.describe(), sort_keys=True).encode()
        ).hexdigest()[:16]

    def describe(self) -> dict:
        """The fields in the config file's layout; sim is null for all but simulate."""
        payload = dataclasses.asdict(self)
        cohort = {key: payload.pop(key) for key in _IN_SIM}
        if self.sim is not None:
            if isinstance(self.engagement_assignment, list):
                cohort["engagement_assignment"] = [
                    level.name.lower() for level in self.engagement_assignment
                ]
            payload["sim"].update(cohort)
        return payload


# The config file's sections: the sim object holds the SimParams fields but
# rng_seed and target_s, which seed and target_interval_s set, and the RunConfig
# fields marked in_sim; its top level holds every other RunConfig field.
_RUN_FIELDS = dataclasses.fields(RunConfig)
_IN_SIM = {f.name for f in _RUN_FIELDS if f.metadata.get("in_sim")}
_TOP_FIELDS = [f for f in _RUN_FIELDS if f.name not in _IN_SIM]
_SIM_FIELDS = [f for f in dataclasses.fields(SimParams) if f.name not in ("rng_seed", "target_s")]
_SIM_FIELDS += [f for f in _RUN_FIELDS if f.name in _IN_SIM]


def _load_config(args: argparse.Namespace) -> RunConfig:
    """
    The config file's values, overridden by each flag whose dest is a
    RunConfig field; every default is the field's own. SimParams is checked
    for every command but kept only by simulate's config.
    """
    payload: dict = {}
    if args.config:
        try:
            payload = json.loads(Path(args.config).read_text(encoding="utf-8-sig"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}") from None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:  # UTF-8, a BOM skipped
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
    flags = {key: value for key, value in vars(args).items() if value is not None}
    try:  # an unknown key or a value of the wrong type or out of range raises ValueError
        values = read_object(payload, _TOP_FIELDS, "config file", "the config")
        thresholds = read_object(values.pop("thresholds", {}), dataclasses.fields(Thresholds),
                                 "thresholds", "the thresholds section")
        sim = read_object(values.pop("sim", {}), _SIM_FIELDS, "sim", "the sim section")
        values.update((key, sim.pop(key)) for key in _IN_SIM & sim.keys())
        values.update((f.name, flags[f.name]) for f in _RUN_FIELDS if f.name in flags)
        config = RunConfig(**values, thresholds=Thresholds(**thresholds))
        params = SimParams(rng_seed=config.seed, target_s=config.target_interval_s, **sim)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return dataclasses.replace(config, sim=params) if args.command == "simulate" else config


def _write_json(path: Path, payload: dict) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _manifest(config: RunConfig, **extra) -> dict:
    return {"seed": config.seed, "config_hash": config.config_hash(), **extra}


def _load_pairs(path: Path) -> tuple[TrialTable, np.ndarray]:
    """The trials of a trial CSV and their consecutive pairs; no pair is an error."""
    trials = load_trials(path)
    pairs = pair_consecutive(trials)
    if not len(pairs):
        raise TooFewSamplesError(f"{path.name}: no consecutive trial pairs")
    return trials, pairs


def _reported(model: LogisticModel) -> LogisticModel:
    """The model, fitted or loaded; a fit that did not converge is reported, then used."""
    if not model.converged:
        message = f"model stopped after {model.n_iter} iterations without converging"
        report({"warning": "NonConvergenceWarning", "message": message})
    return model


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(config: RunConfig, args: argparse.Namespace) -> int:
    trials = generate_trials(
        config.sim,
        n_participants=config.n_participants,
        n_trials=config.n_trials,
        engagement_assignment=config.engagement_assignment,
    )
    write_trials_csv(trials, args.output)
    # the table is participant-major: one row of this matrix per session
    sessions = trials.produced_s.reshape(config.n_participants, config.n_trials)
    changes = np.diff(sessions, axis=1)
    decrease = int(np.count_nonzero(changes < 0))
    _write_json(
        args.output.with_suffix(".manifest.json"),
        _manifest(
            config,
            params=dataclasses.asdict(config.sim),
            n_participants=config.n_participants,
            n_trials=config.n_trials,
            class_balance={"increase": changes.size - decrease, "decrease": decrease},
        ),
    )
    return 0


def cmd_extract(config: RunConfig, args: argparse.Namespace) -> int:
    trials, pairs = _load_pairs(args.input)
    X = build_features(trials, pairs, config.target_interval_s)
    write_feature_csv(X, pair_deltas(trials, pairs) < 0, args.output)
    _write_json(
        args.output.with_suffix(".manifest.json"),
        _manifest(config, n_samples=len(X), source=args.input.name),
    )
    return 0


def cmd_train(config: RunConfig, args: argparse.Namespace) -> int:
    X, y = load_feature_csv(args.input)
    if config.undersample:
        rows = balanced_indices(y, config.seed)
        X, y = X[rows], y[rows]
    scaler = fit_scaler(X)
    model = _reported(fit(
        transform(X, scaler),
        y,
        C=config.C,
        scaler=scaler,
        trained_on=f"{args.input.name}@{config.config_hash()}",
        seed=config.seed,
    ))
    save_model(model, args.output)
    _write_json(
        args.output.with_suffix(".manifest.json"),
        _manifest(config, n_samples=len(y), converged=model.converged),
    )
    return 0 if model.converged else 3


def cmd_evaluate(config: RunConfig, args: argparse.Namespace) -> int:
    trials, pairs = _load_pairs(args.input)
    if config.undersample:
        pairs = pairs[balanced_indices(pair_deltas(trials, pairs) < 0, config.seed)]
    deltas = pair_deltas(trials, pairs)
    X = build_features(trials, pairs, config.target_interval_s)
    result = loocv(X, deltas < 0, C=config.C)
    magnitude_counts, five_cells = magnitude_confusion(
        result.probabilities, deltas, config.thresholds
    )

    # a sample's id is "<participant id>:<trial index of its next trial>"
    nxt = pairs[:, 1]
    ids, index = trials.participant_ids[trials.participant[nxt]], trials.trial_index[nxt]

    def rows(block: slice):
        p, block_deltas = result.probabilities[block], deltas[block]
        return zip(
            map("{}:{}".format, ids[block], index[block].tolist()),
            p.tolist(),
            direction_words(result.outcomes[block]),
            direction_words(block_deltas < 0),
            block_deltas.tolist(),
            MAGNITUDE_WORDS[predicted_bands(p, config.thresholds)].tolist(),
            MAGNITUDE_WORDS[actual_bands(block_deltas, config.thresholds)].tolist(),
        )

    per_sample_path = Path(args.per_sample or args.output.with_suffix(".per_sample.csv"))
    write_csv(
        per_sample_path,
        ("id", "probability", "direction_pred", "direction_actual", "delta_t",
         "magnitude_pred", "magnitude_actual"),
        rows,
        len(pairs),
    )

    summary = {
        "model_name": "logistic_regression_loocv",
        "n": len(pairs),
        "precision": result.metrics.precision,
        "recall": result.metrics.recall,
        "accuracy": result.metrics.accuracy,
        "confusion": [list(row) for row in result.metrics.confusion],
        "magnitude_confusion": [list(row) for row in magnitude_counts],
        "seed": config.seed,
        "C": config.C,
        "config_hash": config.config_hash(),
        "thresholds": dataclasses.asdict(config.thresholds),
        "undersampled": config.undersample,
        "five_cells": {
            name: {"count": count, "share_of_predicted": share}
            for name, (count, share) in five_cells.items()
        },
        "baselines": [
            {
                "model_name": name,
                "precision": row.precision,
                "recall": row.recall,
                "accuracy": row.accuracy,
            }
            for name, row in baseline_rows(trials, pairs)
        ],
        "nonconverged_folds": result.nonconverged,
        "fold_n_iter": {"min": int(result.n_iter.min()), "max": int(result.n_iter.max())},
        "constant_fold_columns": result.constant_fold_columns,
        "per_sample_csv": per_sample_path.name,
    }
    _write_json(args.output, summary)
    if result.nonconverged:
        message = f"{result.nonconverged} of {len(pairs)} LOOCV folds stopped without converging"
        report({"warning": "NonConvergenceWarning", "message": message})
        return 3
    return 0


def cmd_predict(config: RunConfig, args: argparse.Namespace) -> int:
    model = _reported(load_model(args.model))
    X, decrease = load_feature_csv(args.features)
    probabilities = predict_proba(model, transform(X, model.scaler))

    def rows(block: slice):
        p = probabilities[block]
        return zip(
            range(block.start, block.start + len(p)),
            p.tolist(),
            direction_words(p > 0.5),
            direction_words(decrease[block]),
            MAGNITUDE_WORDS[predicted_bands(p, config.thresholds)].tolist(),
        )

    write_csv(
        args.output,
        ("row", "probability", "direction_pred", "direction_actual", "magnitude_pred"),
        rows,
        len(X),
    )
    _write_json(
        args.output.with_suffix(".manifest.json"),
        _manifest(config, n_samples=len(X)),
    )
    return 0


def cmd_explain(config: RunConfig, args: argparse.Namespace) -> int:
    row = args.row
    model = _reported(load_model(args.model))
    X, _ = load_feature_csv(args.features)
    if not 0 <= row < len(X):
        raise ConfigError(f"--row {row} out of range for {len(X)} samples")
    args.output_dir.mkdir(parents=True, exist_ok=True)
    Z = transform(X, model.scaler)
    _, phi, _ = shap_matrix(model, Z)

    write_scatter_csv(phi, X, Z, args.output_dir / "shap_scatter.csv")
    _write_json(
        args.output_dir / "shap_aggregate.json",
        _manifest(
            config,
            background="training_mean (all-zero standardized background)",
            features=aggregate_shap(phi),
        ),
    )
    _write_json(
        args.output_dir / "shap_waterfall.json",
        # a one-row call keeps the waterfall logit bit-identical to w @ z
        {
            **waterfall_payload(*shap_matrix(model, Z[row:row + 1]), X[row]),
            **_manifest(config, row=row),
        },
    )
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _version_text() -> str:
    pinned = ", ".join(
        f"{name}={coef}" for name, coef in zip(FEATURE_NAMES, PINNED_COEFFICIENTS)
    )
    return (
        f"timeshift {__version__} "
        f"(pinned model: intercept={PINNED_INTERCEPT}, {pinned})"
    )


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigError, so main reports them."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="timeshift",
        description="Predict the direction of change in produced time between trials.",
    )
    parser.add_argument("--version", action="version", version=_version_text())
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--target", dest="target_interval_s", type=float, help="target interval, s")
        p.add_argument("--C", type=float, default=None, help="inverse regularization")

    p = sub.add_parser("simulate", help="generate synthetic trials CSV")
    add_common(p)
    p.add_argument("--output", type=Path, required=True)
    p.add_argument("--participants", dest="n_participants", type=int)
    p.add_argument("--trials", dest="n_trials", type=int)

    p = sub.add_parser("extract", help="derive the feature matrix from trials")
    add_common(p)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--output", type=Path, required=True)

    p = sub.add_parser("train", help="fit the logistic model on a feature CSV")
    add_common(p)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--output", type=Path, required=True)
    p.add_argument("--no-undersample", dest="undersample", action="store_false", default=None)

    p = sub.add_parser("evaluate", help="LOOCV report with baselines and magnitude")
    add_common(p)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--output", type=Path, required=True)
    p.add_argument("--per-sample", dest="per_sample")
    p.add_argument("--no-undersample", dest="undersample", action="store_false", default=None)

    p = sub.add_parser("predict", help="per-sample outcomes for a feature CSV")
    add_common(p)
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--output", type=Path, required=True)

    p = sub.add_parser("explain", help="SHAP exports for a feature CSV")
    add_common(p)
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--features", type=Path, required=True)
    p.add_argument("--output-dir", dest="output_dir", type=Path, default=Path("."))
    p.add_argument("--row", type=int, default=0, help="sample to export as waterfall")

    return parser


# Each command takes the resolved configuration and the parsed flags.
_COMMANDS = {
    "simulate": cmd_simulate,
    "extract": cmd_extract,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "predict": cmd_predict,
    "explain": cmd_explain,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _load_config(args)
        return _COMMANDS[args.command](config, args)
    except TimeshiftError as exc:
        report({"error": type(exc).__name__, "message": str(exc)})
        return 2
    except OSError as exc:
        report({"error": "OSError", "message": str(exc)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
