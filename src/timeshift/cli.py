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
import itertools
import json
import sys
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    DEFAULT_TARGET_S,
    DIRECTION_WORDS,
    EngagementLevel,
    TrialTable,
    atomic_write,
    check_fields,
    load_trials,
    pair_consecutive,
    pair_deltas,
    read_object,
    report,
    write_csv,
    write_trials_csv,
)
from .errors import ConfigError, NonFiniteFeatureError, TimeshiftError, TooFewSamplesError
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
    # a subnormal C would overflow the penalty 1/C
    C: float = field(default=PINNED_C, metadata={"above": 0, "min": sys.float_info.min})
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


def _standardized(args: argparse.Namespace) -> tuple[LogisticModel, np.ndarray, np.ndarray,
                                                     np.ndarray, np.ndarray]:
    """
    The --model model, the --features matrix X and labels, X z-scored by the
    model's scaler and its attributions phi; NonFiniteFeatureError names the
    first row whose z-scores, attributions or logit are not finite, before
    anything is written.
    """
    model = _reported(load_model(args.model))
    X, decrease = load_feature_csv(args.features)
    with np.errstate(over="ignore", invalid="ignore"):  # raised below, naming the row
        Z = transform(X, model.scaler)
        _, phi, logits = shap_matrix(model, Z)
    finite = np.isfinite(phi).all(axis=1) & np.isfinite(logits)
    if not finite.all():
        raise NonFiniteFeatureError(f"row {np.argmin(finite)} of {args.features.name}: a z-score, "
                                    "an attribution or the logit overflows under the model")
    return model, X, decrease, Z, phi


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(config: RunConfig, args: argparse.Namespace) -> tuple[int, dict | None]:
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
    return 0, {
        "params": dataclasses.asdict(config.sim),
        "n_participants": config.n_participants,
        "n_trials": config.n_trials,
        "class_balance": {"increase": changes.size - decrease, "decrease": decrease},
    }


def cmd_extract(config: RunConfig, args: argparse.Namespace) -> tuple[int, dict | None]:
    trials, pairs = _load_pairs(args.input)
    X = build_features(trials, pairs, config.target_interval_s)
    write_feature_csv(X, pair_deltas(trials, pairs) < 0, args.output)
    return 0, {"n_samples": len(X), "source": args.input.name}


def cmd_train(config: RunConfig, args: argparse.Namespace) -> tuple[int, dict | None]:
    X, y = load_feature_csv(args.input)
    if config.undersample:
        rows = balanced_indices(y, config.seed)
        X, y = X[rows], y[rows]
    scaler = fit_scaler(X)
    trained_on = f"{args.input.name}@{config.config_hash()}"
    model = _reported(fit(transform(X, scaler), y, C=config.C, scaler=scaler,
                          trained_on=trained_on, seed=config.seed))
    save_model(model, args.output)
    return 0 if model.converged else 3, {"n_samples": len(y), "converged": model.converged}


def cmd_evaluate(config: RunConfig, args: argparse.Namespace) -> tuple[int, dict | None]:
    trials, pairs = _load_pairs(args.input)
    if config.undersample:
        pairs = pairs[balanced_indices(pair_deltas(trials, pairs) < 0, config.seed)]
    deltas = pair_deltas(trials, pairs)
    X = build_features(trials, pairs, config.target_interval_s)
    result = loocv(X, deltas < 0, C=config.C)
    magnitude_counts, five_cells = magnitude_confusion(result.probabilities, deltas,
                                                       config.thresholds)

    # a sample's id is "<participant id>:<trial index of its next trial>"
    nxt = pairs[:, 1]
    ids = list(map("{}:{}".format, trials.participant_ids[trials.participant[nxt]],
                   trials.trial_index[nxt].tolist()))
    write_csv(
        args.per_sample,
        ("id", "probability", "direction_pred", "direction_actual", "delta_t",
         "magnitude_pred", "magnitude_actual"),
        (
            (ids, np.arange(len(ids))),
            result.probabilities,
            (DIRECTION_WORDS, result.outcomes),
            (DIRECTION_WORDS, deltas < 0),
            deltas,
            (MAGNITUDE_WORDS, predicted_bands(result.probabilities, config.thresholds)),
            (MAGNITUDE_WORDS, actual_bands(deltas, config.thresholds)),
        ),
    )

    summary = {
        "model_name": "logistic_regression_loocv",
        "n": len(pairs),
        "precision": result.metrics.precision,
        "recall": result.metrics.recall,
        "accuracy": result.metrics.accuracy,
        "confusion": [list(row) for row in result.metrics.confusion],
        "magnitude_confusion": [list(row) for row in magnitude_counts],
        **_manifest(config),
        "C": config.C,
        "thresholds": dataclasses.asdict(config.thresholds),
        "undersampled": config.undersample,
        "five_cells": {
            name: {"count": count, "share_of_predicted": share}
            for name, (count, share) in five_cells.items()
        },
        "baselines": [
            {"model_name": name, "precision": row.precision, "recall": row.recall,
             "accuracy": row.accuracy}
            for name, row in baseline_rows(trials, pairs)
        ],
        "nonconverged_folds": result.nonconverged,
        "fold_n_iter": {"min": int(result.n_iter.min()), "max": int(result.n_iter.max())},
        "constant_fold_columns": result.constant_fold_columns,
        "per_sample_csv": args.per_sample.name,
    }
    _write_json(args.output, summary)
    if result.nonconverged:
        message = f"{result.nonconverged} of {len(pairs)} LOOCV folds stopped without converging"
        report({"warning": "NonConvergenceWarning", "message": message})
    return 3 if result.nonconverged else 0, None


def cmd_predict(config: RunConfig, args: argparse.Namespace) -> tuple[int, dict | None]:
    model, X, decrease, Z, _ = _standardized(args)
    probabilities = predict_proba(model, Z)
    write_csv(
        args.output,
        ("row", "probability", "direction_pred", "direction_actual", "magnitude_pred"),
        (
            np.arange(len(X)),
            probabilities,
            (DIRECTION_WORDS, probabilities > 0.5),
            (DIRECTION_WORDS, decrease),
            (MAGNITUDE_WORDS, predicted_bands(probabilities, config.thresholds)),
        ),
    )
    return 0, {"n_samples": len(X)}


def cmd_explain(config: RunConfig, args: argparse.Namespace) -> tuple[int, dict | None]:
    model, X, _, Z, phi = _standardized(args)
    if not 0 <= args.row < len(X):
        raise ConfigError(f"--row {args.row} out of range for {len(X)} samples")
    features = aggregate_shap(phi)  # before any write: it checks every mean and spread
    args.output_dir.mkdir(parents=True, exist_ok=True)
    write_scatter_csv(phi, X, Z, args.output_dir / "shap_scatter.csv")
    background = "training_mean (all-zero standardized background)"
    _write_json(args.output_dir / "shap_aggregate.json",
                _manifest(config, background=background, features=features))
    _write_json(
        args.output_dir / "shap_waterfall.json",
        # a one-row call keeps the waterfall logit bit-identical to w @ z
        {
            **waterfall_payload(*shap_matrix(model, Z[args.row:args.row + 1]), X[args.row]),
            **_manifest(config, row=args.row),
        },
    )
    return 0, None


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


def _file_path(text: str) -> Path:
    """An output file flag's path; one with no file name ("", ".", "/") is a usage error."""
    path = Path(text)
    if not path.name:
        raise argparse.ArgumentTypeError(f"{text!r} names no file")
    return path


# A flag is (option string, add_argument keywords); a config key's flag reads
# None unless given, so the config file's value holds. _COMMON comes first.
_COMMON = (
    ("--config", {"help": "JSON config file; flags override its values"}),
    ("--seed", {"type": int}),
    ("--target", {"dest": "target_interval_s", "type": float, "help": "target interval, s"}),
    ("--C", {"type": float, "help": "inverse regularization"}),
)
_INPUT = ("--input", {"type": Path, "required": True})
_OUTPUT = ("--output", {"type": _file_path, "required": True})
_MODEL = ("--model", {"type": Path, "required": True})
_FEATURES = ("--features", {"type": Path, "required": True})
_NO_UNDERSAMPLE = ("--no-undersample",
                   {"dest": "undersample", "action": "store_false", "default": None})

# Each command: its function, its help line and its own flags. The function
# takes the resolved configuration and the parsed flags and returns its exit
# code and its manifest's counts, or None if it writes no manifest.
_COMMANDS = {
    "simulate": (cmd_simulate, "generate synthetic trials CSV", (
        _OUTPUT,
        ("--participants", {"dest": "n_participants", "type": int}),
        ("--trials", {"dest": "n_trials", "type": int}),
    )),
    "extract": (cmd_extract, "derive the feature matrix from trials", (_INPUT, _OUTPUT)),
    "train": (cmd_train, "fit the logistic model on a feature CSV",
              (_INPUT, _OUTPUT, _NO_UNDERSAMPLE)),
    "evaluate": (cmd_evaluate, "LOOCV report with baselines and magnitude",
                 (_INPUT, _OUTPUT, ("--per-sample", {"type": _file_path}), _NO_UNDERSAMPLE)),
    "predict": (cmd_predict, "per-sample outcomes for a feature CSV",
                (_MODEL, _FEATURES, _OUTPUT)),
    "explain": (cmd_explain, "SHAP exports for a feature CSV", (
        _MODEL,
        _FEATURES,
        ("--output-dir", {"type": Path, "default": Path(".")}),
        ("--row", {"type": int, "default": 0, "help": "sample to export as waterfall"}),
    )),
}


@cache  # built once per process: about 50 add_argument calls
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="timeshift",
        description="Predict the direction of change in produced time between trials.",
    )
    parser.add_argument("--version", action="version", version=_version_text())
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for option, keywords in _COMMON + flags:
            p.add_argument(option, **keywords)
    return parser


# The output file flags, then every other path flag (a flag's dest is its name
# without "--", "-" read as "_"); no output may name another flag's file
_OUTPUT_FLAGS = ("--per-sample", "--output")
_PATH_FLAGS = _OUTPUT_FLAGS + ("--input", "--model", "--features", "--config")


def _check_outputs(args: argparse.Namespace) -> None:
    """ConfigError, naming both flags, if an output flag's file is another path flag's."""
    given = [(flag, Path(value)) for flag in _PATH_FLAGS
             if (value := getattr(args, flag[2:].replace("-", "_"), None))]
    for (output_flag, output), (flag, path) in itertools.combinations(given, 2):
        if output_flag in _OUTPUT_FLAGS and output.resolve() == path.resolve():
            raise ConfigError(f"{output_flag} and {flag} name one file: {path}")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "evaluate" and not args.per_sample:  # beside --output by default
            args.per_sample = args.output.with_suffix(".per_sample.csv")
        _check_outputs(args)
        config = _load_config(args)
        code, counts = _COMMANDS[args.command][0](config, args)
        if counts is not None:  # the sidecar manifest, named after the output file's stem
            _write_json(args.output.with_suffix(".manifest.json"), _manifest(config, **counts))
        return code
    except TimeshiftError as exc:
        report({"error": type(exc).__name__, "message": str(exc)})
        return 2
    except OSError as exc:
        report({"error": "OSError", "message": str(exc)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
