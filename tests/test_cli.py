import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

import timeshift.logistic
from timeshift.cli import RunConfig, build_parser, main
from timeshift.data import TRIAL_CSV_COLUMNS, EngagementLevel
from timeshift.errors import TimeshiftError
from timeshift.evaluation import (
    Thresholds,
    classify_actual_magnitude,
    classify_direction,
    classify_predicted_magnitude,
    magnitude_confusion,
    metrics,
)
from timeshift.features import (
    FEATURE_CSV_COLUMNS,
    ScalerStats,
    fit_scaler,
    identity_scaler,
    write_feature_csv,
)
from timeshift.logistic import (
    PINNED_COEFFICIENTS,
    LogisticModel,
    fit,
    load_model,
    pinned_model,
    predict_proba,
    save_model,
)
from timeshift.simulator import SimParams

from tests.test_data import _feature_rows as feature_cells, _mutants, _trial_rows as trial_cells

TRIAL_HEADER = (
    "participant_id,trial_index,engagement_level,produced_time_s,"
    "reported_lower_than_30,reported_high_engagement,nontiming_task_error"
)

FEATURE_HEADER = (
    "t1_rel_error,t1_lower_than_30,high_visual_sensitivity,"
    "v2_engagement_level,change_in_engagement_level,label"
)


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_config(tmp_path, **overrides):
    payload = {"seed": 5, "sim": {"n_participants": 30, "n_trials": 2}}
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


# Non-default bands: 0.4 and 0.6 fall outside the middle band, 0.45, 0.5 and 0.55 in it.
THRESHOLDS = Thresholds(prob_low=0.45, prob_high=0.55, delta_small=2.0)


def assert_rows_banded(rows, thresholds):
    """Every CSV row's words are the classify_* values of its own numbers."""
    for row in rows:
        p = float(row["probability"])
        assert row["direction_pred"] == classify_direction(p).value
        assert row["magnitude_pred"] == classify_predicted_magnitude(p, thresholds).value
        if "delta_t" in row:
            delta = float(row["delta_t"])
            assert row["magnitude_actual"] == classify_actual_magnitude(delta, thresholds).value


class TestSimulate:
    def test_row_count_and_manifest(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "trials.csv"
        assert main(["simulate", "--config", str(config), "--output", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == TRIAL_HEADER
        assert len(rows) == 1 + 30 * 2
        manifest = json.loads((tmp_path / "trials.manifest.json").read_text())
        assert manifest["seed"] == 5
        assert "config_hash" in manifest
        balance = manifest["class_balance"]
        assert balance["increase"] + balance["decrease"] == 30

    def test_identical_config_identical_bytes(self, tmp_path):
        config = write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", str(config), "--output", str(a)])
        main(["simulate", "--config", str(config), "--output", str(b)])
        assert sha(a) == sha(b)

    def test_noiseless_fixed_point_rows(self, tmp_path):
        config = write_config(
            tmp_path,
            sim={
                "n_participants": 4,
                "n_trials": 2,
                "engagement_assignment": ["low", "low"],
                "weber_fraction": 0.0,
                "memory_correction_weight": 0.0,
                "regression_weight": 0.0,
            },
        )
        out = tmp_path / "trials.csv"
        assert main(["simulate", "--config", str(config), "--output", str(out)]) == 0
        with out.open() as fh:
            produced = [float(row["produced_time_s"]) for row in csv.DictReader(fh)]
        assert produced == [30.0] * 8

    def test_gate_width_list_hashes_like_before(self, tmp_path):
        config = write_config(
            tmp_path,
            sim={
                "n_participants": 30,
                "n_trials": 2,
                "gate_width_by_engagement": [1, 0.9, 0.8],
            },
        )
        out = tmp_path / "trials.csv"
        assert main(["simulate", "--config", str(config), "--output", str(out)]) == 0
        manifest = json.loads((tmp_path / "trials.manifest.json").read_text())
        assert manifest["params"]["gate_width_by_engagement"] == [1.0, 0.9, 0.8]
        # the hash this config had when the CLI converted the list itself
        assert manifest["config_hash"] == "2a245061480bb1d5"

    def test_config_with_byte_order_mark(self, tmp_path):
        # some editors start a UTF-8 file with a byte-order mark; it is skipped
        config = write_config(tmp_path)
        marked = tmp_path / "marked.json"
        marked.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
        outputs = []
        for name, path in (("plain", config), ("marked", marked)):
            (tmp_path / name).mkdir()
            out = tmp_path / name / "trials.csv"
            assert main(["simulate", "--config", str(path), "--output", str(out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())})
        assert outputs[0] == outputs[1]

    def test_invalid_sim_config_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path, sim={"weber_fraction": -1.0})
        out = tmp_path / "trials.csv"
        assert main(["simulate", "--config", str(config), "--output", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"


class TestExtract:
    def test_feature_row_matches_composition(self, tmp_path):
        trials = tmp_path / "trials.csv"
        trials.write_text(
            TRIAL_HEADER + "\n"
            "p1,1,low,45.0,false,true,\n"
            "p1,2,high,50.0,false,false,\n"
        )
        out = tmp_path / "features.csv"
        assert main(["extract", "--input", str(trials), "--output", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == FEATURE_HEADER
        assert lines[1] == "50.0,0,1,2,2,increase"

    def test_empty_input_exits_2(self, tmp_path, capsys):
        trials = tmp_path / "trials.csv"
        trials.write_text(TRIAL_HEADER + "\n")
        out = tmp_path / "features.csv"
        assert main(["extract", "--input", str(trials), "--output", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "EmptyFileError"

    @pytest.mark.parametrize("command", ["extract", "evaluate"])
    def test_no_consecutive_pair_exits_2_and_writes_nothing(self, tmp_path, capsys, command):
        # one trial per participant, and a gap: no stage could read the result
        trials = tmp_path / "trials.csv"
        trials.write_text(
            TRIAL_HEADER + "\n"
            "p1,1,low,45.0,false,true,\n"
            "p2,1,high,50.0,false,false,\n"
            "p2,3,high,50.0,false,false,\n"
        )
        out = tmp_path / "out"
        assert main([command, "--input", str(trials), "--output", str(out)]) == 2
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "TooFewSamplesError"
        assert "no consecutive trial pairs" in err["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trials.csv"]

    def test_missing_input_exits_2(self, tmp_path):
        assert (
            main(
                [
                    "extract",
                    "--input",
                    str(tmp_path / "nope.csv"),
                    "--output",
                    str(tmp_path / "f.csv"),
                ]
            )
            == 2
        )


class TestTrain:
    def _features_csv(self, tmp_path, n=40):
        path = tmp_path / "features.csv"
        rows = [FEATURE_HEADER]
        for i in range(n):
            rel = 60.0 if i % 2 == 0 else -40.0
            label = "decrease" if i % 2 == 0 else "increase"
            v2 = i % 3
            change = 1 if v2 == 0 else (i % 2 + 1 if v2 == 2 else i % 3)
            rows.append(f"{rel},{i % 2},{(i // 2) % 2},{v2},{change},{label}")
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_same_bytes_under_any_blas_thread_count(self, tmp_path):
        # 45,000 rows: one OpenBLAS product over all of them is split over two threads
        rng = np.random.default_rng(3)
        n = 45_000
        v2 = rng.integers(0, 3, n)
        change = np.clip(v2 + rng.integers(-1, 2, n), 0, 2)  # never 2 apart from v2
        X = np.column_stack([rng.normal(15.0, 40.0, n).clip(-100.0), rng.random(n) < 0.4,
                             rng.random(n) < 0.06, v2, change])
        features = tmp_path / "features.csv"
        write_feature_csv(X, rng.random(n) < 1 / (1 + np.exp((15.0 - X[:, 0]) / 40.0)), features)
        source = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
        models = []
        for threads in ("1", "2"):
            out = tmp_path / f"model_{threads}.json"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
            subprocess.run([sys.executable, "-m", "timeshift", "train", "--input", str(features),
                            "--output", str(out)], env=env, check=True, timeout=120)
            models.append(out.read_bytes())
        assert models[0] == models[1]

    def test_model_roundtrips(self, tmp_path):
        features = self._features_csv(tmp_path)
        out = tmp_path / "model.json"
        assert main(["train", "--input", str(features), "--output", str(out)]) == 0
        model = load_model(out)
        clone_path = tmp_path / "clone.json"
        save_model(model, clone_path)
        assert load_model(clone_path) == model
        assert model.seed == 0

    @pytest.mark.parametrize("flags", [[], ["--no-undersample"]])
    def test_single_class_exits_2(self, tmp_path, capsys, flags):
        path = self._features_csv(tmp_path)
        path.write_text(path.read_text().replace(",decrease\n", ",increase\n"))
        argv = ["train", "--input", str(path), "--output", str(tmp_path / "m.json")]
        assert main(argv + flags) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SingleClassError"

    def test_violating_feature_row_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(FEATURE_HEADER + "\n0.0,0,0,0,2,increase\n")
        assert main(["train", "--input", str(path), "--output", str(tmp_path / "m.json")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FeatureDependencyError"
        assert "change_in_engagement_level" in err["message"]


class TestPredictAndExplain:
    @pytest.fixture()
    def pinned_setup(self, tmp_path):
        """Pinned model with an identity scaler: raw features are the z values."""
        model_path = tmp_path / "pinned.json"
        save_model(pinned_model(scaler=identity_scaler()), model_path)
        features = tmp_path / "features.csv"
        features.write_text(
            FEATURE_HEADER + "\n"
            "0.0,0,0,0,0,increase\n"
            "2.0,0,0,0,0,decrease\n"
        )
        return model_path, features

    def test_probabilities_match_pinned_examples(self, tmp_path, pinned_setup):
        model_path, features = pinned_setup
        out = tmp_path / "outcomes.csv"
        assert (
            main(
                [
                    "predict",
                    "--model", str(model_path),
                    "--features", str(features),
                    "--output", str(out),
                ]
            )
            == 0
        )
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert float(rows[0]["probability"]) == pytest.approx(0.50400, abs=1e-5)
        assert float(rows[1]["probability"]) == pytest.approx(0.79248, abs=1e-5)
        assert rows[0]["direction_pred"] == "decrease"
        assert rows[1]["magnitude_pred"] == "high_decrease"

    def test_explain_zero_vector_is_flat_waterfall(self, tmp_path, pinned_setup):
        model_path, features = pinned_setup
        out_dir = tmp_path / "shap"
        assert (
            main(
                [
                    "explain",
                    "--model", str(model_path),
                    "--features", str(features),
                    "--output-dir", str(out_dir),
                    "--row", "0",
                ]
            )
            == 0
        )
        waterfall = json.loads((out_dir / "shap_waterfall.json").read_text())
        assert all(entry["phi"] == 0.0 for entry in waterfall["entries"])
        assert waterfall["output_probability"] == pytest.approx(0.50400, abs=1e-5)
        aggregate = json.loads((out_dir / "shap_aggregate.json").read_text())
        assert "background" in aggregate
        assert (out_dir / "shap_scatter.csv").exists()

    def test_model_with_byte_order_mark(self, tmp_path, pinned_setup):
        model_path, features = pinned_setup
        marked = tmp_path / "marked.json"
        marked.write_bytes(b"\xef\xbb\xbf" + model_path.read_bytes())
        outputs = []
        for name, path in (("plain", model_path), ("marked", marked)):
            out = tmp_path / name
            out.mkdir()
            common = ["--model", str(path), "--features", str(features)]
            assert main(["predict", *common, "--output", str(out / "o.csv")]) == 0
            assert main(["explain", *common, "--output-dir", str(out / "shap")]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
        assert outputs[0] == outputs[1]

    def test_nondefault_thresholds_band_every_row(self, tmp_path):
        # z = (logit, 0, 0, 0, 0) under weight (1, 0, 0, 0, 0): predict's logit is exact
        model = LogisticModel(
            intercept=0.0,
            coefficients=(1.0, 0.0, 0.0, 0.0, 0.0),
            scaler=identity_scaler(),
            inverse_reg_c=1.0,
        )

        def logit_of(p):
            """A logit whose probability, as predict computes it, is exactly p."""
            x = math.log(p / (1 - p))
            for _ in range(100):  # a few ulps from the analytic value
                q = predict_proba(model, [x, 0.0, 0.0, 0.0, 0.0])
                if q == p:
                    return x
                x = float(np.nextafter(x, math.inf if q < p else -math.inf))
            raise AssertionError(f"no logit gives exactly {p}")

        targets = (0.4, 0.45, 0.5, 0.55, 0.6)
        logits = [-3.0, -0.3, *map(logit_of, targets), 0.3, 3.0]
        features = tmp_path / "features.csv"
        features.write_text(FEATURE_HEADER + "\n" + "".join(
            f"{x!r},0,0,0,0,{'decrease' if i % 2 else 'increase'}\n"
            for i, x in enumerate(logits)
        ))
        model_path = tmp_path / "model.json"
        save_model(model, model_path)
        config = write_config(tmp_path, thresholds=dataclasses.asdict(THRESHOLDS))
        out = tmp_path / "outcomes.csv"
        assert main(["predict", "--config", str(config), "--model", str(model_path),
                     "--features", str(features), "--output", str(out)]) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert set(targets) <= {float(row["probability"]) for row in rows}
        assert_rows_banded(rows, THRESHOLDS)
        magnitudes = [row["magnitude_pred"] for row in rows]
        assert magnitudes == ["high_increase"] * 3 + ["small_change"] * 3 + ["high_decrease"] * 3

    def test_row_out_of_range_exits_2(self, tmp_path, pinned_setup):
        model_path, features = pinned_setup
        code = main(
            [
                "explain",
                "--model", str(model_path),
                "--features", str(features),
                "--output-dir", str(tmp_path / "shap"),
                "--row", "9",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("row", [1, 2])
    def test_large_finite_coefficient_keeps_efficiency_to_rounding(self, tmp_path, row):
        # a logit near 1e16 sums base + phi with an error far above 1e-9, but
        # within the float error bound of that sum
        trials, features = tmp_path / "t.csv", tmp_path / "f.csv"
        assert main(["simulate", "--participants", "30", "--output", str(trials)]) == 0
        assert main(["extract", "--input", str(trials), "--output", str(features)]) == 0
        model = tmp_path / "model.json"
        save_model(dataclasses.replace(pinned_model(), coefficients=(3.3, 1e16, 1.0, 1.0, 1.0)),
                   model)
        out_dir = tmp_path / "shap"
        assert main(["explain", "--model", str(model), "--features", str(features),
                     "--output-dir", str(out_dir), "--row", str(row)]) == 0
        waterfall = json.loads((out_dir / "shap_waterfall.json").read_text())
        phi = [entry["phi"] for entry in waterfall["entries"]]
        base, logit = waterfall["base"], waterfall["output_logit"]
        assert abs(logit) > 1e15
        bound = 1e-9 + 8 * np.finfo(float).eps * (abs(base) + sum(map(abs, phi)) + abs(logit))
        assert abs(base + sum(phi) - logit) <= bound

    def test_nonconverged_model_warns_and_keeps_outputs(
        self, tmp_path, pinned_setup, capsys, monkeypatch
    ):
        _, features = pinned_setup
        Z = np.random.default_rng(12).normal(size=(30, 5))
        monkeypatch.setattr(timeshift.logistic, "_MAX_ITER", 1)
        stopped = fit(Z, (Z[:, 0] > 0).astype(float))
        outputs = {}
        for converged in (False, True):
            model_path = tmp_path / f"model_{converged}.json"
            save_model(dataclasses.replace(stopped, converged=converged), model_path)
            out = tmp_path / f"out_{converged}"
            common = ["--model", str(model_path), "--features", str(features)]
            out.mkdir()
            assert main(["predict", *common, "--output", str(out / "o.csv")]) == 0
            assert main(["explain", *common, "--output-dir", str(out / "shap")]) == 0
            warnings = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
            assert len(warnings) == (0 if converged else 2)  # one per command
            for warning in warnings:
                assert warning["warning"] == "NonConvergenceWarning"
                assert "1 iterations" in warning["message"]
            outputs[converged] = {
                p.name: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
            }
        assert outputs[False] == outputs[True]


def _feature_rows(row):
    return (FEATURE_HEADER + "\n0.0,0,0,1,1,increase\n" + row + "\n").encode()


# with _feature_rows' first row, six rows that train can fit: three of each class
TRAINABLE_ROWS = (
    "2.0,1,1,0,0,decrease\n-5.0,1,0,2,2,increase\n7.0,0,1,0,1,decrease\n"
    "1.0,0,0,1,2,decrease\n-3.0,1,0,1,0,increase"
)


def _trial_rows(row):
    return (TRIAL_HEADER + "\np1,1,low,30,false,false,\n" + row + "\n").encode()


def _saved_pinned_model() -> dict:
    """The pinned model's JSON object as save_model writes it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        save_model(pinned_model(), path)
        return json.loads(path.read_text())


_MODEL = _saved_pinned_model()


def _model_with(**fields) -> bytes:
    """The pinned model file with fields of the model or of its scaler replaced."""
    scaler = {key: fields.pop(key) for key in ("means", "stds") if key in fields}
    return json.dumps({**_MODEL, **fields, "scaler": {**_MODEL["scaler"], **scaler}}).encode()


# (input kind, file bytes, error name, fragments of the message)
MALFORMED_INPUTS = {
    "rel_error_text": ("features", _feature_rows("abc,0,0,1,1,increase"),
                       "MalformedRowError", ["line 3", "t1_rel_error"]),
    "rel_error_nan": ("features", _feature_rows("nan,0,0,1,1,increase"),
                      "MalformedRowError", ["line 3", "t1_rel_error"]),
    "rel_error_below_-100": ("features", _feature_rows("-150,0,0,1,1,increase"),
                             "MalformedRowError", ["line 3", "t1_rel_error"]),
    "flag_2": ("features", _feature_rows("0.0,2,0,1,1,increase"),
               "MalformedRowError", ["line 3", "t1_lower_than_30"]),
    "flag_1.0": ("features", _feature_rows("0.0,0,1.0,1,1,increase"),
                 "MalformedRowError", ["line 3", "high_visual_sensitivity"]),
    "label_sideways": ("features", _feature_rows("0.0,0,0,1,1,sideways"),
                       "MalformedRowError", ["line 3", "label"]),
    "level_pair": ("features", _feature_rows("0.0,0,0,2,0,increase"),
                   "FeatureDependencyError", ["line 3", "change_in_engagement_level"]),
    "features_not_utf8": ("features", _feature_rows("0.0,0,0,1,1,X").replace(b"X", b"\xff"),
                          "MalformedRowError", ["line 3", "UTF-8"]),
    "nontiming_text": ("trials", _trial_rows("p1,2,low,31,false,false,abc"),
                       "MalformedRowError", ["line 3", "nontiming_task_error"]),
    "trials_not_utf8": ("trials", _trial_rows("X,2,low,31,false,false,").replace(b"X", b"\xff"),
                        "MalformedRowError", ["line 3", "UTF-8"]),
    "trial_index_1.0": ("trials", _trial_rows("p1,1.0,low,31,false,false,"),
                        "MalformedRowError", ["line 3", "trial_index is not valid: '1.0'"]),
    "trial_index_0": ("trials", _trial_rows("p1,0,low,31,false,false,"),
                      "MalformedRowError", ["line 3", "trial_index must be >= 1, got 0"]),
    "engagement_loud": ("trials", _trial_rows("p1,2,loud,31,false,false,"),
                        "MalformedRowError", ["line 3", "engagement_level is not valid: 'loud'"]),
    "produced_negative_two_line_id": (
        "trials", _trial_rows('"p\n2",2,low,-1,false,false,'),
        "MalformedRowError", ["line 4", "produced_time_s must be finite and > 0, got -1.0"]),
    "produced_nan_two_line_id": (
        "trials", _trial_rows('"p\n2",2,low,nan,false,false,'),
        "MalformedRowError", ["line 4", "produced_time_s must be finite and > 0, got nan"]),
    "lower_yes": ("trials", _trial_rows("p1,2,low,31,yes,false,"),
                  "MalformedRowError", ["line 3", "reported_lower_than_30 is not valid: 'yes'"]),
    "high_maybe": ("trials", _trial_rows("p1,2,low,31,false,maybe,"),
                   "MalformedRowError",
                   ["line 3", "reported_high_engagement is not valid: 'maybe'"]),
    "nontiming_negative": ("trials", _trial_rows("p1,2,low,31,false,false,-2"),
                           "MalformedRowError",
                           ["line 3", "nontiming_task_error must be >= 0, got -2.0"]),
    "bad_row_after_blank_lines": (
        "trials", _trial_rows("p1,2,low,31,false,false,\n\n\np1,3,low,abc,false,false,"),
        "MalformedRowError", ["line 6", "produced_time_s is not valid: 'abc'"]),
    "model_missing_key": ("model", json.dumps({k: v for k, v in _MODEL.items() if k != "C"}).encode(),
                          "ConfigError", ["missing key(s) in the model: C"]),
    # a misspelt key is named, not read as absent (n_iter 0)
    "model_unknown_key": ("model", json.dumps({**_MODEL, "n_iters": 40}).encode(), "ConfigError",
                          ["unknown key(s) in the model: n_iters"]),
    "model_unknown_scaler_key": (
        "model", json.dumps({**_MODEL, "scaler": {**_MODEL["scaler"], "std": [1] * 5}}).encode(),
        "ConfigError", ["unknown key(s) in the scaler: std"]),
    "model_not_json": ("model", b"{nope", "ConfigError", ["model"]),
    "model_not_utf8": ("model", b'\xff\xfe{"seed":1}', "ConfigError", ["UTF-8"]),
    "model_C_0": ("model", json.dumps({**_MODEL, "C": 0}).encode(), "ConfigError",
                  ["model field C must be > 0"]),
    "model_C_subnormal": ("model", json.dumps({**_MODEL, "C": 1e-320}).encode(), "ConfigError",
                          ["model field C must be >= 2.2250738585072014e-308, got 1e-320"]),
    "model_std_0": ("model",
                    json.dumps({**_MODEL, "scaler": {**_MODEL["scaler"], "stds": [1, 1, 0, 1, 1]}})
                    .encode(), "ConfigError", ["model field stds[2] must be > 0"]),
    "model_std_subnormal": ("model", _model_with(stds=[1e-320, 1, 1, 1, 1]), "ConfigError", [
        "model field stds[0] must be >= 2.2250738585072014e-308, got 1e-320"]),
    "model_four_coefficients": (
        "model", _model_with(coefficients=[0.662, -0.191, -0.241, -0.187]), "ConfigError",
        ["not a valid model file: expected 5 coefficients"]),
    "model_four_means": ("model", _model_with(means=[15.0, 0.4, 0.06, 1.0]), "ConfigError",
                         ["not a valid model file: scaler stats must cover exactly the five"]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_2(tmp_path, capsys, case):
    kind, data, error, fragments = MALFORMED_INPUTS[case]
    bad = tmp_path / "bad"
    bad.write_bytes(data)
    features = tmp_path / "features.csv"
    features.write_bytes(_feature_rows("2.0,0,0,0,0,decrease"))
    model = tmp_path / "model.json"
    save_model(pinned_model(), model)
    argv = {
        "features": ["train", "--input", str(bad)],
        "trials": ["extract", "--input", str(bad)],
        "model": ["predict", "--model", str(bad), "--features", str(features)],
    }[kind]
    assert main([*argv, "--output", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error
    for fragment in fragments:
        assert fragment in err["message"]


# a model.json field of the wrong JSON type (README "Model JSON"); means and
# stds are keys of the scaler object
@pytest.mark.parametrize("field, value", [
    ("converged", "false"), ("C", True), ("intercept", True),
    ("n_iter", "many"), ("seed", "x"), ("trained_on", 5),
    ("coefficients", "12345"),
    pytest.param("coefficients", [True, False, True, 1, 0], id="coefficients-bools"),
    ("means", "00000"),
    pytest.param("means", [math.nan, 0.4, 0.06, 1.0, 1.0], id="means-nan"),
    ("stds", "11111"),
])
def test_mistyped_model_field_exits_2(tmp_path, capsys, field, value):
    payload = {**_MODEL, field: value}
    if field in _MODEL["scaler"]:
        payload = {**_MODEL, "scaler": {**_MODEL["scaler"], field: value}}
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    features = tmp_path / "features.csv"
    features.write_bytes(_feature_rows("2.0,0,0,0,0,decrease"))
    common = ["--model", str(model), "--features", str(features)]
    for argv in (["predict", *common, "--output", str(tmp_path / "o.csv")],
                 ["explain", *common, "--output-dir", str(tmp_path / "shap")]):
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert f"model field {field} must be" in err["message"]
    assert not (tmp_path / "o.csv").exists() and not (tmp_path / "shap").exists()


def _stderr_inputs(tmp_path) -> dict:
    """The input files of STDERR_PATHS, by name, and the output paths out and out_dir."""
    cohort = tmp_path / "cohort.csv"
    config = write_config(tmp_path, sim={"n_participants": 60, "sensitivity_prevalence": 0.4})
    assert main(["simulate", "--config", str(config), "--output", str(cohort)]) == 0
    header, first, *rest = cohort.read_text().splitlines()
    cells = first.split(",")

    def cohort_with(produced):  # the first trial's production replaced
        return "\n".join([header, ",".join([*cells[:3], produced, *cells[4:]]), *rest, ""])

    texts = {
        "gap": _trial_rows("p1,2,low,31,false,false,\np1,4,low,29,false,false,"),
        "extra": (TRIAL_HEADER + ",extra\np1,1,low,30,false,false,,x\n"
                  "p1,2,low,31,false,false,,y\n").encode(),
        "features": _feature_rows(TRAINABLE_ROWS),
        "stopped": json.dumps({**_MODEL, "converged": False, "n_iter": 1}).encode(),
        "misspelt": json.dumps({**_MODEL, "n_iters": 40}).encode(),
        "bad_config": b'{"seed": "abc"}',
        "subnormal_C": b'{"C": 1e-320}',
        "overflow": _trial_rows("p1,2,low,1e308,false,false,\np1,3,low,30,false,false,"),
        "cohort_1e308": cohort_with("1e308").encode(),
        "cohort_3e304": cohort_with("3e304").encode(),
        "features_1e308": _feature_rows(TRAINABLE_ROWS + "\n1e308,0,0,1,1,decrease"),
        "features_1e306": _feature_rows(TRAINABLE_ROWS + "\n1e306,0,0,1,1,decrease"),
        # a header and no row (then a blank line, which numpy's reader warns
        # on, and the CLI must not)
        "trials_header": (TRIAL_HEADER + "\n\n").encode(),
        "features_header": (FEATURE_HEADER + "\n").encode(),
        # models under which a z-score, a logit or an attribution spread overflows
        "coef_1e308": _model_with(coefficients=[1e308, -1e308, 1e308, -1e308, 1e308]),
        "coef_1e200": _model_with(coefficients=[1e200, *PINNED_COEFFICIENTS[1:]]),
        "std_subnormal": _model_with(stds=[1e-320, 1, 1, 1, 1]),
        "mean_1e308": _model_with(means=[0, 1e308, 0, 0, 0]),
        # simulator parameters under which the trial recursion overflows
        "weber_1e308": b'{"sim": {"weber_fraction": 1e308}}',
        "arousal_1e308": b'{"sim": {"arousal_gain": 1e308}}',
        "population_mean_1e308": b'{"sim": {"population_mean_s": 1e308}}',
        "target_1e308": b'{"target_interval_s": 1e308}',
    }
    paths = {"cohort": cohort, "missing": tmp_path / "missing.csv",
             "out": tmp_path / "out.csv", "out_dir": tmp_path / "shap"}
    for name, data in texts.items():
        paths[name] = tmp_path / f"{name}.in"
        paths[name].write_bytes(data)
    return {name: str(path) for name, path in paths.items()} | {"empty": ""}


# Every path that writes to stderr: (argv, with {name} for a file of
# _stderr_inputs, exit code, the name of the error or warning of each stderr
# line in order). A case named nonconverged_* runs with a one-step Newton cap.
STDERR_PATHS = {
    "trial_gap": ("extract --input {gap} --output {out}", 0, ["TrialGapWarning"]),
    "unknown_column": ("extract --input {extra} --output {out}", 0, ["UnknownColumnsWarning"]),
    "nonconverged_train": ("train --input {features} --output {out}", 3,
                           ["NonConvergenceWarning"]),
    "nonconverged_evaluate": ("evaluate --input {cohort} --output {out}", 3,
                              ["NonConvergenceWarning"]),
    "nonconverged_predict": ("predict --model {stopped} --features {features} --output {out}", 0,
                             ["NonConvergenceWarning"]),
    "nonconverged_explain": ("explain --model {stopped} --features {features} "
                             "--output-dir {out_dir}", 0, ["NonConvergenceWarning"]),
    "bad_config": ("train --config {bad_config} --input {features} --output {out}", 2,
                   ["ConfigError"]),
    # a subnormal C would overflow the penalty 1/C: refused before any fold runs
    "subnormal_C_config": ("evaluate --config {subnormal_C} --input {cohort} --output {out}", 2,
                           ["ConfigError"]),
    "subnormal_C_flag": ("evaluate --C 1e-320 --input {cohort} --output {out}", 2,
                         ["ConfigError"]),
    "missing_file": ("extract --input {missing} --output {out}", 2, ["OSError"]),
    "model_unknown_key": ("predict --model {misspelt} --features {features} --output {out}", 2,
                          ["ConfigError"]),
    # a production so large that t1_rel_error, or a column's std, overflows
    "overflow_extract": ("extract --input {overflow} --output {out}", 2,
                         ["NonFiniteFeatureError"]),
    "overflow_evaluate": ("evaluate --no-undersample --input {cohort_1e308} --output {out}", 2,
                          ["NonFiniteFeatureError"]),
    "overflow_std_evaluate": ("evaluate --no-undersample --input {cohort_3e304} --output {out}",
                              2, ["NonFiniteFeatureError"]),
    "overflow_std_train_1e308": ("train --no-undersample --input {features_1e308} --output {out}",
                                 2, ["NonFiniteFeatureError"]),
    "overflow_std_train_1e306": ("train --no-undersample --input {features_1e306} --output {out}",
                                 2, ["NonFiniteFeatureError"]),
    # a usage error is a ConfigError line in argparse's words, not its usage text
    "unknown_flag": ("train --input {features} --output {out} --bogus", 2, ["ConfigError"]),
    "missing_path": ("extract --output {out}", 2, ["ConfigError"]),
    "no_subcommand": ("", 2, ["ConfigError"]),
    "trials_header_only": ("extract --input {trials_header} --output {out}", 2,
                           ["EmptyFileError"]),
    "features_header_only": ("train --input {features_header} --output {out}", 2,
                             ["EmptyFileError"]),
    # an output path with no file name is a usage error, before anything runs
    "output_empty_name": ("simulate --participants 30 --output {empty}", 2, ["ConfigError"]),
    "output_dot": ("simulate --participants 30 --output .", 2, ["ConfigError"]),
    "output_root": ("extract --input {cohort} --output /", 2, ["ConfigError"]),
    "per_sample_dot": ("evaluate --input {cohort} --output {out} --per-sample .", 2,
                       ["ConfigError"]),
    # the summary would overwrite the per-sample CSV: the two paths are compared resolved
    "per_sample_is_output": ("evaluate --input {cohort} --output {out} "
                             "--per-sample {out_dir}/../out.csv", 2, ["ConfigError"]),
    # finite in, finite out: a model under which a z-score, a logit or an
    # attribution's spread overflows exits 2 before anything is written
    "overflow_logit_predict": ("predict --model {coef_1e308} --features {features} "
                               "--output {out}", 2, ["NonFiniteFeatureError"]),
    "overflow_logit_explain": ("explain --model {coef_1e308} --features {features} "
                               "--output-dir {out_dir}", 2, ["NonFiniteFeatureError"]),
    "overflow_spread_explain": ("explain --model {coef_1e200} --features {features} "
                                "--output-dir {out_dir}", 2, ["NonFiniteFeatureError"]),
    "subnormal_std_predict": ("predict --model {std_subnormal} --features {features} "
                              "--output {out}", 2, ["ConfigError"]),
    "overflow_z_explain": ("explain --model {mean_1e308} --features {features} "
                           "--output-dir {out_dir}", 2, ["NonFiniteFeatureError"]),
    # a produced time that overflows is rejected by the trial table's check;
    # an infinitely fast clock (arousal) clamps every rising trial at 0.5 s
    "overflow_weber_simulate": ("simulate --participants 20 --config {weber_1e308} "
                                "--output {out}", 2, ["NonPositiveTimeError"]),
    "overflow_arousal_simulate": ("simulate --participants 20 --config {arousal_1e308} "
                                  "--output {out}", 0, []),
    "overflow_population_mean_simulate": ("simulate --participants 20 --config "
                                          "{population_mean_1e308} --output {out}", 2,
                                          ["NonPositiveTimeError"]),
    "overflow_target_simulate": ("simulate --participants 20 --config {target_1e308} "
                                 "--output {out}", 2, ["NonPositiveTimeError"]),
}


@pytest.mark.parametrize("case", sorted(STDERR_PATHS))
def test_every_stderr_line_is_one_json_object(tmp_path, capsys, monkeypatch, case):
    argv, code, expected = STDERR_PATHS[case]
    paths = _stderr_inputs(tmp_path)
    capsys.readouterr()
    if case.startswith("nonconverged_"):
        monkeypatch.setattr(timeshift.logistic, "_MAX_ITER", 1)
    # pytest's filters make a warning an exception, which a fallback could
    # swallow: record every warning instead, and allow none
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([arg.format(**paths) for arg in argv.split()]) == code
    assert [str(w.message) for w in caught] == []
    names = []
    for line in capsys.readouterr().err.splitlines():
        entry = json.loads(line)
        (kind,) = {"error", "warning"} & entry.keys()  # exactly one of the two
        assert set(entry) == {kind, "message"} and isinstance(entry["message"], str)
        assert kind == ("error" if code == 2 else "warning")
        names.append(entry[kind])
    assert names == expected
    assert code != 2 or not any(Path(paths[name]).exists() for name in ("out", "out_dir"))


# The messages written where the error is raised, exact: (argv, with {input}
# for the file of the given bytes, error name, message)
RAISED_MESSAGES = {
    "missing_column": (
        "extract --input {input} --output {out}",
        "\n".join([TRIAL_HEADER.rsplit(",", 1)[0], "p1,1,low,30,false,false",
                   "p1,2,low,31,false,false", ""]).encode(),
        "MissingColumnError", "missing required column: 'nontiming_task_error'"),
    "duplicate_trial_index": (
        "extract --input {input} --output {out}", _trial_rows("p1,1,low,31,false,false,"),
        "DuplicateTrialIndexError", "participant 'p1' has duplicate trial index 1"),
    # twelve participants, of whom only p5 speeds up: fold 5 has no decrease left
    "single_class_fold": (
        "evaluate --no-undersample --input {input} --output {out}",
        "\n".join([TRIAL_HEADER] + [
            f"p{i},{index},low,{produced},false,false,"
            for i in range(12)
            for index, produced in ((1, 30 + i), (2, 25 if i == 5 else 40 + i))
        ] + [""]).encode(),
        "FoldSingleClassError", "training fold 5 contains a single class"),
    "constant_column": (
        "train --no-undersample --input {input} --output {out}",
        _feature_rows("2.0,1,0,0,0,decrease\n-5.0,1,0,2,2,increase\n7.0,0,0,0,1,decrease\n"
                      "1.0,0,0,1,2,decrease\n-3.0,1,0,1,0,increase"),
        "ConstantColumnError", "high_visual_sensitivity is constant; cannot standardize"),
}


@pytest.mark.parametrize("case", sorted(RAISED_MESSAGES))
def test_raised_message_is_the_error_line(tmp_path, capsys, case):
    argv, data, error, message = RAISED_MESSAGES[case]
    source = tmp_path / "input.csv"
    source.write_bytes(data)
    out = tmp_path / "out.json"
    assert main(argv.format(input=source, out=out).split()) == 2
    assert capsys.readouterr().err == json.dumps({"error": error, "message": message}) + "\n"
    assert sorted(tmp_path.iterdir()) == [source]


# An output flag that names an input's file, however spelt: (argv, with
# {name} for a path in the run's directory, the output flag, the input flag)
OUTPUT_CLASHES = {
    "extract": ("extract --input {trials} --output {trials}", "--output", "--input"),
    "train": ("train --input {features} --output {features}", "--output", "--input"),
    "train_dotdot": ("train --input {features} --output {sub}/../features.csv",
                     "--output", "--input"),
    "predict_model": ("predict --model {model} --features {features} --output {model}",
                      "--output", "--model"),
    "predict_features": ("predict --model {model} --features {features} --output {features}",
                         "--output", "--features"),
    "simulate_config": ("simulate --config {config} --output {config}", "--output", "--config"),
    "evaluate_per_sample": ("evaluate --input {trials} --output {out} --per-sample {trials}",
                            "--per-sample", "--input"),
    "evaluate_output": ("evaluate --input {trials} --output {trials} --per-sample {out}",
                        "--output", "--input"),
    # --per-sample is checked at its default, out.per_sample.csv beside out.json
    "evaluate_per_sample_default": ("evaluate --input {sub}/out.per_sample.csv "
                                    "--output {sub}/out.json", "--per-sample", "--input"),
}


@pytest.mark.parametrize("case", sorted(OUTPUT_CLASHES))
def test_output_never_replaces_an_input(tmp_path, capsys, case):
    argv, output_flag, flag = OUTPUT_CLASHES[case]
    config = write_config(tmp_path)
    paths = {"config": config, "trials": tmp_path / "trials.csv",
             "features": tmp_path / "features.csv", "model": tmp_path / "model.json",
             "sub": tmp_path / "sub", "out": tmp_path / "out.csv"}
    assert main(["simulate", "--config", str(config), "--output", str(paths["trials"])]) == 0
    paths["features"].write_bytes(_feature_rows(TRAINABLE_ROWS))
    save_model(pinned_model(), paths["model"])
    paths["sub"].mkdir()
    (paths["sub"] / "out.per_sample.csv").write_bytes(paths["trials"].read_bytes())

    def files():
        return {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}

    before = files()
    capsys.readouterr()
    argv = argv.format(**paths).split()
    assert main(argv) == 2
    named = Path(argv[argv.index(flag) + 1])
    expected = {"error": "ConfigError", "message": f"{output_flag} and {flag} name one file: {named}"}
    assert capsys.readouterr().err == json.dumps(expected) + "\n"
    assert files() == before


# A library call with arguments it cannot use raises ValueError, not a
# TimeshiftError: the CLI, which reports only TimeshiftErrors, never makes one.
# (call, given the run's directory; the start of its message)
LIBRARY_MISUSE = {
    "fit_shape": (lambda _: fit(np.zeros((6, 4)), [0, 1] * 3), "expected an (n, 5) matrix"),
    "fit_lengths": (lambda _: fit(np.zeros((6, 5)), [0, 1] * 2), "Z and y differ in length"),
    "fit_scaler_shape": (lambda _: fit_scaler(np.zeros((6, 4))), "expected an (n, 5) matrix"),
    "write_feature_csv_lengths": (
        lambda tmp: write_feature_csv(np.zeros((2, 5)), [True], tmp / "f.csv"),
        "features and labels differ in length"),
    "metrics_empty": (lambda _: metrics([], []), "cannot compute metrics on empty input"),
    "metrics_lengths": (lambda _: metrics([True], []), "1 predictions vs 0 actual labels"),
    "magnitude_confusion_lengths": (lambda _: magnitude_confusion([0.5], []),
                                    "1 probabilities vs 0 deltas"),
    "two_gate_widths": (lambda _: SimParams(gate_width_by_engagement=(0.9, 0.8)),
                        "gate_width_by_engagement must hold 3 widths, got 2"),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_MISUSE))
def test_library_misuse_raises_value_error(tmp_path, case):
    call, message = LIBRARY_MISUSE[case]
    with pytest.raises(ValueError, match="^" + re.escape(message)) as excinfo:
        call(tmp_path)
    assert not isinstance(excinfo.value, TimeshiftError)
    assert not any(tmp_path.iterdir())

def test_mutated_inputs_exit_0_2_or_3(tmp_path, capsys):
    """
    Seeded mutants of a trial CSV, each through extract or evaluate, and of
    a feature CSV, each through train or predict (a seeded pick, to keep the
    run short): every run exits 0, 2 or 3 (no traceback), every stderr line
    is one JSON object, and an exit 2 writes one error line and leaves no
    output behind.
    """
    rng = random.Random(19)
    model = tmp_path / "model.json"
    save_model(pinned_model(), model)
    runs = [
        (name, data, command)
        for header, rows, commands in [
            (TRIAL_CSV_COLUMNS, trial_cells(rng),
             [["extract", "--input"], ["evaluate", "--input"]]),
            (FEATURE_CSV_COLUMNS, feature_cells(rng),
             [["train", "--input"], ["predict", "--model", str(model), "--features"]]),
        ]
        for name, data in _mutants(list(header), rows, rng)
        for command in [rng.choice(commands)]
    ]
    source = tmp_path / "in.csv"
    for name, data, command in runs:
        source.write_bytes(data)
        code = main([*command, str(source), "--output", str(tmp_path / "out.csv")])
        lines = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        outputs = list(tmp_path.glob("out*"))
        assert code in (0, 2, 3), (name, command[0], code)
        if code == 2:
            assert [line.keys() for line in lines] == [{"error", "message"}], (name, command[0])
            assert outputs == [], (name, command[0])
        for path in outputs:
            path.unlink()


# One value of a model file or of a config, replaced by each of these.
FUZZ_TOKENS = (None, "text", [], {}, 1e308, -1e308, 1e-320, 1e16, 10**400, math.nan, True, False)

# every key of the config file, each at a value that runs
FULL_CONFIG = {
    "seed": 5, "C": 12.06, "target_interval_s": 30.0, "undersample": True,
    "thresholds": {"prob_low": 0.4, "prob_high": 0.6, "delta_small": 5.0},
    "sim": {"n_participants": 30, "n_trials": 2, "engagement_assignment": "random_uniform_9",
            "base_clock_rate_hz": 10.0, "gate_width_by_engagement": [1.0, 0.85, 0.7],
            "arousal_gain": 0.05, "reference_ticks": None, "memory_correction_weight": 0.3,
            "regression_weight": 0.3, "weber_fraction": 0.15, "population_mean_s": 45.0,
            "report_flip_prob": 0.1, "sensitivity_prevalence": 0.3},
}


def _leaves(value, path=()):
    """The path of every value in a JSON object that is not an object or a list."""
    if isinstance(value, (dict, list)):
        for key, item in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from _leaves(item, (*path, key))
    else:
        yield path


def _replaced(value, path, token):
    """A copy of a JSON object with the value at path replaced by token."""
    value = json.loads(json.dumps(value))
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = token
    return value


def _no_constant(name):
    raise AssertionError(f"{name} in a JSON output")


def test_fuzzed_model_and_config_values(tmp_path, capsys):
    """
    Each value of the pinned model file, through predict and explain, and of
    a full config, through simulate and a seeded pick of evaluate or train,
    replaced by each FUZZ_TOKENS token: every run exits 0, 2 or 3, every
    stderr line is one JSON object, no warning is recorded, and an exit 0
    writes no blank or NaN probability.
    """
    rng = random.Random(24)
    trials, features = tmp_path / "trials.csv", tmp_path / "features.csv"
    config = write_config(tmp_path, **FULL_CONFIG)
    assert main(["simulate", "--config", str(config), "--output", str(trials)]) == 0
    assert main(["extract", "--input", str(trials), "--output", str(features)]) == 0
    source, out = tmp_path / "in.json", tmp_path / "out"
    argv = {
        "predict": ["--model", str(source), "--features", str(features),
                    "--output", str(out / "o.csv")],
        "explain": ["--model", str(source), "--features", str(features),
                    "--output-dir", str(out / "shap")],
        "simulate": ["--config", str(source), "--output", str(out / "o.csv")],
        "evaluate": ["--config", str(source), "--input", str(trials),
                     "--output", str(out / "r.json"), "--per-sample", str(out / "p.csv")],
        "train": ["--config", str(source), "--input", str(features),
                  "--output", str(out / "m.json")],
    }
    runs = [
        (base, path, token, command)
        for base, pick in [(_MODEL, lambda: ["predict", "explain"]),
                           (FULL_CONFIG, lambda: ["simulate", rng.choice(["evaluate", "train"])])]
        for path in _leaves(base)
        for token in FUZZ_TOKENS
        for command in pick()
    ]
    capsys.readouterr()
    for base, path, token, command in runs:
        case = (path, token, command)
        source.write_text(json.dumps(_replaced(base, path, token)))
        out.mkdir()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, *argv[command]])
        assert code in (0, 2, 3), case
        assert [str(w.message) for w in caught] == [], case
        for line in capsys.readouterr().err.splitlines():
            assert isinstance(json.loads(line), dict), case
        for written in sorted(out.rglob("*"), reverse=True):  # files before their directory
            if code == 0 and written.suffix == ".json":
                json.loads(written.read_text(), parse_constant=_no_constant)
            if code == 0 and written.suffix == ".csv":  # the probability column, if it has one
                with written.open(newline="") as fh:
                    cells = [row.get("probability", "0") for row in csv.DictReader(fh)]
                assert all(math.isfinite(float(cell or "nan")) for cell in cells), case
            written.unlink() if written.is_file() else written.rmdir()
        out.rmdir()


SIM_TEXT_AND_GATE_5 = '{"sim": {"weber_fraction": "abc", "gate_width_by_engagement": [0.1, 0.9, 5]}}'

# (command, config file text, bytes or None, flags, fragment of the message)
MALFORMED_CONFIGS = {
    "not_an_object": ("simulate", "[1, 2]", [], "JSON object"),
    "seed_text": ("simulate", '{"seed": "abc"}', [], "seed"),
    "seed_bool": ("simulate", '{"seed": true}', [], "seed"),
    "seed_fraction": ("simulate", '{"seed": 1.5}', [], "^seed must be an integer, got 1.5"),
    # "^": the message starts with the fragment, so rng_seed cannot stand in for seed
    "seed_negative": ("simulate", None, ["--seed", "-1"], "^seed must be >= 0, got -1"),
    "seed_negative_in_file": ("simulate", '{"seed": -1}', [], "^seed must be >= 0, got -1"),
    "participants_0": ("simulate", None, ["--participants", "0"], "participants"),
    "trials_1": ("simulate", None, ["--trials", "1"], "trials"),
    "C_0": ("train", None, ["--C", "0"], "C must"),
    "C_negative": ("train", None, ["--C", "-1"], "C must"),
    "C_inf": ("train", None, ["--C", "inf"], "C must"),
    "C_subnormal": ("train", '{"C": 1e-320}', [],
                    "^C must be >= 2.2250738585072014e-308, got 1e-320"),
    "target_text": ("train", '{"target_interval_s": "abc"}', [], "target_interval_s"),
    "undersample_text": ("train", '{"undersample": "no"}', [], "undersample"),
    "sim_number": ("train", '{"sim": 5}', [], "sim must be a JSON object"),
    "sim_null": ("simulate", '{"sim": null}', [], "sim must be a JSON object"),
    # seed and target_interval_s are the only keys for the simulator's seed and target
    # (a sim rng_seed is refused as a key, whatever its value)
    "rng_seed_text": ("simulate", '{"sim": {"rng_seed": "abc"}}', [],
                      "unknown key(s) in the sim section: rng_seed"),
    "rng_seed_negative": ("simulate", '{"sim": {"rng_seed": -3}}', [],
                          "unknown key(s) in the sim section: rng_seed"),
    "rng_seed_fraction": ("simulate", '{"sim": {"rng_seed": 1.5}}', [],
                          "unknown key(s) in the sim section: rng_seed"),
    "rng_seed_bool": ("simulate", '{"sim": {"rng_seed": true}}', [],
                      "unknown key(s) in the sim section: rng_seed"),
    "target_s_unknown": ("simulate", '{"sim": {"target_s": 20}}', [],
                         "unknown key(s) in the sim section: target_s"),
    # a cohort over the bound is refused before anything is allocated
    "cohort_over_bound": (
        "simulate", '{"sim": {"n_participants": 100000000000000000000}}', [],
        "^n_participants * n_trials must be <= 10000000, got 200000000000000000000"),
    "cohort_over_bound_flag": ("simulate", None, ["--participants", "100000000000"],
                               "^n_participants * n_trials must be <= 10000000, got 200000000000"),
    "assignment_unknown_level": ("simulate", '{"sim": {"engagement_assignment": ["low", "loud"]}}',
                                 [], "engagement_assignment"),
    "assignment_number": ("simulate", '{"sim": {"engagement_assignment": 7}}',
                          [], "engagement_assignment"),
    "assignment_text": ("simulate", '{"sim": {"engagement_assignment": "whatever"}}',
                        [], "engagement_assignment"),
    "assignment_short": ("simulate", '{"sim": {"engagement_assignment": ["low"]}}',
                         [], "engagement_assignment"),
    "unknown_keys": ("simulate", '{"Seed": 3, "c": 1.0}', [],
                     "unknown key(s) in the config: Seed, c"),
    "unknown_sim_key": ("train", '{"sim": {"weber": 0.1}}', [], "sim section: weber"),
    "unknown_threshold_key": ("train", '{"thresholds": {"low": 0.3}}', [],
                              "thresholds section: low"),
    # non-finite numbers are named, not passed on to band or simulate with
    "delta_small_nan": ("train", '{"thresholds": {"delta_small": NaN}}', [],
                        "delta_small must be finite"),
    "delta_small_inf": ("train", '{"thresholds": {"delta_small": Infinity}}', [],
                        "delta_small must be finite"),
    "arousal_gain_inf": ("simulate", '{"sim": {"arousal_gain": Infinity}}', [],
                         "arousal_gain must be finite"),
    "clock_rate_inf": ("simulate", '{"sim": {"base_clock_rate_hz": Infinity}}', [],
                       "base_clock_rate_hz must be finite"),
    "weber_fraction_nan": ("simulate", '{"sim": {"weber_fraction": NaN}}', [],
                           "weber_fraction must be finite"),
    "reference_ticks_nan": ("simulate", '{"sim": {"reference_ticks": NaN}}', [],
                            "reference_ticks must be finite"),
    "population_mean_nan": ("simulate", '{"sim": {"population_mean_s": NaN}}', [],
                            "population_mean_s must be finite"),
    # JSON true is not the number 1
    "delta_small_bool": ("train", '{"thresholds": {"delta_small": true}}', [],
                         "delta_small must be a number"),
    "weber_fraction_bool": ("simulate", '{"sim": {"weber_fraction": true}}', [],
                            "weber_fraction must be a number"),
    "reference_ticks_bool": ("simulate", '{"sim": {"reference_ticks": true}}', [],
                             "reference_ticks must be a number"),
    "report_flip_prob_bool": ("simulate", '{"sim": {"report_flip_prob": true}}', [],
                              "report_flip_prob must be a number"),
    "gate_width_bool": ("simulate", '{"sim": {"gate_width_by_engagement": [true, 0.85, 0.7]}}',
                        [], "gate_width_by_engagement must be a number"),
    # a string or null is not a number either, except null for reference_ticks
    "prob_low_text": ("train", '{"thresholds": {"prob_low": "0.3"}}', [],
                      "prob_low must be a number"),
    "delta_small_null": ("train", '{"thresholds": {"delta_small": null}}', [],
                         "delta_small must be a number"),
    "reference_ticks_text": ("simulate", '{"sim": {"reference_ticks": "x"}}', [],
                             "reference_ticks must be a number"),
    "gate_width_text": ("simulate", '{"sim": {"gate_width_by_engagement": "abc"}}', [],
                        "gate_width_by_engagement must be a number"),
    "gate_width_number": ("simulate", '{"sim": {"gate_width_by_engagement": 0.5}}', [],
                          "gate_width_by_engagement must be a list"),
    "n_trials_text": ("simulate", '{"sim": {"n_trials": "3"}}', [], "n_trials must be an integer"),
    "thresholds_number": ("train", '{"thresholds": 5}', [], "thresholds must be a JSON object"),
    # a bound error names the key, the item, the bound and the value
    "gate_width_above_1": ("simulate", '{"sim": {"gate_width_by_engagement": [1, 0.9, 1.5]}}',
                           [], "gate_width_by_engagement[2] must be <= 1, got 1.5"),
    # every command checks the sim section, not only simulate
    # (the input is never read: the config fails first)
    "sim_checked_by_extract": ("extract", SIM_TEXT_AND_GATE_5, ["--input", "unread.csv"],
                               "weber_fraction"),
    "sim_checked_by_train": ("train", SIM_TEXT_AND_GATE_5, [], "weber_fraction"),
    "not_utf8": ("train", b'\xff\xfe{"seed":1}', [], "utf-8"),
    "config_missing": ("simulate", None, ["--config", "no/such/config.json"],
                       "^config file not found: no/such/config.json"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
def test_malformed_config_exits_2(tmp_path, capsys, case):
    command, text, flags, fragment = MALFORMED_CONFIGS[case]
    if text is not None:
        config = tmp_path / "config.json"
        config.write_bytes(text if isinstance(text, bytes) else text.encode())
        flags = [*flags, "--config", str(config)]
    if command == "train":
        # six trainable rows, so only the config value can fail the run
        features = tmp_path / "features.csv"
        features.write_bytes(_feature_rows(TRAINABLE_ROWS))
        flags = [*flags, "--input", str(features)]
    assert main([command, *flags, "--output", str(tmp_path / "out")]) == 2
    assert not any(tmp_path.glob("out*"))
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    if fragment.startswith("^"):
        assert err["message"].startswith(fragment[1:])
    else:
        assert fragment in err["message"]


CRITERION_9_CONFIG = {
    "seed": 11, "C": 12.06,
    "sim": {"n_participants": 400, "n_trials": 2, "sensitivity_prevalence": 0.3},
}

# (command, config or None, flags, config_hash): every artifact carries its
# config's hash, so a change to how the config is read must keep these
PINNED_HASHES = [
    ("train", None, [], "97279127124fd0d0"),
    ("predict", None, ["--target", "20", "--C", "3"], "bc0e984f2302c236"),
    ("simulate", None, ["--participants", "5", "--trials", "4"], "f0a60eec32e103fc"),
    ("simulate", CRITERION_9_CONFIG, [], "309dd3efc70290dc"),
    ("train", CRITERION_9_CONFIG, ["--no-undersample"], "3f5aba6f5fca7319"),
    ("simulate", {"sim": {"n_participants": 8, "n_trials": 2, "weber_fraction": 0.0,
                          "engagement_assignment": ["low", "LOW"]}}, [], "d6b1e555a195ed58"),
    # 30 and 30.0 are one value, however it is written
    ("extract", None, [], "97279127124fd0d0"),
    ("extract", {"target_interval_s": 30}, [], "97279127124fd0d0"),
    ("extract", {"target_interval_s": 30.0}, [], "97279127124fd0d0"),
    ("extract", None, ["--target", "30"], "97279127124fd0d0"),
]


@pytest.mark.parametrize("command, config, flags, expected", PINNED_HASHES)
def test_config_hash_is_pinned(tmp_path, command, config, flags, expected):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        flags = [*flags, "--config", str(path)]
    trials, features, model = tmp_path / "trials.csv", tmp_path / "f.csv", tmp_path / "m.json"
    trials.write_bytes(_trial_rows("p1,2,low,31,false,false,"))
    features.write_bytes(_feature_rows(TRAINABLE_ROWS))
    save_model(pinned_model(), model)
    inputs = {
        "simulate": [],
        "extract": ["--input", str(trials)],
        "train": ["--input", str(features)],
        "predict": ["--model", str(model), "--features", str(features)],
    }[command]
    out = tmp_path / "out.csv"
    assert main([command, *flags, *inputs, "--output", str(out)]) == 0
    assert json.loads(out.with_suffix(".manifest.json").read_text())["config_hash"] == expected


# Annotations check_fields leaves to their own class. Every other field of a
# dataclass read from a config or model file must be one the type rule
# checks, so a new field cannot skip the check unnoticed.
NESTED_ANNOTATIONS = [Thresholds, SimParams | None, ScalerStats, str | list[EngagementLevel]]


@pytest.mark.parametrize("instance", [
    RunConfig(), Thresholds(), SimParams(), identity_scaler(), pinned_model(),
], ids=lambda instance: type(instance).__name__)
def test_every_json_read_field_is_type_checked(instance):
    hints = typing.get_type_hints(type(instance))
    for field in dataclasses.fields(instance):
        if hints[field.name] in NESTED_ANNOTATIONS:
            continue
        key = field.metadata.get("key", field.name)
        with pytest.raises(ValueError, match=re.escape(f"{key} must be")):
            dataclasses.replace(instance, **{field.name: object()})


class TestEvaluate:
    @pytest.fixture()
    def trials(self, tmp_path):
        """A 60-participant cohort where every LOOCV fold can be fitted."""
        config = write_config(
            tmp_path,
            sim={"n_participants": 60, "n_trials": 2, "sensitivity_prevalence": 0.4},
        )
        trials = tmp_path / "trials.csv"
        assert main(["simulate", "--config", str(config), "--output", str(trials)]) == 0
        return config, trials

    def test_report_schema_and_per_sample(self, tmp_path, trials):
        config, trials = trials
        report_path = tmp_path / "report.json"
        code = main(
            [
                "evaluate",
                "--config", str(config),
                "--input", str(trials),
                "--output", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        for key in (
            "model_name", "n", "precision", "recall", "accuracy",
            "confusion", "magnitude_confusion", "seed", "C",
        ):
            assert key in report
        assert len(report["confusion"]) == 2
        assert len(report["magnitude_confusion"]) == 3
        assert [row["model_name"] for row in report["baselines"]] == [
            "attention", "arousal",
        ]
        for row in report["baselines"]:
            assert set(row) == {"model_name", "precision", "recall", "accuracy"}
        assert set(report["five_cells"]) == {
            "high_increase_hit", "small_change_hit", "high_decrease_hit",
            "high_increase_extreme_miss", "high_decrease_extreme_miss",
        }
        assert report["nonconverged_folds"] == 0
        assert 1 <= report["fold_n_iter"]["min"] <= report["fold_n_iter"]["max"]
        assert 0 <= report["constant_fold_columns"] <= report["n"]
        per_sample = report_path.with_suffix(".per_sample.csv")
        with per_sample.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == report["n"]
        assert set(rows[0]) == {
            "id", "probability", "direction_pred", "direction_actual",
            "delta_t", "magnitude_pred", "magnitude_actual",
        }
        total = sum(sum(row) for row in report["magnitude_confusion"])
        assert total == report["n"]

    def test_certain_fold_reads_probability_one(self, tmp_path, trials):
        # a forgotten 4,000 s first production: its fold's logit is far past 37
        config, trials = trials
        lines = trials.read_text().splitlines()
        cells = lines[1].split(",")
        assert cells[:2] == ["sim00", "1"]
        cells[3] = "4000"
        lines[1] = ",".join(cells)
        trials.write_text("\n".join(lines) + "\n")
        report_path = tmp_path / "report.json"
        argv = ["evaluate", "--config", str(config), "--input", str(trials),
                "--output", str(report_path), "--no-undersample"]
        assert main(argv) == 0
        with report_path.with_suffix(".per_sample.csv").open() as fh:
            rows = {row["id"]: row for row in csv.DictReader(fh)}
        assert rows["sim00:2"]["probability"] == "1.0"
        assert rows["sim00:2"]["direction_pred"] == "decrease"

    def test_nondefault_thresholds_band_every_row(self, tmp_path):
        config = write_config(
            tmp_path,
            thresholds=dataclasses.asdict(THRESHOLDS),
            undersample=False,
            sim={"n_participants": 60, "n_trials": 2, "sensitivity_prevalence": 0.4},
        )
        trials = tmp_path / "trials.csv"
        assert main(["simulate", "--config", str(config), "--output", str(trials)]) == 0
        # the first two participants change by exactly +delta_small and -delta_small
        lines = trials.read_text().splitlines()
        for line_num, produced in zip(range(1, 5), ("30.0", "32.0", "30.0", "28.0")):
            cells = lines[line_num].split(",")
            cells[3] = produced
            lines[line_num] = ",".join(cells)
        trials.write_text("\n".join(lines) + "\n")
        report_path = tmp_path / "report.json"
        assert main(["evaluate", "--config", str(config), "--input", str(trials),
                     "--output", str(report_path)]) == 0
        with report_path.with_suffix(".per_sample.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 60
        assert_rows_banded(rows, THRESHOLDS)
        edges = [row for row in rows if abs(float(row["delta_t"])) == THRESHOLDS.delta_small]
        assert [row["magnitude_actual"] for row in edges] == ["small_change"] * 2

    def test_single_class_cohort_exits_2(self, tmp_path, capsys):
        # every participant slows down: no decrease anywhere in the cohort
        rows = [TRIAL_HEADER] + [
            f"p{i},{index},{level},{produced},false,false,"
            for i in range(12)
            for index, level, produced in ((1, "low", 20 + i), (2, "high", 40 + i))
        ]
        trials = tmp_path / "trials.csv"
        trials.write_text("\n".join(rows) + "\n")
        argv = ["evaluate", "--input", str(trials), "--output", str(tmp_path / "r.json"),
                "--no-undersample"]
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "SingleClassError"

    @pytest.mark.parametrize("flags", [[], ["--no-undersample"]])
    def test_cohort_constant_column_is_evaluated(self, tmp_path, flags):
        # no one is sensitive, so high_visual_sensitivity is constant in every fold
        config = write_config(tmp_path, sim={"sensitivity_prevalence": 0})
        trials = tmp_path / "trials.csv"
        assert main(["simulate", "--config", str(config), "--seed", "5", "--participants",
                     "60", "--trials", "2", "--output", str(trials)]) == 0
        report_path = tmp_path / "report.json"
        assert main(["evaluate", "--seed", "5", "--input", str(trials),
                     "--output", str(report_path), *flags]) == 0
        report = json.loads(report_path.read_text())
        assert report["constant_fold_columns"] == report["n"] > 0
        assert report["nonconverged_folds"] == 0

    def test_nonconverged_folds_exit_3(self, tmp_path, trials, monkeypatch, capsys):
        config, trials = trials
        monkeypatch.setattr(timeshift.logistic, "_MAX_ITER", 1)
        capsys.readouterr()
        report_path = tmp_path / "report.json"
        argv = ["evaluate", "--config", str(config), "--input", str(trials),
                "--output", str(report_path)]
        assert main(argv) == 3
        report = json.loads(report_path.read_text())
        assert report["nonconverged_folds"] == report["n"] > 0
        (line,) = capsys.readouterr().err.splitlines()
        warning = json.loads(line)
        assert warning["warning"] == "NonConvergenceWarning"
        assert warning["message"].startswith(f"{report['n']} of {report['n']} LOOCV folds")


class TestMisc:
    def test_flags_override_config_values(self, tmp_path):
        config = write_config(tmp_path, seed=5)
        out = tmp_path / "trials.csv"
        main(["simulate", "--config", str(config), "--seed", "9", "--target", "20",
              "--output", str(out)])
        manifest = json.loads((tmp_path / "trials.manifest.json").read_text())
        assert manifest["seed"] == 9
        assert manifest["params"]["rng_seed"] == 9
        assert manifest["params"]["target_s"] == 20.0

    def test_version_prints_pinned_coefficients(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "0.662" in out and "intercept=0.016" in out

    def test_bad_config_json_exits_2(self, tmp_path, capsys):
        config = tmp_path / "broken.json"
        config.write_text("{nope")
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", str(config), "--output", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_config_paths_section_is_not_read(self, tmp_path, capsys):
        # paths come only from flags; a config "paths" section is an unknown key
        config = write_config(tmp_path, paths={"output": str(tmp_path / "t.csv")})
        out = tmp_path / "flag.csv"
        assert main(["simulate", "--config", str(config), "--output", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and "paths" in err["message"]
        assert not (tmp_path / "t.csv").exists() and not out.exists()

    def test_missing_output_flag_exits_2(self, capsys):
        assert main(["simulate"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


# Each command's options after -h, as (option strings, dest, default, required,
# nargs); nargs 0 is a flag that takes no value.
COMMON_OPTIONS = [
    (["--config"], "config", None, False, None),
    (["--seed"], "seed", None, False, None),
    (["--target"], "target_interval_s", None, False, None),
    (["--C"], "C", None, False, None),
]
INPUT, OUTPUT = (["--input"], "input", None, True, None), (["--output"], "output", None, True, None)
MODEL_AND_FEATURES = [(["--model"], "model", None, True, None),
                      (["--features"], "features", None, True, None)]
NO_UNDERSAMPLE = (["--no-undersample"], "undersample", None, False, 0)
COMMAND_OPTIONS = {
    "simulate": [OUTPUT, (["--participants"], "n_participants", None, False, None),
                 (["--trials"], "n_trials", None, False, None)],
    "extract": [INPUT, OUTPUT],
    "train": [INPUT, OUTPUT, NO_UNDERSAMPLE],
    "evaluate": [INPUT, OUTPUT, (["--per-sample"], "per_sample", None, False, None),
                 NO_UNDERSAMPLE],
    "predict": [*MODEL_AND_FEATURES, OUTPUT],
    "explain": [*MODEL_AND_FEATURES, (["--output-dir"], "output_dir", Path("."), False, None),
                (["--row"], "row", 0, False, None)],
}


class TestCommandTable:
    def test_every_command_keeps_its_options(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        assert "{simulate,extract,train,evaluate,predict,explain}" in capsys.readouterr().out
        (commands,) = [action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        assert list(commands) == list(COMMAND_OPTIONS)
        for name, parser in commands.items():
            options = [(a.option_strings, a.dest, a.default, a.required, a.nargs)
                       for a in parser._actions[1:]]
            assert options == COMMON_OPTIONS + COMMAND_OPTIONS[name], name

    def test_manifest_keys_and_none_on_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path, sim={"n_participants": 60, "sensitivity_prevalence": 0.4})
        common = ["--config", str(config)]
        trials, features = tmp_path / "trials.csv", tmp_path / "features.csv"
        model, outcomes = tmp_path / "model.json", tmp_path / "outcomes.csv"
        modelled = ["--model", str(model), "--features", str(features)]
        for argv in (["simulate", "--output", str(trials)],
                     ["extract", "--input", str(trials), "--output", str(features)],
                     ["train", "--input", str(features), "--output", str(model)],
                     ["evaluate", "--input", str(trials), "--output", str(tmp_path / "r.json")],
                     ["predict", *modelled, "--output", str(outcomes)],
                     ["explain", *modelled, "--output-dir", str(tmp_path / "shap")]):
            assert main([*argv, *common]) == 0, argv[0]
        keys = {path.name: sorted(json.loads(path.read_text()))
                for path in tmp_path.glob("*.manifest.json")}
        assert keys == {
            "trials.manifest.json": ["class_balance", "config_hash", "n_participants",
                                     "n_trials", "params", "seed"],
            "features.manifest.json": ["config_hash", "n_samples", "seed", "source"],
            "model.manifest.json": ["config_hash", "converged", "n_samples", "seed"],
            "outcomes.manifest.json": ["config_hash", "n_samples", "seed"],
        }
        # a run that exits 2 after its command starts writes no manifest
        bad = tmp_path / "bad.json"
        bad.write_bytes(_model_with(coefficients=[1e308, -1e308, 1e308, -1e308, 1e308]))
        argv = ["predict", "--model", str(bad), "--features", str(features)]
        capsys.readouterr()
        assert main([*argv, "--output", str(tmp_path / "late.csv")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "NonFiniteFeatureError"
        assert not list(tmp_path.glob("late*"))
