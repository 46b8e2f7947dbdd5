"""
Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line (run with -s to see them). Tolerances are pinned here, not configurable.
"""

import dataclasses
import itertools
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from timeshift.cli import main
from timeshift.data import (
    Direction,
    EngagementLevel,
    MagnitudeLevel,
    pair_consecutive,
    pair_deltas,
)
from timeshift.evaluation import (
    balanced_indices,
    classify_actual_magnitude,
    classify_direction,
    classify_predicted_magnitude,
    loocv,
)
from timeshift.explain import shap_matrix, shap_values
from timeshift.features import build_features, identity_scaler
from timeshift.logistic import (
    LogisticModel,
    fit,
    gradient,
    nll_loss,
    pinned_model,
    predict_proba,
)
from timeshift.simulator import SimParams, attention_baseline, arousal_baseline, generate_trials
from tests.test_data import directions, make_trial, pairs_of

LOW, MED, HIGH = EngagementLevel.LOW, EngagementLevel.MEDIUM, EngagementLevel.HIGH


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def test_criterion_1_pinned_model_replication():
    with criterion(1, "pinned-model probabilities replicate hand evaluation"):
        model = pinned_model()
        z0 = np.zeros(5)
        z2 = np.array([2.0, 0, 0, 0, 0])
        assert predict_proba(model, z0) == pytest.approx(0.50400, abs=1e-5)
        assert predict_proba(model, z2) == pytest.approx(0.79248, abs=1e-5)

        predict_proba(model, z0)  # warm-up
        timings = []
        for _ in range(101):
            start = time.perf_counter()
            predict_proba(model, z0)
            timings.append(time.perf_counter() - start)
        assert sorted(timings)[50] < 1e-3  # median single call < 1 ms


def test_criterion_2_optimizer_correctness():
    with criterion(2, "gradient matches finite differences; known coefficients recovered"):
        start = time.perf_counter()

        def loss_at(theta, Z, y, C):
            m = LogisticModel(
                intercept=theta[0], coefficients=tuple(theta[1:]),
                scaler=identity_scaler(), inverse_reg_c=C,
            )
            return nll_loss(m, Z, y)

        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(6, 51))
            Z = rng.normal(size=(n, 5))
            y = rng.integers(0, 2, n).astype(float)
            theta = np.concatenate([rng.normal(scale=0.5, size=1), rng.normal(scale=0.8, size=5)])
            C = float(rng.uniform(0.5, 50))
            model = LogisticModel(
                intercept=theta[0], coefficients=tuple(theta[1:]),
                scaler=identity_scaler(), inverse_reg_c=C,
            )
            analytic = gradient(model, Z, y)
            h = 1e-6
            numeric = np.zeros(6)
            for j in range(6):
                up, down = theta.copy(), theta.copy()
                up[j] += h
                down[j] -= h
                numeric[j] = (loss_at(up, Z, y, C) - loss_at(down, Z, y, C)) / (2 * h)
            rel = np.abs(numeric - analytic) / np.maximum(1.0, np.abs(analytic))
            worst = max(worst, float(rel.max()))
        assert worst < 1e-5

        beta = np.array([0.662, -0.191, -0.241, -0.187, 0.177])
        Z = np.random.default_rng(1).normal(size=(5000, 5))
        p = 1.0 / (1.0 + np.exp(-(0.016 + Z @ beta)))
        y = (np.random.default_rng(2).random(5000) < p).astype(float)
        model = fit(Z, y, C=1e6)
        assert np.abs(np.array(model.coefficients) - beta).max() < 0.05

        assert time.perf_counter() - start < 10.0


def test_criterion_3_shap_efficiency():
    with criterion(3, "SHAP efficiency holds on 10,000 samples; dummy features get zero"):
        start = time.perf_counter()
        rng = np.random.default_rng(33)
        model = LogisticModel(
            intercept=0.2,
            coefficients=(0.9, -0.4, 0.0, 1.3, -0.15),
            scaler=identity_scaler(),
            inverse_reg_c=1.0,
        )
        Z = rng.normal(size=(10_000, 5)) * 3
        background = rng.normal(size=5)
        base, phi, logits = shap_matrix(model, Z, background_means=background)
        assert np.abs(base + phi.sum(axis=1) - logits).max() < 1e-9
        assert np.all(phi[:, 2] == 0.0)  # zero-weight feature never gets credit

        for i in range(0, 10_000, 997):  # spot-check the scalar path
            single = shap_values(model, Z[i], background_means=background)
            assert abs(single.base_logit + sum(single.phi) - single.output_logit) < 1e-9
            assert single.phi[2] == 0.0

        assert time.perf_counter() - start < 1.0


def generate_dataset(params, n_participants, n_trials=2):
    """A simulated cohort's trials and their consecutive pairs."""
    trials = generate_trials(params, n_participants, n_trials)
    return trials, pair_consecutive(trials)


def _relabeled_to_random(dataset, seed):
    """Rewrite next-trial times so labels become a seeded 50/50 permutation;
    returns the features and labels of the relabeled dataset."""
    trials, pairs = dataset
    rng = np.random.default_rng(seed)
    half = len(pairs) // 2
    flags = rng.permutation([True] * half + [False] * (len(pairs) - half))
    produced = trials.produced_s.copy()
    delta = np.abs(pair_deltas(trials, pairs)) + 1.0
    prev = produced[pairs[:, 0]]
    produced[pairs[:, 1]] = np.maximum(np.where(flags, prev - delta, prev + delta), 0.6)
    trials = dataclasses.replace(trials, produced_s=produced)
    return build_features(trials, pairs), pair_deltas(trials, pairs) < 0


def test_criterion_4_evaluation_harness():
    with criterion(4, "undersampling is exact; LOOCV is chance-level on shuffled labels and deterministic"):
        class_layout = [True] * 353 + [False] * 633  # 353 decrease vs 633 increase
        trials = []
        for i, decrease in enumerate(class_layout):
            produced = 40.0 if i % 2 else 25.0
            trials += [
                make_trial(pid=f"p{i}", produced=produced,
                           engagement=EngagementLevel(i % 3)),
                make_trial(
                    pid=f"p{i}", index=2,
                    engagement=EngagementLevel((i + 1) % 3),
                    produced=produced - 5 if decrease else produced + 5,
                ),
            ]
        big = pairs_of(*trials)
        big_labels = pair_deltas(*big) < 0
        balanced = balanced_indices(big_labels, seed=0)
        labels = directions(big_labels[balanced])
        assert len(balanced) == 706
        assert labels.count(Direction.DECREASE) == 353
        assert labels.count(Direction.INCREASE) == 353

        in_band = 0
        for seed in range(20):
            base = generate_dataset(
                SimParams(rng_seed=seed, sensitivity_prevalence=0.3), 200, 2
            )
            shuffled = _relabeled_to_random(base, seed)
            accuracy = loocv(*shuffled, C=12.06).metrics.accuracy
            if 0.40 <= accuracy <= 0.60:
                in_band += 1
        assert in_band >= 18

        probe = _relabeled_to_random(
            generate_dataset(SimParams(rng_seed=5, sensitivity_prevalence=0.3), 60, 2), 5
        )
        first = loocv(*probe, C=12.06)
        second = loocv(*probe, C=12.06)
        assert [o.probability_of_decrease for o in first.outcomes] == [
            o.probability_of_decrease for o in second.outcomes
        ]


def test_criterion_5_baseline_mirror():
    with criterion(5, "baselines mirror on all strict transitions; attention is perfect on its world"):
        strict = 0
        for prev, nxt in itertools.product(EngagementLevel, repeat=2):
            if prev == nxt:
                assert attention_baseline(prev, nxt) == arousal_baseline(prev, nxt)
            else:
                assert attention_baseline(prev, nxt) != arousal_baseline(prev, nxt)
                strict += 1
        assert strict == 6

        params = SimParams(
            rng_seed=8,
            weber_fraction=0.0,
            memory_correction_weight=0.0,
            regression_weight=0.0,
            arousal_gain=0.0,
        )
        trials, pairs = generate_dataset(params, 500, 2)
        samples = zip(
            trials.level[pairs[:, 0]], trials.level[pairs[:, 1]],
            directions(pair_deltas(trials, pairs) < 0),
        )
        strict_pairs = [(prev, nxt, label) for prev, nxt, label in samples if prev != nxt]
        assert strict_pairs
        assert all(
            attention_baseline(prev, nxt) == label
            for prev, nxt, label in strict_pairs
        )


def test_criterion_6_magnitude_partition():
    with criterion(6, "probability/delta grid lands in the nine regions; bands imply directions"):
        HI, SC, HD = (
            MagnitudeLevel.HIGH_INCREASE,
            MagnitudeLevel.SMALL_CHANGE,
            MagnitudeLevel.HIGH_DECREASE,
        )
        prob_band = {0.35: HI, 0.3999: HI, 0.4: SC, 0.5: SC, 0.6: SC, 0.6001: HD, 0.65: HD}
        delta_band = {-6.0: HD, -5.0001: HD, -5.0: SC, 0.0: SC, 5.0: SC, 5.0001: HI, 6.0: HI}
        for (p, expected_p), (dt, expected_dt) in itertools.product(
            prob_band.items(), delta_band.items()
        ):
            assert classify_predicted_magnitude(p) == expected_p
            assert classify_actual_magnitude(dt) == expected_dt

        for p in np.arange(0.001, 1.0, 0.001):
            band = classify_predicted_magnitude(float(p))
            direction = classify_direction(float(p))
            if band == HD:
                assert direction == Direction.DECREASE
            if band == HI:
                assert direction == Direction.INCREASE


def assert_calibration_bands(seed):
    trials, pairs = generate_dataset(SimParams(rng_seed=seed), 1000, 2)
    labels = directions(pair_deltas(trials, pairs) < 0)
    decrease_fraction = labels.count(Direction.DECREASE) / len(pairs)
    trial1_mean = float(np.mean(trials.produced_s[pairs[:, 0]]))
    assert 0.25 <= decrease_fraction <= 0.50
    assert 28.0 <= trial1_mean <= 40.0


def test_criterion_7_simulator_calibration():
    with criterion(7, "default simulator lands in the human calibration bands"):
        start = time.perf_counter()
        assert_calibration_bands(0)
        assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("seed", range(5))
def test_criterion_7_bands_hold_across_seeds(seed):
    assert_calibration_bands(seed)


def test_criterion_8_rel_error_sign_change():
    with criterion(8, "prior-timing contribution flips sign between 34 s and 35 s produced"):
        model = pinned_model()  # scaler head: mean 15, sd 44

        def rel_error_contribution(produced_s):
            rel_error = build_features(
                *pairs_of(
                    make_trial(produced=produced_s),
                    make_trial(index=2, engagement=MED, produced=30.0),
                )
            )[0, 0]
            z = (rel_error - model.scaler.means[0]) / model.scaler.std_devs[0]
            return model.coefficients[0] * z

        assert rel_error_contribution(34.0) < 0.0
        assert rel_error_contribution(35.0) > 0.0


def test_criterion_9_end_to_end_determinism(tmp_path):
    with criterion(9, "two identical pipeline runs produce byte-identical artifacts"):
        start = time.perf_counter()
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "seed": 11,
                    "C": 12.06,
                    "sim": {
                        "n_participants": 400,
                        "n_trials": 2,
                        "sensitivity_prevalence": 0.3,
                    },
                }
            )
        )

        def run(workdir):
            workdir.mkdir()
            trials = workdir / "trials.csv"
            features = workdir / "features.csv"
            model = workdir / "model.json"
            report = workdir / "report.json"
            outcomes = workdir / "outcomes.csv"
            shap_dir = workdir / "shap"
            cfg = str(config_path)
            assert main(["simulate", "--config", cfg, "--output", str(trials)]) == 0
            assert main(["extract", "--config", cfg, "--input", str(trials),
                         "--output", str(features)]) == 0
            assert main(["train", "--config", cfg, "--input", str(features),
                         "--output", str(model)]) == 0
            assert main(["evaluate", "--config", cfg, "--input", str(trials),
                         "--output", str(report)]) == 0
            assert main(["predict", "--config", cfg, "--model", str(model),
                         "--features", str(features), "--output", str(outcomes)]) == 0
            assert main(["explain", "--config", cfg, "--model", str(model),
                         "--features", str(features), "--output-dir", str(shap_dir)]) == 0
            artifacts = sorted(
                p for p in workdir.rglob("*") if p.is_file()
            )
            return {str(p.relative_to(workdir)): p.read_bytes() for p in artifacts}

        first = run(tmp_path / "run1")
        second = run(tmp_path / "run2")
        assert first.keys() == second.keys()
        assert len(first) >= 12
        for name in first:
            assert first[name] == second[name], f"artifact differs: {name}"
        assert time.perf_counter() - start < 60.0
