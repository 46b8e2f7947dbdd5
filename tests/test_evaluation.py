import dataclasses
import functools

import numpy as np
import pytest

import timeshift.evaluation
import timeshift.logistic
from timeshift.data import (
    Direction,
    EngagementLevel,
    MagnitudeLevel,
    pair_deltas,
)
from timeshift.errors import (
    FoldSingleClassError,
    LengthMismatchError,
    SingleClassError,
    TooFewSamplesError,
)
from timeshift.evaluation import (
    DEFAULT_THRESHOLDS,
    MetricsReport,
    Thresholds,
    balanced_indices,
    baseline_rows,
    classify_actual_magnitude,
    classify_direction,
    classify_predicted_magnitude,
    confusion_2x2,
    loocv,
    magnitude_confusion,
    metrics,
)
from timeshift.features import build_features, fit_scaler, transform
from timeshift.logistic import fit, fit_folds, predict_proba
from timeshift.simulator import SimParams
from tests.test_data import directions, make_trial, pairs_of, simulated

LOW, MED, HIGH = EngagementLevel.LOW, EngagementLevel.MEDIUM, EngagementLevel.HIGH


def labeled_pair(
    pid,
    prev_produced,
    decrease,
    prev_eng=LOW,
    next_eng=MED,
    lower=False,
    rep_high=False,
    delta=5.0,
):
    """Two trials with a chosen label; features depend only on prev and next_eng."""
    next_produced = prev_produced - delta if decrease else prev_produced + delta
    return (
        make_trial(pid=pid, index=1, engagement=prev_eng, produced=prev_produced,
                   lower=lower, rep_high=rep_high),
        make_trial(pid=pid, index=2, engagement=next_eng, produced=next_produced),
    )


def dataset(pairs):
    """Trials and pairs of labeled_pair results, one participant each."""
    return pairs_of(*(trial for pair in pairs for trial in pair))


def features_and_labels(ds):
    """The raw feature matrix of a (trials, pairs) dataset and its decrease mask."""
    trials, pairs = ds
    return build_features(trials, pairs), pair_deltas(trials, pairs) < 0


def per_fold_reference(ds, C):
    """Each fold refitted alone: fit_scaler + fit, a constant column left at 0."""
    X, decrease = features_and_labels(ds)
    y = decrease.astype(float)
    probabilities = []
    for i in range(len(y)):
        train = np.arange(len(y)) != i
        varying = np.ptp(X[train], axis=0) > 0
        # fit_scaler rejects a constant column: scale a stand-in, zeroed below
        scaler = fit_scaler(np.where(varying, X[train], np.arange(len(y) - 1)[:, None]))
        z = np.where(varying, transform(X, scaler), 0.0)
        model = fit(z[train], y[train], C=C)
        probabilities.append(predict_proba(model, z[i]))
    return np.array(probabilities)


def sensitive_only(ds, rows):
    """The same dataset with high_visual_sensitivity set on the given rows only."""
    trials, pairs = ds
    reported_high = np.zeros(len(trials), dtype=bool)
    reported_high[pairs[rows, 0]] = True
    return dataclasses.replace(trials, reported_high=reported_high), pairs


def relabeled(ds, decrease):
    """Two-trial participants' next times moved so labels become decrease."""
    trials, pairs = ds
    produced = trials.produced_s.copy()
    prev = produced[pairs[:, 0]]
    delta = np.abs(pair_deltas(trials, pairs)) + 1.0
    produced[pairs[:, 1]] = np.maximum(np.where(decrease, prev - delta, prev + delta), 0.6)
    return dataclasses.replace(trials, produced_s=produced), pairs


def varied_dataset(labels, seed=0):
    """Dataset with the given labels and non-degenerate feature columns."""
    rng = np.random.default_rng(seed)
    transitions = [(LOW, MED), (MED, LOW), (HIGH, HIGH), (LOW, LOW), (MED, HIGH)]
    pairs = []
    for i, decrease in enumerate(labels):
        prev_eng, next_eng = transitions[i % len(transitions)]
        pairs.append(
            labeled_pair(
                f"p{i}",
                prev_produced=float(rng.uniform(12, 60)),
                decrease=decrease,
                prev_eng=prev_eng,
                next_eng=next_eng,
                lower=bool(i % 2),
                rep_high=(prev_eng == LOW and i % 3 == 0),
                delta=float(rng.uniform(1, 12)),
            )
        )
    return dataset(pairs)


class TestClassification:
    def test_high_probability_example(self):
        assert classify_direction(0.91) == Direction.DECREASE
        assert classify_predicted_magnitude(0.91) == MagnitudeLevel.HIGH_DECREASE

    def test_near_half_example(self):
        assert classify_direction(0.48) == Direction.INCREASE
        assert classify_predicted_magnitude(0.48) == MagnitudeLevel.SMALL_CHANGE

    def test_half_is_increase(self):
        assert classify_direction(0.5) == Direction.INCREASE

    def test_zero_delta_is_small_change(self):
        assert classify_actual_magnitude(0.0) == MagnitudeLevel.SMALL_CHANGE

    @pytest.mark.parametrize(
        "p,expected",
        [
            (0.39, MagnitudeLevel.HIGH_INCREASE),
            (0.4, MagnitudeLevel.SMALL_CHANGE),   # boundary -> milder class
            (0.6, MagnitudeLevel.SMALL_CHANGE),
            (0.61, MagnitudeLevel.HIGH_DECREASE),
        ],
    )
    def test_probability_boundaries(self, p, expected):
        assert classify_predicted_magnitude(p) == expected

    @pytest.mark.parametrize(
        "dt,expected",
        [
            (5.1, MagnitudeLevel.HIGH_INCREASE),
            (5.0, MagnitudeLevel.SMALL_CHANGE),  # boundary -> milder class
            (-5.0, MagnitudeLevel.SMALL_CHANGE),
            (-5.1, MagnitudeLevel.HIGH_DECREASE),
        ],
    )
    def test_delta_boundaries(self, dt, expected):
        assert classify_actual_magnitude(dt) == expected

    def test_magnitude_consistent_with_direction(self):
        for p in np.arange(0.001, 1.0, 0.001):
            mag = classify_predicted_magnitude(float(p))
            direction = classify_direction(float(p))
            if mag == MagnitudeLevel.HIGH_DECREASE:
                assert direction == Direction.DECREASE
            if mag == MagnitudeLevel.HIGH_INCREASE:
                assert direction == Direction.INCREASE

    def test_certain_probabilities_band_to_extremes(self):
        # a certain fold model rounds to exactly 0 or 1
        assert classify_direction(1.0) == Direction.DECREASE
        assert classify_predicted_magnitude(1.0) == MagnitudeLevel.HIGH_DECREASE
        assert classify_direction(0.0) == Direction.INCREASE
        assert classify_predicted_magnitude(0.0) == MagnitudeLevel.HIGH_INCREASE

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            Thresholds(prob_low=0.6, prob_high=0.7)
        with pytest.raises(ValueError):
            Thresholds(delta_small=0.0)


class TestUndersample:
    def test_balances_majority(self):
        _, decrease = features_and_labels(varied_dataset([False] * 100 + [True] * 50))
        balanced = balanced_indices(decrease, seed=1)
        labels = directions(decrease[balanced])
        assert len(balanced) == 100
        assert labels.count(Direction.DECREASE) == 50
        assert labels.count(Direction.INCREASE) == 50

    def test_paper_counts(self):
        _, decrease = features_and_labels(varied_dataset([False] * 633 + [True] * 353))
        balanced = balanced_indices(decrease, seed=0)
        assert len(balanced) == 706

    def test_balanced_input_is_fixed_point(self):
        _, decrease = features_and_labels(varied_dataset([True, False] * 20))
        balanced = balanced_indices(decrease, seed=5)
        assert sorted(balanced) == list(range(len(decrease)))

    def test_deterministic_and_subset(self):
        _, decrease = features_and_labels(varied_dataset([False] * 40 + [True] * 15))
        a = balanced_indices(decrease, seed=9)
        b = balanced_indices(decrease, seed=9)
        assert a.tolist() == b.tolist()
        original = set(range(len(decrease)))
        assert all(i in original for i in a.tolist())

    def test_single_class_rejected(self):
        _, decrease = features_and_labels(varied_dataset([True] * 10))
        with pytest.raises(SingleClassError):
            balanced_indices(decrease, seed=0)


class TestMetrics:
    def test_all_correct(self):
        labels = [True, False] * 4
        report = metrics(labels, labels)
        assert (report.precision, report.recall, report.accuracy) == (1.0, 1.0, 1.0)

    def test_complement_has_zero_accuracy(self):
        actual = [True, False] * 4
        flipped = [not a for a in actual]
        assert metrics(flipped, actual).accuracy == 0.0

    def test_confusion_arithmetic(self):
        # TP=59, FP=37, FN=41, TN=63
        predictions = [True] * 59 + [True] * 37 + [False] * 41 + [False] * 63
        actual = [True] * 59 + [False] * 37 + [True] * 41 + [False] * 63
        report = metrics(predictions, actual)
        assert report.precision == pytest.approx(0.615, abs=1e-3)
        assert report.recall == pytest.approx(0.590, abs=1e-3)
        assert report.accuracy == pytest.approx(0.610, abs=1e-3)
        assert confusion_2x2(predictions, actual) == ((59, 41), (37, 63))

    def test_report_carries_its_confusion(self):
        predictions = [True] * 3 + [False] * 5
        actual = [True, False] * 4
        report = metrics(predictions, actual)
        assert report.confusion == confusion_2x2(predictions, actual) == ((2, 2), (1, 3))

    def test_undefined_precision_flagged(self):
        predictions = [False] * 6
        actual = [True] * 3 + [False] * 3
        report = metrics(predictions, actual)
        assert report.precision == 0.0
        assert report.undefined_precision

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            metrics([True], [])


class TestLoocv:
    def test_separable_data_is_perfect(self):
        # large previous productions always decrease, small ones increase
        labels = [True, False] * 10
        pairs = []
        rng = np.random.default_rng(2)
        transitions = [(LOW, MED), (MED, LOW), (HIGH, HIGH), (LOW, LOW)]
        for i, decrease in enumerate(labels):
            prev_eng, next_eng = transitions[i % len(transitions)]
            produced = rng.uniform(55, 75) if decrease else rng.uniform(10, 25)
            pairs.append(
                labeled_pair(
                    f"p{i}",
                    produced,
                    decrease,
                    prev_eng=prev_eng,
                    next_eng=next_eng,
                    lower=bool(i % 2),
                    rep_high=(prev_eng == LOW and i % 3 == 0),
                )
            )
        result = loocv(*features_and_labels(dataset(pairs)), C=100.0)
        assert result.metrics.accuracy == 1.0

    def test_deterministic(self):
        X, y = features_and_labels(varied_dataset([True, False] * 15, seed=4))
        a = loocv(X, y, C=12.06)
        b = loocv(X, y, C=12.06)
        assert a.probabilities.tolist() == b.probabilities.tolist()

    def test_held_out_label_cannot_leak(self):
        ds = varied_dataset([True, False] * 12, seed=6)
        target = 3
        X, y = features_and_labels(ds)
        baseline = loocv(X, y, C=12.06).probabilities[target]

        # flip the held-out sample's label by moving its next trial's produced
        # time; features (prev trial + next engagement) stay identical
        flip = y.copy()
        flip[target] = not y[target]
        poisoned = relabeled(ds, flip)
        X_poisoned, y_poisoned = features_and_labels(poisoned)
        assert np.array_equal(X_poisoned, X)
        assert y_poisoned[target] != y[target]

        flipped = loocv(X_poisoned, y_poisoned, C=12.06).probabilities[target]
        assert flipped == baseline

    def test_nonconverged_folds_counted_not_warned(self, monkeypatch):
        X, y = features_and_labels(varied_dataset([True, False] * 6, seed=3))
        assert loocv(X, y).nonconverged == 0
        # a warning escaping loocv would fail this test (pytest turns it into an error)
        monkeypatch.setattr(
            timeshift.evaluation, "fit_folds", functools.partial(fit_folds, max_iter=1)
        )
        assert loocv(X, y).nonconverged == len(y)

    def test_batched_folds_match_per_fold_refits(self):
        # several blocks of folds and a short last one
        ds = simulated(SimParams(rng_seed=8, sensitivity_prevalence=0.3), 300, 2)
        n = len(ds[1])
        block = timeshift.logistic._BLOCK_ELEMENTS // n
        assert n // block >= 3 and n % block
        # and the same cohort where one forgotten 4,000 s first production
        # dominates t1_rel_error: the batched solve is the only fold solver
        trials, pairs = ds
        produced = trials.produced_s.copy()
        produced[pairs[0, 0]] = 4000.0
        outlier = dataclasses.replace(trials, produced_s=produced), pairs
        for cohort in (ds, outlier):
            result = loocv(*features_and_labels(cohort), C=12.06)
            assert (result.nonconverged, result.constant_fold_columns) == (0, 0)
            np.testing.assert_allclose(
                result.probabilities, per_fold_reference(cohort, C=12.06), rtol=0, atol=1e-9
            )
            assert np.array_equal(result.outcomes, result.probabilities > 0.5)
            assert result.n_iter.min() >= 1
        X = features_and_labels(outlier)[0]
        assert X[0, 0] == np.abs(X[:, 0]).max() > 100 * np.abs(X[1:, 0]).max()

    def test_constant_fold_column_gets_zero_weight(self):
        # only sample 0 is sensitive: the column is constant in its fold alone
        ds = sensitive_only(varied_dataset([True, False] * 10, seed=2), rows=[0])
        assert np.flatnonzero(build_features(*ds)[:, 2]).tolist() == [0]
        result = loocv(*features_and_labels(ds))
        assert result.constant_fold_columns == 1
        np.testing.assert_allclose(
            result.probabilities, per_fold_reference(ds, C=12.06), rtol=0, atol=1e-9
        )

    def test_cohort_constant_column_counts_every_fold(self):
        ds = sensitive_only(varied_dataset([True, False] * 10, seed=2), rows=[])
        assert not build_features(*ds)[:, 2].any()
        result = loocv(*features_and_labels(ds))
        assert result.constant_fold_columns == len(ds[1])
        np.testing.assert_allclose(
            result.probabilities, per_fold_reference(ds, C=12.06), rtol=0, atol=1e-9
        )

    def test_minimum_size_enforced(self):
        ds = varied_dataset([True, False] * 4)
        with pytest.raises(TooFewSamplesError):
            loocv(*features_and_labels(ds))

    def test_fold_single_class_detected(self):
        # exactly one decrease: its own fold trains on increases only
        ds = varied_dataset([True] + [False] * 11)
        with pytest.raises(FoldSingleClassError):
            loocv(*features_and_labels(ds))
        # no decrease at all: the cohort, not a fold, lacks a class
        ds = varied_dataset([False] * 12)
        with pytest.raises(SingleClassError):
            loocv(*features_and_labels(ds))

    def test_probability_outside_unit_interval_rejected(self, monkeypatch):
        X, y = features_and_labels(varied_dataset([True, False] * 6, seed=3))
        for bad in (1.5, -0.1, float("nan")):
            def bad_folds(*args, bad=bad, **kwargs):
                probabilities, n_iter, converged = fit_folds(*args, **kwargs)
                probabilities[4] = bad
                return probabilities, n_iter, converged

            monkeypatch.setattr(timeshift.evaluation, "fit_folds", bad_folds)
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                loocv(X, y)

    def test_randomized_labels_score_near_chance(self):
        params = SimParams(rng_seed=3, sensitivity_prevalence=0.3)
        # at 60 samples the LOOCV accuracy of shuffled labels has a standard
        # deviation near 0.065 and some seeds leave the band; at 200, near 0.035
        ds = simulated(params, 200, 2)
        rng = np.random.default_rng(3)
        labels = rng.permutation([True] * 100 + [False] * 100)
        shuffled = features_and_labels(relabeled(ds, labels))
        result = loocv(*shuffled, C=12.06)
        assert 0.3 <= result.metrics.accuracy <= 0.7


class TestMagnitudeConfusion:
    def test_all_center(self):
        counts, _ = magnitude_confusion([0.5] * 4, [0.0] * 4)
        assert counts[1][1] == 4
        assert sum(map(sum, counts)) == 4

    def test_hit_and_extreme_cells(self):
        # predicted high increase, then predicted high decrease
        counts, five_cells = magnitude_confusion([0.35, 0.70], [8.0, 8.0])
        # actual high increase row: one correct, one extreme miss
        assert counts[0][0] == 1
        assert counts[0][2] == 1
        assert five_cells["high_increase_hit"] == (1, 1.0)
        assert five_cells["high_decrease_extreme_miss"] == (1, 1.0)

    def test_row_and_column_sums(self):
        rng = np.random.default_rng(13)
        probs = rng.uniform(0.01, 0.99, 300)
        deltas = rng.normal(0, 8, 300)
        counts, five_cells = magnitude_confusion(probs, list(deltas))
        assert sum(map(sum, counts)) == 300
        levels = (
            MagnitudeLevel.HIGH_INCREASE,
            MagnitudeLevel.SMALL_CHANGE,
            MagnitudeLevel.HIGH_DECREASE,
        )
        actual_counts = [
            sum(1 for d in deltas if classify_actual_magnitude(float(d)) == level)
            for level in levels
        ]
        predicted_counts = [
            sum(1 for p in probs if classify_predicted_magnitude(float(p)) == level)
            for level in levels
        ]
        assert [sum(row) for row in counts] == actual_counts
        # five-cell shares are relative to predicted-column totals
        col = [sum(column) for column in zip(*counts)]
        assert col == predicted_counts
        count, share = five_cells["high_increase_hit"]
        assert share == pytest.approx(count / col[0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            magnitude_confusion([0.5], [])


class TestCompareBaselines:
    def test_report_shape(self):
        trials, pairs = varied_dataset([True, False] * 15)
        rows = baseline_rows(trials, pairs)
        assert [name for name, _ in rows] == ["attention", "arousal"]
        for _, row in rows:
            assert isinstance(row, MetricsReport)
            assert row.n == len(pairs)
            for value in (row.precision, row.recall, row.accuracy):
                assert 0.0 <= value <= 1.0

    def test_attention_dominated_mirror(self):
        params = SimParams(
            rng_seed=21,
            weber_fraction=0.0,
            memory_correction_weight=0.0,
            regression_weight=0.0,
            arousal_gain=0.0,
            sensitivity_prevalence=0.5,
        )
        trials, pairs = simulated(params, 300, 2)
        strict = pairs[trials.level[pairs[:, 0]] != trials.level[pairs[:, 1]]]
        rows = dict(baseline_rows(trials, strict))
        assert rows["attention"].accuracy == 1.0
        assert rows["arousal"].accuracy == 0.0

    def test_arousal_dominated_mirror(self):
        params = SimParams(
            rng_seed=22,
            weber_fraction=0.0,
            memory_correction_weight=0.0,
            regression_weight=0.0,
            arousal_gain=0.4,
            gate_width_by_engagement=(1.0, 1.0, 1.0),
            sensitivity_prevalence=0.5,
        )
        trials, pairs = simulated(params, 300, 2)
        strict = pairs[trials.level[pairs[:, 0]] != trials.level[pairs[:, 1]]]
        rows = dict(baseline_rows(trials, strict))
        assert rows["arousal"].accuracy == 1.0
        assert rows["attention"].accuracy == 0.0
