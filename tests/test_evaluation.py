import functools

import numpy as np
import pytest

import timeshift.evaluation
from timeshift.data import (
    Dataset,
    Direction,
    EngagementLevel,
    MagnitudeLevel,
    Provenance,
    SamplePair,
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
    PredictionOutcome,
    Thresholds,
    baseline_rows,
    classify_actual_magnitude,
    classify_direction,
    classify_predicted_magnitude,
    confusion_2x2,
    loocv,
    magnitude_confusion,
    metrics,
    undersample,
)
from timeshift.simulator import SimParams, generate_dataset
from tests.test_data import make_trial

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
    """Pair with a chosen label; features depend only on prev and next_eng."""
    next_produced = prev_produced - delta if decrease else prev_produced + delta
    return SamplePair(
        make_trial(pid=pid, index=1, engagement=prev_eng, produced=prev_produced,
                   lower=lower, rep_high=rep_high),
        make_trial(pid=pid, index=2, engagement=next_eng, produced=next_produced),
    )


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
    return Dataset(samples=tuple(pairs), provenance=Provenance.SYNTHETIC)


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

    def test_outcome_factory(self):
        outcome = PredictionOutcome.from_probability(0.91)
        assert outcome.direction == Direction.DECREASE
        assert outcome.predicted_magnitude == MagnitudeLevel.HIGH_DECREASE
        # a certain fold model rounds to exactly 0 or 1
        certain = PredictionOutcome.from_probability(1.0)
        assert certain.direction == Direction.DECREASE
        assert certain.predicted_magnitude == MagnitudeLevel.HIGH_DECREASE
        certain = PredictionOutcome.from_probability(0.0)
        assert certain.direction == Direction.INCREASE
        assert certain.predicted_magnitude == MagnitudeLevel.HIGH_INCREASE
        for bad in (1.5, -0.1, float("nan")):
            with pytest.raises(ValueError):
                PredictionOutcome.from_probability(bad)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            Thresholds(prob_low=0.6, prob_high=0.7)
        with pytest.raises(ValueError):
            Thresholds(delta_small=0.0)


class TestUndersample:
    def test_balances_majority(self):
        ds = varied_dataset([False] * 100 + [True] * 50)
        balanced = undersample(ds, seed=1)
        labels = balanced.labels()
        assert len(balanced) == 100
        assert labels.count(Direction.DECREASE) == 50
        assert labels.count(Direction.INCREASE) == 50

    def test_paper_counts(self):
        ds = varied_dataset([False] * 633 + [True] * 353)
        balanced = undersample(ds, seed=0)
        assert len(balanced) == 706

    def test_balanced_input_is_fixed_point(self):
        ds = varied_dataset([True, False] * 20)
        balanced = undersample(ds, seed=5)
        assert sorted(s.sample_id for s in balanced.samples) == sorted(
            s.sample_id for s in ds.samples
        )

    def test_deterministic_and_subset(self):
        ds = varied_dataset([False] * 40 + [True] * 15)
        a = undersample(ds, seed=9)
        b = undersample(ds, seed=9)
        assert a == b
        original = set(s.sample_id for s in ds.samples)
        assert all(s.sample_id in original for s in a.samples)

    def test_single_class_rejected(self):
        ds = varied_dataset([True] * 10)
        with pytest.raises(SingleClassError):
            undersample(ds, seed=0)


class TestMetrics:
    def test_all_correct(self):
        labels = [Direction.DECREASE, Direction.INCREASE] * 4
        report = metrics(labels, labels)
        assert (report.precision, report.recall, report.accuracy) == (1.0, 1.0, 1.0)

    def test_complement_has_zero_accuracy(self):
        actual = [Direction.DECREASE, Direction.INCREASE] * 4
        flipped = [
            Direction.INCREASE if a == Direction.DECREASE else Direction.DECREASE
            for a in actual
        ]
        assert metrics(flipped, actual).accuracy == 0.0

    def test_confusion_arithmetic(self):
        # TP=59, FP=37, FN=41, TN=63
        predictions = (
            [Direction.DECREASE] * 59 + [Direction.DECREASE] * 37
            + [Direction.INCREASE] * 41 + [Direction.INCREASE] * 63
        )
        actual = (
            [Direction.DECREASE] * 59 + [Direction.INCREASE] * 37
            + [Direction.DECREASE] * 41 + [Direction.INCREASE] * 63
        )
        report = metrics(predictions, actual)
        assert report.precision == pytest.approx(0.615, abs=1e-3)
        assert report.recall == pytest.approx(0.590, abs=1e-3)
        assert report.accuracy == pytest.approx(0.610, abs=1e-3)
        assert confusion_2x2(predictions, actual) == ((59, 41), (37, 63))

    def test_report_carries_its_confusion(self):
        predictions = [Direction.DECREASE] * 3 + [Direction.INCREASE] * 5
        actual = [Direction.DECREASE, Direction.INCREASE] * 4
        report = metrics(predictions, actual)
        assert report.confusion == confusion_2x2(predictions, actual) == ((2, 2), (1, 3))

    def test_undefined_precision_flagged(self):
        predictions = [Direction.INCREASE] * 6
        actual = [Direction.DECREASE] * 3 + [Direction.INCREASE] * 3
        report = metrics(predictions, actual)
        assert report.precision == 0.0
        assert report.undefined_precision

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            metrics([Direction.DECREASE], [])


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
        ds = Dataset(samples=tuple(pairs), provenance=Provenance.SYNTHETIC)
        result = loocv(ds, C=100.0, seed=0)
        assert result.metrics.accuracy == 1.0

    def test_deterministic(self):
        ds = varied_dataset([True, False] * 15, seed=4)
        a = loocv(ds, C=12.06, seed=7)
        b = loocv(ds, C=12.06, seed=7)
        assert [o.probability_of_decrease for o in a.outcomes] == [
            o.probability_of_decrease for o in b.outcomes
        ]

    def test_held_out_label_cannot_leak(self):
        ds = varied_dataset([True, False] * 12, seed=6)
        target = 3
        baseline = loocv(ds, C=12.06, seed=0).outcomes[target].probability_of_decrease

        # flip the held-out sample's label by moving its next trial's produced
        # time; features (prev trial + next engagement) stay identical
        sample = ds.samples[target]
        flipped_next = make_trial(
            pid=sample.next.participant_id,
            index=sample.next.trial_index,
            engagement=sample.next.engagement,
            produced=(
                sample.prev.produced_time_s + 5
                if sample.label == Direction.DECREASE
                else max(sample.prev.produced_time_s - 5, 1.0)
            ),
            lower=sample.next.reported_lower_than_30,
            rep_high=sample.next.reported_high_engagement,
        )
        poisoned_samples = list(ds.samples)
        poisoned_samples[target] = SamplePair(sample.prev, flipped_next)
        poisoned = Dataset(samples=tuple(poisoned_samples), provenance=ds.provenance)
        assert poisoned.samples[target].label != sample.label

        flipped = loocv(poisoned, C=12.06, seed=0).outcomes[target].probability_of_decrease
        assert flipped == baseline

    def test_nonconverged_folds_counted_not_warned(self, monkeypatch):
        ds = varied_dataset([True, False] * 6, seed=3)
        assert loocv(ds).nonconverged == 0
        # a warning escaping loocv would fail this test (pytest turns it into an error)
        stopped = functools.partial(timeshift.evaluation.fit, max_iter=1)
        monkeypatch.setattr(timeshift.evaluation, "fit", stopped)
        assert loocv(ds).nonconverged == len(ds)

    def test_minimum_size_enforced(self):
        ds = varied_dataset([True, False] * 4)
        with pytest.raises(TooFewSamplesError):
            loocv(ds)

    def test_fold_single_class_detected(self):
        # exactly one decrease: its own fold trains on increases only
        ds = varied_dataset([True] + [False] * 11)
        with pytest.raises(FoldSingleClassError):
            loocv(ds)

    def test_randomized_labels_score_near_chance(self):
        params = SimParams(rng_seed=3, sensitivity_prevalence=0.3)
        ds = generate_dataset(params, 60, 2)
        rng = np.random.default_rng(3)
        labels = rng.permutation([True] * 30 + [False] * 30)
        pairs = []
        for sample, decrease in zip(ds.samples, labels):
            delta = abs(sample.delta_t_s) + 1.0
            produced = (
                sample.prev.produced_time_s - delta
                if decrease
                else sample.prev.produced_time_s + delta
            )
            pairs.append(
                SamplePair(
                    sample.prev,
                    make_trial(
                        pid=sample.next.participant_id,
                        index=sample.next.trial_index,
                        engagement=sample.next.engagement,
                        produced=max(produced, 0.6),
                        lower=sample.next.reported_lower_than_30,
                        rep_high=sample.next.reported_high_engagement,
                    ),
                )
            )
        shuffled = Dataset(samples=tuple(pairs), provenance=Provenance.SYNTHETIC)
        result = loocv(shuffled, C=12.06, seed=0)
        assert 0.3 <= result.metrics.accuracy <= 0.7


class TestMagnitudeConfusion:
    def test_all_center(self):
        outcomes = [PredictionOutcome.from_probability(0.5)] * 4
        counts, _ = magnitude_confusion(outcomes, [0.0] * 4)
        assert counts[1][1] == 4
        assert sum(map(sum, counts)) == 4

    def test_hit_and_extreme_cells(self):
        outcomes = [
            PredictionOutcome.from_probability(0.35),  # predicted high increase
            PredictionOutcome.from_probability(0.70),  # predicted high decrease
        ]
        counts, five_cells = magnitude_confusion(outcomes, [8.0, 8.0])
        # actual high increase row: one correct, one extreme miss
        assert counts[0][0] == 1
        assert counts[0][2] == 1
        assert five_cells["high_increase_hit"] == (1, 1.0)
        assert five_cells["high_decrease_extreme_miss"] == (1, 1.0)

    def test_row_and_column_sums(self):
        rng = np.random.default_rng(13)
        probs = rng.uniform(0.01, 0.99, 300)
        deltas = rng.normal(0, 8, 300)
        outcomes = [PredictionOutcome.from_probability(float(p)) for p in probs]
        counts, five_cells = magnitude_confusion(outcomes, list(deltas))
        assert sum(map(sum, counts)) == 300
        actual_counts = [
            sum(1 for d in deltas if classify_actual_magnitude(float(d)) == level)
            for level in (
                MagnitudeLevel.HIGH_INCREASE,
                MagnitudeLevel.SMALL_CHANGE,
                MagnitudeLevel.HIGH_DECREASE,
            )
        ]
        assert [sum(row) for row in counts] == actual_counts
        # five-cell shares are relative to predicted-column totals
        col = [sum(column) for column in zip(*counts)]
        count, share = five_cells["high_increase_hit"]
        assert share == pytest.approx(count / col[0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            magnitude_confusion([PredictionOutcome.from_probability(0.5)], [])


class TestCompareBaselines:
    def test_report_shape(self):
        ds = varied_dataset([True, False] * 15)
        rows = baseline_rows(ds)
        assert [name for name, _ in rows] == ["attention", "arousal"]
        for _, row in rows:
            assert isinstance(row, MetricsReport)
            assert row.n == len(ds.samples)
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
        ds = generate_dataset(params, 300, 2)
        strict = Dataset(
            samples=tuple(
                s for s in ds.samples if s.prev.engagement != s.next.engagement
            ),
            provenance=Provenance.SYNTHETIC,
        )
        rows = dict(baseline_rows(strict))
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
        ds = generate_dataset(params, 300, 2)
        strict = Dataset(
            samples=tuple(
                s for s in ds.samples if s.prev.engagement != s.next.engagement
            ),
            provenance=Provenance.SYNTHETIC,
        )
        rows = dict(baseline_rows(strict))
        assert rows["arousal"].accuracy == 1.0
        assert rows["attention"].accuracy == 0.0
