import itertools

import numpy as np
import pytest

from timeshift.data import EngagementLevel, pair_consecutive
from timeshift.errors import (
    ConstantColumnError,
    EmptyFileError,
    FeatureDependencyError,
    MalformedRowError,
    NonPositiveTimeError,
    TooFewSamplesError,
)
from timeshift.features import (
    FEATURE_CSV_COLUMNS,
    FEATURE_NAMES,
    ScalerStats,
    build_features,
    fit_scaler,
    load_feature_csv,
    transform,
    write_feature_csv,
)
from timeshift.simulator import SimParams, generate_trials
from tests.test_data import make_trial, pairs_of, trial_table


def pair_features(prev, nxt, target_s=30.0):
    """The feature row of one pair, through the matrix builder."""
    return build_features(*pairs_of(prev, nxt), target_s)[0]


def transition_pairs(transitions, **prev_fields):
    """One participant per (prev, next) engagement transition, and its pair."""
    return pairs_of(*(
        trial
        for k, (prev, nxt) in enumerate(transitions)
        for trial in (
            make_trial(pid=f"p{k}", engagement=prev, **prev_fields),
            make_trial(pid=f"p{k}", index=2, engagement=nxt, produced=33),
        )
    ))


def next_trial(engagement=EngagementLevel.MEDIUM, produced=30.0):
    return make_trial(index=2, engagement=engagement, produced=produced)


class TestRelError:
    @pytest.mark.parametrize(
        "produced,expected", [(30.0, 0.0), (60.0, 100.0), (15.0, -50.0), (12.0, -60.0)]
    )
    def test_values(self, produced, expected):
        rel_error = pair_features(make_trial(produced=produced), next_trial())[0]
        assert rel_error == pytest.approx(expected)

    def test_non_positive_rejected(self):
        with pytest.raises(NonPositiveTimeError):
            trial_table([make_trial(produced=0.0)])
        trials, pairs = pairs_of(make_trial(), next_trial())
        with pytest.raises(NonPositiveTimeError):
            build_features(trials, pairs, target_s=-1.0)

    def test_custom_target(self):
        rel_error = pair_features(make_trial(produced=20.0), next_trial(), target_s=10.0)[0]
        assert rel_error == pytest.approx(100.0)


def sensitivity(engagement, rep_high):
    return pair_features(make_trial(engagement=engagement, rep_high=rep_high), next_trial())[2]


class TestSensitivity:
    def test_low_and_reported_high(self):
        assert sensitivity(EngagementLevel.LOW, True) == 1

    def test_high_engagement_defaults_to_zero(self):
        assert sensitivity(EngagementLevel.HIGH, True) == 0

    def test_low_without_report(self):
        assert sensitivity(EngagementLevel.LOW, False) == 0

    def test_only_low_can_be_sensitive(self):
        for level in EngagementLevel:
            for reported in (True, False):
                if sensitivity(level, reported) == 1:
                    assert level == EngagementLevel.LOW and reported


def change_code(prev, nxt):
    return pair_features(make_trial(engagement=prev), next_trial(engagement=nxt))[4]


class TestChangeInEngagement:
    @pytest.mark.parametrize(
        "prev,next,expected",
        [
            (EngagementLevel.HIGH, EngagementLevel.LOW, 0),
            (EngagementLevel.MEDIUM, EngagementLevel.MEDIUM, 1),
            (EngagementLevel.LOW, EngagementLevel.MEDIUM, 2),
        ],
    )
    def test_examples(self, prev, next, expected):
        assert change_code(prev, next) == expected

    def test_all_nine_transitions(self):
        transitions = list(itertools.product(EngagementLevel, repeat=2))
        codes = build_features(*transition_pairs(transitions))[:, 4]
        for (prev, nxt), code in zip(transitions, codes):
            assert code == (0 if nxt < prev else 2 if nxt > prev else 1)


class TestBuildFeatures:
    def test_sensitive_low_to_high(self):
        pair = pairs_of(
            make_trial(engagement=EngagementLevel.LOW, produced=45, rep_high=True),
            make_trial(index=2, engagement=EngagementLevel.HIGH, produced=50),
        )
        assert build_features(*pair).tolist() == [[50.0, 0, 1, 2, 2]]

    def test_high_to_low(self):
        pair = pairs_of(
            make_trial(engagement=EngagementLevel.HIGH, produced=30, lower=True),
            make_trial(index=2, engagement=EngagementLevel.LOW, produced=20),
        )
        assert build_features(*pair).tolist() == [[0.0, 1, 0, 0, 0]]

    def test_medium_stay(self):
        pair = pairs_of(
            make_trial(engagement=EngagementLevel.MEDIUM, produced=12, lower=True),
            make_trial(index=2, engagement=EngagementLevel.MEDIUM, produced=20),
        )
        assert build_features(*pair).tolist() == [[-60.0, 1, 0, 1, 1]]

    def test_matches_per_pair_reference(self):
        # each column against its scalar per-pair formula, bit for bit
        params = SimParams(rng_seed=5, sensitivity_prevalence=0.3)
        trials = generate_trials(params, 300, 3)
        pairs = pair_consecutive(trials)
        expected = []
        for i, j in pairs.tolist():
            prev, nxt = EngagementLevel(trials.level[i]), EngagementLevel(trials.level[j])
            expected.append(
                [
                    (trials.produced_s[i].item() - 25.0) / 25.0 * 100.0,
                    int(trials.reported_lower[i]),
                    int(prev == EngagementLevel.LOW and trials.reported_high[i]),
                    int(nxt),
                    0 if nxt < prev else 2 if nxt > prev else 1,
                ]
            )
        assert build_features(trials, pairs, target_s=25.0).tolist() == expected
        assert build_features(trials, pairs[:0]).shape == (0, 5)

    def test_dependency_holds_for_all_transitions(self):
        # every real engagement transition satisfies the V2/Change constraint
        transitions = itertools.product(EngagementLevel, repeat=2)
        for v2, change in build_features(*transition_pairs(transitions, produced=28))[:, 3:]:
            if change == 0:
                assert v2 != 2
            if change == 2:
                assert v2 != 0


def write_rows(path, *rows):
    path.write_text("\n".join((",".join(FEATURE_CSV_COLUMNS), *rows)) + "\n")
    return path


class TestFeatureVector:
    """The domain of one feature row, as the feature CSV loader enforces it."""

    @pytest.mark.parametrize("v2,change", [(2, 0), (0, 2)])
    def test_dependency_violations_rejected(self, tmp_path, v2, change):
        path = write_rows(tmp_path / "f.csv", f"0.0,0,0,{v2},{change},increase")
        with pytest.raises(FeatureDependencyError):
            load_feature_csv(path)

    def test_domain_checks(self, tmp_path):
        for row in ("-150.0,0,0,1,1", "0.0,2,0,1,1", "0.0,0,0,3,1"):
            path = write_rows(tmp_path / "f.csv", f"{row},increase")
            with pytest.raises(MalformedRowError):
                load_feature_csv(path)

    def test_as_array_order(self):
        pair = pairs_of(
            make_trial(engagement=EngagementLevel.LOW, produced=45, lower=True),
            make_trial(index=2, engagement=EngagementLevel.HIGH, produced=50),
        )
        assert build_features(*pair).tolist() == [[50.0, 1.0, 0.0, 2.0, 2.0]]
        assert len(FEATURE_NAMES) == 5


class TestScaler:
    def test_two_point_column(self):
        X = np.array(
            [
                [0.0, 0, 0, 1, 1],
                [100.0, 1, 1, 0, 2],
                [0.0, 0, 1, 2, 0],
                [100.0, 1, 0, 1, 1],
            ]
        )
        stats = fit_scaler(X)
        assert stats.means[0] == pytest.approx(50.0)
        assert stats.std_devs[0] == pytest.approx(50.0)  # population std

    def test_constant_column_rejected(self):
        X = np.ones((4, 5))
        X[:, 1] = [0, 1, 0, 1]
        X[:, 2] = [0, 1, 1, 0]
        X[:, 3] = [0, 1, 2, 1]
        X[:, 4] = [1, 2, 1, 0]
        with pytest.raises(ConstantColumnError) as excinfo:
            fit_scaler(X)
        assert excinfo.value.index == 0

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            fit_scaler(np.ones((1, 5)))

    def test_standardized_columns_are_centered_unit(self):
        rng = np.random.default_rng(3)
        X = np.column_stack(
            [
                rng.normal(15, 44, 300),
                rng.integers(0, 2, 300),
                rng.integers(0, 2, 300),
                rng.integers(0, 3, 300),
                rng.integers(0, 3, 300),
            ]
        ).astype(float)
        stats = fit_scaler(X)
        Z = transform(X, stats)
        assert np.abs(Z.mean(axis=0)).max() < 1e-9
        assert np.abs(Z.std(axis=0) - 1).max() < 1e-9

    def test_transform_at_means_is_zero(self):
        stats = ScalerStats(means=(15, 0.5, 0.1, 1, 1), std_devs=(44, 0.5, 0.3, 0.8, 0.8))
        assert np.allclose(transform(np.array(stats.means), stats), 0.0)

    def test_reference_table_value(self):
        stats = ScalerStats(means=(15, 0, 0, 0, 0), std_devs=(44, 1, 1, 1, 1))
        z = transform(np.array([59.0, 0, 0, 0, 0]), stats)
        assert z[0] == pytest.approx(1.0)

    def test_positive_std_required(self):
        with pytest.raises(ValueError):
            ScalerStats(means=(0,) * 5, std_devs=(1, 1, 0, 1, 1))


class TestFeatureCsv:
    def test_roundtrip(self, tmp_path):
        X = np.array([[50.0, 0, 1, 2, 2], [-60.0, 1, 0, 1, 1]])
        labels = [True, False]  # decrease, increase
        path = tmp_path / "features.csv"
        write_feature_csv(X, labels, path)
        loaded_X, loaded_labels = load_feature_csv(path)
        assert loaded_X.tolist() == X.tolist()
        assert loaded_labels.tolist() == labels

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet exports often start with a UTF-8 byte-order mark
        path = tmp_path / "features.csv"
        header = ",".join(FEATURE_CSV_COLUMNS)
        path.write_bytes(("\ufeff" + header + "\n50.0,0,1,2,2,decrease\n").encode())
        X, labels = load_feature_csv(path)
        assert X.tolist() == [[50.0, 0, 1, 2, 2]]
        assert labels.tolist() == [True]

    def test_dependency_violation_rejected_on_load(self, tmp_path):
        path = write_rows(tmp_path / "features.csv", "0.0,0,0,2,0,increase")
        with pytest.raises(FeatureDependencyError):
            load_feature_csv(path)

    def test_empty_rejected(self, tmp_path):
        path = write_rows(tmp_path / "features.csv")
        with pytest.raises(EmptyFileError):
            load_feature_csv(path)
