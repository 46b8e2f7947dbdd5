import dataclasses

import numpy as np
import pytest

import timeshift.evaluation
import timeshift.logistic
from bench import inputs as bench_inputs
from timeshift.data import (
    Direction,
    EngagementLevel,
    MagnitudeLevel,
    pair_deltas,
)
from timeshift.errors import (
    FoldSingleClassError,
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
    loocv,
    magnitude_confusion,
    metrics,
)
from timeshift.features import build_features, column_stats, constant_columns, fit_scaler, transform
from timeshift.logistic import fit, fit_folds, gradient, predict_proba
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


def refits(X, y, folds=None, C=12.06):
    """
    Each fold of X (every fold by default) refitted alone by fit_scaler + fit,
    a column that constant_columns calls constant in the fold left at 0: the
    folds' intercepts and weights, their held-out probabilities, their models
    and their z-scores of every row.
    """
    parameters, probabilities, models, scores = [], [], [], []
    for fold in range(len(y)) if folds is None else folds:
        train = np.arange(len(y)) != fold
        varying = ~constant_columns(*column_stats(X[train]))
        # fit_scaler rejects a constant column: scale a stand-in, zeroed below
        scaler = fit_scaler(np.where(varying, X[train], np.arange(len(y) - 1)[:, None]))
        z = np.where(varying, transform(X, scaler), 0.0)
        models.append(fit(z[train], y[train], C=C))
        parameters.append([models[-1].intercept, *models[-1].coefficients])
        probabilities.append(predict_proba(models[-1], z[fold]))
        scores.append(z)
    return np.array(parameters), np.array(probabilities), models, scores


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
        assert report.confusion == ((59, 41), (37, 63))

    def test_report_carries_its_confusion(self):
        predictions = [True] * 3 + [False] * 5
        actual = [True, False] * 4
        report = metrics(predictions, actual)
        assert report.confusion == ((2, 2), (1, 3))

    def test_undefined_precision_reads_zero(self):
        predictions = [False] * 6
        actual = [True] * 3 + [False] * 3
        report = metrics(predictions, actual)
        assert report.precision == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
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
        monkeypatch.setattr(timeshift.logistic, "_MAX_ITER", 1)
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
                result.probabilities, refits(*features_and_labels(cohort))[1], rtol=0, atol=1e-9
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
            result.probabilities, refits(*features_and_labels(ds))[1], rtol=0, atol=1e-9
        )

    def test_cohort_constant_column_counts_every_fold(self):
        ds = sensitive_only(varied_dataset([True, False] * 10, seed=2), rows=[])
        assert not build_features(*ds)[:, 2].any()
        result = loocv(*features_and_labels(ds))
        assert result.constant_fold_columns == len(ds[1])
        np.testing.assert_allclose(
            result.probabilities, refits(*features_and_labels(ds))[1], rtol=0, atol=1e-9
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
                folds = fit_folds(*args, **kwargs)
                folds[0][4] = bad
                return folds

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


def fold_layout(n):
    """fit_folds' block size, group size and block count for n folds."""
    size = timeshift.logistic._BLOCK_ELEMENTS // n
    group = timeshift.logistic._GROUP_FOLDS
    group = n if n < 4 * group else group
    return size, group, -(-n // size)


def grouped_cohort():
    """610 folds: 16 blocks with a short last one, and 10 groups with a short last one."""
    X, y = features_and_labels(simulated(SimParams(rng_seed=4, sensitivity_prevalence=0.3), 610))
    size, group, blocks = fold_layout(len(y))
    assert blocks >= 8 and len(y) % size and len(y) // group >= 3 and len(y) % group
    return X, y


def folds_of(X, y):
    """fit_folds' probability, n_iter, converged and fixed arrays for every fold of X."""
    return fit_folds(X, y.astype(float), 12.06)


def fixed_coordinate_cohort():
    """
    300 folds where row 150, in the third of five groups, is the one sensitive row, so
    the column is constant in its fold alone, and row 0's first production is
    a forgotten 4,000 s that dominates t1_rel_error.
    """
    ds = simulated(SimParams(rng_seed=8, sensitivity_prevalence=0.3), 300, 2)
    trials, pairs = sensitive_only(ds, rows=[150])
    produced = trials.produced_s.copy()
    produced[pairs[0, 0]] = 4000.0
    return dataclasses.replace(trials, produced_s=produced), pairs


def starts_and_groups(monkeypatch, X, y, C=12.06):
    """
    fit_folds' start for each fold, and each group problem's solution keyed by
    the group's first row, as its blocks' solve calls receive and return them.
    """
    starts, groups = {}, {}
    solve = timeshift.logistic._Block.solve

    def recording(block, start):
        theta, n_iter, norm = solve(block, start)
        if block.held_out.shape[1] == 1:  # a block of folds
            starts.update(zip(block.held_out[:, 0].tolist(), start))
        else:  # a block of group problems, each dropping its group's rows
            groups.update(zip(block.held_out[:, 0].tolist(), theta))
        return theta, n_iter, norm

    monkeypatch.setattr(timeshift.logistic._Block, "solve", recording)
    fit_folds(X, y.astype(float), C)
    return starts, groups


def one_full_step(X, y, fold, theta, C=12.06):
    """theta plus one Newton step of the fold's whole problem, over its n - 1 rows."""
    logistic = timeshift.logistic
    Z, shift, scale, free = logistic._fold_scalers(X)
    A, pairs = logistic._design(Z)
    k = slice(fold, fold + 1)
    problem = logistic._Block(A, pairs, y.astype(float), np.array([[fold]]), C,
                              np.empty((4, 1, len(y))), shift[k], scale[k], free[k])
    _, grad, hess, _ = problem.objective(theta[None, :], np.arange(1))
    return theta + logistic._newton_directions(hess, grad)[0]


class TestGroupStarts:
    def test_start_is_one_newton_step_of_the_folds_own_problem(self, monkeypatch):
        X, y = grouped_cohort()
        size, group, _ = fold_layout(len(y))
        starts, groups = starts_and_groups(monkeypatch, X, y)
        firsts = range(0, len(y), group)
        # each group's first and last fold, and both folds at every block edge
        targets = {*firsts, *(min(g + group, len(y)) - 1 for g in firsts)}
        targets |= {k for edge in range(size, len(y), size) for k in (edge - 1, edge)}
        for fold in sorted(targets):
            solution = groups[fold // group * group]
            np.testing.assert_allclose(starts[fold], one_full_step(X, y, fold, solution),
                                       rtol=1e-12, atol=0, err_msg=str(fold))

    def test_fixed_coordinate_fold_starts_at_its_group_solution(self, monkeypatch):
        X, y = features_and_labels(fixed_coordinate_cohort())
        group = fold_layout(len(y))[1]
        starts, groups = starts_and_groups(monkeypatch, X, y)
        free = timeshift.logistic._fold_scalers(X)[3][150]
        assert free.sum() == len(free) - 1
        expected = groups[150 // group * group].copy()
        expected[1:][~free] = 0.0
        np.testing.assert_array_equal(starts[150], expected)

    def test_start_step_keeps_folds_within_three_newton_steps(self):
        # from its group's solution alone a fold takes 3 or 4 steps
        n_iter = folds_of(*grouped_cohort())[1]
        assert n_iter.max() <= 3 and n_iter.mean() < 3

    def test_held_out_label_cannot_leak_across_groups_and_blocks(self):
        X, y = grouped_cohort()
        size, group, _ = fold_layout(len(y))
        edge = -(-group * 3 // size) * size  # the first block edge inside the fourth group
        assert group * 3 < edge < group * 4
        baseline = folds_of(X, y)[0]
        # a group's first and last fold, each side of a block edge within the
        # group, and the last fold of the short last group
        targets = (group * 3, edge - 1, edge, group * 4 - 1, len(y) - 1)
        for target in targets:
            flip = y.copy()
            flip[target] = not y[target]
            flipped = folds_of(X, flip)[0]
            assert flipped[target] == baseline[target], target
            assert not np.array_equal(flipped, baseline)

    def test_fixed_coordinate_and_outlier_folds_match_per_fold_refits(self):
        cohort = fixed_coordinate_cohort()
        group = fold_layout(len(cohort[1]))[1]
        assert 0 < 150 // group < len(cohort[1]) // group
        result = loocv(*features_and_labels(cohort), C=12.06)
        assert (result.nonconverged, result.constant_fold_columns) == (0, 1)
        np.testing.assert_allclose(
            result.probabilities, refits(*features_and_labels(cohort))[1], rtol=0, atol=1e-9
        )

    @pytest.mark.parametrize("offset, spread, outlier", [
        (0.0, 1.0, 1e6), (0.0, 1.0, 1e9), (1e3, 1e-3, 1e9), (1e3, 1e-9, 1e9),
        (None, None, 1e12),  # the benchmark's seed-1 loocv cohort
    ])
    def test_outlier_fold_parameters_match_its_refit(self, offset, spread, outlier):
        # row 0 holds nearly all of column 0's sum of squares: its fold's
        # scaler is the two-pass over the other rows, not a downdate that
        # cancels to rounding, and the shared design is z-scored by that fold's
        # statistics, so it keeps every bit of the other rows' spread. The
        # held-out probability saturates, so the weights are checked
        rng = np.random.default_rng(0)
        if offset is None:
            X, y = loocv_features(1)
        else:
            X = outlier_cohort(rng, offset + rng.normal(0, spread, 500))
            y = rng.integers(0, 2, 500) == 1
        X[0, 0] = outlier
        (_, _, converged, _), solved, _ = solved_folds(X, y)
        assert converged.all()
        np.testing.assert_allclose(solved[0], refits(X, y, [0])[0][0], rtol=0, atol=1e-9)


def loocv_features(seed):
    """The features and labels of bench/inputs.py's loocv cohort, balanced with seed 0."""
    cohort = bench_inputs.pairs(bench_inputs.make_cohort(seed, 1500, 2))
    keep = balanced_indices(cohort.decrease, 0)
    return cohort.X[keep], cohort.decrease[keep]


def outlier_cohort(rng, column):
    """column as t1_rel_error beside random 0/1, 0/1, 0/1/2 and 0/1/2 columns."""
    n = len(column)
    return np.column_stack([
        column, rng.integers(0, 2, n), rng.integers(0, 2, n),
        rng.integers(0, 3, n), rng.integers(0, 3, n),
    ]).astype(float)


def solved_folds(X, y, C=12.06):
    """
    fit_folds' result, each fold's intercept and weights in its own coordinates
    as its last solve left them, and the folds that were solved a second time.
    """
    solved, solves = np.full((len(y), 6), np.nan), []
    solve = timeshift.logistic._Block.solve

    def recording(block, start):
        theta, n_iter, norm = solve(block, start)
        if block.held_out.shape[1] == 1:  # folds, not group problems
            rows, v = block.held_out[:, 0], theta[:, 1:]  # v = w / scale and c = b - v.shift
            solves.append(rows)
            solved[rows, 0] = theta[:, 0] + np.einsum("ij,ij->i", v, block.shift)
            solved[rows, 1:] = v * block.scale
        return theta, n_iter, norm

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(timeshift.logistic._Block, "solve", recording)
        result = fit_folds(X, y.astype(float), C)
    return result, solved, np.concatenate(solves)[len(y):]  # the first solve has every fold


def random_cohort(rng, n, positives=None):
    """
    n rows of outlier_cohort over an N(15, 44) t1_rel_error, about 40% of them
    decreases, or exactly the rows positives.
    """
    X = outlier_cohort(rng, rng.normal(15, 44, n))
    if positives is None:
        return X, rng.random(n) < 0.4
    return X, np.isin(np.arange(n), positives)


class TestEveryFoldConverges:
    @staticmethod
    def cohorts():
        # every size from 150 to 240 folds, where a group start could keep only
        # a few rows of the cohort
        for n in range(150, 241):
            rng = np.random.default_rng(n)
            yield (*random_cohort(rng, n), rng)
        # two positives: below 256 folds, and both in one group of 64 folds,
        # whose problem then has one class and sends its folds' starts far away
        for n, first in ((200, 0), (256, 128), (330, 192)):
            rng = np.random.default_rng(n)
            yield (*random_cohort(rng, n, first + rng.choice(64, 2, replace=False)), rng)

    def test_every_fold_converges_to_its_refit(self):
        retries = 0
        for X, y, rng in self.cohorts():
            (probability, _, converged, _), _, retried = solved_folds(X, y)
            assert converged.all(), (len(y), np.flatnonzero(~converged))
            retries += len(retried)
            folds = np.union1d(rng.choice(len(y), 3, replace=False), retried)
            assert (np.abs(probability[folds] - refits(X, y, folds)[1]) <= 1e-9).all(), len(y)
        # each of the two one-class groups' 64 folds, and no other fold, is solved twice
        assert retries == 2 * 64

    def test_adversarial_cohorts_match_their_refits(self):
        sweep(range(25))


def sweep(seeds):
    """
    Check the adversarial cohorts of the given seeds against per-fold refits.
    Every fold converges, and each column's most extreme row, every fold
    solved twice and three seeded folds are refitted. Their held-out
    probabilities agree within 1e-9. Near separation the Hessian is small, so
    the gradient tolerance does not bound the probability; there both solves
    converge instead, and each one's gradient norm at the other's parameters
    is below 1e-7, ten times the tolerance.
    """
    for seed in seeds:
        X, y, separable = adversarial_cohort(seed)
        n = len(y)
        (probability, _, converged, _), solved, retried = solved_folds(X, y)
        assert converged.all(), (seed, np.flatnonzero(~converged))
        extreme = np.abs(X - column_stats(X)[0]).argmax(axis=0)
        sample = np.random.default_rng(seed).choice(n, 3, replace=False)
        folds = np.union1d(np.union1d(extreme, retried), sample)
        _, refit, models, scores = refits(X, y, folds)
        if not separable:
            assert (np.abs(probability[folds] - refit) <= 1e-9).all(), seed
            continue
        Z, shift, scale, free = timeshift.logistic._fold_scalers(X)
        for fold, model, z, theta in zip(folds, models, scores, solved[folds]):
            assert model.converged, (seed, fold)
            train = np.arange(n) != fold
            own = np.divide(Z - shift[fold], scale[fold], out=np.zeros_like(Z), where=free[fold])
            at_fold = dataclasses.replace(model, intercept=theta[0], coefficients=tuple(theta[1:]))
            for parameters, features in ((at_fold, z), (model, own)):
                norm = np.abs(gradient(parameters, features[train], y[train])).max()
                assert norm <= 1e-7, (seed, fold, norm)


def adversarial_cohort(seed):
    """
    The sweep's cohort for a seed, of kind seed % 6: its features, its labels
    and whether the labels are near-separable.
    """
    rng = np.random.default_rng(seed)
    kind, n = seed % 6, int(rng.integers(20, 500))
    X, y = random_cohort(rng, n)
    y[:2], y[2:4] = True, False  # two of each class: every fold has both
    if kind == 0:  # a dominant row beside a column of any offset and spread
        offset, spread = rng.choice([0.0, 1e3, 1e6, 1e9]), rng.choice([1e-6, 1e-3, 1.0, 44.0])
        X[:, 0] = offset + spread * rng.standard_normal(n)
        X[rng.integers(n), 0] += rng.choice([-1.0, 1.0]) * 10.0 ** rng.integers(3, 13)
    elif kind == 1:  # a binary column with one 1
        X[:, 2] = 0.0
        X[rng.integers(n), 2] = 1.0
    elif kind == 2:  # two positives in one 64-fold group, whose problem has one class
        n = int(rng.integers(256, 321))
        X, y = random_cohort(rng, n, 64 * rng.integers(n // 64) + rng.choice(64, 2, replace=False))
    elif kind == 3:  # a near-constant column, on either side of constant_columns' threshold
        X[:, 1] = 1e3 * (1.0 + rng.choice([5e-13, 2e-12, 1e-11, 1e-8]) * rng.standard_normal(n))
    elif kind == 4:  # 150 to 240 folds, where a group start could keep only a few rows
        X, y = random_cohort(rng, int(rng.integers(150, 241)))
    else:  # labels split by column 0's median, or copied from a binary column
        y = X[:, 0] > np.median(X[:, 0]) if rng.random() < 0.5 else X[:, 1] == 1
    return X, y, kind == 5


class TestBlocks:
    def test_many_problems_give_the_bits_of_one_call_per_block(self):
        # a work buffer of 7 problems: 40 folds walk 6 blocks and 10 group
        # problems 2, the second of each short
        logistic = timeshift.logistic
        rng = np.random.default_rng(5)
        X, y = random_cohort(rng, 300)
        Z, shift, scale, free = logistic._fold_scalers(X)
        A, pairs = logistic._design(Z)
        work = np.empty((4, 7, len(y)))
        folds, groups = np.arange(40), np.arange(300).reshape(10, 30)
        for held_out, C, per_problem in (
            (folds[:, None], 12.06, (shift[folds], scale[folds], free[folds])),
            (groups, 12.06, ()),
            (groups, np.inf, ()),  # _group_starts' rows outside each group
        ):
            def block(part):
                args = (arg[part] for arg in per_problem)
                return logistic._Block(A, pairs, y.astype(float), held_out[part], C, work, *args)

            theta = rng.normal(0, 0.3, (len(held_out), 6))
            every = np.arange(len(held_out))
            parts = [every[first:first + 7] for first in range(0, len(every), 7)]
            walked = (block(every).objective(theta, every), block(every).solve(theta))
            one_per_block = (
                [block(part).objective(theta[part], part - part[0]) for part in parts],
                [block(part).solve(theta[part]) for part in parts],
            )
            for values, blocks in zip(walked, one_per_block):
                for value, pieces in zip(values, zip(*blocks)):
                    assert np.array_equal(value, np.concatenate(pieces))


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
        with pytest.raises(ValueError):
            magnitude_confusion([0.5], [])


class TestCompareBaselines:
    def test_report_shape(self):
        trials, pairs = varied_dataset([True, False] * 15)
        rows = baseline_rows(trials, pairs)
        assert [name for name, _ in rows] == ["attention", "arousal"]
        for _, row in rows:
            assert isinstance(row, MetricsReport)
            assert sum(map(sum, row.confusion)) == len(pairs)
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
