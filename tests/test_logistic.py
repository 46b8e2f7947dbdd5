import json
import math

import numpy as np
import pytest

import timeshift.logistic
from timeshift.errors import SingleClassError, TooFewSamplesError
from timeshift.features import ScalerStats, column_stats, constant_columns, identity_scaler
from timeshift.logistic import (
    PINNED_C,
    PINNED_COEFFICIENTS,
    PINNED_INTERCEPT,
    LogisticModel,
    _fold_scalers,
    _newton_directions,
    fit,
    gradient,
    load_model,
    nll_loss,
    pinned_model,
    predict_proba,
    save_model,
)


def random_instance(rng, n):
    """Random standardized data, labels drawn from a random true model."""
    Z = rng.normal(size=(n, 5))
    beta = rng.normal(scale=0.8, size=5)
    intercept = rng.normal(scale=0.5)
    p = 1.0 / (1.0 + np.exp(-(intercept + Z @ beta)))
    y = (rng.random(n) < p).astype(float)
    if y.min() == y.max():  # force both classes for fit-ability
        y[0], y[1] = 0.0, 1.0
    return Z, y


def make_model(intercept, coefficients, C=1.0):
    return LogisticModel(
        intercept=intercept,
        coefficients=tuple(coefficients),
        scaler=identity_scaler(),
        inverse_reg_c=C,
    )


def loss_oracle(model, Z, y):
    """Naive per-sample loop, independent of the vectorized implementation."""
    total = 0.0
    for i in range(len(y)):
        logit = model.intercept + sum(
            w * z for w, z in zip(model.coefficients, Z[i])
        )
        p = 1.0 / (1.0 + math.exp(-logit))
        p = min(max(p, 1e-15), 1 - 1e-15)
        total -= y[i] * math.log(p) + (1 - y[i]) * math.log(1 - p)
    total += sum(w * w for w in model.coefficients) / (2 * model.inverse_reg_c)
    return total


def fd_gradient(model, Z, y, h=1e-6):
    """Central finite differences through nll_loss."""
    theta = np.concatenate(([model.intercept], model.coefficients))
    grad = np.zeros_like(theta)
    for j in range(len(theta)):
        up, down = theta.copy(), theta.copy()
        up[j] += h
        down[j] -= h
        m_up = make_model(up[0], up[1:], model.inverse_reg_c)
        m_down = make_model(down[0], down[1:], model.inverse_reg_c)
        grad[j] = (nll_loss(m_up, Z, y) - nll_loss(m_down, Z, y)) / (2 * h)
    return grad


class TestPinnedModel:
    def test_pinned_parameters(self):
        m = pinned_model()
        assert m.intercept == 0.016
        assert m.coefficients == (0.662, -0.191, -0.241, -0.187, 0.177)
        assert m.inverse_reg_c == 12.06

    def test_pinned_scaler_head(self):
        m = pinned_model()
        assert m.scaler.means[0] == 15.0
        assert m.scaler.std_devs[0] == 44.0

    def test_caller_supplied_scaler_wins(self):
        stats = ScalerStats(means=(1, 0, 0, 1, 1), std_devs=(2, 1, 1, 1, 1))
        assert pinned_model(stats).scaler == stats


class TestPredictProba:
    def test_at_origin(self):
        assert predict_proba(pinned_model(), np.zeros(5)) == pytest.approx(
            0.50400, abs=1e-5
        )

    def test_two_sigma_rel_error(self):
        p = predict_proba(pinned_model(), np.array([2.0, 0, 0, 0, 0]))
        assert p == pytest.approx(0.79248, abs=1e-5)

    def test_zero_intercept_origin_is_half(self):
        m = make_model(0.0, (1, 1, 1, 1, 1))
        assert predict_proba(m, np.zeros(5)) == 0.5

    def test_matrix_input(self):
        m = pinned_model()
        Z = np.array([[0.0] * 5, [2.0, 0, 0, 0, 0]])
        p = predict_proba(m, Z)
        assert p.shape == (2,)
        assert p[0] == pytest.approx(0.50400, abs=1e-5)

    @pytest.mark.parametrize("logit", [-700.0, 700.0])
    def test_extreme_logits_stay_finite(self, logit):
        m = make_model(logit, (0, 0, 0, 0, 0))
        p = predict_proba(m, np.zeros(5))
        assert 0.0 < p < 1.0 or p in (0.0, 1.0)
        assert math.isfinite(p)

    def test_label_flip_symmetry(self):
        rng = np.random.default_rng(8)
        m = make_model(0.3, rng.normal(size=5))
        flipped = make_model(-m.intercept, [-w for w in m.coefficients])
        for _ in range(50):
            z = rng.normal(size=5) * 3
            assert predict_proba(m, z) + predict_proba(flipped, z) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_pinned_monotone_in_rel_error(self):
        m = pinned_model()
        grid = np.linspace(-4, 4, 33)
        probs = [predict_proba(m, np.array([z, 0, 0, 0, 0])) for z in grid]
        assert all(a < b for a, b in zip(probs, probs[1:]))


class TestLoss:
    def test_single_sample_at_origin(self):
        m = make_model(0.0, (0, 0, 0, 0, 0))
        assert nll_loss(m, np.zeros((1, 5)), [1]) == pytest.approx(math.log(2))

    def test_n_samples_at_origin(self):
        m = make_model(0.0, (0, 0, 0, 0, 0))
        n = 37
        Z = np.random.default_rng(0).normal(size=(n, 5))
        y = np.random.default_rng(1).integers(0, 2, n)
        assert nll_loss(m, Z, y) == pytest.approx(n * math.log(2))

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            Z, y = random_instance(rng, 12)
            m = make_model(rng.normal(), rng.normal(size=5), C=rng.uniform(0.5, 20))
            assert nll_loss(m, Z, y) == pytest.approx(
                loss_oracle(m, Z, y), abs=1e-12, rel=1e-12
            )


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(25):
            n = int(rng.integers(6, 51))
            Z, y = random_instance(rng, n)
            m = make_model(rng.normal(), rng.normal(size=5), C=rng.uniform(1, 30))
            analytic = gradient(m, Z, y)
            numeric = fd_gradient(m, Z, y)
            rel = np.abs(numeric - analytic) / np.maximum(
                1.0, np.maximum(np.abs(numeric), np.abs(analytic))
            )
            worst = max(worst, rel.max())
        assert worst < 1e-5

    def test_zero_at_optimum(self):
        rng = np.random.default_rng(4)
        Z, y = random_instance(rng, 80)
        model = fit(Z, y, C=5.0)
        assert np.max(np.abs(gradient(model, Z, y))) < 1e-6

    @pytest.mark.parametrize("logit", [-800.0, 800.0])
    def test_extreme_logits_are_exact(self, logit):
        # softplus(m) - y*m is exactly |m| for one row of each class, where a
        # clamped log would saturate near 34.5; p rounds to exactly 0 or 1
        m = make_model(0.0, (logit, 0, 0, 0, 0), C=1.0)
        Z = np.zeros((2, 5))
        Z[:, 0] = 1.0
        y = [1, 0]
        assert nll_loss(m, Z, y) == abs(logit) + logit**2 / 2
        sign = math.copysign(1.0, logit)
        np.testing.assert_array_equal(gradient(m, Z, y), [sign, sign + logit, 0, 0, 0, 0])

    def test_symmetric_setup_zeroes_intercept_gradient(self):
        Z = np.zeros((10, 5))
        y = np.array([0, 1] * 5, dtype=float)
        m = make_model(0.0, (0, 0, 0, 0, 0))
        assert gradient(m, Z, y)[0] == pytest.approx(0.0, abs=1e-12)


class TestFit:
    def test_intercept_only_matches_log_odds(self):
        Z = np.zeros((100, 5))
        y = np.array([1.0] * 30 + [0.0] * 70)
        model = fit(Z, y, C=12.06)
        assert model.intercept == pytest.approx(math.log(0.3 / 0.7), abs=1e-6)
        assert np.allclose(model.coefficients, 0.0, atol=1e-8)

    def test_recovers_known_coefficients(self):
        beta = np.array(PINNED_COEFFICIENTS)
        Z = np.random.default_rng(1).normal(size=(5000, 5))
        p = 1.0 / (1.0 + np.exp(-(PINNED_INTERCEPT + Z @ beta)))
        y = (np.random.default_rng(2).random(5000) < p).astype(float)
        model = fit(Z, y, C=1e6)
        assert np.abs(np.array(model.coefficients) - beta).max() < 0.05
        assert abs(model.intercept - PINNED_INTERCEPT) < 0.05

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(5)
        Z, y = random_instance(rng, 120)
        a = fit(Z, y, C=PINNED_C)
        b = fit(Z, y, C=PINNED_C)
        assert a.intercept == b.intercept
        assert a.coefficients == b.coefficients
        assert a.n_iter == b.n_iter

    def test_loss_never_increases_between_iterates(self, monkeypatch):
        rng = np.random.default_rng(6)
        Z, y = random_instance(rng, 150)
        final = fit(Z, y, C=2.0)
        iterates = []
        for k in range(final.n_iter):
            monkeypatch.setattr(timeshift.logistic, "_MAX_ITER", k)
            iterates.append(fit(Z, y, C=2.0))
        assert not any(m.converged for m in iterates)  # every iterate before the last
        losses = [nll_loss(m, Z, y) for m in [*iterates, final]]
        assert len(losses) >= 2
        assert [m.n_iter for m in iterates] == list(range(final.n_iter))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_fitted_loss_beats_origin(self):
        rng = np.random.default_rng(7)
        Z, y = random_instance(rng, 90)
        model = fit(Z, y, C=3.0)
        origin = make_model(0.0, (0, 0, 0, 0, 0), C=3.0)
        assert nll_loss(model, Z, y) <= nll_loss(origin, Z, y)

    def test_single_class_rejected(self):
        Z = np.random.default_rng(8).normal(size=(20, 5))
        with pytest.raises(SingleClassError):
            fit(Z, np.ones(20))

    def test_too_few_samples_rejected(self):
        Z = np.zeros((5, 5))
        with pytest.raises(TooFewSamplesError):
            fit(Z, np.array([0, 1, 0, 1, 0]))

    def test_nonconvergence_flags_without_warning(self, monkeypatch):
        # pyproject turns any warning into an error, so fit emits none
        rng = np.random.default_rng(9)
        Z, y = random_instance(rng, 200)
        monkeypatch.setattr(timeshift.logistic, "_MAX_ITER", 1)
        model = fit(Z, y, C=12.06)
        assert not model.converged
        assert model.n_iter == 1


class TestFitFolds:
    def test_singular_hessian_gets_steepest_descent(self):
        # a batched solve with one singular matrix falls back fold by fold; the
        # singular one's direction is NaN, which _Block.solve replaces with
        # steepest descent and _group_starts with the group's solution
        hess = np.stack([2.0 * np.eye(6), np.zeros((6, 6))])
        grad = np.arange(12.0).reshape(2, 6)
        direction = _newton_directions(hess, grad)
        np.testing.assert_array_equal(direction, [-grad[0] / 2.0, np.full(6, np.nan)])

    def test_unusable_first_step_falls_back_to_steepest_descent(self, monkeypatch):
        rng = np.random.default_rng(9)
        Z, y = random_instance(rng, 200)
        expected = fit(Z, y, C=12.06)
        newton = timeshift.logistic._newton_directions
        calls = []

        def first_step_unusable(hess, grad):
            direction = newton(hess, grad)
            if not calls:
                direction[0] = np.nan
            calls.append(len(grad))
            return direction

        monkeypatch.setattr(timeshift.logistic, "_newton_directions", first_step_unusable)
        model = fit(Z, y, C=12.06)
        assert model.converged and len(calls) == model.n_iter > 1
        np.testing.assert_allclose([model.intercept, *model.coefficients],
                                   [expected.intercept, *expected.coefficients], rtol=0, atol=1e-9)


def sweep_cohort(rng, n, ratio):
    """
    An outlier column (one row ratio times the other rows' spread away), a
    near-constant column, a binary column with one singleton, a
    cohort-constant column and a 0/1/2 column. The cohort-constant column is
    either exactly constant or has a std just under constant_columns'
    threshold and row 0 at its mean, so that dropping row 0 raises its std
    above the threshold.
    """
    X = np.empty((n, 5))
    X[:, 0] = 15.0 + 44.0 * rng.standard_normal(n)
    X[rng.integers(n), 0] = 15.0 + rng.choice([-1.0, 1.0]) * ratio * 44.0
    X[:, 1] = 1e3 * (1.0 + rng.choice([5e-13, 2e-12, 1e-11, 1e-8]) * rng.standard_normal(n))
    X[:, 2] = 0.0
    X[rng.integers(n), 2] = 1.0
    below = np.concatenate([[0.0], rng.standard_normal(n - 1)])
    below[1:] -= below[1:].mean()
    X[:, 3] = 2.0 if rng.random() < 0.5 else 1e-12 * (1.0 - 0.25 / n) * below / below.std()
    X[:, 4] = rng.integers(0, 3, n)
    return X


class TestFoldScalers:
    def test_every_fold_matches_a_two_pass_over_the_other_rows(self):
        # every fold on the small cohorts; on the large ones each column's
        # most extreme row and a seeded sample of the others
        rng = np.random.default_rng(24)
        for n in (50, 51, 200, 1000, 3000):
            for ratio in (1e2, 1e5, 1e8, 1e10):
                X = sweep_cohort(rng, n, ratio)
                _, shift, scale, free = _fold_scalers(X)
                mean, std = column_stats(X)
                varying = ~constant_columns(mean, std)
                extreme = np.abs(X - mean).argmax(axis=0)
                folds = np.arange(n)
                if n > 200:
                    folds = np.union1d(extreme, rng.choice(n, 100, replace=False))
                # a corrected two-pass: the second pass cancels the first mean's rounding
                deviations = [(r, r - r.mean(axis=0)) for r in (np.delete(X, i, 0) for i in folds)]
                fold_mean = np.array([r.mean(axis=0) + d.mean(axis=0) for r, d in deviations])
                fold_std = np.array([d.std(axis=0) for _, d in deviations])
                case = (n, ratio)
                np.testing.assert_array_equal(
                    free[folds], ~constant_columns(fold_mean, fold_std) & varying, err_msg=case)
                # Z's units: the statistics of each column's most extreme row's
                # fold where that fold varies, else the full data's (1 if constant)
                at = np.searchsorted(folds, extreme), np.arange(len(mean))
                own = ~constant_columns(fold_mean[at], fold_std[at]) & varying
                mean = np.where(own, fold_mean[at], mean)
                std = np.where(own, fold_std[at], np.where(varying, std, 1.0))
                # in Z's units; the fold mean itself is only known to its own rounding
                bound = (1e-10 * fold_std + 4 * np.finfo(float).eps * np.abs(fold_mean)) / std
                checked = np.broadcast_to(varying, bound.shape)
                mean_error = np.abs(shift[folds] - (fold_mean - mean) / std)
                std_error = np.abs(scale[folds] - fold_std / std)
                assert (mean_error <= bound)[checked].all(), case
                assert (std_error <= 1e-10 * fold_std / std)[checked].all(), case


class TestSerialization:
    def test_roundtrip_is_lossless(self, tmp_path, monkeypatch):
        model = LogisticModel(
            intercept=0.1 + 0.2,  # deliberately unrepresentable nicely
            coefficients=(1 / 3, -2 / 7, 0.662, math.pi, -1e-17),
            scaler=ScalerStats(
                means=(15.0, 0.4, 0.06, 1.0, 1.0),
                std_devs=(44.0, 0.49, 0.2375, 0.8165, 0.8165),
            ),
            inverse_reg_c=12.06,
            trained_on="unit-test",
            seed=3,
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        clone = load_model(path)
        assert clone.intercept == model.intercept
        assert clone.coefficients == model.coefficients
        assert clone.scaler == model.scaler
        assert clone.inverse_reg_c == model.inverse_reg_c
        assert clone.trained_on == "unit-test"
        assert clone.seed == 3
        assert (clone.converged, clone.n_iter) == (True, 0)

        Z = np.random.default_rng(12).normal(size=(30, 5))
        monkeypatch.setattr(timeshift.logistic, "_MAX_ITER", 1)
        stopped = fit(Z, (Z[:, 0] > 0).astype(float))
        assert (stopped.converged, stopped.n_iter) == (False, 1)
        save_model(stopped, path)
        assert load_model(path) == stopped

    def test_schema_fields(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(pinned_model(), path)
        payload = json.loads(path.read_text())
        assert set(payload) == {
            "intercept", "coefficients", "scaler", "C", "trained_on", "seed",
            "converged", "n_iter",
        }
        assert set(payload["scaler"]) == {"means", "stds"}
        # files written before the diagnostics existed load with the old defaults
        del payload["converged"], payload["n_iter"]
        path.write_text(json.dumps(payload))
        clone = load_model(path)
        assert (clone.converged, clone.n_iter) == (True, 0)

    def test_file_helpers(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(pinned_model(), path)
        assert load_model(path).coefficients == PINNED_COEFFICIENTS

    def test_pinned_model_file_bytes(self, tmp_path):
        # the model format: one line of sorted-key JSON, shortest round-trip floats
        path = tmp_path / "model.json"
        save_model(pinned_model(), path)
        assert path.read_bytes() == (
            b'{"C": 12.06, "coefficients": [0.662, -0.191, -0.241, -0.187, 0.177], '
            b'"converged": true, "intercept": 0.016, "n_iter": 0, "scaler": {"means": '
            b'[15.0, 0.4, 0.06, 1.0, 1.0], "stds": [44.0, 0.4898979485566356, '
            b'0.23748684174075832, 0.816496580927726, 0.816496580927726]}, "seed": null, '
            b'"trained_on": "pinned"}\n'
        )
