import json
import math

import numpy as np
import pytest

from timeshift.explain import (
    aggregate_shap,
    shap_matrix,
    waterfall_payload,
    write_scatter_csv,
)
from timeshift.features import FEATURE_NAMES, ScalerStats, identity_scaler
from timeshift.logistic import LogisticModel, pinned_model, predict_proba


def make_model(intercept, coefficients):
    return LogisticModel(
        intercept=intercept,
        coefficients=tuple(coefficients),
        scaler=identity_scaler(),
        inverse_reg_c=1.0,
    )


def one_row(model, z, background_means=None):
    """Base logit, contributions and output logit of one standardized sample."""
    base, phi, logits = shap_matrix(model, np.reshape(z, (1, 5)), background_means)
    return base, phi[0], logits[0]


class TestShapValues:
    def test_background_point_has_zero_attribution(self):
        rng = np.random.default_rng(0)
        model = make_model(0.2, rng.normal(size=5))
        bg = rng.normal(size=5)
        base, phi, logit = one_row(model, bg, background_means=bg)
        assert phi.tolist() == [0.0] * 5
        assert logit == pytest.approx(base)

    def test_pinned_unit_rel_error(self):
        base, phi, logit = one_row(pinned_model(), np.array([1.0, 0, 0, 0, 0]))
        assert phi[0] == pytest.approx(0.662)
        assert phi[1:].tolist() == [0.0] * 4
        assert logit == pytest.approx(0.678)
        payload = waterfall_payload(*shap_matrix(pinned_model(), np.eye(5)[:1]), np.zeros(5))
        assert payload["output_probability"] == pytest.approx(0.6633, abs=1e-4)

    def test_sensitivity_flag_matches_reference_scale(self):
        # a True flag at 6% prevalence standardizes to (1-q)/sqrt(q(1-q))
        q = 0.06
        z_true = (1 - q) / math.sqrt(q * (1 - q))
        z = np.zeros(5)
        z[2] = z_true
        _, phi, _ = one_row(pinned_model(), z)
        assert phi[2] == pytest.approx(-0.241 * z_true, abs=1e-12)
        assert phi[2] == pytest.approx(-0.95, abs=0.01)

    def test_efficiency_on_random_samples(self):
        rng = np.random.default_rng(1)
        model = make_model(rng.normal(), rng.normal(size=5))
        bg = rng.normal(size=5) * 0.5
        Z = rng.normal(size=(500, 5)) * 3
        base, phi, logits = shap_matrix(model, Z, background_means=bg)
        assert np.abs(base + phi.sum(axis=1) - logits).max() < 1e-9
        for i in range(0, 500, 50):
            payload = waterfall_payload(*shap_matrix(model, Z[i:i + 1], bg), Z[i])
            assert payload["output_probability"] == pytest.approx(
                predict_proba(model, Z[i]), abs=1e-12
            )

    def test_matrix_path_matches_scalar_path(self):
        rng = np.random.default_rng(2)
        model = make_model(0.1, rng.normal(size=5))
        Z = rng.normal(size=(40, 5))
        bg = rng.normal(size=5) * 0.3
        base, phi, logits = shap_matrix(model, Z, background_means=bg)
        for i in range(40):
            single_base, single_phi, single_logit = one_row(model, Z[i], background_means=bg)
            assert single_base == pytest.approx(base)
            assert np.allclose(single_phi, phi[i], atol=1e-12)
            assert single_logit == pytest.approx(logits[i])

    def test_dummy_feature_gets_zero(self):
        model = make_model(0.5, (1.2, 0.0, -0.7, 0.0, 0.3))
        rng = np.random.default_rng(3)
        _, phi, _ = shap_matrix(model, rng.normal(size=(100, 5)) * 4)
        assert not phi[:, 1].any()
        assert not phi[:, 3].any()

    def test_split_weight_symmetry(self):
        # duplicated feature with the weight split in half gets equal credit
        model = make_model(0.0, (0.4, 0.4, 0, 0, 0))
        z = np.array([1.7, 1.7, 0.2, -0.5, 3.0])
        _, phi, _ = one_row(model, z)
        assert phi[0] == phi[1]

    def test_additivity_per_coordinate(self):
        rng = np.random.default_rng(4)
        model = make_model(0.3, rng.normal(size=5))
        z = rng.normal(size=5)
        _, base_phi, _ = one_row(model, z)
        for j in range(5):
            bumped = z.copy()
            bumped[j] += 1.5
            _, phi, _ = one_row(model, bumped)
            for k in range(5):
                if k == j:
                    assert phi[k] != pytest.approx(base_phi[k])
                else:
                    assert phi[k] == pytest.approx(base_phi[k])

    def test_ranked_features_deterministic(self):
        phi = np.array([[0.5, -0.5, 0.1, 0.0, -0.7]])
        payload = waterfall_payload(0.0, phi, np.array([-0.6]), np.arange(5.0))
        order = [FEATURE_NAMES.index(e["feature"]) for e in payload["entries"]]
        assert order == [4, 0, 1, 2, 3]
        assert [e["value"] for e in payload["entries"]] == [4.0, 0.0, 1.0, 2.0, 3.0]
        assert payload["output_probability"] == pytest.approx(1 / (1 + math.exp(0.6)))

    def test_efficiency_enforced_at_construction(self):
        with pytest.raises(ValueError, match="efficiency"):
            waterfall_payload(0.0, np.array([[1.0, 0, 0, 0, 0]]), np.array([5.0]), np.zeros(5))

    def test_one_row_of_five_required(self):
        for phi in (np.zeros((2, 5)), np.zeros((1, 4)), np.zeros(5)):
            with pytest.raises(ValueError, match="one row"):
                waterfall_payload(0.0, phi, np.zeros(len(phi)), np.zeros(5))


class TestAggregateShap:
    def _phi(self, n=60, seed=5):
        rng = np.random.default_rng(seed)
        model = make_model(0.1, rng.normal(size=5))
        _, phi, _ = shap_matrix(model, rng.normal(size=(n, 5)))
        return phi

    def test_single_attribution_aggregates_to_itself(self):
        phi = self._phi(n=1)
        summaries = aggregate_shap(phi)
        for j, summary in enumerate(summaries):
            assert summary.mean_phi == pytest.approx(phi[0, j])
            assert summary.std_phi == 0.0
            assert summary.n == 1

    def test_disjoint_groups_recombine(self):
        phi = self._phi(n=50)
        rows = np.arange(50)
        left = aggregate_shap(phi[rows < 20])
        right = aggregate_shap(phi[rows >= 20])
        population = aggregate_shap(phi)
        for j in range(5):
            combined = (20 * left[j].mean_phi + 30 * right[j].mean_phi) / 50
            assert combined == pytest.approx(population[j].mean_phi, abs=1e-12)

    def test_empty_group_rejected(self):
        phi = self._phi(n=5)
        with pytest.raises(ValueError):
            aggregate_shap(phi[np.zeros(5, dtype=bool)])

    def test_long_production_group_dominated_by_rel_error(self):
        # synthetic cohort scored by the pinned model: among samples with
        # previous production > 45 s the prior-timing feature dominates
        from timeshift.features import build_features, fit_scaler, transform
        from timeshift.simulator import SimParams
        from tests.test_data import simulated

        trials, pairs = simulated(SimParams(rng_seed=17, sensitivity_prevalence=0.3), 400, 2)
        X = build_features(trials, pairs)
        scaler = fit_scaler(X)
        Z = transform(X, scaler)
        model = pinned_model(scaler)
        _, phi, _ = shap_matrix(model, Z)
        produced = trials.produced_s[pairs[:, 0]]
        summaries = aggregate_shap(phi[produced > 45.0])
        by_name = {s.feature: s.mean_phi for s in summaries}
        rel_error_mean = by_name["t1_rel_error"]
        assert rel_error_mean > 0.5
        assert all(
            rel_error_mean > abs(v)
            for k, v in by_name.items()
            if k != "t1_rel_error"
        )


class TestExports:
    def test_scatter_csv_layout(self, tmp_path):
        rng = np.random.default_rng(7)
        model = make_model(0.1, rng.normal(size=5))
        Z = rng.normal(size=(3, 5))
        X = Z * 10 + 5
        _, phi, _ = shap_matrix(model, Z)
        path = tmp_path / "scatter.csv"
        write_scatter_csv(phi, X, Z, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "feature,raw_value,standardized_value,phi"
        assert len(lines) == 1 + 3 * 5
        first = lines[1].split(",")
        assert first[0] == "t1_rel_error"
        assert float(first[3]) == pytest.approx(phi[0, 0])
        # every numeric cell is a plain decimal float that round-trips exactly
        for k, line in enumerate(lines[1:]):
            i, j = divmod(k, 5)
            name, raw, z, contribution = line.split(",")
            assert name == FEATURE_NAMES[j]
            assert [float(raw), float(z), float(contribution)] == [
                X[i, j], Z[i, j], phi[i, j]
            ]

    def test_waterfall_payload_structure(self):
        payload = waterfall_payload(
            *shap_matrix(pinned_model(), np.zeros((1, 5))), np.array([15.0, 0, 0, 1, 1])
        )
        assert set(payload) == {"base", "entries", "output_logit", "output_probability"}
        assert [e["feature"] for e in payload["entries"]] == list(FEATURE_NAMES)
        assert all(e["phi"] == 0.0 for e in payload["entries"])
        json.dumps(payload)  # JSON-serializable end to end
