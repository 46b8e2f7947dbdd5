import json
import math

import numpy as np
import pytest

from timeshift.explain import (
    ShapAttribution,
    aggregate_shap,
    shap_matrix,
    shap_values,
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


class TestShapValues:
    def test_background_point_has_zero_attribution(self):
        rng = np.random.default_rng(0)
        model = make_model(0.2, rng.normal(size=5))
        bg = rng.normal(size=5)
        attribution = shap_values(model, bg, background_means=bg)
        assert attribution.phi == (0.0,) * 5
        assert attribution.output_logit == pytest.approx(attribution.base_logit)

    def test_pinned_unit_rel_error(self):
        attribution = shap_values(pinned_model(), np.array([1.0, 0, 0, 0, 0]))
        assert attribution.phi[0] == pytest.approx(0.662)
        assert attribution.phi[1:] == (0.0,) * 4
        assert attribution.output_logit == pytest.approx(0.678)
        assert attribution.output_probability == pytest.approx(0.6633, abs=1e-4)

    def test_sensitivity_flag_matches_reference_scale(self):
        # a True flag at 6% prevalence standardizes to (1-q)/sqrt(q(1-q))
        q = 0.06
        z_true = (1 - q) / math.sqrt(q * (1 - q))
        z = np.zeros(5)
        z[2] = z_true
        attribution = shap_values(pinned_model(), z)
        assert attribution.phi[2] == pytest.approx(-0.241 * z_true, abs=1e-12)
        assert attribution.phi[2] == pytest.approx(-0.95, abs=0.01)

    def test_efficiency_on_random_samples(self):
        rng = np.random.default_rng(1)
        model = make_model(rng.normal(), rng.normal(size=5))
        bg = rng.normal(size=5) * 0.5
        for _ in range(500):
            z = rng.normal(size=5) * 3
            a = shap_values(model, z, background_means=bg)
            assert abs(a.base_logit + sum(a.phi) - a.output_logit) < 1e-9
            assert a.output_probability == pytest.approx(
                predict_proba(model, z), abs=1e-12
            )

    def test_matrix_path_matches_scalar_path(self):
        rng = np.random.default_rng(2)
        model = make_model(0.1, rng.normal(size=5))
        Z = rng.normal(size=(40, 5))
        bg = rng.normal(size=5) * 0.3
        base, phi, logits = shap_matrix(model, Z, background_means=bg)
        for i in range(40):
            single = shap_values(model, Z[i], background_means=bg)
            assert single.base_logit == pytest.approx(base)
            assert np.allclose(single.phi, phi[i], atol=1e-12)
            assert single.output_logit == pytest.approx(logits[i])

    def test_dummy_feature_gets_zero(self):
        model = make_model(0.5, (1.2, 0.0, -0.7, 0.0, 0.3))
        rng = np.random.default_rng(3)
        for _ in range(100):
            attribution = shap_values(model, rng.normal(size=5) * 4)
            assert attribution.phi[1] == 0.0
            assert attribution.phi[3] == 0.0

    def test_split_weight_symmetry(self):
        # duplicated feature with the weight split in half gets equal credit
        model = make_model(0.0, (0.4, 0.4, 0, 0, 0))
        z = np.array([1.7, 1.7, 0.2, -0.5, 3.0])
        attribution = shap_values(model, z)
        assert attribution.phi[0] == attribution.phi[1]

    def test_additivity_per_coordinate(self):
        rng = np.random.default_rng(4)
        model = make_model(0.3, rng.normal(size=5))
        z = rng.normal(size=5)
        base_attr = shap_values(model, z)
        for j in range(5):
            bumped = z.copy()
            bumped[j] += 1.5
            attribution = shap_values(model, bumped)
            for k in range(5):
                if k == j:
                    assert attribution.phi[k] != pytest.approx(base_attr.phi[k])
                else:
                    assert attribution.phi[k] == pytest.approx(base_attr.phi[k])

    def test_ranked_features_deterministic(self):
        attribution = ShapAttribution(
            base_logit=0.0,
            phi=(0.5, -0.5, 0.1, 0.0, -0.7),
            output_logit=-0.6,
            output_probability=1 / (1 + math.exp(0.6)),
        )
        assert attribution.ranked_features() == [4, 0, 1, 2, 3]

    def test_efficiency_enforced_at_construction(self):
        with pytest.raises(ValueError):
            ShapAttribution(
                base_logit=0.0, phi=(1, 0, 0, 0, 0), output_logit=5.0,
                output_probability=0.9,
            )


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
        from timeshift.simulator import SimParams, generate_dataset

        ds = generate_dataset(SimParams(rng_seed=17, sensitivity_prevalence=0.3), 400, 2)
        X = build_features(ds.samples)
        scaler = fit_scaler(X)
        Z = transform(X, scaler)
        model = pinned_model(scaler)
        _, phi, _ = shap_matrix(model, Z)
        produced = np.array([s.prev.produced_time_s for s in ds.samples])
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
        attribution = shap_values(pinned_model(), np.zeros(5))
        payload = waterfall_payload(attribution, np.array([15.0, 0, 0, 1, 1]))
        assert set(payload) == {"base", "entries", "output_logit", "output_probability"}
        assert [e["feature"] for e in payload["entries"]] == list(FEATURE_NAMES)
        assert all(e["phi"] == 0.0 for e in payload["entries"])
        json.dumps(payload)  # JSON-serializable end to end
