"""
timeshift: predicting the direction (and inferring the magnitude) of change
in a person's produced time interval between consecutive trials.

The package covers the full pipeline: trial ingestion and pairing (data),
feature derivation and z-scoring (features), an attentional-gate simulator
for synthetic cohorts plus rule-based baselines (simulator), logistic
regression built from first principles with the pinned reference model
(logistic), balancing, leave-one-out cross-validation, metrics and the
baselines' scores (evaluation), exact linear-logit SHAP attributions
(explain), and a deterministic CLI (cli).
"""

__version__ = "0.1.0"

from .data import (
    Dataset,
    Direction,
    EngagementLevel,
    MagnitudeLevel,
    Provenance,
    SamplePair,
    TrialRecord,
    load_trials,
    pair_consecutive,
    write_trials_csv,
)
from .features import (
    FEATURE_NAMES,
    ScalerStats,
    build_features,
    fit_scaler,
    transform,
)
from .simulator import (
    SimParams,
    arousal_baseline,
    attention_baseline,
    generate_dataset,
    generate_trials,
    simulate_trial,
    update_reference_memory,
)
from .logistic import (
    LogisticModel,
    fit,
    gradient,
    load_model,
    model_from_json,
    model_to_json,
    nll_loss,
    pinned_model,
    predict_proba,
    save_model,
)
from .evaluation import (
    MagnitudeConfusion,
    MetricsReport,
    PredictionOutcome,
    Thresholds,
    classify_actual_magnitude,
    classify_direction,
    classify_predicted_magnitude,
    loocv,
    magnitude_confusion,
    metrics,
    undersample,
)
from .explain import (
    ShapAttribution,
    aggregate_shap,
    shap_matrix,
    shap_values,
)
