"""
timeshift: predicting the direction (and inferring the magnitude) of change
in a person's produced time interval between consecutive trials.

The package covers the full pipeline: trial ingestion and pairing (data),
feature derivation and z-scoring (features), an attentional-gate simulator
for synthetic cohorts plus rule-based baselines (simulator), logistic
regression built from first principles with the pinned reference model
(logistic), balancing, leave-one-out cross-validation, metrics and the
baselines' scores (evaluation), exact linear-logit SHAP attributions
(explain), and a deterministic CLI (cli). Import from those submodules: the
package itself carries only __version__.
"""

__version__ = "0.1.0"
