"""
Attentional-gate simulator: synthetic time production data with known ground truth.

The generative story is a pacemaker-accumulator clock. A pacemaker emits ticks
at a base rate; transient arousal from an engagement increase speeds it up. An
attention gate passes a fraction of the ticks (narrower for more engaging
stimuli), and the trial ends when the accumulated ticks reach the reference
memory. Between trials the reference memory is recalibrated: partly kept,
partly corrected opposite the participant's own error report, and partly
pulled toward a population-typical duration (regression to the mean).

Produced time for one trial is therefore

    produced = reference_ticks / (rate * gate) * (1 + noise)

with multiplicative Gaussian timing noise (scalar property). Narrower gates
and slower clocks both lengthen production.

The module also provides the two rule-based predictors used as comparison
baselines: one assuming attention-driven lengthening, one assuming
arousal-driven shortening.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import (
    DEFAULT_TARGET_S,
    Dataset,
    Direction,
    EngagementLevel,
    Provenance,
    TrialRecord,
    pair_consecutive,
)

# Productions are truncated here; with the default noise level the bound is
# effectively never hit (~1e-5 of draws even at 3 s noiseless time).
MIN_PRODUCED_S = 0.5

_RESAMPLE_CAP = 100


@dataclass(frozen=True)
class SimParams:
    """
    Generative parameters of the attentional-gate simulator.

    gate_width_by_engagement is indexed by engagement code (low, medium, high)
    and must be non-increasing: more engaging stimuli divert attention from
    time and let fewer ticks through.

    reference_ticks defaults to base_clock_rate_hz * gate(low) * target_s so a
    noise-free low-engagement trial produces exactly the target interval.

    population_mean_s anchors the regression-to-the-mean pull of the memory
    update. Its default is calibrated, not measured: engaging stimuli and the
    correction dynamics skew productions long, and 45 s keeps default
    synthetic data increase-dominant (~60/40) with a mean trial-to-trial drift
    of about +2.7 s.

    report_flip_prob is the chance a participant misreports the side of their
    error; sensitivity_prevalence is the fraction of participants who report
    low-engagement stimuli as highly engaging.
    """

    base_clock_rate_hz: float = 10.0
    gate_width_by_engagement: tuple[float, float, float] = (1.0, 0.85, 0.7)
    arousal_gain: float = 0.05
    reference_ticks: float | None = None
    memory_correction_weight: float = 0.3
    regression_weight: float = 0.3
    weber_fraction: float = 0.15
    rng_seed: int = 0
    target_s: float = DEFAULT_TARGET_S
    population_mean_s: float = 45.0
    report_flip_prob: float = 0.1
    sensitivity_prevalence: float = 0.06

    def __post_init__(self):
        if self.base_clock_rate_hz <= 0:
            raise ValueError("base_clock_rate_hz must be > 0")
        gates = tuple(float(g) for g in self.gate_width_by_engagement)
        object.__setattr__(self, "gate_width_by_engagement", gates)
        if len(gates) != 3 or any(not 0 < g <= 1 for g in gates):
            raise ValueError("gate widths must be three values in (0, 1]")
        if not gates[0] >= gates[1] >= gates[2]:
            raise ValueError("gate widths must not increase with engagement")
        if self.arousal_gain < 0:
            raise ValueError("arousal_gain must be >= 0")
        w_c, w_r = self.memory_correction_weight, self.regression_weight
        if not (0 <= w_c <= 1 and 0 <= w_r <= 1 and w_c + w_r <= 1):
            raise ValueError("memory weights must lie in [0, 1] and sum to <= 1")
        if self.weber_fraction < 0:
            raise ValueError("weber_fraction must be >= 0")
        if self.target_s <= 0 or self.population_mean_s <= 0:
            raise ValueError("target_s and population_mean_s must be > 0")
        if not 0 <= self.report_flip_prob <= 1:
            raise ValueError("report_flip_prob must be a probability")
        if not 0 <= self.sensitivity_prevalence <= 1:
            raise ValueError("sensitivity_prevalence must be a probability")
        if self.reference_ticks is None:
            object.__setattr__(
                self,
                "reference_ticks",
                self.base_clock_rate_hz * gates[0] * self.target_s,
            )
        elif self.reference_ticks <= 0:
            raise ValueError("reference_ticks must be > 0")

    def gate(self, level: EngagementLevel) -> float:
        return self.gate_width_by_engagement[int(level)]

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SimParams":
        return cls(**json.loads(text))


def participant_rng(seed: int, participant_index: int) -> np.random.Generator:
    """
    Independent PCG64 substream for one participant.

    Seeding the generator with the (seed, index) entropy pair makes streams
    order-independent, so participants can be simulated in parallel or in any
    order with identical results.
    """
    return np.random.default_rng([seed, participant_index])


def simulate_trial(
    params: SimParams,
    engagement: EngagementLevel,
    prev_engagement: EngagementLevel | None,
    reference_ticks: float,
    rng: np.random.Generator,
) -> float:
    """
    Produce one interval: ticks gated into the counter until the reference is met.

    The clock rate is the base rate, sped up by arousal_gain per level of
    engagement *increase* relative to the previous trial (arousal is transient,
    tied to the change rather than the absolute level). Timing noise is
    multiplicative Gaussian with CV = weber_fraction, truncated to keep the
    produced time positive.
    """
    rate = params.base_clock_rate_hz
    if prev_engagement is not None:
        rise = max(0, int(engagement) - int(prev_engagement))
        rate *= 1.0 + params.arousal_gain * rise
    noiseless = reference_ticks / (rate * params.gate(engagement))
    for _ in range(_RESAMPLE_CAP):
        produced = noiseless * (1.0 + rng.normal(0.0, params.weber_fraction))
        if produced > MIN_PRODUCED_S:
            return produced
    return MIN_PRODUCED_S


def update_reference_memory(
    params: SimParams,
    old_reference_ticks: float,
    last_produced_s: float,
    reported_lower: bool,
    population_mean_s: float,
) -> float:
    """
    Recalibrate the reference memory after a trial.

    Working in target-equivalent seconds (ticks divided by the low-engagement
    tick throughput), the new reference blends three terms:

        persistence  (1 - w_c - w_r) * old
        correction   w_c * (target +/- |last_produced - target|)
        regression   w_r * population_mean_s

    The correction pushes opposite the participant's *reported* error: someone
    who believes they undershot aims longer next time, and vice versa, with a
    step proportional to how far the last production actually was from the
    target. The produced time is clamped to [0, 2 * target] first so the
    corrected value can never leave that range.
    """
    low_throughput = params.base_clock_rate_hz * params.gate_width_by_engagement[0]
    s_old = old_reference_ticks / low_throughput
    target = params.target_s
    step = abs(min(max(last_produced_s, 0.0), 2.0 * target) - target)
    corrected = target + step if reported_lower else target - step
    w_c = params.memory_correction_weight
    w_r = params.regression_weight
    s_new = (1.0 - w_c - w_r) * s_old + w_c * corrected + w_r * population_mean_s
    return max(s_new, MIN_PRODUCED_S) * low_throughput


def generate_trials(
    params: SimParams,
    n_participants: int,
    n_trials: int = 2,
    engagement_assignment: str | list[EngagementLevel] = "random_uniform_9",
) -> list[TrialRecord]:
    """
    Simulate trial sequences for a cohort of synthetic participants.

    engagement_assignment is either "random_uniform_9" (each trial's level
    drawn uniformly, which for two trials is uniform over the nine level
    permutations) or an explicit per-trial sequence applied to everyone.

    Self-reports are synthesized from the truth: reported_lower_than_30 is the
    actual side of the error flipped with report_flip_prob, and a participant
    drawn sensitive (sensitivity_prevalence) reports high engagement.
    """
    if n_participants < 1:
        raise ValueError("n_participants must be >= 1")
    if n_trials < 2:
        raise ValueError("n_trials must be >= 2")
    if isinstance(engagement_assignment, str):
        if engagement_assignment != "random_uniform_9":
            raise ValueError(
                f"unknown engagement assignment: {engagement_assignment!r}"
            )
        fixed_levels = None
    else:
        fixed_levels = [EngagementLevel(level) for level in engagement_assignment]
        if len(fixed_levels) != n_trials:
            raise ValueError("fixed engagement sequence length must equal n_trials")

    width = len(str(n_participants - 1))
    trials: list[TrialRecord] = []
    for i in range(n_participants):
        rng = participant_rng(params.rng_seed, i)
        if fixed_levels is None:
            levels = [EngagementLevel(int(c)) for c in rng.integers(0, 3, size=n_trials)]
        else:
            levels = fixed_levels
        sensitive = bool(rng.random() < params.sensitivity_prevalence)
        reference = float(params.reference_ticks)
        prev_level: EngagementLevel | None = None
        for t, level in enumerate(levels):
            produced = simulate_trial(params, level, prev_level, reference, rng)
            reported_lower = produced <= params.target_s
            if rng.random() < params.report_flip_prob:
                reported_lower = not reported_lower
            trials.append(
                TrialRecord(
                    participant_id=f"sim{i:0{width}d}",
                    trial_index=t + 1,
                    engagement=level,
                    produced_time_s=produced,
                    reported_lower_than_30=reported_lower,
                    reported_high_engagement=sensitive,
                )
            )
            reference = update_reference_memory(
                params, reference, produced, reported_lower, params.population_mean_s
            )
            prev_level = level
    return trials


def generate_dataset(
    params: SimParams,
    n_participants: int,
    n_trials: int = 2,
    engagement_assignment: str | list[EngagementLevel] = "random_uniform_9",
) -> Dataset:
    """Simulate a cohort and pair its consecutive trials into a labeled dataset."""
    trials = generate_trials(params, n_participants, n_trials, engagement_assignment)
    return Dataset(
        samples=tuple(pair_consecutive(trials)),
        provenance=Provenance.SYNTHETIC,
    )


# ---------------------------------------------------------------------------
# Rule-based baseline predictors
# ---------------------------------------------------------------------------

def attention_baseline(prev: EngagementLevel, next: EngagementLevel) -> Direction:
    """
    Attention rule: more engaging stimuli narrow the gate, so production
    lengthens on an engagement rise and shortens on a drop. Same-level
    transitions predict INCREASE (the population majority lengthens).
    """
    if next > prev:
        return Direction.INCREASE
    if next < prev:
        return Direction.DECREASE
    return Direction.INCREASE


def arousal_baseline(prev: EngagementLevel, next: EngagementLevel) -> Direction:
    """
    Arousal rule: more engaging stimuli speed the clock, so it negates the
    attention rule on strict transitions, i.e. applies it to the reversed
    transition. Same-level transitions use the same INCREASE tie rule.
    """
    return attention_baseline(next, prev)
