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

from dataclasses import dataclass, field

import numpy as np

from .data import DEFAULT_TARGET_S, Direction, EngagementLevel, TrialTable, check_fields

# Productions are clamped here; with the default noise level the bound is
# effectively never hit (~1e-5 of draws even at 3 s noiseless time).
MIN_PRODUCED_S = 0.5


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
    of about +2.8 s.

    report_flip_prob is the chance a participant misreports the side of their
    error; sensitivity_prevalence is the fraction of participants who report
    low-engagement stimuli as highly engaging.
    """

    base_clock_rate_hz: float = field(default=10.0, metadata={"above": 0})
    gate_width_by_engagement: tuple[float, float, float] = field(
        default=(1.0, 0.85, 0.7), metadata={"above": 0, "max": 1}
    )
    arousal_gain: float = field(default=0.05, metadata={"min": 0})
    reference_ticks: float | None = field(default=None, metadata={"above": 0})
    memory_correction_weight: float = field(default=0.3, metadata={"min": 0, "max": 1})
    regression_weight: float = field(default=0.3, metadata={"min": 0, "max": 1})
    weber_fraction: float = field(default=0.15, metadata={"min": 0})
    rng_seed: int = field(default=0, metadata={"min": 0})
    target_s: float = field(default=DEFAULT_TARGET_S, metadata={"above": 0})
    population_mean_s: float = field(default=45.0, metadata={"above": 0})
    report_flip_prob: float = field(default=0.1, metadata={"min": 0, "max": 1})
    sensitivity_prevalence: float = field(default=0.06, metadata={"min": 0, "max": 1})

    def __post_init__(self):
        check_fields(self)
        gates = self.gate_width_by_engagement
        if len(gates) != 3:
            raise ValueError(f"gate_width_by_engagement must hold 3 widths, got {len(gates)}")
        if not gates[0] >= gates[1] >= gates[2]:
            raise ValueError("gate widths must not increase with engagement")
        if self.memory_correction_weight + self.regression_weight > 1:
            raise ValueError("memory_correction_weight + regression_weight must be <= 1")
        if self.reference_ticks is None:
            object.__setattr__(
                self,
                "reference_ticks",
                self.base_clock_rate_hz * gates[0] * self.target_s,
            )


def simulate_trial(params: SimParams, engagement, prev_engagement, reference_ticks, z):
    """
    Produce one interval: ticks gated into the counter until the reference is met.

    The clock rate is the base rate, sped up by arousal_gain per level of
    engagement *increase* relative to the previous trial (arousal is transient,
    tied to the change rather than the absolute level; a first trial passes its
    own level, so there is no rise). Timing noise is multiplicative Gaussian
    with CV = weber_fraction, applied to the standard normal draw z, and the
    produced time is clamped at MIN_PRODUCED_S. Every argument but params may
    be an array of participants.
    """
    rise = np.maximum(0, np.subtract(engagement, prev_engagement, dtype=float))
    rate = params.base_clock_rate_hz * (1.0 + params.arousal_gain * rise)
    gate = np.take(params.gate_width_by_engagement, engagement)
    noiseless = reference_ticks / (rate * gate)
    return np.maximum(noiseless * (1.0 + params.weber_fraction * z), MIN_PRODUCED_S)


def update_reference_memory(
    params: SimParams, old_reference_ticks, last_produced_s, reported_lower
):
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
    corrected value can never leave that range. Ticks, time and report may be
    arrays of participants.
    """
    low_throughput = params.base_clock_rate_hz * params.gate_width_by_engagement[0]
    s_old = old_reference_ticks / low_throughput
    target = params.target_s
    step = np.abs(np.clip(last_produced_s, 0.0, 2.0 * target) - target)
    corrected = np.where(reported_lower, target + step, target - step)
    w_c = params.memory_correction_weight
    w_r = params.regression_weight
    s_new = (1.0 - w_c - w_r) * s_old + w_c * corrected + w_r * params.population_mean_s
    return np.maximum(s_new, MIN_PRODUCED_S) * low_throughput


# The most trials (n_participants * n_trials) in a cohort: 100 times the largest
# benchmark cohort. simulate peaks at ~85 bytes a trial and extract at ~155, so
# a capped run stays under ~2 GB, and a larger one fails before it allocates.
MAX_TRIALS = 10**7


def cohort_levels(n_participants: int, n_trials: int, assignment) -> list | None:
    """
    The cohort rule: ValueError unless n_participants >= 1, n_trials >= 2, their
    product is at most MAX_TRIALS and the engagement assignment is "random_uniform_9"
    (returns None) or a list of n_trials levels, names or codes (returns them parsed).
    """
    if n_participants < 1:
        raise ValueError(f"n_participants must be >= 1, got {n_participants}")
    if n_trials < 2:
        raise ValueError(f"n_trials must be >= 2, got {n_trials}")
    if n_participants * n_trials > MAX_TRIALS:
        raise ValueError(f"n_participants * n_trials must be <= {MAX_TRIALS}, "
                         f"got {n_participants * n_trials}")
    if assignment == "random_uniform_9":
        return None
    if not isinstance(assignment, (list, tuple)) or len(assignment) != n_trials:
        raise ValueError('engagement_assignment must be "random_uniform_9" or a list of '
                         f"{n_trials} engagement levels, got {assignment!r}")
    try:  # format, not str: a parsed level formats as its code on every Python
        return [EngagementLevel.parse(format(level)) for level in assignment]
    except ValueError as exc:
        raise ValueError(f"invalid engagement_assignment: {exc}") from None


# The kinds of variate, each drawn from its own stream keyed by (rng_seed, kind).
_LEVELS, _SENSITIVITY, _NOISE, _FLIPS = range(4)


def _stream(seed: int, kind: int) -> np.random.Generator:
    """The counter-based (Philox) stream of one kind of variate."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, kind])))


def generate_trials(
    params: SimParams,
    n_participants: int,
    n_trials: int = 2,
    engagement_assignment: str | list[EngagementLevel] = "random_uniform_9",
) -> TrialTable:
    """
    Simulate trial sequences for a cohort of synthetic participants.

    engagement_assignment is either "random_uniform_9" (each trial's level
    drawn uniformly, which for two trials is uniform over the nine level
    permutations) or an explicit per-trial sequence applied to everyone. The
    cohort's shape is checked by cohort_levels, as the CLI's config is.

    Self-reports are synthesized from the truth: reported_lower_than_30 is the
    actual side of the error flipped with report_flip_prob, and a participant
    drawn sensitive (sensitivity_prevalence) reports high engagement.

    Each kind of variate (levels, sensitivity, timing noise, report flips)
    has its own stream, drawn participant-major: participant i's trials
    depend only on (rng_seed, i, n_trials), so a cohort is the head of any
    larger one. Trials then run one index at a time across participants.

    The table is participant-major: participant i's trials 1..n_trials are
    its rows i * n_trials onwards.
    """
    fixed = cohort_levels(n_participants, n_trials, engagement_assignment)
    shape = (n_participants, n_trials)
    if fixed is None:
        levels = _stream(params.rng_seed, _LEVELS).integers(0, 3, shape, dtype=np.int8)
    else:
        levels = np.broadcast_to(np.array(fixed, dtype=np.int8), shape)
    sensitive = (
        _stream(params.rng_seed, _SENSITIVITY).random(n_participants)
        < params.sensitivity_prevalence
    )
    noise = _stream(params.rng_seed, _NOISE).standard_normal(shape)
    flips = _stream(params.rng_seed, _FLIPS).random(shape) < params.report_flip_prob

    produced = np.empty(shape)
    reported_lower = np.empty(shape, dtype=bool)
    reference = np.full(n_participants, float(params.reference_ticks))
    prev_level = levels[:, 0]  # the first trial follows none: no rise
    for t in range(n_trials):
        level = levels[:, t]
        produced[:, t] = simulate_trial(params, level, prev_level, reference, noise[:, t])
        reported_lower[:, t] = (produced[:, t] <= params.target_s) ^ flips[:, t]
        reference = update_reference_memory(
            params, reference, produced[:, t], reported_lower[:, t]
        )
        prev_level = level

    width = len(str(n_participants - 1))
    return TrialTable(
        participant_ids=np.array(
            ["sim%0*d" % (width, i) for i in range(n_participants)], dtype=object
        ),
        participant=np.repeat(np.arange(n_participants), n_trials),
        trial_index=np.tile(np.arange(1, n_trials + 1), n_participants),
        level=levels.ravel(),
        produced_s=produced.ravel(),
        reported_lower=reported_lower.ravel(),
        reported_high=np.repeat(sensitive, n_trials),
        nontiming_error=np.full(n_participants * n_trials, np.nan),
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
