"""
Seeded trial cohorts for the benchmark, in the canonical trial CSV schema.

The benchmark makes its own inputs with numpy instead of calling
timeshift.simulator, so a change to the simulator's variate stream cannot
shift what extract, train, evaluate, predict and explain are measured on.
The marginals follow the simulator's defaults: engagement uniform over three
levels, about 60/40 increase/decrease, 6% sensitive participants and a 10%
report flip.

Produced time follows a random walk in log space. Each step is a decrease
with probability sigmoid(logit(0.4) + K * (x - MU)) and an increase
otherwise; decreases are SIGMA_DOWN / SIGMA_UP = 1.5 times larger, so the
walk settles where the decrease share is 0.4. Long previous productions are
therefore followed by decreases more often, as in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TARGET_S = 30.0
LEVELS = ("low", "medium", "high")
HEADER = (
    "participant_id,trial_index,engagement_level,produced_time_s,"
    "reported_lower_than_30,reported_high_engagement,nontiming_task_error"
)

MU = math.log(34.5)  # productions run about 15% long, like the pinned scaler
FIRST_SD = 0.3
K = 3.0
SIGMA_UP = 0.10
SIGMA_DOWN = 0.15
SENSITIVE_SHARE = 0.06
REPORT_FLIP = 0.10


@dataclass(frozen=True)
class Cohort:
    """Trials as (participants, trials) arrays, participant-major."""

    engagement: np.ndarray  # int 0/1/2
    produced: np.ndarray  # float seconds, > 0
    reported_lower: np.ndarray  # bool
    sensitive: np.ndarray  # bool per participant

    @property
    def n_participants(self) -> int:
        return self.produced.shape[0]

    @property
    def n_trials(self) -> int:
        return self.produced.shape[1]

    def participant_id(self, p: int) -> str:
        return f"p{p:0{len(str(self.n_participants - 1))}d}"

    def pair_index(self, sample_id: str) -> int:
        """Row of the pair a CLI sample id ('<participant>:<next trial>') names."""
        pid, trial = sample_id.rsplit(":", 1)
        return int(pid[1:]) * (self.n_trials - 1) + int(trial) - 2


def make_cohort(seed: int, n_participants: int, n_trials: int) -> Cohort:
    rng = np.random.default_rng(seed)
    shape = (n_participants, n_trials)
    engagement = rng.integers(0, 3, size=shape)
    sensitive = rng.random(n_participants) < SENSITIVE_SHARE
    log_t = np.empty(shape)
    log_t[:, 0] = rng.normal(MU, FIRST_SD, size=n_participants)
    base = math.log(0.4 / 0.6)
    for t in range(1, n_trials):
        x = log_t[:, t - 1]
        p_decrease = 1.0 / (1.0 + np.exp(-(base + K * (x - MU))))
        decrease = rng.random(n_participants) < p_decrease
        step = np.abs(rng.normal(size=n_participants))
        log_t[:, t] = x + np.where(decrease, -SIGMA_DOWN * step, SIGMA_UP * step)
    produced = np.exp(log_t)
    flip = rng.random(shape) < REPORT_FLIP
    return Cohort(
        engagement=engagement,
        produced=produced,
        reported_lower=(produced <= TARGET_S) ^ flip,
        sensitive=sensitive,
    )


def write_trials_csv(cohort: Cohort, path: Path) -> None:
    lines = [HEADER]
    engagement = cohort.engagement.tolist()
    produced = cohort.produced.tolist()
    lower = cohort.reported_lower.tolist()
    for p, sensitive in enumerate(cohort.sensitive.tolist()):
        pid = cohort.participant_id(p)
        high = "true" if sensitive else "false"
        for t in range(cohort.n_trials):
            lines.append(
                f"{pid},{t + 1},{LEVELS[engagement[p][t]]},{produced[p][t]!r},"
                f"{'true' if lower[p][t] else 'false'},{high},"
            )
    path.write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class Pairs:
    """The benchmark's own pairing and features, one row per consecutive pair."""

    X: np.ndarray  # (n, 5) features in the CLI's canonical order
    decrease: np.ndarray  # bool label
    delta: np.ndarray  # next minus previous produced time

    @property
    def minority(self) -> int:
        n_decrease = int(self.decrease.sum())
        return min(n_decrease, len(self.decrease) - n_decrease)


def pairs(cohort: Cohort, target_s: float = TARGET_S) -> Pairs:
    prev_t, next_t = cohort.produced[:, :-1], cohort.produced[:, 1:]
    prev_e, next_e = cohort.engagement[:, :-1], cohort.engagement[:, 1:]
    sensitive = (prev_e == 0) & cohort.sensitive[:, None]
    X = np.stack(
        [
            (prev_t - target_s) / target_s * 100.0,
            cohort.reported_lower[:, :-1],
            sensitive,
            next_e,
            np.sign(next_e - prev_e) + 1,
        ],
        axis=-1,
    ).astype(float)
    return Pairs(
        X=X.reshape(-1, 5),
        decrease=(next_t < prev_t).reshape(-1),
        delta=(next_t - prev_t).reshape(-1),
    )
