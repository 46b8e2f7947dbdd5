"""
Core domain types for trial-level time production data, plus CSV ingestion
and the one artifact writer every stage uses (atomic_write).

A *trial* is one produced interval by one participant; consecutive trials of
the same participant form a *sample pair* whose label is the direction of
change in produced time. All types are immutable after construction and safe
to share across threads.
"""

from __future__ import annotations

import csv
import enum
import logging
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

from .errors import (
    DuplicateTrialIndexError,
    EmptyFileError,
    MalformedRowError,
    MissingColumnError,
    NonPositiveTimeError,
)

logger = logging.getLogger(__name__)

# Exact header of the trial interchange CSV. Booleans are written true/false,
# the optional last column is left empty when absent.
TRIAL_CSV_COLUMNS = (
    "participant_id",
    "trial_index",
    "engagement_level",
    "produced_time_s",
    "reported_lower_than_30",
    "reported_high_engagement",
    "nontiming_task_error",
)

DEFAULT_TARGET_S = 30.0


class EngagementLevel(enum.IntEnum):
    """Objective visual engagement of a stimulus. Ordinal, coded 0/1/2."""

    LOW = 0
    MEDIUM = 1
    HIGH = 2

    @classmethod
    def parse(cls, text: str) -> "EngagementLevel":
        """Accept 'low'/'medium'/'high' (case-insensitive) or the codes 0/1/2."""
        key = text.strip().lower()
        by_name = {"low": cls.LOW, "medium": cls.MEDIUM, "high": cls.HIGH}
        if key in by_name:
            return by_name[key]
        try:
            return cls(int(key))
        except (ValueError, KeyError):
            raise ValueError(f"not an engagement level: {text!r}") from None


class Direction(enum.Enum):
    """Direction of change in produced time between consecutive trials."""

    INCREASE = "increase"
    DECREASE = "decrease"

    @classmethod
    def parse(cls, text: str) -> "Direction":
        key = text.strip().lower()
        for member in cls:
            if member.value == key:
                return member
        raise ValueError(f"not a direction label: {text!r}")


class MagnitudeLevel(enum.Enum):
    """Coarse magnitude band of the change in produced time."""

    HIGH_INCREASE = "high_increase"
    SMALL_CHANGE = "small_change"
    HIGH_DECREASE = "high_decrease"


class Provenance(enum.Enum):
    HUMAN = "human"
    SYNTHETIC = "synthetic"


@dataclass(frozen=True)
class TrialRecord:
    """
    One trial of one participant.

    Attributes:
        participant_id: opaque identifier, unique per participant.
        trial_index: 1-based position of the trial in the participant's session.
        engagement: objective engagement level of the stimulus shown.
        produced_time_s: seconds the participant let elapse; strictly positive.
        reported_lower_than_30: participant's own judgement that they stopped
            before the 30 s target.
        reported_high_engagement: participant's subjective report of high
            engagement (used to derive the visual-sensitivity feature).
        nontiming_task_error: optional performance measure of a concurrent
            non-timing task (second-experiment style data).
    """

    participant_id: str
    trial_index: int
    engagement: EngagementLevel
    produced_time_s: float
    reported_lower_than_30: bool
    reported_high_engagement: bool
    nontiming_task_error: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.produced_time_s) or self.produced_time_s <= 0:
            raise NonPositiveTimeError(
                f"produced_time_s must be finite and > 0, got {self.produced_time_s}"
            )
        if self.trial_index < 1:
            raise ValueError(f"trial_index must be >= 1, got {self.trial_index}")
        if self.nontiming_task_error is not None and not (
            math.isfinite(self.nontiming_task_error) and self.nontiming_task_error >= 0
        ):
            raise ValueError(
                f"nontiming_task_error must be >= 0, got {self.nontiming_task_error}"
            )


@dataclass(frozen=True)
class SamplePair:
    """
    Two consecutive trials of one participant.

    The change in produced time and its direction label are derived, so a
    pair can never carry an inconsistent label. A change of exactly zero is
    labeled INCREASE: DECREASE means strictly "produced less".
    """

    prev: TrialRecord
    next: TrialRecord

    def __post_init__(self):
        if self.prev.participant_id != self.next.participant_id:
            raise ValueError(
                "pair spans two participants: "
                f"{self.prev.participant_id!r} / {self.next.participant_id!r}"
            )
        if self.prev.trial_index + 1 != self.next.trial_index:
            raise ValueError(
                f"trials are not consecutive: indices {self.prev.trial_index} "
                f"and {self.next.trial_index}"
            )

    @property
    def delta_t_s(self) -> float:
        """Next produced time minus previous produced time, in seconds."""
        return self.next.produced_time_s - self.prev.produced_time_s

    @property
    def label(self) -> Direction:
        return Direction.DECREASE if self.delta_t_s < 0 else Direction.INCREASE

    @property
    def sample_id(self) -> str:
        return f"{self.prev.participant_id}:{self.next.trial_index}"


@dataclass(frozen=True)
class Dataset:
    """Ordered collection of sample pairs with their provenance."""

    samples: tuple[SamplePair, ...]
    provenance: Provenance

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))

    def __len__(self) -> int:
        return len(self.samples)

    def labels(self) -> list[Direction]:
        return [s.label for s in self.samples]

    def deltas(self) -> list[float]:
        return [s.delta_t_s for s in self.samples]


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

_BOOL_VALUES = {"true": True, "1": True, "false": False, "0": False}


def _parse_bool(text: str) -> bool:
    return _BOOL_VALUES[text.strip().lower()]


def _parse_optional_float(text: str) -> float | None:
    return float(text) if text.strip() else None


# Parsers of the trial CSV columns, in TrialRecord field order.
_TRIAL_CELLS = tuple(
    zip(
        TRIAL_CSV_COLUMNS,
        (str.strip, int, EngagementLevel.parse, float)
        + (_parse_bool, _parse_bool, _parse_optional_float),
    )
)


def _read_csv(path: Path, cells) -> Iterator[tuple[int, list]]:
    """
    Stream (line number, [parse(row[column]) for column, parse in cells]) from
    a UTF-8 CSV whose header names every column of cells.

    Blank lines are skipped, missing trailing cells read as "", and unknown
    extra columns are ignored with a warning.

    Raises:
        EmptyFileError: the file has no header or no data rows.
        MissingColumnError: a required column is absent.
        MalformedRowError: a cell does not parse (the error names its line and
            column) or a byte is not UTF-8 (the error names its line).
    """
    row = None
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh, restval="")
            if reader.fieldnames is None:
                raise EmptyFileError(f"{path}: file is empty")
            columns = [column for column, _ in cells]
            for column in columns:
                if column not in reader.fieldnames:
                    raise MissingColumnError(column)
            extras = [c for c in reader.fieldnames if c not in columns]
            if extras:
                logger.warning("%s: ignoring unknown columns %s", path, extras)
            for row in reader:
                values = []
                for column, parse in cells:
                    try:
                        values.append(parse(row[column]))
                    except (KeyError, ValueError):  # KeyError: not a boolean word
                        raise MalformedRowError(
                            reader.line_num, f"{column} is not valid: {row[column]!r}"
                        ) from None
                yield reader.line_num, values
    except UnicodeDecodeError:
        with path.open("rb") as fh:
            # only a line with an invalid byte decodes differently under the two
            line_num = next(
                i
                for i, line in enumerate(fh, 1)
                if line.decode("utf-8", "replace") != line.decode("utf-8", "ignore")
            )
        raise MalformedRowError(line_num, "not UTF-8 text") from None
    if row is None:
        raise EmptyFileError(f"{path}: no data rows")


@contextmanager
def atomic_write(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """
    Open a text file to write that appears at path only once it is complete.

    The text goes to a temporary file in the same directory, which replaces
    path (os.replace) when the block ends. If the block raises, the temporary
    file is removed and a file already at path is left as it was, so an
    interrupted run never leaves a truncated artifact for a later stage.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with temp.open("w", newline=newline) as fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def load_trials(path: str | Path) -> list[TrialRecord]:
    """
    Load trial records from a CSV file with the canonical header.

    Unknown extra columns are ignored with a warning so questionnaire exports
    can be fed in directly. Rows with non-positive produced times are rejected.

    Raises:
        MissingColumnError: a required column is absent.
        EmptyFileError: the file has no data rows.
        MalformedRowError: a row fails to parse, violates an invariant or holds
            a byte that is not UTF-8.
    """
    trials = []
    for line_num, cells in _read_csv(Path(path), _TRIAL_CELLS):
        try:
            trials.append(TrialRecord(*cells))
        except (NonPositiveTimeError, ValueError) as exc:
            raise MalformedRowError(line_num, str(exc)) from None
    return trials


def write_trials_csv(trials: Iterable[TrialRecord], path: str | Path) -> None:
    """Write trial records in the canonical interchange schema."""
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIAL_CSV_COLUMNS)
        for t in trials:
            writer.writerow(
                [
                    t.participant_id,
                    t.trial_index,
                    t.engagement.name.lower(),
                    repr(t.produced_time_s),
                    "true" if t.reported_lower_than_30 else "false",
                    "true" if t.reported_high_engagement else "false",
                    "" if t.nontiming_task_error is None else repr(t.nontiming_task_error),
                ]
            )


def pair_consecutive(trials: Sequence[TrialRecord]) -> list[SamplePair]:
    """
    Pair each trial with its immediate successor within every participant.

    A participant with n gap-free trials yields n-1 pairs; a gap in trial
    indices breaks the chain (no pair is emitted across it), and one warning
    per call reports how many gaps there were. Input order of participants is
    preserved; trials are ordered by index within each.

    Raises:
        DuplicateTrialIndexError: a participant repeats a trial index.
    """
    by_participant: dict[str, list[TrialRecord]] = {}
    for trial in trials:
        by_participant.setdefault(trial.participant_id, []).append(trial)

    pairs: list[SamplePair] = []
    gaps = 0
    for pid, group in by_participant.items():
        seen: set[int] = set()
        for trial in group:
            if trial.trial_index in seen:
                raise DuplicateTrialIndexError(pid, trial.trial_index)
            seen.add(trial.trial_index)
        ordered = sorted(group, key=lambda t: t.trial_index)
        for prev, nxt in zip(ordered, ordered[1:]):
            if prev.trial_index + 1 == nxt.trial_index:
                pairs.append(SamplePair(prev=prev, next=nxt))
            else:
                gaps += 1
    if gaps:
        logger.warning("%d gaps between trial indices, no pair emitted across them", gaps)
    return pairs
