"""Exception types shared across the timeshift package."""

from __future__ import annotations


class TimeshiftError(Exception):
    """Base class for every error raised by this package."""


class MalformedRowError(TimeshiftError):
    """A CSV row failed to parse or violated a record invariant."""

    def __init__(self, line_num: int, reason: str):
        super().__init__(f"line {line_num}: {reason}")
        self.line_num = line_num
        self.reason = reason


class MissingColumnError(TimeshiftError):
    """A required CSV column is absent from the header."""

    def __init__(self, name: str):
        super().__init__(f"missing required column: {name!r}")
        self.name = name


class EmptyFileError(TimeshiftError):
    """The input file contains a header but no data rows (or nothing at all)."""


class DuplicateTrialIndexError(TimeshiftError):
    """Two trials of the same participant share a trial index."""

    def __init__(self, participant_id: str, trial_index: int):
        super().__init__(
            f"participant {participant_id!r} has duplicate trial index {trial_index}"
        )
        self.participant_id = participant_id
        self.trial_index = trial_index


class NonPositiveTimeError(TimeshiftError):
    """A produced time or target interval is zero, negative or non-finite."""


class FeatureDependencyError(MalformedRowError):
    """A row's engagement-change and second-video-level features take impossible values."""


class NonFiniteFeatureError(TimeshiftError):
    """A feature value, or the mean or spread of a feature column, overflows the float range."""


class ConstantColumnError(TimeshiftError):
    """A feature column is constant and cannot be standardized."""

    def __init__(self, index: int):
        super().__init__(f"feature column {index} is constant; cannot standardize")
        self.index = index


class TooFewSamplesError(TimeshiftError):
    """Not enough samples for the requested operation."""


class SingleClassError(TimeshiftError):
    """Both direction classes are required but only one is present."""


class FoldSingleClassError(TimeshiftError):
    """A cross-validation training fold contains a single class."""

    def __init__(self, fold_index: int):
        super().__init__(f"training fold {fold_index} contains a single class")
        self.fold_index = fold_index


class LengthMismatchError(TimeshiftError):
    """Two parallel sequences have different lengths."""


class ConfigError(TimeshiftError):
    """A run configuration value is missing or invalid."""
