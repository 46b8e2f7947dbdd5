"""
Exception types shared across the timeshift package. A TimeshiftError (bad
input, data or configuration) carries only its class and the message written
where it is raised, which the CLI reports as one JSON line. A library call
with arguments it cannot use (a wrong shape, unequal lengths) raises
ValueError instead; the CLI makes no such call.
"""

from __future__ import annotations


class TimeshiftError(Exception):
    """Base class for every error raised by this package."""


class MalformedRowError(TimeshiftError):
    """A CSV row failed to parse or violated a record invariant."""

    def __init__(self, line_num: int, reason: str):
        super().__init__(f"line {line_num}: {reason}")


class MissingColumnError(TimeshiftError):
    """A required CSV column is absent from the header."""


class EmptyFileError(TimeshiftError):
    """The input file contains a header but no data rows (or nothing at all)."""


class DuplicateTrialIndexError(TimeshiftError):
    """Two trials of the same participant share a trial index."""


class NonPositiveTimeError(TimeshiftError):
    """A produced time or target interval is zero, negative or non-finite."""


class FeatureDependencyError(MalformedRowError):
    """A row's engagement-change and second-video-level features take impossible values."""


class NonFiniteFeatureError(TimeshiftError):
    """A feature value, or the mean or spread of a feature column, overflows the float range."""


class ConstantColumnError(TimeshiftError):
    """A feature column is constant and cannot be standardized."""


class TooFewSamplesError(TimeshiftError):
    """Not enough samples for the requested operation."""


class SingleClassError(TimeshiftError):
    """Both direction classes are required but only one is present."""


class FoldSingleClassError(TimeshiftError):
    """A cross-validation training fold contains a single class."""


class ConfigError(TimeshiftError):
    """A run configuration value is missing or invalid."""
