"""
Trial-level time production data as one table of numpy columns, its CSV
reader and writers, consecutive-trial pairing, the one artifact writer every
stage uses (atomic_write) and the one type and bound rule for every
dataclass field read from a JSON file, config or model (check_fields).

A *trial* is one produced interval by one participant; consecutive trials of
the same participant form a *sample pair* whose label is the direction of
change in produced time. Trials are the rows of a TrialTable, and pairs are
an (n, 2) array of its (previous, next) row indices.
"""

from __future__ import annotations

import csv
import enum
import logging
import math
import numbers
import os
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import lru_cache
from operator import ge, gt, itemgetter, le
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO, get_args, get_origin, get_type_hints

import numpy as np

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


# The type that a value of each checked annotation must have, and its name in errors.
_FIELD_TYPES = {
    float: (numbers.Real, "a number"),
    int: (numbers.Integral, "an integer"),
    bool: (bool, "a boolean"),
    str: (str, "a string"),
}

# The bounds a field's metadata may declare: each value must be (above) > it,
# (min) >= it or (max) <= it.
_BOUNDS = {"above": (gt, ">"), "min": (ge, ">="), "max": (le, "<=")}

# Each class's annotations, resolved once: resolving them takes ~0.1 ms a class.
_type_hints = lru_cache(maxsize=None)(get_type_hints)


def check_fields(instance, prefix: str = "") -> None:
    """
    Raise ValueError naming (prefix + metadata["key"] or name) the first field
    of a dataclass whose value, as JSON gave it, is not of its annotated type,
    else the first that breaks a bound of its metadata (see _BOUNDS). float
    takes a finite number, int an integral one (a bool is neither: JSON true
    is not 1), bool a bool, str a str; X | None also admits None. A
    tuple[float, ...] takes a list, tuple or 1-D array, not a string, and
    checks each item; a bound error names the item, as in stds[2]. Each value
    is stored as its annotated type: 2 as 2.0, a list as a tuple of floats.
    Other annotations (nested dataclasses, unions) are left to their own class.
    """
    hints = _type_hints(type(instance))
    typed = []  # (field, name in errors, sequence, value) of each checked field
    for field in fields(instance):
        annotation, value = hints[field.name], getattr(instance, field.name)
        if type(None) in get_args(annotation):  # X | None
            if value is None:
                continue
            annotation = get_args(annotation)[0]
        sequence = get_origin(annotation) is tuple
        kind = get_args(annotation)[0] if sequence else annotation
        if kind not in _FIELD_TYPES:
            continue
        name = prefix + field.metadata.get("key", field.name)
        base, noun = _FIELD_TYPES[kind]
        listed = isinstance(value, (list, tuple)) or getattr(value, "ndim", None) == 1
        for item in value if sequence and listed else (value,):
            if not isinstance(item, base) or (isinstance(item, bool) and kind is not bool):
                raise ValueError(f"{name} must be {noun}, got {item!r}")
            # compared, not converted: a JSON integer past the float range is not finite
            if kind is float and not -sys.float_info.max <= item <= sys.float_info.max:
                raise ValueError(f"{name} must be finite, got {item}")
        if sequence and not listed:
            raise ValueError(f"{name} must be a list, got {value!r}")
        value = tuple(map(kind, value)) if sequence else kind(value)
        object.__setattr__(instance, field.name, value)
        typed.append((field, name, sequence, value))
    for field, name, sequence, value in typed:
        for i, item in enumerate(value if sequence else (value,)):
            for bound, (holds, sign) in _BOUNDS.items():
                limit = field.metadata.get(bound)
                if limit is not None and not holds(item, limit):
                    where = f"{name}[{i}]" if sequence else name
                    raise ValueError(f"{where} must be {sign} {limit}, got {item!r}")


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


class MagnitudeLevel(enum.Enum):
    """Coarse magnitude band of the change in produced time."""

    HIGH_INCREASE = "high_increase"
    SMALL_CHANGE = "small_change"
    HIGH_DECREASE = "high_decrease"




@dataclass(frozen=True, eq=False)
class TrialTable:
    """
    Trials as numpy columns; entry i of every column belongs to trial i.

    Attributes:
        participant_ids: distinct participant ids (str objects) in order of
            first appearance.
        participant: each trial's participant, as an index into participant_ids.
        trial_index: 1-based position of the trial in the participant's session.
        level: engagement level code (EngagementLevel) of the stimulus shown.
        produced_s: seconds the participant let elapse; finite and > 0.
        reported_lower: participant's own judgement that they stopped before
            the 30 s target.
        reported_high: participant's subjective report of high engagement
            (used to derive the visual-sensitivity feature).
        nontiming_error: optional performance measure (>= 0) of a concurrent
            non-timing task; NaN where absent.

    Raises:
        NonPositiveTimeError: a produced time is not finite and > 0.
        ValueError: a trial index is below 1 or a nontiming error below 0.
    """

    participant_ids: np.ndarray
    participant: np.ndarray
    trial_index: np.ndarray
    level: np.ndarray
    produced_s: np.ndarray
    reported_lower: np.ndarray
    reported_high: np.ndarray
    nontiming_error: np.ndarray

    def __post_init__(self):
        invalid = _first_invalid(self.trial_index, self.produced_s, self.nontiming_error)
        if invalid:
            raise invalid[1]

    def __len__(self) -> int:
        return len(self.trial_index)


def _first_invalid(trial_index, produced, error) -> tuple[int, Exception] | None:
    """The first trial that breaks an invariant and the error it raises, or None."""
    bad_time = ~(np.isfinite(produced) & (produced > 0))
    bad_index = trial_index < 1
    bad_error = (error < 0) | np.isinf(error)  # NaN marks an absent value
    bad = bad_time | bad_index | bad_error
    if not bad.any():
        return None
    row = int(bad.argmax())
    if bad_time[row]:
        message = f"produced_time_s must be finite and > 0, got {produced[row]}"
        return row, NonPositiveTimeError(message)
    if bad_index[row]:
        return row, ValueError(f"trial_index must be >= 1, got {trial_index[row]}")
    return row, ValueError(f"nontiming_task_error must be >= 0, got {error[row]}")


def pair_deltas(trials: TrialTable, pairs: np.ndarray) -> np.ndarray:
    """
    Next minus previous produced time of each pair, in seconds. A pair is
    DECREASE exactly where this is < 0: DECREASE means strictly "produced less".
    """
    return trials.produced_s[pairs[:, 1]] - trials.produced_s[pairs[:, 0]]


def direction_words(decrease: np.ndarray) -> list[str]:
    """The Direction value of each entry of a boolean decrease mask."""
    return np.where(decrease, Direction.DECREASE.value, Direction.INCREASE.value).tolist()


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

_READ_BLOCK = 2048

_BOOL_WORDS = {"true": True, "1": True, "false": False, "0": False}


def _parse_optional_float(text: str) -> float:
    """A blank cell is absent (NaN); a value written as NaN is rejected."""
    if not text.strip():
        return math.nan
    value = float(text)
    if math.isnan(value):
        raise ValueError("NaN marks an absent value")
    return value


# Wraps a cell parser so that each load parses a repeated text (a level, a
# flag, an id, an empty cell) once; bounded, so distinct values cost no memory.
_cached = lru_cache(maxsize=4096)


def _word_in(table: dict) -> Callable[[str], object]:
    """A cell parser: table[stripped lower-case text], KeyError for an unlisted word."""
    return _cached(lambda text: table[text.strip().lower()])


def _read_columns(
    path: Path, cells: tuple, check: Callable | None = None
) -> tuple[list[np.ndarray], array]:
    """
    One array per (column, parse, dtype) cell spec from a UTF-8 CSV whose
    header names every column of cells, and the line number of every row.
    parse turns one cell's text into a value; it raises KeyError or ValueError
    for a bad one. check(columns) returns the first row of a block's arrays
    that breaks a row invariant, with its error, or None.

    Blank lines are skipped, a leading byte-order mark is ignored, missing
    trailing cells read as "", and unknown extra columns are ignored with a
    warning.

    Raises:
        EmptyFileError: the file has no header or no data rows.
        MissingColumnError: a required column is absent.
        MalformedRowError: a cell does not parse or a row breaks an invariant
            (the error names its line, and the column of a bad cell) or a byte
            is not UTF-8 (the error names its line).
    """
    blocks, lines = [], array("q")
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise EmptyFileError(f"{path}: file is empty")
            position = {column: j for j, column in enumerate(header)}  # the last of repeats
            columns = [column for column, _, _ in cells]
            for column in columns:
                if column not in position:
                    raise MissingColumnError(column)
            extras = [c for c in header if c not in columns]
            if extras:
                logger.warning("%s: ignoring unknown columns %s", path, extras)
            cells = [(position[column], column, parse, dtype) for column, parse, dtype in cells]
            rows = []
            for row in reader:
                if row:
                    rows.append(row)
                    lines.append(reader.line_num)
                    if len(rows) == _READ_BLOCK:
                        blocks.append(_parse_block(rows, lines[-len(rows):], cells, check))
                        rows = []
            if rows:
                blocks.append(_parse_block(rows, lines[-len(rows):], cells, check))
    except UnicodeDecodeError:
        with path.open("rb") as fh:
            # only a line with an invalid byte decodes differently under the two
            line_num = next(
                i
                for i, line in enumerate(fh, 1)
                if line.decode("utf-8", "replace") != line.decode("utf-8", "ignore")
            )
        raise MalformedRowError(line_num, "not UTF-8 text") from None
    if not lines:
        raise EmptyFileError(f"{path}: no data rows")
    return [np.concatenate(arrays) for arrays in zip(*blocks)], lines


def _parse_block(rows, lines, cells, check) -> list[np.ndarray]:
    """A block of rows, parsed a column at a time, then checked."""
    try:
        columns = [
            np.array(list(map(parse, map(itemgetter(j), rows))), dtype)
            for j, _, parse, dtype in cells
        ]
    except (IndexError, KeyError, ValueError, OverflowError):  # IndexError: a short row
        return _parse_cells(rows, lines, cells, check)
    invalid = check(columns) if check else None
    if invalid:
        raise MalformedRowError(lines[invalid[0]], str(invalid[1]))
    return columns


def _parse_cells(rows, lines, cells, check) -> list[np.ndarray]:
    """
    A block whose column parse failed, cell by cell: short rows get their
    missing cells, and the first bad cell is raised once the rows before it
    pass the block parse, so errors come in file order.
    """
    width = 1 + max(j for j, _, _, _ in cells)
    for k, row in enumerate(rows):
        row.extend([""] * (width - len(row)))
        for j, column, parse, dtype in cells:
            try:
                dtype(parse(row[j]))
            except (KeyError, ValueError, OverflowError):  # KeyError: an unlisted word
                _parse_block(rows[:k], lines, cells, check)
                raise MalformedRowError(lines[k], f"{column} is not valid: {row[j]!r}") from None
    return _parse_block(rows, lines, cells, check)


def load_trials(path: str | Path) -> TrialTable:
    """
    Load a trial table from a CSV file with the canonical header.

    Unknown extra columns are ignored with a warning so questionnaire exports
    can be fed in directly. Rows with non-positive produced times are rejected.

    Raises:
        MissingColumnError: a required column is absent.
        EmptyFileError: the file has no data rows.
        MalformedRowError: a row fails to parse, violates an invariant or holds
            a byte that is not UTF-8.
    """
    ids: dict[str, int] = {}  # participant id -> index, in order of appearance
    cells = (
        ("participant_id", _cached(lambda text: ids.setdefault(text.strip(), len(ids))), np.intp),
        ("trial_index", int, np.int64),
        ("engagement_level", _cached(EngagementLevel.parse), np.int8),
        ("produced_time_s", float, np.float64),
        ("reported_lower_than_30", _word_in(_BOOL_WORDS), np.bool_),
        ("reported_high_engagement", _word_in(_BOOL_WORDS), np.bool_),
        ("nontiming_task_error", _cached(_parse_optional_float), np.float64),
    )
    columns, _ = _read_columns(Path(path), cells, lambda c: _first_invalid(c[1], c[3], c[6]))
    return TrialTable(np.array(list(ids), dtype=object), *columns)


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------

_WRITE_BLOCK = 4096

_LEVEL_WORDS = np.array([level.name.lower() for level in EngagementLevel])


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


def write_csv(
    path: str | Path, header: Iterable[str], rows: Callable[[slice], Iterable], n: int
) -> None:
    """
    Write a CSV through atomic_write: the header, then rows(block) for each
    _WRITE_BLOCK-long slice of range(n), so only one block's cells exist as
    Python objects at a time. csv writes a float as its shortest repr.
    """
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, n, _WRITE_BLOCK):
            writer.writerows(rows(slice(start, start + _WRITE_BLOCK)))


def write_trials_csv(trials: TrialTable, path: str | Path) -> None:
    """Write a trial table in the canonical interchange schema."""

    def rows(block: slice):
        return zip(
            trials.participant_ids[trials.participant[block]].tolist(),
            trials.trial_index[block].tolist(),
            _LEVEL_WORDS[trials.level[block]].tolist(),
            trials.produced_s[block].tolist(),
            np.where(trials.reported_lower[block], "true", "false").tolist(),
            np.where(trials.reported_high[block], "true", "false").tolist(),
            ["" if math.isnan(e) else e for e in trials.nontiming_error[block].tolist()],
        )

    write_csv(path, TRIAL_CSV_COLUMNS, rows, len(trials))


def pair_consecutive(trials: TrialTable) -> np.ndarray:
    """
    The (n, 2) row indices (previous, next) of every two consecutive trials
    of one participant.

    A participant with n gap-free trials yields n-1 pairs; a gap in trial
    indices breaks the chain (no pair is emitted across it), and one warning
    per call reports how many gaps there were. Pairs follow participants in
    order of first appearance and trials by index within each.

    Raises:
        DuplicateTrialIndexError: a participant repeats a trial index.
    """
    order = np.lexsort((trials.trial_index, trials.participant))
    participant, index = trials.participant[order], trials.trial_index[order]
    same = participant[1:] == participant[:-1]
    step = np.diff(index)
    duplicate = np.flatnonzero(same & (step == 0))
    if len(duplicate):
        first = duplicate[0]
        raise DuplicateTrialIndexError(
            trials.participant_ids[participant[first]], int(index[first])
        )
    gaps = int(np.count_nonzero(same & (step > 1)))
    if gaps:
        logger.warning("%d gaps between trial indices, no pair emitted across them", gaps)
    consecutive = np.flatnonzero(same & (step == 1))
    return np.column_stack((order[consecutive], order[consecutive + 1]))
