"""
Trial-level time production data as one table of numpy columns, its CSV
reader and writers, consecutive-trial pairing, the one artifact writer every
stage uses (atomic_write), the one stderr writer (report), and the one reader
(read_object) and type and bound rule (check_fields) of JSON config and model files.

A *trial* is one produced interval by one participant; consecutive trials of
the same participant form a *sample pair* whose label is the direction of
change in produced time. Trials are the rows of a TrialTable, and pairs are
an (n, 2) array of its (previous, next) row indices.

CSV text moves in bulk. A CSV is read by numpy's C reader (np.loadtxt) from
the open file, a block of rows at a time, with each distinct word of a block
parsed once. If numpy rejects a line or a cell, or a row breaks an invariant,
the file is read again from the top by the Python path: csv.reader's rows,
which keep their line numbers, a block at a time, each block's distinct texts
decoded once by the same decoder. That path raises every error, naming the
line and the column. A CSV is written from whole
columns, each block's distinct numbers formatted once and each text quoted
once, byte for byte as csv.writer writes.
"""

from __future__ import annotations

import csv
import enum
import json
import math
import numbers
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import MISSING, Field, dataclass, fields
from functools import lru_cache
from itertools import islice
from operator import ge, gt, le
from pathlib import Path
from typing import (
    Callable, Iterable, Iterator, Sequence, TextIO, get_args, get_origin, get_type_hints,
)

import numpy as np

from .errors import (
    DuplicateTrialIndexError,
    EmptyFileError,
    MalformedRowError,
    MissingColumnError,
    NonPositiveTimeError,
)

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


def read_object(payload, allowed: Iterable[Field], name: str, where: str) -> dict:
    """
    A JSON object of a config or model file as {field name: value}, each allowed
    field at its key (metadata["key"], else its name). ValueError if payload is
    not an object (called name), or holds a key of no field or lacks a required one.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{name} must be a JSON object, got {payload!r}")
    by_key = {field.metadata.get("key", field.name): field for field in allowed}
    unknown = sorted(payload.keys() - by_key.keys())
    if unknown:
        raise ValueError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    missing = [key for key, f in by_key.items() if key not in payload and f.default is MISSING]
    if missing:
        raise ValueError(f"missing key(s) in {where}: {', '.join(missing)}")
    return {by_key[key].name: value for key, value in payload.items()}


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


# The text of each Direction, indexed by a boolean decrease mask: a text
# column of write_csv.
DIRECTION_WORDS = (Direction.INCREASE.value, Direction.DECREASE.value)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

# Rows parsed at a time: small enough that a block's cells as Python objects
# stay a few MB, large enough that each block's numpy call is cheap next to
# its parse.
_READ_BLOCK = 16384

_BOOL_WORDS = {"true": True, "1": True, "false": False, "0": False}

# The numpy field that parses a number column: numpy's C parsers accept a
# subset of what float() and int() accept (no "_", ASCII digits only) and give
# equal values, so a cell numpy rejects goes to the Python path.
_NUMBER_FIELDS = {float: "f8", int: "i8"}


def _parse_optional_float(text: str) -> float:
    """A blank cell is absent (NaN); a value written as NaN is rejected."""
    if not text.strip():
        return math.nan
    value = float(text)
    if math.isnan(value):
        raise ValueError("NaN marks an absent value")
    return value


def _word_in(table: dict) -> Callable[[str], object]:
    """A cell parser: table[stripped lower-case text], KeyError for an unlisted word."""
    return lambda text: table[text.strip().lower()]


def _read_columns(path: Path, cells: tuple, check: Callable) -> list:
    """
    One column per (column, parse, dtype) cell spec from a UTF-8 CSV whose
    header names every column of cells. parse turns one cell's text into a
    value; it raises KeyError or ValueError for a bad one. A column is an
    array of dtype, or, for dtype np.object_, a (table, codes) pair: the
    distinct values in order of first appearance, and each row's index into
    them. check(columns) returns None, or the first row of a block's arrays
    (codes for a coded column) that breaks a row invariant as (row, error
    class, reason); the class is MalformedRowError or a subclass.

    Blank lines are skipped, a leading byte-order mark is ignored, missing
    trailing cells read as "", and unknown extra columns are ignored with an
    UnknownColumnsWarning (report).

    numpy's C reader parses the rows from the open file (_read_text), quoted
    or not. Where it cannot, or a cell or row is bad, the Python path reads
    the file again from the top (_read_rows): csv.reader's rows with their
    line numbers, each block's distinct texts decoded once (_decode), so the
    error and its line are the ones that path raises.

    Raises:
        EmptyFileError: the file has no header or no data rows.
        MissingColumnError: a required column is absent.
        MalformedRowError: a cell does not parse or a row breaks an invariant
            (the error names its line, and the column of a bad cell) or a byte
            is not UTF-8 (the error names its line).
    """
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise EmptyFileError(f"{path}: file is empty")
            position = {column: j for j, column in enumerate(header)}  # the last of repeats
            columns = [column for column, _, _ in cells]
            for column in columns:
                if column not in position:
                    raise MissingColumnError(f"missing required column: {column!r}")
            extras = [c for c in header if c not in columns]
            if extras:
                message = f"{path}: ignoring unknown columns {extras}"
                report({"warning": "UnknownColumnsWarning", "message": message})
            cells = [(position[column], column, parse, dtype) for column, parse, dtype in cells]
            read = _read_text(fh, cells, check)
        if read is None:
            with path.open(newline="", encoding="utf-8-sig") as fh:
                reader = csv.reader(fh)
                next(reader)
                read = _read_rows(reader, cells, check)
    except UnicodeDecodeError:
        with path.open("rb") as fh:
            # only a line with an invalid byte decodes differently under the two
            line_num = next(
                i
                for i, line in enumerate(fh, 1)
                if line.decode("utf-8", "replace") != line.decode("utf-8", "ignore")
            )
        raise MalformedRowError(line_num, "not UTF-8 text") from None
    blocks, tables = read
    if not blocks:
        raise EmptyFileError(f"{path}: no data rows")
    columns = [np.concatenate(arrays) for arrays in zip(*blocks)]
    return [
        column if table is None else (np.array(list(table), object), column)
        for column, table in zip(columns, tables)
    ]


def _tables(cells) -> list[dict | None]:
    """An empty table of values (value -> code) for each coded column of cells, else None."""
    return [{} if dtype is np.object_ else None for _, _, _, dtype in cells]


def _decode(texts: Sequence[str], parse, dtype, table: dict | None) -> np.ndarray | int:
    """
    A column of cell texts: parse runs once per distinct text, in order of
    first appearance; a coded column (table) holds each value's code in table.
    The row of the first text that parse or dtype rejects (KeyError for an
    unlisted word, ValueError or OverflowError) comes back in the column's place.
    """
    values = dict.fromkeys(texts)
    for text in values:
        try:
            value = parse(text)
            values[text] = dtype(value) if table is None else table.setdefault(value, len(table))
        except (KeyError, ValueError, OverflowError):
            return texts.index(text)
    return np.fromiter(map(values.__getitem__, texts), dtype if table is None else np.intp, len(texts))


def _read_text(fh, cells, check) -> tuple[list, list] | None:
    """
    The blocks and tables of _read_columns from the rows of fh after the
    header, each block read from fh by np.loadtxt, or None where the Python
    path must read the file: numpy rejects a line or a cell, or warns, _decode
    rejects a text, or check a row. numpy warns on a blank line and on an
    empty read, which are not faults.
    """
    fields = [(str(k), _NUMBER_FIELDS.get(parse, "O")) for k, (_, _, parse, _) in enumerate(cells)]
    usecols = [j for j, _, _, _ in cells]
    blocks, tables = [], _tables(cells)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", r"Input line \d+ contained no data")
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # comments=None: "#" is text, as in an id such as p#1
            while len(rows := np.loadtxt(fh, fields, comments=None, delimiter=",", quotechar='"',
                                         usecols=usecols, ndmin=1, max_rows=_READ_BLOCK)):
                columns = [
                    rows[name].astype(dtype) if kind != "O"
                    else _decode(rows[name].tolist(), parse, dtype, table)
                    for (name, kind), (_, _, parse, dtype), table in zip(fields, cells, tables)
                ]
                if any(isinstance(column, int) for column in columns) or check(columns):
                    return None
                blocks.append(columns)
    except (ValueError, OverflowError, Warning):  # UnicodeDecodeError is a ValueError
        return None
    return blocks, tables


def _read_rows(reader, cells, check) -> tuple[list, list]:
    """
    The blocks and tables of _read_columns from csv.reader's rows after the
    header, _READ_BLOCK rows at a time with each row's line number, every
    column's texts decoded by _decode; a short row reads its missing cells as
    "". The rows of a block ahead of its first bad cell (in row-major order)
    are checked before that cell is raised, so the first error in the file is
    the one raised.
    """
    width = 1 + max(j for j, _, _, _ in cells)
    blocks, tables = [], _tables(cells)
    rows = ([reader.line_num, *row] + [""] * (width - len(row)) for row in reader if row)
    while block := list(islice(rows, _READ_BLOCK)):
        lines, *texts = zip(*block)
        stop, bad = len(lines), None
        while True:  # a rejected text: decode again the rows ahead of the first one
            columns = [_decode(texts[j][:stop], parse, dtype, table)
                       for (j, _, parse, dtype), table in zip(cells, tables)]
            rejected = [(row, k) for k, row in enumerate(columns) if isinstance(row, int)]
            if not rejected:
                break
            stop, bad = min(rejected)
        invalid = check(columns)
        if invalid:
            row, error, reason = invalid
            raise error(lines[row], reason)
        if bad is not None:
            j, column = cells[bad][:2]
            raise MalformedRowError(lines[stop], f"{column} is not valid: {texts[j][stop]!r}")
        blocks.append(columns)
    return blocks, tables


def _first_bad_trial(columns) -> tuple[int, type, str] | None:
    """The check of a trial CSV block (see _read_columns)."""
    invalid = _first_invalid(columns[1], columns[3], columns[6])
    return invalid and (invalid[0], MalformedRowError, str(invalid[1]))


def load_trials(path: str | Path) -> TrialTable:
    """
    Load a trial table from a CSV file with the canonical header.

    Unknown extra columns are ignored with an UnknownColumnsWarning (report)
    so questionnaire exports can be fed in directly. Rows with non-positive
    produced times are rejected.

    Raises:
        MissingColumnError: a required column is absent.
        EmptyFileError: the file has no data rows.
        MalformedRowError: a row fails to parse, violates an invariant or holds
            a byte that is not UTF-8.
    """
    cells = (
        ("participant_id", str.strip, np.object_),
        ("trial_index", int, np.int64),
        ("engagement_level", EngagementLevel.parse, np.int8),
        ("produced_time_s", float, np.float64),
        ("reported_lower_than_30", _word_in(_BOOL_WORDS), np.bool_),
        ("reported_high_engagement", _word_in(_BOOL_WORDS), np.bool_),
        ("nontiming_task_error", _parse_optional_float, np.float64),
    )
    (ids, participant), *columns = _read_columns(Path(path), cells, _first_bad_trial)
    return TrialTable(ids, participant, *columns)


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------

_WRITE_BLOCK = 16384

_LEVEL_WORDS = tuple(level.name.lower() for level in EngagementLevel)
_BOOL_TEXT = ("false", "true")


def report(payload: dict) -> None:
    """Write payload, an "error" or "warning" kind and a "message", as one JSON line on stderr."""
    sys.stderr.write(json.dumps(payload) + "\n")


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


def write_csv(path: str | Path, header: Sequence[str], columns: Sequence) -> None:
    """
    Write a CSV through atomic_write, byte for byte as csv.writer writes the
    same cells: the header, then row i of every column, as "," joined cells
    ending in "\\r\\n". A column is either a 1-D array of numbers, written as
    an int's digits or a float's shortest repr (a NaN as a blank cell), or a
    text column (table, codes): a sequence of str and the index into it of each
    row (ints or booleans). Each table is quoted once, and rows go out
    _WRITE_BLOCK at a time, each distinct number of a block formatted once.
    Every row holds two or more cells (csv.writer writes a lone blank as "").
    """
    quoted = [
        np.array([_csv_cell(str(text)) for text in column[0]], object)
        if isinstance(column, tuple) else None
        for column in columns
    ]
    first = columns[0]
    n = len(first[1] if isinstance(first, tuple) else first)
    with atomic_write(path, newline="") as fh:
        fh.write(",".join(map(_csv_cell, header)) + "\r\n")
        for start in range(0, n, _WRITE_BLOCK):
            block = slice(start, start + _WRITE_BLOCK)
            cells = [
                _number_cells(column[block]) if table is None
                else np.take(table, column[1][block]).tolist()
                for column, table in zip(columns, quoted)
            ]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _csv_cell(text: str) -> str:
    """text as csv.writer writes it: quoted, quotes doubled, if it holds , " or a line break."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _number_cells(values: np.ndarray) -> list[str]:
    """
    The cell text of each number, each distinct value formatted once: floats
    are told apart by bit pattern, so -0.0 and 0.0 keep their own text.
    """
    if values.dtype.kind == "f":
        distinct, index = np.unique(values.view(np.int64), return_inverse=True)
        texts = [repr(v) if v == v else "" for v in distinct.view(np.float64).tolist()]
    else:
        distinct, index = np.unique(values, return_inverse=True)
        texts = list(map(str, distinct.tolist()))
    return np.take(np.array(texts, object), index).tolist()


def write_trials_csv(trials: TrialTable, path: str | Path) -> None:
    """Write a trial table in the canonical interchange schema."""
    write_csv(path, TRIAL_CSV_COLUMNS, (
        (trials.participant_ids, trials.participant),
        trials.trial_index,
        (_LEVEL_WORDS, trials.level),
        trials.produced_s,
        (_BOOL_TEXT, trials.reported_lower),
        (_BOOL_TEXT, trials.reported_high),
        trials.nontiming_error,
    ))


def pair_consecutive(trials: TrialTable) -> np.ndarray:
    """
    The (n, 2) row indices (previous, next) of every two consecutive trials
    of one participant.

    A participant with n gap-free trials yields n-1 pairs; a gap in trial
    indices breaks the chain (no pair is emitted across it), and one
    TrialGapWarning (report) per call says how many gaps there were. Pairs
    follow participants in order of first appearance and trials by index within each.

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
        raise DuplicateTrialIndexError(f"participant {trials.participant_ids[participant[first]]!r}"
                                       f" has duplicate trial index {index[first]}")
    gaps = int(np.count_nonzero(same & (step > 1)))
    if gaps:
        message = f"{gaps} gaps between trial indices, no pair emitted across them"
        report({"warning": "TrialGapWarning", "message": message})
    consecutive = np.flatnonzero(same & (step == 1))
    return np.column_stack((order[consecutive], order[consecutive + 1]))
