import csv
import dataclasses
import json
import os
import random

import numpy as np
import pytest

import timeshift.data
from timeshift.data import (
    DIRECTION_WORDS,
    TRIAL_CSV_COLUMNS,
    Direction,
    EngagementLevel,
    TrialTable,
    atomic_write,
    load_trials,
    pair_consecutive,
    pair_deltas,
    write_csv,
    write_trials_csv,
)
from timeshift.features import FEATURE_CSV_COLUMNS, load_feature_csv
from timeshift.simulator import generate_trials
from timeshift.errors import (
    DuplicateTrialIndexError,
    EmptyFileError,
    MalformedRowError,
    MissingColumnError,
    NonPositiveTimeError,
    TimeshiftError,
)

HEADER = (
    "participant_id,trial_index,engagement_level,produced_time_s,"
    "reported_lower_than_30,reported_high_engagement,nontiming_task_error"
)


def make_trial(pid="p1", index=1, engagement=EngagementLevel.LOW, produced=30.0,
               lower=False, rep_high=False, error=None):
    """One trial as a row in TRIAL_CSV_COLUMNS order."""
    return (pid, index, engagement, produced, lower, rep_high, error)


def trial_table(trials):
    """The TrialTable of make_trial rows, in the given order."""
    ids = list(dict.fromkeys(t[0] for t in trials))
    pid, index, level, produced, lower, high, error = zip(*trials) if trials else [()] * 7
    return TrialTable(
        participant_ids=np.array(ids, dtype=object),
        participant=np.array([ids.index(p) for p in pid], dtype=np.intp),
        trial_index=np.array(index, dtype=np.int64),
        level=np.array(level, dtype=np.int8),
        produced_s=np.array(produced, dtype=float),
        reported_lower=np.array(lower, dtype=bool),
        reported_high=np.array(high, dtype=bool),
        nontiming_error=np.array([np.nan if e is None else e for e in error], dtype=float),
    )


def pairs_of(*trials):
    """A table of make_trial rows and its consecutive pairs."""
    table = trial_table(list(trials))
    return table, pair_consecutive(table)


def simulated(params, n_participants, n_trials=2, **kwargs):
    """A simulated cohort's trials and their consecutive pairs."""
    trials = generate_trials(params, n_participants, n_trials, **kwargs)
    return trials, pair_consecutive(trials)


def assert_same_table(a, b):
    for field in dataclasses.fields(TrialTable):
        np.testing.assert_array_equal(getattr(a, field.name), getattr(b, field.name))


def directions(decrease):
    """Direction labels of a boolean decrease mask."""
    return [Direction(DIRECTION_WORDS[int(d)]) for d in decrease]


class TestLoadTrials:
    def test_direct_field_mapping(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text(HEADER + "\np1,1,low,33.8,false,false,\n")
        trials = load_trials(path)
        assert_same_table(trials, trial_table([make_trial("p1", 1, EngagementLevel.LOW, 33.8)]))

    def test_engagement_codes_and_case(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text(HEADER + "\np1,1,HIGH,20,true,TRUE,0.5\np1,2,1,25,0,1,\n")
        trials = load_trials(path)
        assert trials.level[0] == EngagementLevel.HIGH
        assert trials.reported_lower[0].item() is True
        assert trials.nontiming_error[0] == 0.5
        assert trials.level[1] == EngagementLevel.MEDIUM
        assert trials.reported_high[1].item() is True

    def test_negative_time_rejected(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text(HEADER + "\np1,1,low,-2,false,false,\n")
        with pytest.raises(MalformedRowError):
            load_trials(path)

    def test_header_only_is_empty(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text(HEADER + "\n")
        with pytest.raises(EmptyFileError):
            load_trials(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text("participant_id,trial_index\np1,1\n")
        with pytest.raises(MissingColumnError):
            load_trials(path)

    def test_extra_columns_ignored(self, tmp_path, capsys):
        path = tmp_path / "trials.csv"
        path.write_text(HEADER + ",questionnaire_q7\np1,1,low,30,false,false,,blah\n")
        trials = load_trials(path)
        assert len(trials) == 1
        (line,) = capsys.readouterr().err.splitlines()
        warning = json.loads(line)
        assert warning["warning"] == "UnknownColumnsWarning"
        assert "questionnaire_q7" in warning["message"]

    def test_garbled_number(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text(HEADER + "\np1,1,low,abc,false,false,\n")
        with pytest.raises(MalformedRowError):
            load_trials(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # spreadsheet exports often start with a UTF-8 byte-order mark
        path = tmp_path / "trials.csv"
        path.write_bytes(("\ufeff" + HEADER + "\np1,1,low,33.8,false,false,\n").encode())
        trials = load_trials(path)
        assert_same_table(trials, trial_table([make_trial("p1", 1, EngagementLevel.LOW, 33.8)]))

    def test_blocks_match_one_row_at_a_time(self, tmp_path, monkeypatch):
        # short rows (no trailing cell) and blank lines across block edges
        rows = [
            f" p{i // 3} ,{i % 3 + 1},{('low', 'MEDIUM', '2')[i % 3]},{20 + i * 0.37},"
            f"{('true', '0')[i % 2]},false"
            + ("" if i % 4 else ",1.5")
            + ("\n" if i % 5 == 0 else "")
            for i in range(30)
        ]
        path = tmp_path / "trials.csv"
        path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
        whole = load_trials(path)
        monkeypatch.setattr(timeshift.data, "_READ_BLOCK", 4)
        assert_same_table(load_trials(path), whole)
        assert whole.participant_ids.tolist() == [f"p{i}" for i in range(10)]
        assert np.isnan(whole.nontiming_error[1:4]).all() and whole.nontiming_error[4] == 1.5

    def test_first_error_in_file_order_within_a_block(self, tmp_path, monkeypatch):
        monkeypatch.setattr(timeshift.data, "_READ_BLOCK", 2)
        path = tmp_path / "trials.csv"
        for rows, error in (
            # the second block holds a bad time (lines 5-6) before a bad cell (line 7)
            ('p1,1,low,30,false,false,\n\np1,2,low,31,false,false,\n'
             '"p\n2",1,low,-4,false,false,\np2,2,low,x,false,false,\n',
             "line 6: produced_time_s must be"),
            # one block: a bad word (line 2) before a bad cell of an earlier column (line 3)
            ("p1,1,low,30,maybe,false,\np1,two,low,31,false,false,\n",
             "line 2: reported_lower_than_30 is not valid: 'maybe'"),
        ):
            path.write_text(HEADER + "\n" + rows)
            with pytest.raises(MalformedRowError, match=error):
                load_trials(path)
            with monkeypatch.context() as patch:  # the Python path from the start
                patch.setattr(np, "loadtxt", _no_loadtxt)
                with pytest.raises(MalformedRowError, match=error):
                    load_trials(path)

    def test_roundtrip_write_then_load(self, tmp_path):
        trials = [
            make_trial("a", 1, EngagementLevel.MEDIUM, 31.25, lower=True),
            make_trial("a", 2, EngagementLevel.HIGH, 40.5, rep_high=True, error=0.25),
        ]
        path = tmp_path / "out.csv"
        write_trials_csv(trial_table(trials), path)
        assert_same_table(load_trials(path), trial_table(trials))


class TestTrialRecord:
    @pytest.mark.parametrize("produced", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_produced_time(self, produced):
        with pytest.raises(NonPositiveTimeError):
            trial_table([make_trial(produced=produced)])

    def test_trial_index_must_be_positive(self):
        with pytest.raises(ValueError):
            trial_table([make_trial(index=0)])


class TestSamplePair:
    def test_delta_and_label(self):
        trials, pairs = pairs_of(make_trial(produced=33.8), make_trial(index=2, produced=36.5))
        delta = pair_deltas(trials, pairs)
        assert delta[0] == pytest.approx(2.7)
        assert directions(delta < 0) == [Direction.INCREASE]

    def test_zero_delta_is_increase(self):
        trials, pairs = pairs_of(make_trial(produced=30), make_trial(index=2, produced=30))
        delta = pair_deltas(trials, pairs)
        assert delta[0] == 0.0
        assert directions(delta < 0) == [Direction.INCREASE]

    def test_strict_decrease(self):
        trials, pairs = pairs_of(make_trial(produced=30), make_trial(index=2, produced=29.9))
        assert directions(pair_deltas(trials, pairs) < 0) == [Direction.DECREASE]

    def test_rejects_mixed_participants(self):
        _, pairs = pairs_of(make_trial(pid="a"), make_trial(pid="b", index=2))
        assert pairs.shape == (0, 2)

    def test_rejects_nonconsecutive_indices(self):
        _, pairs = pairs_of(make_trial(index=1), make_trial(index=3))
        assert pairs.shape == (0, 2)


class TestPairConsecutive:
    def test_six_trials_make_five_pairs(self):
        _, pairs = pairs_of(*[make_trial(index=i, produced=30 + i) for i in range(1, 7)])
        assert len(pairs) == 5

    def test_single_trial_makes_no_pairs(self):
        assert len(pair_consecutive(trial_table([make_trial()]))) == 0

    def test_duplicate_index_rejected(self):
        trials = trial_table([make_trial(index=1), make_trial(index=1, produced=20)])
        with pytest.raises(DuplicateTrialIndexError):
            pair_consecutive(trials)

    def test_gap_breaks_chain(self):
        _, pairs = pairs_of(make_trial(index=1), make_trial(index=3, produced=20))
        assert len(pairs) == 0

    def test_gaps_logged_once_with_their_count(self, capsys):
        trials = trial_table([make_trial(pid=pid, index=i) for pid in ("a", "b") for i in (1, 3)])
        assert len(pair_consecutive(trials)) == 0
        (line,) = capsys.readouterr().err.splitlines()
        warning = json.loads(line)
        assert warning["warning"] == "TrialGapWarning"
        assert warning["message"].startswith("2 gaps")

    def test_unsorted_input_is_ordered_per_participant(self):
        trials, pairs = pairs_of(
            make_trial(index=2, produced=35),
            make_trial(index=1, produced=30),
        )
        assert len(pairs) == 1
        assert pair_deltas(trials, pairs)[0] == pytest.approx(5.0)

    def test_deterministic_from_bytes(self, tmp_path):
        path = tmp_path / "trials.csv"
        rows = [HEADER] + [
            f"p{i},{t},medium,{30 + 0.37 * i + t},false,false,"
            for i in range(10)
            for t in (1, 2, 3)
        ]
        path.write_text("\n".join(rows) + "\n")
        first = pair_consecutive(load_trials(path))
        second = pair_consecutive(load_trials(path))
        assert np.array_equal(first, second)

    def test_deltas_telescope(self):
        rng = np.random.default_rng(7)
        produced = rng.uniform(5, 90, size=8)
        trials, pairs = pairs_of(
            *[make_trial(index=i + 1, produced=p) for i, p in enumerate(produced)]
        )
        assert sum(pair_deltas(trials, pairs)) == pytest.approx(
            produced[-1] - produced[0], abs=1e-9
        )

    def test_labels_partition_pairs(self):
        rng = np.random.default_rng(11)
        trials = []
        for pid in range(20):
            for t in range(1, 4):
                trials.append(
                    make_trial(pid=f"p{pid}", index=t, produced=rng.uniform(10, 60))
                )
        trials, pairs = pairs_of(*trials)
        labels = directions(pair_deltas(trials, pairs) < 0)
        n_dec = sum(1 for lab in labels if lab == Direction.DECREASE)
        n_inc = sum(1 for lab in labels if lab == Direction.INCREASE)
        assert n_dec + n_inc == len(pairs) == 40


class TestDataset:
    def test_container_helpers(self):
        trials, pairs = pairs_of(
            make_trial(produced=30), make_trial(index=2, produced=25),
            make_trial(pid="q", produced=30), make_trial(pid="q", index=2, produced=35),
        )
        deltas = pair_deltas(trials, pairs)
        assert len(pairs) == 2
        assert directions(deltas < 0) == [Direction.DECREASE, Direction.INCREASE]
        assert deltas.tolist() == [pytest.approx(-5.0), pytest.approx(5.0)]


class TestWriteCsv:
    def test_bytes_match_csv_writer(self, tmp_path, monkeypatch):
        # a row count that is not a multiple of the block, blocks of a few rows
        monkeypatch.setattr(timeshift.data, "_WRITE_BLOCK", 64)
        rng = np.random.default_rng(7)
        n = 64 * 7 + 13
        specials = [-0.0, 0.0, np.nan, -np.nan, 5e-324, 2.5e-310, 1e308, -1e308, np.inf, -np.inf,
                    0.1, 1 / 3, 30.0, -1e-300, 123456789.0]
        floats = np.where(rng.random(n) < 0.5, rng.choice(specials, n), rng.normal(0, 1e3, n))
        repeated = rng.choice([0.25, -0.0, 0.0, 7.0], n)  # few distinct values per block
        ints = rng.choice([0, 1, -1, 2**53 + 1, 2**63 - 1, -2**63, 10**15, -7], n)
        ids = ["p1", "a,b", 'say "hi"', "two\nlines", "cr\rhere", " lead", "trail ", "",
               "\u00e9t\u00e9", "#x", '"', ","]
        id_codes = rng.integers(0, len(ids), n)
        flags = rng.random(n) < 0.5
        header = ["id", "f", "repeated", "i", "flag", 'q"uoted,head']
        columns = [(ids, id_codes), floats, repeated, ints, (("false", "true"), flags), ints]
        path = tmp_path / "new.csv"
        timeshift.data.write_csv(path, header, columns)

        expected = tmp_path / "csv.csv"
        with expected.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for k in range(n):
                writer.writerow([
                    ids[id_codes[k]],
                    "" if np.isnan(floats[k]) else float(floats[k]),
                    float(repeated[k]),
                    int(ints[k]),
                    "true" if flags[k] else "false",
                    int(ints[k]),
                ])
        assert path.read_bytes() == expected.read_bytes()
        assert b"-0.0," in path.read_bytes() and b",0.0," in path.read_bytes()

    def test_no_rows_writes_the_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        timeshift.data.write_csv(path, ["a", "b"], [np.zeros(0), (["x"], np.zeros(0, int))])
        assert path.read_bytes() == b"a,b\r\n"


class TestAtomicWrite:
    def test_writer_raising_halfway_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("old\n")
        # the second block raises after the first one's rows filled buffers:
        # its last code has no text in the table
        n = timeshift.data._WRITE_BLOCK + 10
        codes = np.zeros(n, dtype=np.intp)
        codes[-1] = 1
        with pytest.raises(IndexError):
            write_csv(path, ["a"] * 6, [np.zeros(n)] * 5 + [(["x"], codes)])
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_interrupted_first_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.json"
        with pytest.raises(RuntimeError):
            with atomic_write(path) as fh:
                fh.write("{" * 100_000)
                fh.flush()
                assert path.with_name(f".out.json.{os.getpid()}.tmp").stat().st_size
                raise RuntimeError("interrupted")
        assert list(tmp_path.iterdir()) == []

    def test_complete_write_replaces(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with atomic_write(path) as fh:
            fh.write("new\n")
        assert path.read_text() == "new\n"
        assert list(tmp_path.iterdir()) == [path]


# ---------------------------------------------------------------------------
# The two read paths: numpy's C reader and the Python cell parser
# ---------------------------------------------------------------------------

# Cell texts put in every column of a row: numbers numpy and Python parse
# differently or not at all, a large finite number, words with padding and
# case, and quoted cells
CELL_TOKENS = (
    "1_0", "\u0661", "+1", " 1", "1.0", "-0", "nan", "inf", "infinity", "1e400", "", " ",
    "0", "2", "1e300", " Low ", "HiGh", "TRUE", " decrease", "p#1", "x" * 40,
    '"a,b"', '"a""b"', '"a\nb"', '"a\r\nb"', 'a"b', '"a"b', '" 1"',
)


def _trial_rows(rng):
    """The cells of 24 seeded trial rows, 8 participants x 3 trials."""
    return [
        [f"p{i // 3}", str(i % 3 + 1), rng.choice(["low", "medium", "high"]),
         repr(round(rng.uniform(10, 50), 3)), rng.choice(["true", "false"]),
         rng.choice(["true", "false"]), rng.choice(["", "0.25", "1.5"])]
        for i in range(24)
    ]


def _feature_rows(rng):
    """The cells of 24 seeded feature rows, each in its features' domain."""
    return [
        [repr(round(rng.uniform(-100, 80), 4)), rng.choice("01"), rng.choice("01"),
         *rng.choice([("0", "0"), ("0", "1"), ("1", "0"), ("1", "1"), ("1", "2"), ("2", "1"),
                      ("2", "2")]),
         rng.choice(["increase", "decrease"])]
        for _ in range(24)
    ]


def _mutants(header, rows, rng):
    """(name, file bytes) of a CSV and of each seeded mutation of it."""

    def text(header, rows, end="\n"):
        return end.join(",".join(row) for row in [header, *rows]) + end

    def one_row(change):  # change applied to a seeded row
        k = rng.randrange(len(rows))
        return text(header, [change(row) if i == k else row for i, row in enumerate(rows)])

    def with_line(line):  # line put between two seeded rows
        lines = text(header, rows).split("\n")
        k = rng.randrange(1, len(lines) - 1)
        return "\n".join([*lines[:k], line, *lines[k:]])

    clean = text(header, rows)
    c = rng.randrange(len(header))
    cases = {
        "clean": clean,
        "byte_order_mark": "\ufeff" + clean,
        "crlf": text(header, rows, "\r\n"),
        "blank_line": with_line(""),
        "blank_crlf_line": with_line("\r"),
        "whitespace_line": with_line(" \t "),
        "short_row": one_row(lambda row: row[:-1]),
        "shorter_row": one_row(lambda row: row[:-2]),
        "long_row": one_row(lambda row: [*row, "x", "9"]),
        "extra_column": text([*header, "extra"], [[*row, str(i)] for i, row in enumerate(rows)]),
        "extra_first_column": text(["extra", *header], [['"x,y"', *row] for row in rows]),
        # the last of two same-named columns is the one read
        "repeated_column": text([*header, header[c]],
                                [[*row, rows[-1 - i][c]] for i, row in enumerate(rows)]),
        # a quoted cell from one row's end into the next: csv reads the next
        # row into it, and a block edge between the two must not split them
        "quote_across_lines": text(
            [*header, "extra"],
            [[*row, {len(rows) - 3: '"x', len(rows) - 2: '"'}.get(i, "")]
             for i, row in enumerate(rows)],
        ),
        "missing_column": text(header[:c] + header[c + 1:],
                               [row[:c] + row[c + 1:] for row in rows]),
        "header_only": text(header, []),
        "header_and_blank_lines": text(header, []) + "\n\r\n",
        "empty": "",
    }
    for j, column in enumerate(header):
        for token in CELL_TOKENS:
            cases[f"{column}={token!r}"] = one_row(lambda row: [*row[:j], token, *row[j + 1:]])
    mutants = [(name, data.encode()) for name, data in cases.items()]
    k = clean.index("\n", clean.index("\n") + 1) + 2  # a byte of the second row
    return mutants + [("not_utf8", clean.encode()[:k] + b"\xff" + clean.encode()[k + 1:])]


def _no_loadtxt(*args, **kwargs):
    raise ValueError("numpy's reader is off: the Python path reads")


def _outcome(load, path, capsys):
    """What load(path) returns, or the class and message it raises, and its stderr."""
    try:
        value = load(path)
    except TimeshiftError as exc:
        value = (type(exc), str(exc))
    return value, capsys.readouterr().err


def _is_error(outcome):
    return isinstance(outcome, tuple) and isinstance(outcome[0], type)


def _assert_same(fast, slow):
    if _is_error(slow) or _is_error(fast):  # the class and message
        assert fast == slow
        return
    if isinstance(slow, TrialTable):
        fast, slow = [[getattr(table, f.name) for f in dataclasses.fields(TrialTable)]
                      for table in (fast, slow)]
    for a, b in zip(fast, slow, strict=True):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def _csv_text(header, rows):
    return "".join(",".join(row) + "\n" for row in [header, *rows])


# Clean trial files read in blocks of 2 rows: (header, the 24 rows of _trial_rows) -> text
_IN_BLOCKS_OF_2 = {
    # every text cell quoted, as R's write.csv writes them
    "all_text_quoted": lambda header, rows: _csv_text(
        [f'"{c}"' for c in header],
        [[f'"{c}"' if j in (0, 2, 4, 5) else c for j, c in enumerate(row)] for row in rows],
    ),
    # the second row's id holds a line break, so that row ends on the third line
    "line_break_across_block_edge": lambda header, rows: _csv_text(
        header, [['"p\n0"', *row[1:]] if i == 1 else row for i, row in enumerate(rows)]
    ),
    "rows_a_multiple_of_the_block": _csv_text,
    "blank_lines_after_the_last_block": lambda header, rows: _csv_text(header, rows) + "\n\r\n\n",
}


class TestReadPaths:
    """numpy's C reader and the Python path give the same arrays, or the same error."""

    @pytest.mark.parametrize("kind", ["trials", "features"])
    @pytest.mark.parametrize("block", [2, None])
    def test_paths_agree_on_mutated_files(self, tmp_path, monkeypatch, capsys, kind, block):
        rng = random.Random(f"{kind}-{block}")
        if kind == "trials":
            load, header, rows = load_trials, TRIAL_CSV_COLUMNS, _trial_rows(rng)
        else:
            load, header, rows = load_feature_csv, FEATURE_CSV_COLUMNS, _feature_rows(rng)
        if block:  # many blocks: quoted line breaks and bad rows fall past the first
            monkeypatch.setattr(timeshift.data, "_READ_BLOCK", block)
        loaded = 0
        for name, data in _mutants(list(header), rows, rng):
            path = tmp_path / f"{kind}.csv"
            path.write_bytes(data)
            fast, fast_err = _outcome(load, path, capsys)
            with monkeypatch.context() as patch:
                patch.setattr(np, "loadtxt", _no_loadtxt)
                slow, slow_err = _outcome(load, path, capsys)
            assert fast_err == slow_err, name
            try:
                _assert_same(fast, slow)
            except AssertionError as exc:
                raise AssertionError(f"{name}: {fast} != {slow}") from exc
            loaded += not _is_error(slow)
        assert loaded > 40  # many mutants load: not only errors are compared

    @pytest.mark.parametrize("case", ["clean", "byte_order_mark", "crlf", "blank_line",
                                      "long_row", "extra_first_column", "repeated_column",
                                      "participant_id='p#1'", "participant_id='xxxx'",
                                      "participant_id='\"a,b\"'", "participant_id='\"a\\nb\"'",
                                      "engagement_level=' Low '", "produced_time_s='+1'",
                                      *_IN_BLOCKS_OF_2])
    def test_clean_files_take_numpys_path(self, tmp_path, monkeypatch, case):
        def python_path(*args):
            raise AssertionError("read by the Python path")

        rng = random.Random(0)
        header, rows = list(TRIAL_CSV_COLUMNS), _trial_rows(rng)
        mutants = dict(_mutants(header, rows, rng))
        path = tmp_path / "trials.csv"
        if case in _IN_BLOCKS_OF_2:
            monkeypatch.setattr(timeshift.data, "_READ_BLOCK", 2)
            path.write_text(_IN_BLOCKS_OF_2[case](header, rows))
        else:
            path.write_bytes(mutants[case.replace("xxxx", "x" * 40)])
        with monkeypatch.context() as patch:
            patch.setattr(np, "loadtxt", _no_loadtxt)
            whole = load_trials(path)
        monkeypatch.setattr(timeshift.data, "_read_rows", python_path)
        assert_same_table(load_trials(path), whole)
