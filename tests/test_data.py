import dataclasses
import os

import numpy as np
import pytest

import timeshift.data
from timeshift.data import (
    Direction,
    EngagementLevel,
    TrialTable,
    atomic_write,
    direction_words,
    load_trials,
    pair_consecutive,
    pair_deltas,
    write_csv,
    write_trials_csv,
)
from timeshift.simulator import generate_trials
from timeshift.errors import (
    DuplicateTrialIndexError,
    EmptyFileError,
    MalformedRowError,
    MissingColumnError,
    NonPositiveTimeError,
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
    return [Direction(word) for word in direction_words(decrease)]


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

    def test_extra_columns_ignored(self, tmp_path, caplog):
        path = tmp_path / "trials.csv"
        path.write_text(HEADER + ",questionnaire_q7\np1,1,low,30,false,false,,blah\n")
        with caplog.at_level("WARNING"):
            trials = load_trials(path)
        assert len(trials) == 1
        assert "questionnaire_q7" in caplog.text

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
        # the second block holds a bad time (lines 5-6) before a bad cell (line 7)
        monkeypatch.setattr(timeshift.data, "_READ_BLOCK", 2)
        path = tmp_path / "trials.csv"
        path.write_text(
            HEADER + "\np1,1,low,30,false,false,\n\np1,2,low,31,false,false,\n"
            '"p\n2",1,low,-4,false,false,\np2,2,low,x,false,false,\n'
        )
        with pytest.raises(MalformedRowError, match="line 6: produced_time_s must be"):
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

    def test_gaps_logged_once_with_their_count(self, caplog):
        trials = trial_table([make_trial(pid=pid, index=i) for pid in ("a", "b") for i in (1, 3)])
        with caplog.at_level("WARNING", logger="timeshift.data"):
            assert len(pair_consecutive(trials)) == 0
        assert len(caplog.records) == 1
        assert caplog.records[0].getMessage().startswith("2 gaps")

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


class TestAtomicWrite:
    def test_writer_raising_halfway_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("old\n")

        def rows(block):
            # the second block raises after the first one's rows filled buffers
            if block.start:
                raise RuntimeError("interrupted")
            return [[0.0] * 6] * (block.stop - block.start)

        with pytest.raises(RuntimeError):
            write_csv(path, ["a"] * 6, rows, 5000)
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
