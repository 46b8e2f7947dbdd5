import os

import numpy as np
import pytest

from timeshift.data import (
    Dataset,
    Direction,
    EngagementLevel,
    Provenance,
    SamplePair,
    TrialRecord,
    atomic_write,
    load_trials,
    pair_consecutive,
    write_trials_csv,
)
from timeshift.errors import (
    DuplicateTrialIndexError,
    EmptyFileError,
    MalformedRowError,
    MissingColumnError,
    NonPositiveTimeError,
)
from timeshift.features import write_feature_csv

HEADER = (
    "participant_id,trial_index,engagement_level,produced_time_s,"
    "reported_lower_than_30,reported_high_engagement,nontiming_task_error"
)


def make_trial(pid="p1", index=1, engagement=EngagementLevel.LOW, produced=30.0,
               lower=False, rep_high=False, error=None):
    return TrialRecord(
        participant_id=pid,
        trial_index=index,
        engagement=engagement,
        produced_time_s=produced,
        reported_lower_than_30=lower,
        reported_high_engagement=rep_high,
        nontiming_task_error=error,
    )


class TestLoadTrials:
    def test_direct_field_mapping(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text(HEADER + "\np1,1,low,33.8,false,false,\n")
        trials = load_trials(path)
        assert trials == [make_trial("p1", 1, EngagementLevel.LOW, 33.8)]

    def test_engagement_codes_and_case(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_text(HEADER + "\np1,1,HIGH,20,true,TRUE,0.5\np1,2,1,25,0,1,\n")
        trials = load_trials(path)
        assert trials[0].engagement == EngagementLevel.HIGH
        assert trials[0].reported_lower_than_30 is True
        assert trials[0].nontiming_task_error == 0.5
        assert trials[1].engagement == EngagementLevel.MEDIUM
        assert trials[1].reported_high_engagement is True

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

    def test_roundtrip_write_then_load(self, tmp_path):
        trials = [
            make_trial("a", 1, EngagementLevel.MEDIUM, 31.25, lower=True),
            make_trial("a", 2, EngagementLevel.HIGH, 40.5, rep_high=True, error=0.25),
        ]
        path = tmp_path / "out.csv"
        write_trials_csv(trials, path)
        assert load_trials(path) == trials


class TestTrialRecord:
    @pytest.mark.parametrize("produced", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_produced_time(self, produced):
        with pytest.raises(NonPositiveTimeError):
            make_trial(produced=produced)

    def test_trial_index_must_be_positive(self):
        with pytest.raises(ValueError):
            make_trial(index=0)


class TestSamplePair:
    def test_delta_and_label(self):
        pair = SamplePair(make_trial(produced=33.8), make_trial(index=2, produced=36.5))
        assert pair.delta_t_s == pytest.approx(2.7)
        assert pair.label == Direction.INCREASE

    def test_zero_delta_is_increase(self):
        pair = SamplePair(make_trial(produced=30), make_trial(index=2, produced=30))
        assert pair.delta_t_s == 0.0
        assert pair.label == Direction.INCREASE

    def test_strict_decrease(self):
        pair = SamplePair(make_trial(produced=30), make_trial(index=2, produced=29.9))
        assert pair.label == Direction.DECREASE

    def test_rejects_mixed_participants(self):
        with pytest.raises(ValueError):
            SamplePair(make_trial(pid="a"), make_trial(pid="b", index=2))

    def test_rejects_nonconsecutive_indices(self):
        with pytest.raises(ValueError):
            SamplePair(make_trial(index=1), make_trial(index=3))


class TestPairConsecutive:
    def test_six_trials_make_five_pairs(self):
        trials = [make_trial(index=i, produced=30 + i) for i in range(1, 7)]
        pairs = pair_consecutive(trials)
        assert len(pairs) == 5

    def test_single_trial_makes_no_pairs(self):
        assert pair_consecutive([make_trial()]) == []

    def test_duplicate_index_rejected(self):
        trials = [make_trial(index=1), make_trial(index=1, produced=20)]
        with pytest.raises(DuplicateTrialIndexError):
            pair_consecutive(trials)

    def test_gap_breaks_chain(self):
        trials = [make_trial(index=1), make_trial(index=3, produced=20)]
        assert pair_consecutive(trials) == []

    def test_gaps_logged_once_with_their_count(self, caplog):
        trials = [make_trial(pid=pid, index=i) for pid in ("a", "b") for i in (1, 3)]
        with caplog.at_level("WARNING", logger="timeshift.data"):
            assert pair_consecutive(trials) == []
        assert len(caplog.records) == 1
        assert caplog.records[0].getMessage().startswith("2 gaps")

    def test_unsorted_input_is_ordered_per_participant(self):
        trials = [
            make_trial(index=2, produced=35),
            make_trial(index=1, produced=30),
        ]
        pairs = pair_consecutive(trials)
        assert len(pairs) == 1
        assert pairs[0].delta_t_s == pytest.approx(5.0)

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
        assert first == second

    def test_deltas_telescope(self):
        rng = np.random.default_rng(7)
        produced = rng.uniform(5, 90, size=8)
        trials = [make_trial(index=i + 1, produced=p) for i, p in enumerate(produced)]
        pairs = pair_consecutive(trials)
        assert sum(p.delta_t_s for p in pairs) == pytest.approx(
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
        pairs = pair_consecutive(trials)
        labels = [p.label for p in pairs]
        n_dec = sum(1 for lab in labels if lab == Direction.DECREASE)
        n_inc = sum(1 for lab in labels if lab == Direction.INCREASE)
        assert n_dec + n_inc == len(pairs) == 40


class TestDataset:
    def test_container_helpers(self):
        pairs = (
            SamplePair(make_trial(produced=30), make_trial(index=2, produced=25)),
            SamplePair(make_trial(pid="q", produced=30), make_trial(pid="q", index=2, produced=35)),
        )
        ds = Dataset(samples=pairs, provenance=Provenance.HUMAN)
        assert len(ds) == 2
        assert ds.labels() == [Direction.DECREASE, Direction.INCREASE]
        assert ds.deltas() == [pytest.approx(-5.0), pytest.approx(5.0)]


class TestAtomicWrite:
    def test_writer_raising_halfway_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text("old\n")
        # the bad last label raises after several buffers of rows were written
        labels = [Direction.DECREASE] * 4999 + ["not a direction"]
        with pytest.raises(AttributeError):
            write_feature_csv(np.zeros((5000, 5)), labels, path)
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
