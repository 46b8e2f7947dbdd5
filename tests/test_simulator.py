import dataclasses
import itertools

import numpy as np
import pytest

from timeshift.data import Direction, EngagementLevel, pair_deltas
from timeshift.simulator import (
    MIN_PRODUCED_S,
    SimParams,
    arousal_baseline,
    attention_baseline,
    generate_trials,
    simulate_trial,
    update_reference_memory,
)
from tests.test_data import assert_same_table, simulated

LOW, MED, HIGH = EngagementLevel.LOW, EngagementLevel.MEDIUM, EngagementLevel.HIGH


def noiseless(**overrides):
    overrides.setdefault("weber_fraction", 0.0)
    return SimParams(**overrides)


def reference_update_oracle(params, old_ticks, last_s, reported_lower, pop_mean):
    # independent reimplementation of the blend, in target-equivalent seconds
    scale = params.base_clock_rate_hz * params.gate_width_by_engagement[0]
    step = abs(min(max(last_s, 0.0), 2 * params.target_s) - params.target_s)
    corrected = params.target_s + (step if reported_lower else -step)
    s = (
        (1 - params.memory_correction_weight - params.regression_weight) * (old_ticks / scale)
        + params.memory_correction_weight * corrected
        + params.regression_weight * pop_mean
    )
    return s * scale


def head_of(trials, n_participants, n_trials):
    """
    The first n_participants of a participant-major simulated table, with the
    ids padded to the width a cohort of that size uses ("sim3", not "sim03").
    """
    rows = slice(0, n_participants * n_trials)
    columns = {field.name: getattr(trials, field.name)[rows] for field in dataclasses.fields(trials)}
    width = len(str(n_participants - 1))
    columns["participant_ids"] = np.array(
        [f"sim{int(pid[3:]):0{width}d}" for pid in trials.participant_ids[:n_participants]],
        dtype=object,
    )
    return dataclasses.replace(trials, **columns)


class TestSimulateTrial:
    def test_low_baseline_is_target(self):
        params = noiseless()
        rng = np.random.default_rng(0)
        z = rng.standard_normal()
        produced = simulate_trial(params, LOW, LOW, params.reference_ticks, z)
        assert produced == pytest.approx(30.0, abs=1e-12)

    def test_narrower_gate_lengthens_production(self):
        params = noiseless(gate_width_by_engagement=(0.8, 0.7, 0.6))
        rng = np.random.default_rng(0)
        z = rng.standard_normal(2)
        low = simulate_trial(params, LOW, LOW, params.reference_ticks, z[0])
        high = simulate_trial(params, HIGH, HIGH, params.reference_ticks, z[1])
        assert low == pytest.approx(30.0)
        assert high == pytest.approx(40.0)

    def test_arousal_shortens_on_rise(self):
        params = noiseless(gate_width_by_engagement=(1.0, 1.0, 1.0), arousal_gain=0.5)
        rng = np.random.default_rng(0)
        z = rng.standard_normal()
        produced = simulate_trial(params, HIGH, LOW, params.reference_ticks, z)
        assert produced == pytest.approx(15.0)  # 30 / (1 + 0.5 * 2)

    def test_noiseless_formula_exact(self):
        for base, gates, gain in itertools.product(
            (5.0, 10.0, 20.0),
            ((1.0, 0.85, 0.7), (0.9, 0.6, 0.5)),
            (0.0, 0.1),
        ):
            params = noiseless(
                base_clock_rate_hz=base,
                gate_width_by_engagement=gates,
                arousal_gain=gain,
            )
            rng = np.random.default_rng(1)
            for level in EngagementLevel:
                rate = base * (1 + gain * int(level))  # transition from LOW
                expected = params.reference_ticks / (rate * gates[int(level)])
                z = rng.standard_normal()
                produced = simulate_trial(params, level, LOW, params.reference_ticks, z)
                assert produced == pytest.approx(expected, abs=1e-12)

    def test_production_monotone_in_gate_and_rate(self):
        reference = 300.0
        rng = np.random.default_rng(2)
        last_by_rate = None
        for base in (5.0, 10.0, 15.0, 20.0):
            z = rng.standard_normal()
            produced = simulate_trial(noiseless(base_clock_rate_hz=base), LOW, LOW, reference, z)
            if last_by_rate is not None:
                assert produced <= last_by_rate
            last_by_rate = produced
        last_by_gate = None
        for gate in (0.4, 0.6, 0.8, 1.0):
            produced = simulate_trial(
                noiseless(gate_width_by_engagement=(gate, gate, gate)),
                LOW,
                LOW,
                reference,
                rng.standard_normal(),
            )
            if last_by_gate is not None:
                assert produced <= last_by_gate
            last_by_gate = produced

    def test_noise_keeps_production_positive(self):
        params = SimParams(weber_fraction=5.0)  # absurd noise to stress the clamp
        rng = np.random.default_rng(3)
        for z in rng.standard_normal(500):
            assert simulate_trial(params, LOW, LOW, params.reference_ticks, z) > 0


class TestReferenceMemoryUpdate:
    def test_zero_weights_identity(self):
        params = noiseless(
            memory_correction_weight=0.0, regression_weight=0.0, population_mean_s=40.0
        )
        out = update_reference_memory(params, 321.0, 55.0, False)
        assert out == pytest.approx(321.0)

    def test_full_correction_overshoot(self):
        params = noiseless(
            memory_correction_weight=1.0, regression_weight=0.0, population_mean_s=40.0
        )
        out = update_reference_memory(params, params.reference_ticks, 40.0, False)
        # 40 s overshoot corrected down to a 20 s-equivalent reference
        assert out / (params.base_clock_rate_hz * 1.0) == pytest.approx(20.0)

    def test_full_regression_to_population_mean(self):
        params = noiseless(
            memory_correction_weight=0.0, regression_weight=1.0, population_mean_s=33.8
        )
        out = update_reference_memory(params, params.reference_ticks, 10.0, True)
        assert out / (params.base_clock_rate_hz * 1.0) == pytest.approx(33.8)

    def test_reported_side_controls_direction(self):
        params = noiseless(
            memory_correction_weight=1.0, regression_weight=0.0, population_mean_s=30.0
        )
        up = update_reference_memory(params, 300.0, 40.0, True)
        down = update_reference_memory(params, 300.0, 40.0, False)
        assert up / 10.0 == pytest.approx(40.0)  # believed undershot: aim longer
        assert down / 10.0 == pytest.approx(20.0)

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            w_c = rng.uniform(0, 1)
            w_r = rng.uniform(0, 1 - w_c)
            params = noiseless(
                base_clock_rate_hz=rng.uniform(2, 20),
                gate_width_by_engagement=(1.0, 0.8, 0.6),
                memory_correction_weight=w_c,
                regression_weight=w_r,
            )
            old = rng.uniform(50, 600)
            last = rng.uniform(1, 90)
            lower = bool(rng.integers(2))
            mean = rng.uniform(20, 50)
            params = dataclasses.replace(params, population_mean_s=mean)
            scale = params.base_clock_rate_hz * params.gate_width_by_engagement[0]
            expected = reference_update_oracle(params, old, last, lower, mean)
            expected = max(expected / scale, 0.5) * scale  # implementation floor
            got = update_reference_memory(params, old, last, lower)
            assert got == pytest.approx(expected, abs=1e-9)


class TestGenerateDataset:
    def test_noiseless_fixed_point(self):
        params = noiseless(memory_correction_weight=0.0, regression_weight=0.0)
        trials, pairs = simulated(params, 1, 2, engagement_assignment=[LOW, LOW])
        assert len(pairs) == 1
        assert pair_deltas(trials, pairs)[0] == pytest.approx(0.0, abs=1e-12)

    def test_same_seed_identical(self):
        a = generate_trials(SimParams(rng_seed=99), 40)
        b = generate_trials(SimParams(rng_seed=99), 40)
        assert_same_table(a, b)

    def test_different_seeds_differ(self):
        a = generate_trials(SimParams(rng_seed=1), 40)
        b = generate_trials(SimParams(rng_seed=2), 40)
        assert not np.array_equal(a.produced_s, b.produced_s)

    def test_default_calibration_band(self):
        trials, pairs = simulated(SimParams(rng_seed=0), 1000, 2)
        frac = np.count_nonzero(pair_deltas(trials, pairs) < 0) / len(pairs)
        assert 0.25 <= frac <= 0.50

    def test_row_counts_and_ids(self):
        trials, pairs = simulated(SimParams(rng_seed=4), 7, 3)
        assert len(trials) == 21
        assert len(set(trials.participant_ids[trials.participant])) == 7
        assert len(pairs) == 14  # two pairs per participant

    def test_fixed_assignment_applied(self):
        trials = generate_trials(
            SimParams(rng_seed=0), 3, 2, engagement_assignment=[MED, HIGH]
        )
        assert all(trials.level[trials.trial_index == 1] == MED)
        assert all(trials.level[trials.trial_index == 2] == HIGH)

    def test_substreams_are_order_independent(self):
        # participant i's trials depend only on (seed, i, n_trials): adding
        # participants after it must not disturb any column of its rows
        for assignment in ("random_uniform_9", [MED, LOW, HIGH]):
            small = generate_trials(SimParams(rng_seed=7), 10, 3, assignment)
            large = generate_trials(SimParams(rng_seed=7), 25, 3, assignment)
            assert_same_table(small, head_of(large, 10, 3))

    def test_clamp_keeps_the_stream_layout_fixed(self):
        params = SimParams(rng_seed=7, weber_fraction=5.0)  # many draws below the bound
        small = generate_trials(params, 10, 3)
        large = generate_trials(params, 25, 3)
        assert_same_table(small, head_of(large, 10, 3))
        assert np.all(large.produced_s >= MIN_PRODUCED_S)
        assert np.any(large.produced_s == MIN_PRODUCED_S)

    def test_kinds_do_not_share_a_stream(self):
        # fixed levels skip the level draws; the sensitivity draws must not move
        drawn = generate_trials(SimParams(rng_seed=7, sensitivity_prevalence=0.5), 40, 3)
        fixed = generate_trials(
            SimParams(rng_seed=7, sensitivity_prevalence=0.5), 40, 3, [LOW, LOW, LOW]
        )
        assert drawn.reported_high.any() and not drawn.reported_high.all()
        assert np.array_equal(drawn.reported_high, fixed.reported_high)

    def test_attention_dominated_data_is_perfectly_predicted(self):
        params = noiseless(
            memory_correction_weight=0.0, regression_weight=0.0, arousal_gain=0.0
        )
        trials, pairs = simulated(params, 200, 2)
        prev, nxt = trials.level[pairs[:, 0]], trials.level[pairs[:, 1]]
        labels = np.where(pair_deltas(trials, pairs) < 0, Direction.DECREASE, Direction.INCREASE)
        strict = [(p, q, label) for p, q, label in zip(prev, nxt, labels) if p != q]
        assert strict  # the draw must contain strict transitions
        hits = sum(
            1
            for p, q, label in strict
            if attention_baseline(p, q) == label
        )
        assert hits == len(strict)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            generate_trials(SimParams(), 0, 2)
        with pytest.raises(ValueError):
            generate_trials(SimParams(), 1, 1)
        with pytest.raises(ValueError):
            generate_trials(SimParams(), 1, 2, engagement_assignment=[LOW])
        with pytest.raises(ValueError):
            generate_trials(SimParams(), 1, 2, engagement_assignment="whatever")


class TestBaselines:
    def test_attention_examples(self):
        assert attention_baseline(LOW, HIGH) == Direction.INCREASE
        assert attention_baseline(HIGH, LOW) == Direction.DECREASE
        assert attention_baseline(MED, MED) == Direction.INCREASE

    def test_arousal_examples(self):
        assert arousal_baseline(LOW, HIGH) == Direction.DECREASE
        assert arousal_baseline(HIGH, LOW) == Direction.INCREASE
        assert arousal_baseline(LOW, LOW) == Direction.INCREASE

    def test_mirror_on_all_nine_transitions(self):
        disagreements = 0
        for prev, nxt in itertools.product(EngagementLevel, repeat=2):
            a = attention_baseline(prev, nxt)
            b = arousal_baseline(prev, nxt)
            if prev == nxt:
                assert a == b == Direction.INCREASE
            else:
                assert a != b
                disagreements += 1
        assert disagreements == 6


class TestSimParams:
    def test_default_reference_makes_low_target(self):
        params = SimParams()
        assert params.reference_ticks == pytest.approx(300.0)

    def test_gate_order_enforced(self):
        with pytest.raises(ValueError):
            SimParams(gate_width_by_engagement=(0.7, 0.85, 1.0))

    def test_gate_widths_list_becomes_tuple(self):
        listed = SimParams(gate_width_by_engagement=[1.0, 0.9, 0.8])
        assert listed == SimParams(gate_width_by_engagement=(1.0, 0.9, 0.8))
        assert isinstance(listed.gate_width_by_engagement, tuple)

    def test_weight_budget_enforced(self):
        with pytest.raises(ValueError):
            SimParams(memory_correction_weight=0.6, regression_weight=0.6)
