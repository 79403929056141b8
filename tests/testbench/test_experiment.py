"""Tests for the Table V unlock experiment harness.

These run real blind-fuzz trials at the paper's 1 frame/ms rate in
simulated time; seeds are fixed so the suite stays fast (the selected
trials unlock within a few hundred simulated seconds).  Trials run on
the batch frame engine; the parity tests run each trial's world
through the scalar kernel too.
"""

from dataclasses import replace

import pytest

from repro.fuzz.batch import BatchCampaign
from repro.sim.clock import MS, SECOND
from repro.testbench.experiment import (ROW_LABELS, TableVRow,
                                        TrialOutcome, UnlockExperiment)


def scalar_outcome(experiment, trial):
    """The trial's outcome with its world run on the scalar kernel."""
    campaign = experiment.build_trial(trial)
    result = campaign.run()
    unlocked = not campaign.bench.bcm.locked
    return TrialOutcome(
        trial=trial, unlocked=unlocked,
        seconds_to_unlock=(result.first_finding_seconds
                           if unlocked else None),
        frames_sent=result.frames_sent)


class TestTrialMechanics:
    def test_blind_fuzz_eventually_unlocks(self):
        experiment = UnlockExperiment(check_mode="byte", seed=42)
        outcome = experiment.run_trial(0)
        assert outcome.unlocked
        assert outcome.seconds_to_unlock is not None
        assert outcome.seconds_to_unlock > 0
        # 1 frame/ms: frames ~ milliseconds elapsed.
        assert outcome.frames_sent == pytest.approx(
            outcome.seconds_to_unlock * 1000, rel=0.01)

    def test_trials_are_reproducible(self):
        first = UnlockExperiment(check_mode="byte", seed=42).run_trial(0)
        second = UnlockExperiment(check_mode="byte", seed=42).run_trial(0)
        assert first.seconds_to_unlock == second.seconds_to_unlock

    def test_trials_are_independent(self):
        experiment = UnlockExperiment(check_mode="byte", seed=42)
        a = experiment.run_trial(0)
        b = experiment.run_trial(1)
        assert a.seconds_to_unlock != b.seconds_to_unlock

    def test_timeout_analytic_default(self):
        loose = UnlockExperiment(check_mode="byte")
        strict = UnlockExperiment(check_mode="byte+dlc")
        assert strict.trial_timeout_seconds > loose.trial_timeout_seconds
        # The default cap is the tick cap the campaign applies, so a
        # timed-out trial's frame count -- one per millisecond of the
        # cap, plus the frame at its start -- follows from it exactly.
        for experiment in (loose, strict):
            cap = experiment.trial_timeout_seconds
            assert cap * 1000 == round(cap * SECOND) // MS


class TestTableVRow:
    def test_mean(self):
        row = TableVRow(label="demo", check_mode="byte",
                        times_seconds=(89.0, 1650.0, 373.0), timeouts=0)
        assert row.mean_seconds == pytest.approx((89 + 1650 + 373) / 3)

    def test_empty_row_mean_raises(self):
        row = TableVRow("demo", "byte", (), 1)
        with pytest.raises(ValueError):
            row.mean_seconds

    def test_format_contains_times_and_mean(self):
        row = TableVRow(label=ROW_LABELS["byte"], check_mode="byte",
                        times_seconds=(100.0, 200.0), timeouts=0)
        text = row.format()
        assert "100" in text and "mean: 150s" in text

    def test_row_labels_cover_modes(self):
        assert set(ROW_LABELS) == {"byte", "byte+dlc", "two-byte"}


class TestSmallSample:
    def test_three_trial_row(self):
        """A 3-trial row exercises the full harness path end-to-end."""
        experiment = UnlockExperiment(check_mode="byte", seed=7)
        row = experiment.run_trials(3)
        assert len(row.times_seconds) + row.timeouts == 3
        assert row.times_seconds, "at least one trial should unlock"
        assert row.label == ROW_LABELS["byte"]


class TestEngineParity:
    # (check mode, seed, trial, cap in simulated seconds): an unlock
    # in byte mode, and the time-limit path in all three modes.
    CASES = [("byte", 431, 1, 30.0), ("byte", 431, 0, 20.0),
             ("byte+dlc", 1959, 0, 20.0), ("two-byte", 5, 0, 20.0)]

    @pytest.mark.parametrize("mode,seed,trial,cap", CASES)
    def test_trial_world_bit_identical_on_both_engines(self, mode, seed,
                                                       trial, cap):
        experiment = UnlockExperiment(check_mode=mode, seed=seed,
                                      trial_timeout_seconds=cap)
        twin = experiment.build_trial(trial)
        want = twin.run().to_dict()
        world = experiment.build_trial(trial)
        batch = BatchCampaign([world])
        assert batch.run()[0].to_dict() == want
        assert batch.fallback_reasons == {}
        bcm, other = world.bench.bcm, twin.bench.bcm
        assert (bcm.locked, bcm._ack_counter) == (other.locked,
                                                  other._ack_counter)
        outcome = experiment.run_trial(trial)
        assert outcome == scalar_outcome(experiment, trial)
        assert outcome.fallback_reason is None

    def test_unlocking_case_unlocks(self):
        outcome = UnlockExperiment(check_mode="byte", seed=431,
                                   trial_timeout_seconds=30.0).run_trial(1)
        assert outcome.unlocked and outcome.seconds_to_unlock < 30.0


class TestFallback:
    def test_off_grid_interval_falls_back_with_its_rule(self):
        # A 3 ms interval puts the LED oracle's 20 ms poll and the BCM's
        # 100 ms status period off the transmit grid; the prover names
        # the first rule the world breaks.
        experiment = UnlockExperiment(check_mode="byte", seed=431,
                                      interval=3 * MS,
                                      trial_timeout_seconds=20.0)
        outcome = experiment.run_trial(0)
        assert outcome.fallback_reason == ("oracle 'led-camera' period off "
                                           "the tick grid")
        assert outcome == replace(scalar_outcome(experiment, 0),
                                  fallback_reason=outcome.fallback_reason)
        row = experiment.run_trials(1)
        assert row.fallback_reasons == (f"trial 0: "
                                        f"{outcome.fallback_reason}",)
