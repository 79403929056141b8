"""Reproducibility guarantees: the property the whole methodology
rests on (Table V is twelve *reproducible* runs)."""

import pytest

from repro.can.log import format_candump
from repro.fuzz import (
    CampaignLimits,
    FuzzCampaign,
    FuzzConfig,
    RandomFrameGenerator,
)
from repro.fuzz.session import FuzzResult
from repro.sim.random import RandomStreams
from repro.testbench import UnlockExperiment, UnlockTestbench
from repro.vehicle import TargetCar


def run_campaign(seed: int) -> FuzzResult:
    bench = UnlockTestbench(seed=seed)
    bench.power_on()
    adapter = bench.attacker_adapter()
    generator = RandomFrameGenerator(
        FuzzConfig.full_range(), RandomStreams(seed).stream("fuzzer"))
    campaign = FuzzCampaign(bench.sim, adapter, generator,
                            limits=CampaignLimits(max_frames=2000))
    return campaign.run()


class TestCampaignDeterminism:
    def test_identical_seeds_identical_campaigns(self):
        first = run_campaign(99)
        second = run_campaign(99)
        assert first.frames_sent == second.frames_sent
        assert first.ended_at == second.ended_at
        assert first.to_json() == second.to_json()

    def test_different_seeds_send_different_frames(self):
        def first_frames(seed):
            bench = UnlockTestbench(seed=seed)
            bench.power_on()
            adapter = bench.attacker_adapter()
            generator = RandomFrameGenerator(
                FuzzConfig.full_range(),
                RandomStreams(seed).stream("fuzzer"))
            campaign = FuzzCampaign(
                bench.sim, adapter, generator,
                limits=CampaignLimits(max_frames=50))
            campaign.run()
            return [s.frame for s in bench.monitor.stamped
                    if s.sender.startswith("adapter")]

        assert first_frames(1) != first_frames(2)

    def test_experiment_row_is_a_pure_function_of_seed(self):
        row_a = UnlockExperiment(check_mode="byte", seed=7).run_trials(2)
        row_b = UnlockExperiment(check_mode="byte", seed=7).run_trials(2)
        assert row_a.times_seconds == row_b.times_seconds


class TestCarDeterminism:
    def test_capture_is_bit_identical(self):
        def capture_text():
            from repro.analysis import BusCapture

            car = TargetCar(seed=5)
            capture = BusCapture(car.powertrain_bus, limit=5000)
            car.ignition_on()
            car.run_seconds(2.0)
            return format_candump(capture.records())

        assert capture_text() == capture_text()


class TestPersistence:
    def test_result_json_file_roundtrip(self, tmp_path):
        result = run_campaign(3)
        path = tmp_path / "run.json"
        path.write_text(result.to_json())
        restored = FuzzResult.from_json(path.read_text())
        assert restored.frames_sent == result.frames_sent
        assert restored.stop_reason == result.stop_reason
