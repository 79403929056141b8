"""Failure-injection tests: the system under hostile conditions.

Fuzzing campaigns run for hours against degrading targets; these
tests inject bus corruption, mid-campaign ECU deaths and adapter
failures and check the fuzzer's machinery reports rather than wedges.
"""

import random

import pytest

from repro.can.adapter import PcanStyleAdapter
from repro.can.errors import ErrorState
from repro.can.frame import CanFrame
from repro.fuzz.campaign import CampaignLimits, FuzzCampaign
from repro.fuzz.config import FuzzConfig
from repro.fuzz.generator import RandomFrameGenerator
from repro.sim.clock import SECOND
from repro.sim.random import RandomStreams
from repro.vehicle import TargetCar
from repro.vehicle.database import ENGINE_STATUS_ID, WHEEL_SPEEDS_ID


class TestBusErrorStorm:
    def make_campaign(self, sim, bus, *, oracles=None, seconds=5):
        adapter = PcanStyleAdapter(bus)
        adapter.initialize()
        generator = RandomFrameGenerator(FuzzConfig.full_range(),
                                         random.Random(1))
        return FuzzCampaign(
            sim, adapter, generator,
            limits=CampaignLimits(max_duration=seconds * SECOND,
                                  stop_on_finding=True),
            oracles=oracles or [])

    def test_intermittent_corruption_survivable(self, sim, bus):
        """10% frame corruption: errors accumulate but TEC decays on
        the successful 90%, so the campaign completes."""
        rng = random.Random(2)
        bus.fault_injector = lambda frame: rng.random() < 0.10
        campaign = self.make_campaign(sim, bus, seconds=5)
        result = campaign.run()
        assert result.stop_reason == "time limit reached"
        assert bus.stats.error_frames > 100

    def test_total_corruption_drives_adapter_bus_off(self, sim, bus):
        bus.fault_injector = lambda frame: True
        campaign = self.make_campaign(sim, bus, seconds=30)
        result = campaign.run()
        assert result.stop_reason == "adapter bus-off"
        assert campaign.adapter.controller.counters.state \
            is ErrorState.BUS_OFF


class TestEcuDeathMidCampaign:

    def test_watchdogged_ecu_gap_heals(self):
        """With the watchdog active the transmission comes back and
        its cyclic message resumes -- the oracle sees one gap only."""
        car = TargetCar(seed=21)
        car.ignition_on()
        car.run_seconds(1.0)
        adapter = car.obd_adapter("powertrain")
        adapter.write(CanFrame(WHEEL_SPEEDS_ID, b"\x00\x01"))
        car.run_seconds(2.0)
        assert car.transmission.running
        assert car.transmission.watchdog_resets == 1

    def test_engine_reset_storm(self):
        """Repeated zero-DLC spoofs of the engine's own id cause
        repeated soft resets; the car keeps limping, never wedges."""
        car = TargetCar(seed=22)
        car.ignition_on()
        car.run_seconds(1.0)
        adapter = car.obd_adapter("powertrain")
        for _ in range(5):
            adapter.write(CanFrame(ENGINE_STATUS_ID, b""))
            car.run_seconds(0.5)
        assert car.engine.power_cycles == 5
        assert car.engine.running


class TestAdapterFailuresDuringCampaign:
    def test_uninitialised_adapter_campaign_records_errors(self, sim, bus):
        adapter = PcanStyleAdapter(bus)   # never initialised
        generator = RandomFrameGenerator(FuzzConfig.full_range(),
                                         random.Random(5))
        campaign = FuzzCampaign(sim, adapter, generator,
                                limits=CampaignLimits(max_frames=50))
        result = campaign.run()
        assert result.frames_sent == 0
        assert result.write_errors.get("PCAN_ERROR_INITIALIZE", 0) > 0
