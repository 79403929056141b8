"""Cross-module integration tests: the paper's experiments end-to-end."""

import random

import pytest

from repro.analysis.capture import BusCapture
from repro.analysis.idstats import observed_ids
from repro.fuzz.campaign import CampaignLimits, FuzzCampaign
from repro.fuzz.config import FuzzConfig
from repro.fuzz.generator import RandomFrameGenerator, TargetedFrameGenerator
from repro.fuzz.minimize import minimize_trace
from repro.fuzz.oracle import PhysicalStateOracle
from repro.sim.clock import MS, SECOND
from repro.sim.random import RandomStreams
from repro.testbench.bench import UnlockTestbench
from repro.vehicle.car import TargetCar
from repro.vehicle.cluster import CRASH_DISPLAY_FAULT
from repro.vehicle.database import BODY_COMMAND_ID, UNLOCK_COMMAND
from repro.vehicle.simulator import VehicleSimulator


def idling_car(seed=1, warmup=2.0):
    car = TargetCar(seed=seed)
    car.ignition_on()
    car.run_seconds(warmup)
    return car


class TestFuzzingTheVehicleSimulator:
    """§VI: 'the simulator responds erratically when the fuzzer is
    running and injecting CAN packets.'"""

    def test_signals_get_rough_under_fuzzing(self):
        car = idling_car()
        view = VehicleSimulator(car.database,
                                [car.powertrain_bus, car.body_bus])
        car.run_seconds(3.0)   # normal period traced
        normal_end = car.sim.now / SECOND

        adapter = car.obd_adapter("powertrain")
        generator = RandomFrameGenerator(
            FuzzConfig(), RandomStreams(5).stream("fuzzer"))
        campaign = FuzzCampaign(
            car.sim, adapter, generator,
            limits=CampaignLimits(max_duration=3 * SECOND,
                                  stop_on_finding=False))
        campaign.run()

        trace = view.trace("EngineSpeed")
        normal = trace.windowed(normal_end - 3.0, normal_end)
        fuzzed = trace.windowed(normal_end, normal_end + 3.0)
        assert fuzzed.roughness() > 10 * normal.roughness()

    def test_physically_invalid_rpm_displayed(self):
        """Fig 8: a negative RPM reaches the display unclamped."""
        car = idling_car()
        view = VehicleSimulator(car.database, [car.powertrain_bus])
        car.run_seconds(0.1)
        # Silence the real engine ECU so the spoofed value stays on
        # the display instead of being overwritten 10 ms later.
        car.engine.power_off()
        adapter = car.obd_adapter("powertrain")
        payload = car.database.by_name("ENGINE_STATUS").encode(
            {"EngineSpeed": -1250.0})
        from repro.can.frame import CanFrame
        adapter.write(CanFrame(0x0C9, payload))
        car.run_seconds(0.05)
        assert view.trace("EngineSpeed").minimum() == -1250.0
        panel = view.render_panel()
        assert "-1250.0" in panel


class TestFuzzingTheCluster:
    """§VI: fuzzing the instrument cluster -> MILs, sounds, the
    latched 'crash' display (Fig 9)."""

    def fuzz_body_bus(self, car, seconds=5.0, seed=3):
        adapter = car.obd_adapter("body")
        generator = RandomFrameGenerator(
            FuzzConfig(), RandomStreams(seed).stream("fuzzer"))
        campaign = FuzzCampaign(
            car.sim, adapter, generator,
            limits=CampaignLimits(
                max_duration=round(seconds * SECOND),
                stop_on_finding=False))
        return campaign.run()

    def test_cluster_suffers_under_fuzzing(self):
        car = idling_car(seed=2)
        self.fuzz_body_bus(car, seconds=8.0)
        cluster = car.cluster
        # Any of the paper's observed symptoms must have appeared;
        # with 8000 random frames the latch (~8000/2048/9 hits of the
        # empty-display trigger) is effectively certain.
        assert (CRASH_DISPLAY_FAULT in cluster.latched_flags
                or cluster.mils or cluster.state.value == "crashed")

    def test_crash_display_latches_through_power_cycle(self):
        car = idling_car(seed=2)
        # Fuzz seed 4 is known to hit the zero-DLC display defect
        # within 8 s; the latch behaviour under test is deterministic
        # once the defect fires.
        self.fuzz_body_bus(car, seconds=8.0, seed=4)
        cluster = car.cluster
        assert CRASH_DISPLAY_FAULT in cluster.latched_flags
        cluster.power_cycle()
        car.run_seconds(0.2)
        assert cluster.display_text == "crash"
        assert cluster.mils == set()  # MILs cleared, crash text not


class TestTargetedFuzzingWorkflow:
    """§VII: capture -> observed ids -> fuzz 'around known message
    ids monitored on the CAN bus'."""

    def test_capture_then_targeted_fuzz(self):
        car = idling_car(seed=4)
        capture = BusCapture(car.powertrain_bus, limit=5000)
        car.run_seconds(2.0)
        known = observed_ids(capture.stamped)
        assert known  # residual traffic was captured

        adapter = car.obd_adapter("powertrain")
        generator = TargetedFrameGenerator(
            known, FuzzConfig(), RandomStreams(8).stream("fuzzer"))
        seen_ids = set()
        car.powertrain_bus.add_tap(
            lambda s: seen_ids.add(s.frame.can_id)
            if s.sender.startswith("adapter") else None)
        campaign = FuzzCampaign(
            car.sim, adapter, generator,
            limits=CampaignLimits(max_frames=500, stop_on_finding=False))
        campaign.run()
        assert seen_ids <= set(known)


class TestGatewayFirewall:
    """Further-work item 1: a firewall between buses defeats the
    cross-bus unlock."""

    def test_firewall_blocks_unlock_from_powertrain(self):
        from repro.can.frame import CanFrame
        car = idling_car(seed=5)
        car.gateway.set_firewall(to_b=(), to_a=())
        adapter = car.obd_adapter("powertrain")
        adapter.write(CanFrame(BODY_COMMAND_ID,
                               bytes((UNLOCK_COMMAND,)) + bytes(6)))
        car.run_seconds(0.2)
        assert car.bcm.locked
        assert car.gateway.stats_a_to_b.blocked >= 1

    def test_direct_body_bus_access_still_works(self):
        from repro.can.frame import CanFrame
        car = idling_car(seed=5)
        car.gateway.set_firewall(to_b=(), to_a=())
        adapter = car.obd_adapter("body")
        adapter.write(CanFrame(BODY_COMMAND_ID,
                               bytes((UNLOCK_COMMAND,)) + bytes(6)))
        car.run_seconds(0.2)
        assert not car.bcm.locked


class TestMinimisationWorkflow:
    """From a campaign finding back to the minimal triggering frame."""

    def test_minimise_unlock_finding(self):
        from repro.fuzz.oracle import AckMessageOracle
        from repro.testbench.bcm import UNLOCK_ACK_ID

        bench = UnlockTestbench(seed=11, check_mode="byte")
        bench.power_on()
        adapter = bench.attacker_adapter()
        generator = RandomFrameGenerator(
            FuzzConfig(), RandomStreams(42).fork("trial-0").stream("fuzzer"))
        oracle = AckMessageOracle(bench.bus, UNLOCK_ACK_ID,
                                  exclude_sender=adapter.controller.name)
        campaign = FuzzCampaign(
            bench.sim, adapter, generator,
            limits=CampaignLimits(max_duration=600 * SECOND),
            oracles=[oracle])
        result = campaign.run()
        assert result.findings, "fuzzer should unlock within 600 s"
        window = list(result.findings[0].recent_frames)

        def replays(frames):
            probe = UnlockTestbench(seed=11, check_mode="byte")
            probe.power_on()
            probe_adapter = probe.attacker_adapter()
            for frame in frames:
                probe_adapter.write(frame)
                probe.run_seconds(0.002)
            probe.run_seconds(0.05)
            return probe.bcm.led_on

        minimal_trace = minimize_trace(window, replays)
        assert len(minimal_trace) == 1
        culprit = minimal_trace[0]
        assert culprit.can_id == BODY_COMMAND_ID
        assert culprit.data[0] == UNLOCK_COMMAND
