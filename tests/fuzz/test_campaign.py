"""Tests for the fuzz campaign runner."""

import random

import pytest

from repro.can.adapter import PcanStyleAdapter
from repro.can.frame import CanFrame
from repro.can.node import CanController
from repro.fuzz.campaign import CampaignLimits, FuzzCampaign
from repro.fuzz.config import FuzzConfig
from repro.fuzz.generator import RandomFrameGenerator
from repro.fuzz.oracle import AckMessageOracle, PhysicalStateOracle
from repro.sim.clock import MS, SECOND


@pytest.fixture
def adapter(bus):
    device = PcanStyleAdapter(bus)
    device.initialize()
    return device


def make_generator(seed=1, **config_kwargs):
    return RandomFrameGenerator(FuzzConfig(**config_kwargs),
                                random.Random(seed))


class TestLimits:
    def test_at_least_one_bound_required(self):
        with pytest.raises(ValueError):
            CampaignLimits()

    def test_positive_bounds_required(self):
        with pytest.raises(ValueError):
            CampaignLimits(max_frames=0)
        with pytest.raises(ValueError):
            CampaignLimits(max_duration=-1)

    def test_frame_limit_stops_campaign(self, sim, adapter):
        campaign = FuzzCampaign(sim, adapter, make_generator(),
                                limits=CampaignLimits(max_frames=100))
        result = campaign.run()
        assert result.frames_sent == 100
        assert result.stop_reason == "frame limit reached"

    def test_duration_limit_stops_campaign(self, sim, adapter):
        campaign = FuzzCampaign(
            sim, adapter, make_generator(),
            limits=CampaignLimits(max_duration=50 * MS))
        result = campaign.run()
        assert result.stop_reason == "time limit reached"
        assert 45 <= result.frames_sent <= 52

    def test_generator_exhaustion_stops_campaign(self, sim, adapter):
        class TenFrames:
            def __init__(self):
                self._frames = iter([CanFrame(1, bytes((i,)))
                                     for i in range(10)])

            def next_frame(self):
                return next(self._frames)

        campaign = FuzzCampaign(sim, adapter, TenFrames(),
                                limits=CampaignLimits(max_frames=10_000))
        result = campaign.run()
        assert result.frames_sent == 10
        assert result.stop_reason == "generator exhausted"


class TestTransmission:
    def test_frames_appear_on_bus(self, sim, bus, adapter):
        seen = []
        bus.add_tap(lambda s: seen.append(s.frame))
        campaign = FuzzCampaign(sim, adapter, make_generator(),
                                limits=CampaignLimits(max_frames=50))
        campaign.run()
        assert len(seen) == 50

    def test_rate_is_one_per_interval(self, sim, bus, adapter):
        times = []
        bus.add_tap(lambda s: times.append(s.time))
        campaign = FuzzCampaign(sim, adapter, make_generator(),
                                limits=CampaignLimits(max_frames=20),
                                interval=2 * MS)
        campaign.run()
        # Taps fire at end-of-frame, so gaps shrink/stretch by the
        # difference in frame durations (up to ~270 us at 500 kb/s).
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(2 * MS - 300 <= g <= 2 * MS + 300 for g in gaps)

    def test_interval_below_1ms_rejected(self, sim, adapter):
        with pytest.raises(ValueError):
            FuzzCampaign(sim, adapter, make_generator(),
                         limits=CampaignLimits(max_frames=1),
                         interval=500)

    def test_jitter_requires_rng(self, sim, adapter):
        with pytest.raises(ValueError):
            FuzzCampaign(sim, adapter, make_generator(),
                         limits=CampaignLimits(max_frames=1),
                         interval_jitter=100)

    def test_jitter_spreads_intervals(self, sim, bus, adapter):
        times = []
        bus.add_tap(lambda s: times.append(s.time))
        campaign = FuzzCampaign(sim, adapter, make_generator(),
                                limits=CampaignLimits(max_frames=50),
                                interval_jitter=1 * MS,
                                rng=random.Random(3))
        campaign.run()
        gaps = {b - a for a, b in zip(times, times[1:])}
        assert len(gaps) > 5  # not a fixed 1 ms grid


class TestFindings:
    def test_stop_on_finding(self, sim, bus, adapter):
        responder = CanController("responder")
        responder.attach(bus)
        # Respond to any frame with the ack id.
        responder.set_rx_handler(
            lambda s: responder.send(CanFrame(0x3A5, b"\x01")))
        oracle = AckMessageOracle(bus, 0x3A5,
                                  exclude_sender=adapter.controller.name)
        campaign = FuzzCampaign(sim, adapter, make_generator(),
                                limits=CampaignLimits(max_frames=1000,
                                                      stop_on_finding=True),
                                oracles=[oracle])
        result = campaign.run()
        assert len(result.findings) == 1
        assert result.frames_sent < 1000
        assert "finding" in result.stop_reason

    def test_finding_carries_recent_frames(self, sim, bus, adapter):
        responder = CanController("responder")
        responder.attach(bus)
        hits = []

        def maybe_ack(stamped):
            if stamped.frame.can_id == 0x111:
                hits.append(1)
                responder.send(CanFrame(0x3A5, b"\x01"))

        responder.set_rx_handler(maybe_ack)
        oracle = AckMessageOracle(bus, 0x3A5,
                                  exclude_sender=adapter.controller.name)
        campaign = FuzzCampaign(
            sim, adapter,
            make_generator(id_min=0x110, id_max=0x112),
            limits=CampaignLimits(max_frames=1000),
            oracles=[oracle], recent_window=8)
        result = campaign.run()
        finding = result.findings[0]
        assert 0 < len(finding.recent_frames) <= 8
        assert any(f.can_id == 0x111 for f in finding.recent_frames)

    def test_finding_records_transmit_timestamps(self, sim, bus, adapter):
        responder = CanController("responder")
        responder.attach(bus)
        responder.set_rx_handler(
            lambda s: responder.send(CanFrame(0x3A5, b"\x01")))
        oracle = AckMessageOracle(bus, 0x3A5,
                                  exclude_sender=adapter.controller.name)
        campaign = FuzzCampaign(sim, adapter, make_generator(),
                                limits=CampaignLimits(max_frames=100),
                                oracles=[oracle], recent_window=8)
        result = campaign.run()
        finding = result.findings[0]
        times = finding.recent_times
        assert len(times) == len(finding.recent_frames)
        assert all(a <= b for a, b in zip(times, times[1:]))
        assert times[-1] <= finding.time

    def test_continue_with_reset_hook(self, sim, bus, adapter):
        responder = CanController("responder")
        responder.attach(bus)
        responder.set_rx_handler(
            lambda s: responder.send(CanFrame(0x3A5, b"\x01")))
        resets = []
        oracle = AckMessageOracle(bus, 0x3A5, once=False,
                                  exclude_sender=adapter.controller.name)
        campaign = FuzzCampaign(
            sim, adapter, make_generator(),
            limits=CampaignLimits(max_frames=30, stop_on_finding=False),
            oracles=[oracle],
            reset_target=lambda: resets.append(sim.now))
        result = campaign.run()
        assert result.frames_sent == 30
        assert len(result.findings) >= 25
        assert len(resets) == len(result.findings)


class TestResult:
    def test_result_metadata(self, sim, adapter):
        campaign = FuzzCampaign(sim, adapter, make_generator(),
                                limits=CampaignLimits(max_frames=10),
                                name="my-run")
        result = campaign.run()
        assert result.name == "my-run"
        assert result.frames_sent == 10
        assert result.duration_seconds > 0
        assert result.config_rows  # Table III rows captured

    def test_frames_per_second_near_rate(self, sim, adapter):
        campaign = FuzzCampaign(sim, adapter, make_generator(),
                                limits=CampaignLimits(max_frames=200))
        result = campaign.run()
        assert result.frames_per_second == pytest.approx(1000, rel=0.1)

    def test_bus_off_adapter_aborts(self, sim, bus, adapter):
        bus.fault_injector = lambda frame: True  # everything corrupts
        campaign = FuzzCampaign(sim, adapter, make_generator(),
                                limits=CampaignLimits(
                                    max_duration=5 * SECOND))
        result = campaign.run()
        assert result.stop_reason == "adapter bus-off"
        assert result.write_errors.get("PCAN_ERROR_BUSOFF", 0) >= 1
