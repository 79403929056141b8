"""Tests for campaign self-healing and the fault-injection gates.

Three acceptance gates ride at the bottom of this file:

- **determinism** -- identical seeds and channel config produce a
  bit-identical campaign record, including a kill-resume through the
  durable journal and a snapshot-restore, both with a live channel;
- **recovery** -- a campaign that drives the target BCM to bus-off
  survives it, logs the episode, and still finds the unlock
  vulnerability after the node recovers;
- **false positives** -- findings made across a noisy channel
  (BER >= 1e-3) only count when they survive a clean-channel replay;
  noise artefacts are filtered and counted.
"""

import pytest

from repro.can.channel import (
    AdversarialChannel,
    ChannelConfig,
    ChannelVerdict,
)
from repro.can.adapter import PcanStyleAdapter
from repro.can.bus import CanBus
from repro.can.errors import ErrorState
from repro.can.frame import CanFrame
from repro.can.node import CanController
from repro.can.timing import CAN_500K
from repro.fuzz.campaign import CampaignLimits, FuzzCampaign
from repro.fuzz.config import FuzzConfig
from repro.fuzz.durability import CampaignJournal
from repro.fuzz.generator import RandomFrameGenerator
from repro.fuzz.health import (
    BusDownEvent,
    CampaignSupervisor,
    confirm_findings,
)
from repro.fuzz.oracle import AckMessageOracle, Finding, Oracle
from repro.fuzz.parallel import ShardSpec
from repro.sim.clock import MS, SECOND
from repro.sim.kernel import Simulator
from repro.sim.process import PeriodicProcess
from repro.sim.random import RandomStreams
from repro.sim.snapshot import capture
from repro.testbench.bcm import UNLOCK_ACK_ID
from repro.testbench.bench import UnlockTestbench
from repro.testbench.factory import UnlockBenchFactory, UnlockReplayFactory
from repro.vehicle.database import BODY_COMMAND_ID, UNLOCK_COMMAND

from tests.can.helpers import BabblingIdiot

NOISY = ChannelConfig(ber=2e-3, burst_ber=5e-2, burst_enter=0.02,
                      burst_exit=0.2, ack_loss=0.01)

UNLOCK_FRAME = CanFrame(BODY_COMMAND_ID, bytes((UNLOCK_COMMAND, 0x99, 0x01)))


def _spec(seed: int, limits: CampaignLimits) -> ShardSpec:
    return ShardSpec(index=0, seed=seed, limits=limits,
                     shard_count=1, master_seed=seed)


class AlwaysCorrupt:
    def classify(self, frame, now):
        return ChannelVerdict.CORRUPT


def _bare_campaign(*, seed: int = 0, oracles=(), max_duration: int,
                   peer: bool = False):
    """A campaign against a bare bus (no target ECUs)."""
    sim = Simulator()
    bus = CanBus(sim, timing=CAN_500K, name="health")
    adapter = PcanStyleAdapter(bus, channel="PCAN_USBBUS_H")
    adapter.initialize()
    generator = RandomFrameGenerator(
        FuzzConfig.full_range(), RandomStreams(seed).stream("fuzzer"))
    campaign = FuzzCampaign(
        sim, adapter, generator,
        limits=CampaignLimits(max_duration=max_duration,
                              stop_on_finding=False),
        oracles=list(oracles), name="health-test")
    extras = {}
    if peer:
        node = CanController("peer")
        node.attach(bus)
        process = PeriodicProcess(
            sim, 50 * MS, lambda: node.send(CanFrame(0x300, b"\x01")),
            label="peer:cyclic")
        process.start()
        extras["peer"] = node
        extras["peer_process"] = process
    return sim, bus, campaign, extras


class TestBusDownEvent:
    def test_roundtrip(self):
        event = BusDownEvent(time=123, reason="peer bus-off",
                             utilisation=0.97, detail="node x")
        assert BusDownEvent.from_dict(event.to_dict()) == event

    def test_event_cap_counts_overflow(self, bus):
        supervisor = CampaignSupervisor(bus, max_recorded_events=2)
        for i in range(5):
            supervisor._record_event(BusDownEvent(
                time=i, reason="adapter bus-off", utilisation=0.0))
        assert len(supervisor.events) == 2
        assert supervisor.events_total == 5
        assert supervisor.health_dict()["bus_down_events_total"] == 5


class TestDetection:
    def test_utilisation_saturation_backoff_and_resume(self):
        sim, bus, campaign, _ = _bare_campaign(max_duration=2 * SECOND)
        # Long silence_timeout: this bare bus has no peer once the
        # babbler stops, and the test isolates utilisation detection.
        supervisor = CampaignSupervisor(bus, check_period=20 * MS,
                                        quarantine_duration=200 * MS,
                                        silence_timeout=5 * SECOND)
        campaign.oracles.append(supervisor)
        babbler = BabblingIdiot(sim, bus, period=200)
        sim.call_after(500 * MS, babbler.start)
        sim.call_after(1 * SECOND, babbler.stop)
        base_interval = campaign.interval
        result = campaign.run()
        assert result.stop_reason == "time limit reached"
        reasons = {event.reason for event in supervisor.events}
        assert "utilisation saturation" in reasons
        assert supervisor.resumes >= 1
        assert campaign.interval == base_interval  # backoff undone
        health = result.health["campaign-health"]
        assert health["bus_down_events"]
        assert not health["degraded"]

    def test_target_silence_detected(self):
        sim, bus, campaign, extras = _bare_campaign(
            max_duration=2 * SECOND, peer=True)
        supervisor = CampaignSupervisor(bus, check_period=50 * MS,
                                        silence_timeout=300 * MS)
        campaign.oracles.append(supervisor)
        sim.call_after(500 * MS, extras["peer_process"].stop)
        campaign.run()
        reasons = {event.reason for event in supervisor.events}
        assert "target silence" in reasons
        assert supervisor.degraded  # the peer never came back

    def test_peer_bus_off_detected_and_recovery_counted(self):
        sim, bus, campaign, extras = _bare_campaign(
            max_duration=2 * SECOND, peer=True)
        supervisor = CampaignSupervisor(bus, check_period=50 * MS)
        campaign.oracles.append(supervisor)
        peer = extras["peer"]

        def latch() -> None:
            peer.counters.bus_off_latched = True
            extras["peer_process"].stop()  # a bus-off node is silent

        def recover() -> None:
            peer.counters.recover()
            extras["peer_process"].start()

        sim.call_after(500 * MS, latch)
        sim.call_after(1 * SECOND, recover)
        campaign.run()
        reasons = {event.reason for event in supervisor.events}
        assert "peer bus-off" in reasons
        assert supervisor.peer_recoveries == 1
        assert supervisor.resumes >= 1

    def test_quarantine_gates_the_dominant_id(self):
        class FixedIdGenerator:
            generated = 0

            def next_frame(self):
                self.generated += 1
                return CanFrame(0x155, b"\xaa")

        sim, bus, campaign, _ = _bare_campaign(max_duration=2 * SECOND)
        campaign.generator = FixedIdGenerator()
        supervisor = CampaignSupervisor(bus, check_period=20 * MS,
                                        quarantine_duration=300 * MS)
        campaign.oracles.append(supervisor)
        babbler = BabblingIdiot(sim, bus, period=200)
        sim.call_after(500 * MS, babbler.start)
        sim.call_after(800 * MS, babbler.stop)
        result = campaign.run()
        # Every recent transmission shares one id, so the quarantine
        # verdict is unambiguous -- and it actually gates frames.
        assert supervisor.ids_quarantined >= 1
        assert supervisor.frames_quarantined > 0
        assert result.frames_skipped == supervisor.frames_quarantined
        # The gate expired and transmission resumed.
        assert result.frames_sent > 0


class TestAdapterBusOffSurvival:
    def test_supervised_campaign_survives(self):
        sim, bus, campaign, _ = _bare_campaign(max_duration=1 * SECOND)
        supervisor = CampaignSupervisor(bus, check_period=50 * MS)
        campaign.oracles.append(supervisor)
        bus.attach_channel(AlwaysCorrupt())
        result = campaign.run()
        assert result.stop_reason == "time limit reached"
        assert supervisor.adapter_busoffs >= 1
        assert supervisor.adapter_resets >= 1
        assert result.write_errors.get("PCAN_ERROR_BUSOFF", 0) >= 1

    def test_unsupervised_campaign_dies(self):
        sim, bus, campaign, _ = _bare_campaign(max_duration=1 * SECOND)
        bus.attach_channel(AlwaysCorrupt())
        result = campaign.run()
        assert result.stop_reason == "adapter bus-off"


class TestConfirmFindings:
    def _finding(self, frame: CanFrame, oracle: str = "test") -> Finding:
        return Finding(time=1 * SECOND, oracle=oracle,
                       description="window under test",
                       recent_frames=(frame,), recent_times=(1 * SECOND,))

    def test_true_finding_confirmed(self):
        report = confirm_findings(
            [self._finding(UNLOCK_FRAME, "unlock-ack")],
            UnlockReplayFactory(seed=7, monitor_limit=64))
        assert len(report.confirmed) == 1
        assert report.noise_filtered == 0

    def test_noise_finding_rejected(self):
        report = confirm_findings(
            [self._finding(CanFrame(0x300, b"\x00"), "error-frames")],
            UnlockReplayFactory(seed=7, monitor_limit=64))
        assert report.confirmed == []
        assert report.noise_filtered == 1
        assert report.to_dict()["rejected_oracles"] == ["error-frames"]


# ----------------------------------------------------------------------
# Acceptance gate 1: determinism with a live channel
# ----------------------------------------------------------------------

GATE_LIMITS = CampaignLimits(max_duration=2 * SECOND,
                             stop_on_finding=False)


def _noisy_factory() -> UnlockBenchFactory:
    return UnlockBenchFactory(channel=NOISY, supervise=True)


class TestDeterminismGate:
    def test_identical_seed_and_channel_identical_record(self):
        first = _noisy_factory()(_spec(7, GATE_LIMITS)).run()
        second = _noisy_factory()(_spec(7, GATE_LIMITS)).run()
        assert first.to_json() == second.to_json()
        # The supervisor's telemetry travelled into the record, so the
        # comparison covers the health counters too.
        assert "campaign-health" in first.health

    def test_kill_resume_with_live_channel(self, tmp_path):
        class _Bomb(Exception):
            pass

        def build() -> FuzzCampaign:
            return _noisy_factory()(_spec(7, GATE_LIMITS))

        baseline = build().run()
        campaign = build()
        campaign.attach_journal(CampaignJournal(tmp_path),
                                checkpoint_every=300)

        def bomb() -> None:
            raise _Bomb()

        campaign.sim.call_at(campaign.sim.now + 900 * MS, bomb)
        with pytest.raises(_Bomb):
            campaign.run()
        resumed = FuzzCampaign.resume(tmp_path, build)
        assert resumed.to_json() == baseline.to_json()

    def test_snapshot_restore_with_live_channel(self):
        bench = UnlockTestbench(seed=5)
        bench.power_on(settle_seconds=0.2)
        channel = AdversarialChannel(
            NOISY, RandomStreams(5).stream("channel"))
        bench.bus.attach_channel(channel)
        # Let the bench's own cyclic traffic run through the noise.
        bench.sim.run_for(500 * MS)
        snap = capture((bench, channel))
        bench.sim.run_for(500 * MS)
        digest = channel.state_digest()

        clone_bench, clone_channel = snap.restore()
        clone_bench.sim.run_for(500 * MS)
        assert clone_channel.state_digest() == digest
        # The clone diverging did not perturb the original.
        assert channel.state_digest() == digest


# ----------------------------------------------------------------------
# Acceptance gate 2: drive the target to bus-off mid-campaign and
# still find the unlock afterwards
# ----------------------------------------------------------------------

class TestRecoveryGate:
    def test_bcm_bus_off_recovery_end_to_end(self):
        # Seed 3 finds the unlock ~4.3 s in on a clean run; the jam at
        # 1 s (campaign time ~0.5 s) lands well before that.
        bench = UnlockTestbench(seed=3)
        bench.power_on(settle_seconds=0.5)
        adapter = bench.attacker_adapter()
        channel = AdversarialChannel(
            ChannelConfig(), RandomStreams(3).stream("channel"))
        bench.bus.attach_channel(channel)
        generator = RandomFrameGenerator(
            FuzzConfig.full_range(), RandomStreams(3).stream("fuzzer"))
        # The BCM's latched window is short (~8 ms: it latches mid-jam
        # and the recovery sequence completes almost as soon as the jam
        # lifts), so the supervisor must sample faster than that.
        supervisor = CampaignSupervisor(bench.bus, check_period=5 * MS)
        oracles = [
            AckMessageOracle(bench.bus, UNLOCK_ACK_ID,
                             predicate=lambda f: f.data[:1] == b"\x01",
                             exclude_sender=adapter.controller.name,
                             name="unlock-ack"),
            supervisor,
        ]
        campaign = FuzzCampaign(
            bench.sim, adapter, generator,
            limits=CampaignLimits(max_duration=40 * SECOND),
            oracles=oracles, name="recovery-gate", channel=channel)
        sim = bench.sim
        jam_at = sim.now + 1 * SECOND
        sim.call_at(jam_at,
                    lambda: channel.jam_now(sim.now, 30 * MS))

        result = campaign.run()

        # The campaign survived the DoS window and found the unlock
        # after the bus came back.
        assert len(result.findings) == 1
        assert result.findings[0].time > jam_at + 30 * MS
        # The BCM really went bus-off and really recovered.
        bcm = bench.bcm
        assert bench.bcm_supervisor.bus_off_count >= 1
        codes = [d.code for d in bench.bcm_supervisor.dtcs]
        assert "U0001" in codes and "U0001-68" in codes
        assert not bcm.controller.counters.bus_off_latched
        assert bcm.controller.counters.state is ErrorState.ERROR_ACTIVE
        assert bcm.controller.bus_off_recoveries >= 1
        # The supervisor saw it, logged it, backed off and resumed.
        health = result.health["campaign-health"]
        assert any(event["reason"] == "peer bus-off"
                   for event in health["bus_down_events"])
        assert health["resumes"] >= 1
        assert health["ids_quarantined"] >= 1
        # The fuzzer's own adapter also died in the jam and was
        # re-initialised instead of ending the run.
        assert health["adapter_busoffs"] >= 1
        assert health["adapter_resets"] >= 1
        # The finding is real: it survives a clean-channel replay.
        report = confirm_findings(result.findings,
                                  UnlockReplayFactory(seed=3,
                                                      monitor_limit=64))
        assert len(report.confirmed) == 1


# ----------------------------------------------------------------------
# Acceptance gate 3: noisy-channel findings must survive clean replay
# ----------------------------------------------------------------------

class FirstErrorFrame(Oracle):
    """Reports the first error frame on ``bus``."""

    def __init__(self, bus) -> None:
        super().__init__("error-frames")
        self._fired = False
        bus.add_error_tap(self._on_error)

    def _on_error(self, record) -> None:
        if not self._fired:
            self._fired = True
            self.report(record.time, f"error frame from {record.reporter}")


class TestFalsePositiveGate:
    def test_noise_artefacts_filtered_and_counted(self):
        assert NOISY.ber >= 1e-3  # the gate's noise floor
        bench = UnlockTestbench(seed=7)
        bench.power_on(settle_seconds=0.2)
        adapter = bench.attacker_adapter()
        channel = AdversarialChannel(
            NOISY, RandomStreams(7).stream("channel"))
        bench.bus.attach_channel(channel)
        generator = RandomFrameGenerator(
            FuzzConfig.full_range(), RandomStreams(7).stream("fuzzer"))
        oracles = [
            # Deliberately noise-prone: fires on the first error frame,
            # which on this channel is pure wire noise.
            FirstErrorFrame(bench.bus),
            AckMessageOracle(bench.bus, UNLOCK_ACK_ID,
                             predicate=lambda f: f.data[:1] == b"\x01",
                             exclude_sender=adapter.controller.name,
                             name="unlock-ack"),
        ]
        campaign = FuzzCampaign(
            bench.sim, adapter, generator,
            limits=CampaignLimits(max_duration=2 * SECOND,
                                  stop_on_finding=False),
            oracles=oracles, name="fp-gate", channel=channel)
        result = campaign.run()
        noise_findings = [f for f in result.findings
                          if f.oracle == "error-frames"]
        assert noise_findings  # the trap sprang

        # A genuinely-true finding rides along to prove the replay gate
        # separates rather than rejecting everything.
        true_finding = Finding(
            time=1 * SECOND, oracle="unlock-ack",
            description="crafted true positive",
            recent_frames=(UNLOCK_FRAME,), recent_times=(1 * SECOND,))
        report = confirm_findings(
            result.findings + [true_finding],
            UnlockReplayFactory(seed=7, monitor_limit=64))
        # Every noise artefact was filtered and counted; every
        # confirmed finding demonstrably survives the clean channel.
        assert report.noise_filtered == len(noise_findings)
        assert report.confirmed == [true_finding]
        assert report.to_dict()["noise_filtered"] == len(noise_findings)
