"""Tests for the adversarial channel model and the bus's verdict path."""

import random

import pytest

from repro.can.channel import (
    AdversarialChannel,
    ChannelConfig,
    ChannelVerdict,
)
from repro.can.frame import CanFrame
from repro.can.node import CanController
from repro.sim.clock import MS
from repro.sim.random import RandomStreams

from .helpers import BabblingIdiot


def _channel(seed: int = 0, **kwargs) -> AdversarialChannel:
    return AdversarialChannel(ChannelConfig(**kwargs),
                              RandomStreams(seed).stream("channel"))


def _frames(count: int, seed: int = 3) -> list[CanFrame]:
    rng = random.Random(seed)
    return [CanFrame(rng.randrange(0x800),
                     bytes(rng.randrange(256) for _ in range(8)))
            for _ in range(count)]


class TestChannelConfig:
    def test_defaults_are_a_perfect_wire(self):
        config = ChannelConfig()
        assert config.ber == 0.0
        assert config.ack_loss == 0.0
        assert config.jam_rate == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"ber": 1.0},
        {"ber": -0.1},
        {"burst_ber": 1.0},
        {"burst_enter": 1.5},
        {"burst_exit": -0.5},
        {"ack_loss": 2.0},
        {"jam_rate": -1.0},
        {"jam_duration": 0},
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChannelConfig(**kwargs)

    def test_describe_rows_cover_every_knob(self):
        rows = ChannelConfig(ber=1e-4).describe()
        assert len(rows) == 4
        assert all(row[0] == "channel" for row in rows)


class TestVerdicts:
    def test_perfect_wire_is_all_ok(self):
        channel = _channel()
        for i, frame in enumerate(_frames(50)):
            assert channel.classify(frame, i * 300) is ChannelVerdict.OK
        assert channel.frames_seen == 50
        assert channel.frames_corrupted == 0

    def test_high_ber_corrupts(self):
        channel = _channel(ber=0.01)
        verdicts = [channel.classify(frame, i * 300)
                    for i, frame in enumerate(_frames(200))]
        assert verdicts.count(ChannelVerdict.CORRUPT) > 0
        assert channel.frames_corrupted == verdicts.count(
            ChannelVerdict.CORRUPT)

    def test_certain_ack_loss(self):
        channel = _channel(ack_loss=1.0)
        frame = CanFrame(0x100, b"\x01")
        assert channel.classify(frame, 0) is ChannelVerdict.ACK_LOST
        assert channel.acks_lost == 1

    def test_same_seed_same_verdict_stream(self):
        frames = _frames(300)
        a = [_channel(7, ber=2e-3, burst_ber=0.05, burst_enter=0.05,
                      burst_exit=0.3, ack_loss=0.01).classify(f, i * 250)
             for i, f in enumerate(frames)]
        b = [_channel(7, ber=2e-3, burst_ber=0.05, burst_enter=0.05,
                      burst_exit=0.3, ack_loss=0.01).classify(f, i * 250)
             for i, f in enumerate(frames)]
        assert a == b

    def test_longer_frames_corrupt_more_often(self):
        short = CanFrame(0x100, b"")
        long = CanFrame(0x100, b"\xff" * 8)
        hits = {"short": 0, "long": 0}
        for name, frame in (("short", short), ("long", long)):
            channel = _channel(5, ber=5e-3)
            for i in range(2000):
                if channel.classify(frame, i * 300) is ChannelVerdict.CORRUPT:
                    hits[name] += 1
        assert hits["long"] > hits["short"]


class TestBurstChain:
    def test_burst_entered_and_left(self):
        channel = _channel(burst_ber=0.5, burst_enter=1.0, burst_exit=1.0)
        frame = CanFrame(0x100, b"\x00")
        assert not channel.in_burst
        channel.classify(frame, 0)
        assert channel.in_burst
        channel.classify(frame, 300)
        assert not channel.in_burst
        assert channel.burst_frames == 1

    def test_burst_state_raises_corruption_rate(self):
        frames = _frames(1000)
        quiet = _channel(9, ber=1e-4)
        noisy = _channel(9, ber=1e-4, burst_ber=0.2,
                         burst_enter=0.1, burst_exit=0.1)
        for i, frame in enumerate(frames):
            quiet.classify(frame, i * 300)
            noisy.classify(frame, i * 300)
        assert noisy.frames_corrupted > quiet.frames_corrupted


class TestJamming:
    def test_jam_now_corrupts_until_deadline(self):
        channel = _channel()
        frame = CanFrame(0x100, b"\x00")
        channel.jam_now(1000, 2 * MS)
        assert channel.classify(frame, 1500) is ChannelVerdict.CORRUPT
        assert channel.classify(frame, 1000 + 2 * MS) is ChannelVerdict.OK
        assert channel.jam_corruptions == 1

    def test_jam_rate_produces_windows_deterministically(self):
        def run(seed):
            channel = _channel(seed, jam_rate=100.0, jam_duration=2 * MS)
            return [channel.classify(frame, i * 500)
                    for i, frame in enumerate(_frames(2000))]

        first, second = run(11), run(11)
        assert first == second
        assert first.count(ChannelVerdict.CORRUPT) > 0

    def test_no_jam_events_scheduled_when_idle(self):
        # Lazy sampling: a jam-configured channel holds no timers; the
        # next window is only materialised when a frame transmits.
        channel = _channel(jam_rate=50.0)
        assert channel._next_jam_at is None
        channel.classify(CanFrame(0x100), 0)
        assert channel._next_jam_at is not None


class TestCheckpointState:
    def test_state_roundtrip_resumes_verdict_stream(self):
        frames = _frames(200)
        original = _channel(21, ber=2e-3, burst_ber=0.1, burst_enter=0.05,
                            burst_exit=0.2, ack_loss=0.02,
                            jam_rate=20.0)
        for i, frame in enumerate(frames[:100]):
            original.classify(frame, i * 400)
        saved = original.state_dict()
        tail = [original.classify(frame, (100 + i) * 400)
                for i, frame in enumerate(frames[100:])]

        resumed = _channel(99, ber=2e-3, burst_ber=0.1, burst_enter=0.05,
                           burst_exit=0.2, ack_loss=0.02,
                           jam_rate=20.0)
        resumed.load_state(saved)
        replayed = [resumed.classify(frame, (100 + i) * 400)
                    for i, frame in enumerate(frames[100:])]
        assert replayed == tail
        assert resumed.state_digest() == original.state_digest()

    def test_state_dict_is_json_ready(self):
        import json

        channel = _channel(3, ber=1e-3)
        channel.classify(CanFrame(0x1), 0)
        assert json.loads(json.dumps(channel.state_dict())) \
            == channel.state_dict()

    def test_digest_tracks_state(self):
        a, b = _channel(5, ber=1e-2), _channel(5, ber=1e-2)
        assert a.state_digest() == b.state_digest()
        a.classify(CanFrame(0x100, b"\xff" * 8), 0)
        assert a.state_digest() != b.state_digest()


class ScriptedChannel:
    """Returns a fixed verdict sequence (then OK forever)."""

    def __init__(self, *verdicts: ChannelVerdict) -> None:
        self._verdicts = list(verdicts)

    def classify(self, frame, now):
        if self._verdicts:
            return self._verdicts.pop(0)
        return ChannelVerdict.OK


class TestBusIntegration:
    def test_corrupt_charges_sender_and_receivers_then_retransmits(
            self, sim, bus, node_pair):
        a, b = node_pair
        bus.attach_channel(ScriptedChannel(ChannelVerdict.CORRUPT))
        a.send(CanFrame(0x100, b"\x01"))
        sim.run_for(5 * MS)
        # First attempt errored (TEC += 8), the automatic retry landed
        # (TEC -= 1) and the receiver's REC went +1 then -1 on delivery.
        assert b.rx_count == 1
        assert a.retransmissions == 1
        assert a.counters.tec == 7
        assert b.counters.rec == 0

    def test_corrupt_receiver_rec_sticks_without_delivery(
            self, sim, bus, node_pair):
        a, b = node_pair
        bus.attach_channel(ScriptedChannel(*([ChannelVerdict.CORRUPT] * 3)))
        a.retransmit_limit = 0
        a.send(CanFrame(0x100, b"\x01"))
        sim.run_for(5 * MS)
        assert b.rx_count == 0
        assert b.counters.rec == 1

    def test_disabled_receiver_not_charged(self, sim, bus, node_pair):
        a, b = node_pair
        c = CanController("node-c")
        c.attach(bus)
        c.enabled = False
        bus.attach_channel(ScriptedChannel(ChannelVerdict.CORRUPT))
        a.send(CanFrame(0x100, b"\x01"))
        sim.run_for(5 * MS)
        assert b.counters.rec == 0  # +1 on error, -1 on the retry delivery
        assert c.counters.rec == 0  # never charged at all

    def test_ack_lost_sender_errors_receiver_unaffected(
            self, sim, bus, node_pair):
        a, b = node_pair
        bus.attach_channel(ScriptedChannel(ChannelVerdict.ACK_LOST))
        a.send(CanFrame(0x100, b"\x01"))
        sim.run_for(5 * MS)
        # The ack-lost attempt must not deliver and must not charge the
        # receiver; only the sender errors and retransmits.
        assert b.rx_count == 1  # the retry, not the first attempt
        assert a.retransmissions == 1
        assert a.counters.tec == 7
        assert b.counters.rec == 0

    def test_detach_restores_perfect_wire(self, sim, bus, node_pair):
        a, b = node_pair
        bus.attach_channel(ScriptedChannel(*([ChannelVerdict.CORRUPT] * 8)))
        bus.detach_channel()
        assert bus.channel is None
        a.send(CanFrame(0x100, b"\x01"))
        sim.run_for(5 * MS)
        assert b.rx_count == 1
        assert a.counters.tec == 0


class TestBabblingIdiot:
    def test_babbler_starves_lower_priority_traffic(self, sim, bus):
        victim = CanController("victim")
        victim.attach(bus)
        listener = CanController("listener")
        listener.attach(bus)
        babbler = BabblingIdiot(sim, bus, period=200)
        babbler.start()
        sim.run_for(2 * MS)
        victim.send(CanFrame(0x700, b"\x01"))
        sim.run_for(10 * MS)
        babbler.stop()
        assert babbler.frames_babbled > 10
        # Id 0 wins every arbitration round; the victim's frame is
        # still queued behind the babble.
        assert victim.tx_count == 0
        assert victim.pending_tx() == 1

    def test_stop_silences_the_babbler(self, sim, bus):
        listener = CanController("listener")
        listener.attach(bus)
        babbler = BabblingIdiot(sim, bus, period=500)
        babbler.start()
        sim.run_for(5 * MS)
        babbler.stop()
        before = listener.rx_count
        sim.run_for(5 * MS)
        assert listener.rx_count == before

    def test_intermittent_duty_needs_rng(self, sim, bus):
        with pytest.raises(ValueError):
            BabblingIdiot(sim, bus, duty=0.5)
        babbler = BabblingIdiot(sim, bus, duty=0.5,
                                rng=random.Random(4), period=500)
        babbler.start()
        sim.run_for(10 * MS)
        assert 0 < babbler.frames_babbled < 20
