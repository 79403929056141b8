"""Tests for capture, id statistics, byte profiling and diffing."""

import pytest

from repro.analysis.bytefield import profile_id
from repro.analysis.capture import BusCapture
from repro.analysis.diffing import diff_captures
from repro.analysis.idstats import observed_ids
from repro.can.frame import CanFrame, TimestampedFrame
from repro.can.node import CanController
from repro.sim.clock import MS


@pytest.fixture
def sender(bus):
    node = CanController("sender")
    node.attach(bus)
    return node


class TestBusCapture:
    def test_records_traffic(self, sim, bus, sender):
        capture = BusCapture(bus)
        sender.send(CanFrame(0x100, b"\x01"))
        sender.send(CanFrame(0x200, b"\x02"))
        sim.run_for(5 * MS)
        assert len(capture) == 2
        assert [f.can_id for f in capture.frames()] == [0x100, 0x200]

    def test_limit_keeps_most_recent(self, sim, bus, sender):
        capture = BusCapture(bus, limit=3)
        for i in range(6):
            sender.send(CanFrame(0x100 + i))
        sim.run_for(10 * MS)
        assert [f.can_id for f in capture.frames()] == [0x103, 0x104, 0x105]

    def test_pause_resume(self, sim, bus, sender):
        capture = BusCapture(bus)
        capture.pause()
        sender.send(CanFrame(0x100))
        sim.run_for(2 * MS)
        capture.resume()
        sender.send(CanFrame(0x200))
        sim.run_for(2 * MS)
        assert [f.can_id for f in capture.frames()] == [0x200]

    def test_paper_table_export(self, sim, bus, sender):
        capture = BusCapture(bus)
        sender.send(CanFrame(0x43A, bytes.fromhex("1c21177117 71ffff"
                                                  .replace(" ", ""))))
        sim.run_for(5 * MS)
        table = capture.as_paper_table()
        assert "043A" in table
        assert "1C 21 17 71" in table

    def test_invalid_limit_rejected(self, bus):
        with pytest.raises(ValueError):
            BusCapture(bus, limit=0)


def stamped_sequence(spec):
    """Build TimestampedFrames from (time_ms, id, data) tuples."""
    return [TimestampedFrame(round(t * MS), CanFrame(i, d))
            for t, i, d in spec]


class TestIdStats:
    def test_observed_ids(self):
        stamped = stamped_sequence([(1, 0x200, b""), (2, 0x100, b""),
                                    (3, 0x200, b"")])
        assert observed_ids(stamped) == (0x100, 0x200)


class TestByteFieldProfile:
    def test_classifications(self):
        stamped = stamped_sequence([
            (t, 0x300, bytes((0x5A, t % 256, (7 * t) % 256)))
            for t in range(50)])
        profile = profile_id(stamped, 0x300)
        assert profile.positions[0].classification == "constant"
        assert profile.positions[1].classification == "counter"
        assert profile.positions[2].classification == "variable"

    def test_lengths_recorded(self):
        stamped = stamped_sequence([(1, 0x300, b"\x01"),
                                    (2, 0x300, b"\x01\x02")])
        profile = profile_id(stamped, 0x300)
        assert profile.length_values == (1, 2)

    def test_min_max(self):
        stamped = stamped_sequence([(1, 0x300, b"\x10"),
                                    (2, 0x300, b"\x30")])
        position = profile_id(stamped, 0x300).positions[0]
        assert (position.minimum, position.maximum) == (0x10, 0x30)

    def test_missing_id_rejected(self):
        with pytest.raises(ValueError):
            profile_id([], 0x300)


class TestCaptureDiff:
    def test_new_id_detected(self):
        baseline = stamped_sequence([(1, 0x100, b"\x00")])
        observed = stamped_sequence([(1, 0x100, b"\x00"),
                                     (2, 0x215, b"\x20")])
        diff = diff_captures(baseline, observed)
        assert diff.new_ids == (0x215,)

    def test_changed_byte_detected(self):
        """The lock-command hunt: byte 0 of 0x215 changes when the
        feature is operated."""
        baseline = stamped_sequence([(t, 0x215, b"\x00\x5f")
                                     for t in range(5)])
        observed = stamped_sequence([(1, 0x215, b"\x00\x5f"),
                                     (2, 0x215, b"\x20\x5f")])
        diff = diff_captures(baseline, observed)
        changes = diff.changed_bytes[0x215]
        assert changes[0].position == 0
        assert changes[0].observed_values == (0x00, 0x20)

    def test_vanished_ids(self):
        baseline = stamped_sequence([(1, 0x100, b""), (2, 0x200, b"")])
        observed = stamped_sequence([(1, 0x100, b"")])
        diff = diff_captures(baseline, observed)
        assert diff.vanished_ids == (0x200,)

    def test_unchanged_traffic_yields_empty_diff(self):
        capture = stamped_sequence([(t, 0x100, b"\x01") for t in range(5)])
        diff = diff_captures(capture, capture)
        assert diff.new_ids == ()
        assert diff.changed_bytes == {}

    def test_longer_payload_counts_as_change(self):
        baseline = stamped_sequence([(1, 0x100, b"\x01")])
        observed = stamped_sequence([(1, 0x100, b"\x01\xff")])
        diff = diff_captures(baseline, observed)
        assert diff.changed_bytes[0x100][0].position == 1
