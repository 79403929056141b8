"""Tests for bit timing and frame durations."""

import pytest

from repro.can.frame import CanFrame
from repro.can.timing import BitTiming, CAN_125K, CAN_500K, CAN_1M


class TestBitTiming:

    def test_bits_to_ticks_rounds_up(self):
        # 3 bits at 1 Mb/s = 3 us exactly; 3 bits at 400 kb/s = 7.5 -> 8.
        assert CAN_1M.bits_to_ticks(3) == 3
        assert BitTiming(bitrate=400_000).bits_to_ticks(3) == 8

    def test_invalid_bitrate_rejected(self):
        with pytest.raises(ValueError):
            BitTiming(bitrate=0)

    def test_fd_data_rate_must_be_at_least_nominal(self):
        with pytest.raises(ValueError):
            BitTiming(bitrate=500_000, data_bitrate=250_000)


class TestFrameDuration:
    def test_eight_byte_frame_at_500k_plausible(self):
        """An 8-byte standard frame is 111-135 bits incl. stuffing;
        at 2 us/bit that is 222-270 us."""
        duration = CAN_500K.frame_duration(CanFrame(0x7FF, bytes(8)))
        assert 222 <= duration <= 270

    def test_duration_scales_inversely_with_bitrate(self):
        frame = CanFrame(0x123, b"\x01\x02\x03")
        assert CAN_125K.frame_duration(frame) == pytest.approx(
            4 * CAN_500K.frame_duration(frame), abs=4)

    def test_longer_payload_takes_longer(self):
        short = CAN_500K.frame_duration(CanFrame(0x123, b"\x55"))
        long = CAN_500K.frame_duration(CanFrame(0x123, b"\x55" * 8))
        assert long > short

    def test_fd_brs_is_faster_than_classic_rate_for_big_payload(self):
        fd_timing = BitTiming(bitrate=500_000, data_bitrate=2_000_000)
        fd_frame = CanFrame(0x123, bytes(32), fd=True, brs=True)
        no_brs = CanFrame(0x123, bytes(32), fd=True)
        assert (fd_timing.frame_duration(fd_frame)
                < fd_timing.frame_duration(no_brs))

    def test_error_frame_duration(self):
        assert CAN_500K.error_frame_duration() == 46  # 23 bits at 2 us
