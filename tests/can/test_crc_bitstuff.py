"""Tests for CRC-15, bit helpers and bit-stuffing (fast vs reference)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.can.bitstuff import (
    FRAME_TAIL_BITS,
    fd_frame_bit_length,
)
from repro.can.frame import CanFrame

from .reference import (
    bytes_to_bits,
    count_stuff_bits,
    crc15,
    frame_bit_length_reference,
    frame_stuffable_bits,
    int_to_bits,
)


class TestCrc15:
    def test_empty_is_zero(self):
        assert crc15([]) == 0

    def test_single_one_bit(self):
        # One 1-bit shifts in and XORs the polynomial.
        assert crc15([1]) == 0x4599

    def test_known_vector_is_stable(self):
        bits = bytes_to_bits(b"\x12\x34\x56")
        assert crc15(bits) == crc15(bits)  # deterministic
        assert 0 <= crc15(bits) <= 0x7FFF

    def test_invalid_bit_rejected(self):
        with pytest.raises(ValueError):
            crc15([2])

    @given(st.binary(min_size=1, max_size=16))
    def test_crc_detects_single_bit_flip(self, data):
        bits = bytes_to_bits(data)
        original = crc15(bits)
        flipped = list(bits)
        flipped[0] ^= 1
        assert crc15(flipped) != original

    @given(st.binary(max_size=16))
    def test_crc_within_15_bits(self, data):
        assert 0 <= crc15(bytes_to_bits(data)) <= 0x7FFF


class TestBitHelpers:
    def test_bytes_to_bits_msb_first(self):
        assert bytes_to_bits(b"\x80") == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_int_to_bits(self):
        assert int_to_bits(0b101, 4) == [0, 1, 0, 1]

    def test_int_to_bits_overflow_rejected(self):
        with pytest.raises(ValueError):
            int_to_bits(16, 4)

    def test_int_to_bits_negative_rejected(self):
        with pytest.raises(ValueError):
            int_to_bits(-1, 4)


class TestStuffCounting:
    def test_no_stuffing_needed(self):
        assert count_stuff_bits([0, 1, 0, 1, 0, 1]) == 0

    def test_five_equal_bits_stuff_once(self):
        assert count_stuff_bits([0] * 5) == 1

    def test_stuff_bit_participates_in_next_run(self):
        # 0 0 0 0 0 [stuff=1] 1 1 1 1 -> the stuffed 1 plus four 1s is
        # another run of five -> second stuff bit.
        assert count_stuff_bits([0] * 5 + [1] * 4) == 2

    def test_nine_equal_bits_stuff_twice(self):
        # 00000[1]0000 -> second run of five zeros not reached (only 4).
        assert count_stuff_bits([0] * 9) == 1
        assert count_stuff_bits([0] * 10) == 2


class TestFrameBitLength:
    def test_empty_standard_frame(self):
        frame = CanFrame(0x555, b"")  # alternating id bits: no stuffing
        # SOF+ID+RTR+IDE+r0+DLC+CRC = 34 bits + tail
        length = frame.wire_bit_lengths()[0]
        assert length >= 34 + FRAME_TAIL_BITS

    def test_extended_longer_than_standard(self):
        std = CanFrame(0x123, b"\x01\x02")
        ext = CanFrame(0x123, b"\x01\x02", extended=True)
        assert ext.wire_bit_lengths()[0] > std.wire_bit_lengths()[0]

    @settings(max_examples=300)
    @given(can_id=st.integers(0, 0x7FF), data=st.binary(max_size=8),
           remote=st.booleans())
    def test_property_fast_path_matches_reference_standard(
            self, can_id, data, remote):
        frame = CanFrame(can_id, b"" if remote else data, remote=remote)
        assert frame.wire_bit_lengths() == (
            frame_bit_length_reference(frame, include_ifs=False), 0)

    @settings(max_examples=300)
    @given(can_id=st.integers(0, 0x1FFFFFFF), data=st.binary(max_size=8))
    def test_property_fast_path_matches_reference_extended(
            self, can_id, data):
        frame = CanFrame(can_id, data, extended=True)
        assert frame.wire_bit_lengths() == (
            frame_bit_length_reference(frame, include_ifs=False), 0)

    @given(can_id=st.integers(0, 0x7FF), data=st.binary(max_size=8))
    def test_property_length_bounds(self, can_id, data):
        """Stuffing can add at most one bit per four bits of payload."""
        frame = CanFrame(can_id, data)
        unstuffed = len(frame_stuffable_bits(frame))
        total = frame.wire_bit_lengths()[0]
        assert unstuffed + FRAME_TAIL_BITS <= total
        assert total <= unstuffed + unstuffed // 4 + FRAME_TAIL_BITS + 1


class TestFdLength:
    def test_no_brs_single_phase(self):
        arb, data = fd_frame_bit_length(CanFrame(1, bytes(16), fd=True))
        assert data == 0
        assert arb > 16 * 8

    def test_brs_splits_phases(self):
        arb, data = fd_frame_bit_length(
            CanFrame(1, bytes(16), fd=True, brs=True))
        assert data >= 16 * 8
        assert arb < data
