"""Equivalence of the memoised frame-duration path with the oracle.

``BitTiming.frame_duration`` caches tick conversions keyed by on-wire
bit count and reads the stuffing-aware length memoised on the frame;
``frame_duration_uncached`` (``tests/can/reference.py``) recomputes
every duration bit by bit as the oracle.  Million-frame campaigns ride
the cached path, so any divergence silently corrupts every timing
result in the simulator.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.can.frame import CanFrame, FD_VALID_SIZES, trusted_frame
from repro.can.timing import (BitTiming, CAN_125K, CAN_500K,
                              DURATION_CACHE_MAX)

from .reference import frame_duration_uncached

CAN_FD_SWITCHED = BitTiming(bitrate=500_000, data_bitrate=2_000_000)


def random_classic_frame(rng):
    can_id = rng.randrange(1 << 11)
    dlc = rng.randrange(9)
    return CanFrame(can_id, rng.randbytes(dlc))


class TestCachedMatchesUncached:
    def test_random_classic_frames(self):
        rng = random.Random(2018)
        timing = BitTiming(bitrate=500_000)
        for _ in range(300):
            frame = random_classic_frame(rng)
            assert (timing.frame_duration(frame)
                    == frame_duration_uncached(timing, frame))
            assert (timing.frame_duration(frame, include_ifs=False)
                    == frame_duration_uncached(timing, frame,
                                               include_ifs=False))

    def test_random_extended_frames(self):
        rng = random.Random(2019)
        timing = BitTiming(bitrate=125_000)
        for _ in range(300):
            frame = CanFrame(rng.randrange(1 << 29),
                             rng.randbytes(rng.randrange(9)),
                             extended=True)
            assert (timing.frame_duration(frame)
                    == frame_duration_uncached(timing, frame))

    def test_fd_frames_with_bit_rate_switch(self):
        rng = random.Random(2020)
        for _ in range(200):
            size = rng.choice(FD_VALID_SIZES)
            frame = CanFrame(rng.randrange(1 << 11),
                             rng.randbytes(size), fd=True)
            assert (CAN_FD_SWITCHED.frame_duration(frame)
                    == frame_duration_uncached(CAN_FD_SWITCHED, frame))

    def test_trusted_frames_share_the_cached_path(self):
        rng = random.Random(2021)
        timing = BitTiming(bitrate=500_000)
        for _ in range(100):
            frame = trusted_frame(rng.randrange(1 << 11),
                                  rng.randbytes(rng.randrange(9)))
            assert (timing.frame_duration(frame)
                    == frame_duration_uncached(timing, frame))

    @settings(max_examples=200, deadline=None)
    @given(can_id=st.integers(0, (1 << 11) - 1),
           data=st.binary(max_size=8),
           include_ifs=st.booleans())
    def test_property_equivalence(self, can_id, data, include_ifs):
        frame = CanFrame(can_id, data)
        assert (CAN_500K.frame_duration(frame, include_ifs=include_ifs)
                == frame_duration_uncached(CAN_500K, frame,
                                           include_ifs=include_ifs))


class TestCacheBehaviour:
    def test_distinct_frames_same_bit_count_share_one_entry(self):
        timing = BitTiming(bitrate=500_000)
        # Same payload length, no stuffing in either: identical on-wire
        # bit counts from different content.
        a = CanFrame(0x2AA, bytes([0xAA] * 4))
        b = CanFrame(0x2AA, bytes([0x55] * 4))
        duration_a = timing.frame_duration(a)
        entries = len(timing._duration_cache)
        duration_b = timing.frame_duration(b)
        if a.wire_bit_lengths() == b.wire_bit_lengths():
            assert len(timing._duration_cache) == entries
            assert duration_a == duration_b

    def test_cache_stays_bounded_under_random_load(self):
        rng = random.Random(99)
        timing = BitTiming(bitrate=500_000)
        for _ in range(5000):
            timing.frame_duration(random_classic_frame(rng))
        # Bit-count keying: classic CAN has only ~110 distinct on-wire
        # lengths, so the cache stays tiny no matter the frame mix.
        assert len(timing._duration_cache) <= 200
        assert len(timing._duration_cache) < DURATION_CACHE_MAX

    def test_each_timing_instance_has_its_own_cache(self):
        frame = CanFrame(0x123, bytes(8))
        fast = BitTiming(bitrate=1_000_000)
        slow = BitTiming(bitrate=125_000)
        assert fast.frame_duration(frame) < slow.frame_duration(frame)
        assert fast.frame_duration(frame) == frame_duration_uncached(fast, frame)
        assert slow.frame_duration(frame) == frame_duration_uncached(slow, frame)

    def test_shared_module_timings_stay_consistent(self):
        frame = CanFrame(0x7FF, b"\xff" * 8)
        assert (CAN_125K.frame_duration(frame)
                == frame_duration_uncached(CAN_125K, frame))
