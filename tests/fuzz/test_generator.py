"""Tests for the fuzz frame generators."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.can.frame import CanFrame
from repro.fuzz.config import FuzzConfig
from repro.fuzz.generator import (
    BitWalkGenerator,
    RandomFrameGenerator,
    TargetedFrameGenerator,
)


class TestRandomFrameGenerator:
    def test_frames_respect_table3_ranges(self):
        generator = RandomFrameGenerator(FuzzConfig.full_range(),
                                         random.Random(1))
        for frame in generator.frames(500):
            assert 0 <= frame.can_id <= 2047
            assert 0 <= frame.dlc <= 8
            assert not frame.extended

    def test_restricted_ranges_respected(self):
        config = FuzzConfig(id_min=0x100, id_max=0x1FF,
                            dlc_min=2, dlc_max=4,
                            byte_min=0x40, byte_max=0x4F)
        generator = RandomFrameGenerator(config, random.Random(2))
        for frame in generator.frames(300):
            assert 0x100 <= frame.can_id <= 0x1FF
            assert 2 <= frame.dlc <= 4
            assert all(0x40 <= b <= 0x4F for b in frame.data)

    def test_seed_determinism(self):
        a = RandomFrameGenerator(FuzzConfig(), random.Random(7)).frames(50)
        b = RandomFrameGenerator(FuzzConfig(), random.Random(7)).frames(50)
        assert a == b

    def test_different_seeds_differ(self):
        a = RandomFrameGenerator(FuzzConfig(), random.Random(1)).frames(20)
        b = RandomFrameGenerator(FuzzConfig(), random.Random(2)).frames(20)
        assert a != b

    def test_id_coverage_spreads(self):
        """A few thousand draws should touch a large part of id space."""
        generator = RandomFrameGenerator(FuzzConfig(), random.Random(3))
        ids = {frame.can_id for frame in generator.frames(5000)}
        assert len(ids) > 1500

    def test_dlc_distribution_includes_extremes(self):
        generator = RandomFrameGenerator(FuzzConfig(), random.Random(4))
        lengths = {frame.dlc for frame in generator.frames(500)}
        assert 0 in lengths and 8 in lengths

    def test_generated_counter(self):
        generator = RandomFrameGenerator(FuzzConfig(), random.Random(5))
        generator.frames(17)
        assert generator.generated == 17

    def test_fd_mode_quantises_sizes(self):
        config = FuzzConfig(fd=True, dlc_max=64)
        generator = RandomFrameGenerator(config, random.Random(6))
        for frame in generator.frames(200):
            assert frame.fd
            assert frame.dlc in (0, 1, 2, 3, 4, 5, 6, 7, 8,
                                 12, 16, 20, 24, 32, 48, 64)

    def test_extended_mode(self):
        config = FuzzConfig(extended_ids=True, id_max=0x1FFFFFFF)
        generator = RandomFrameGenerator(config, random.Random(8))
        frames = generator.frames(100)
        assert all(f.extended for f in frames)
        assert any(f.can_id > 0x7FF for f in frames)

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32))
    def test_property_mean_byte_value_near_uniform(self, seed):
        """The Fig 5 property: uniform draws have mean ~127.5."""
        generator = RandomFrameGenerator(FuzzConfig(dlc_min=8),
                                         random.Random(seed))
        values = [b for f in generator.frames(300) for b in f.data]
        mean = sum(values) / len(values)
        assert 115 < mean < 140


class TestTargetedFrameGenerator:
    def test_only_known_ids_generated(self):
        known = (0x0C9, 0x215, 0x43A)
        generator = TargetedFrameGenerator(known, FuzzConfig(),
                                           random.Random(1))
        ids = {frame.can_id for frame in
               [generator.next_frame() for _ in range(300)]}
        assert ids == set(known)

    def test_inherits_other_ranges(self):
        config = FuzzConfig(dlc_choices=(7,))
        generator = TargetedFrameGenerator((0x215,), config,
                                           random.Random(2))
        for _ in range(50):
            assert generator.next_frame().dlc == 7


class TestBitWalkGenerator:
    def test_walks_every_payload_bit(self):
        base = CanFrame(0x215, bytes(2))
        generator = BitWalkGenerator(base)
        frames = [generator.next_frame() for _ in range(16)]
        flipped = [f.data for f in frames]
        assert len(set(flipped)) == 16
        for data in flipped:
            bits = sum(bin(b).count("1") for b in data)
            assert bits == 1  # exactly one bit differs from the base

    def test_wraps_around(self):
        base = CanFrame(0x100, b"\x00")
        generator = BitWalkGenerator(base)
        first_pass = [generator.next_frame() for _ in range(8)]
        second_pass = [generator.next_frame() for _ in range(8)]
        assert first_pass == second_pass

    def test_id_bits_optional(self):
        base = CanFrame(0x100, b"\x00")
        generator = BitWalkGenerator(base, include_id_bits=True)
        assert generator.total_bits == 8 + 11
        frames = [generator.next_frame() for _ in range(19)]
        assert any(f.can_id != 0x100 for f in frames)

    def test_empty_base_rejected(self):
        with pytest.raises(ValueError):
            BitWalkGenerator(CanFrame(0x100, b""))

    def test_id_walk_stays_in_range(self):
        base = CanFrame(0x7FF, b"")
        generator = BitWalkGenerator(base, include_id_bits=True)
        for _ in range(11):
            frame = generator.next_frame()
            assert 0 <= frame.can_id <= 0x7FF
