"""Parity of the vectorised statistics with their reference loops.

The Fig 4/5 byte-position means and the chi-square uniformity
statistic must stay *bit-identical* across the vectorisation; these
tests pin that contract against the per-byte loops in
``reference.py``.
"""

import math
import random

import pytest

from repro.can.frame import CanFrame
from repro.fuzz.config import FuzzConfig
from repro.fuzz.generator import RandomFrameGenerator
from repro.fuzz.stats import byte_position_means, chi_square_byte_uniformity

from .reference import (byte_position_means_reference,
                        chi_square_byte_uniformity_reference)


def random_frames(seed, count, *, max_dlc=8):
    rng = random.Random(seed)
    return [CanFrame(rng.randrange(1 << 11),
                     rng.randbytes(rng.randrange(max_dlc + 1)))
            for _ in range(count)]


def assert_stats_identical(vectorised, reference):
    assert vectorised.counts == reference.counts
    assert vectorised.frame_count == reference.frame_count
    for got, want in zip(vectorised.means, reference.means):
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert got == want  # bit-identical, no tolerance
    if math.isnan(reference.overall_mean):
        assert math.isnan(vectorised.overall_mean)
    else:
        assert vectorised.overall_mean == reference.overall_mean


class TestBytePositionMeans:
    def test_mixed_length_traffic_is_bit_identical(self):
        frames = random_frames(1, 2000)
        assert_stats_identical(byte_position_means(frames),
                               byte_position_means_reference(frames))

    def test_truncation_to_narrow_table(self):
        frames = random_frames(2, 500)
        assert_stats_identical(
            byte_position_means(frames, positions=4),
            byte_position_means_reference(frames, positions=4))

    def test_positions_wider_than_any_frame_yield_nan_columns(self):
        frames = random_frames(3, 100, max_dlc=2)
        vectorised = byte_position_means(frames, positions=8)
        reference = byte_position_means_reference(frames, positions=8)
        assert_stats_identical(vectorised, reference)
        assert math.isnan(vectorised.means[7])

    def test_empty_capture(self):
        vectorised = byte_position_means([])
        reference = byte_position_means_reference([])
        assert_stats_identical(vectorised, reference)
        assert vectorised.frame_count == 0
        assert all(math.isnan(m) for m in vectorised.means)

    def test_all_empty_payloads(self):
        frames = [CanFrame(0x100, b"") for _ in range(10)]
        assert_stats_identical(byte_position_means(frames),
                               byte_position_means_reference(frames))

    def test_rejects_nonpositive_positions(self):
        with pytest.raises(ValueError):
            byte_position_means([], positions=0)

    def test_generator_output_matches_paper_shape(self):
        generator = RandomFrameGenerator(FuzzConfig(), random.Random(5))
        frames = generator.frames(5000)
        stats = byte_position_means(frames)
        assert_stats_identical(stats, byte_position_means_reference(frames))
        # The Fig 5 sanity property: uniform bytes average near 127.5.
        assert abs(stats.overall_mean - 127.5) < 3.0


class TestChiSquare:
    def test_statistic_is_bit_identical(self):
        frames = random_frames(7, 3000)
        statistic, dof = chi_square_byte_uniformity(frames)
        ref_statistic, ref_dof = chi_square_byte_uniformity_reference(frames)
        assert statistic == ref_statistic
        assert dof == ref_dof == 255.0

    def test_skewed_traffic_matches_too(self):
        frames = [CanFrame(0x10, bytes([7] * 8)) for _ in range(100)]
        statistic, _ = chi_square_byte_uniformity(frames)
        ref_statistic, _ = chi_square_byte_uniformity_reference(frames)
        assert statistic == ref_statistic
        assert statistic > 10_000  # wildly non-uniform

    def test_empty_capture_raises_in_both(self):
        with pytest.raises(ValueError):
            chi_square_byte_uniformity([])
        with pytest.raises(ValueError):
            chi_square_byte_uniformity_reference([])

    def test_remote_style_empty_payloads_raise(self):
        frames = [CanFrame(0x1, b"") for _ in range(5)]
        with pytest.raises(ValueError):
            chi_square_byte_uniformity(frames)
