"""Tests for byte statistics (Figs 4/5) and coverage math (§V)."""

import random

import pytest

from repro.can.frame import CanFrame
from repro.fuzz.config import FuzzConfig
from repro.fuzz.coverage import (
    combination_count,
    expected_frames_to_hit,
    expected_unlock_seconds,
    time_to_exhaust_seconds,
    unlock_hit_probability,
)
from repro.fuzz.generator import RandomFrameGenerator
from repro.fuzz.stats import (
    byte_position_means,
    chi_square_byte_uniformity,
    is_uniform_spread,
    uniformity_deviation,
)
from repro.sim.clock import MS


class TestBytePositionMeans:
    def test_basic_means(self):
        frames = [CanFrame(1, bytes((10, 20))), CanFrame(1, bytes((30,)))]
        stats = byte_position_means(frames)
        assert stats.means[0] == 20.0
        assert stats.means[1] == 20.0
        assert stats.counts == (2, 1, 0, 0, 0, 0, 0, 0)
        assert stats.frame_count == 2

    def test_overall_mean(self):
        frames = [CanFrame(1, bytes((0, 255)))]
        stats = byte_position_means(frames)
        assert stats.overall_mean == 127.5

    def test_empty_positions_are_nan(self):
        stats = byte_position_means([CanFrame(1, b"\x05")])
        assert stats.counts[7] == 0
        assert stats.means[7] != stats.means[7]  # NaN

    def test_rows_format(self):
        stats = byte_position_means([CanFrame(1, bytes((10, 20)))])
        rows = stats.rows()
        assert rows[0] == (0, 1, 10.0)

    def test_invalid_positions_rejected(self):
        with pytest.raises(ValueError):
            byte_position_means([], positions=0)


class TestFig5Property:
    def test_fuzzer_output_is_uniform(self):
        """Fig 5: fuzzer frames have flat per-position means ~127."""
        generator = RandomFrameGenerator(FuzzConfig(), random.Random(1))
        stats = byte_position_means(generator.frames(66_144))
        assert is_uniform_spread(stats)
        assert stats.overall_mean == pytest.approx(127.5, abs=1.0)

    def test_structured_traffic_is_not_uniform(self):
        """Fig 4: vehicle traffic is structurally non-uniform."""
        frames = [CanFrame(1, bytes((0xFF, 0x00, 0x7F, i % 4)))
                  for i in range(5000)]
        stats = byte_position_means(frames)
        assert not is_uniform_spread(stats)
        assert uniformity_deviation(stats) > 100

    def test_chi_square_accepts_uniform(self):
        generator = RandomFrameGenerator(FuzzConfig(dlc_min=4),
                                         random.Random(2))
        statistic, dof = chi_square_byte_uniformity(generator.frames(20_000))
        assert dof == 255.0
        assert statistic < 330  # ~99.5th percentile of chi2(255)

    def test_chi_square_rejects_biased(self):
        frames = [CanFrame(1, bytes((7,) * 8)) for _ in range(1000)]
        statistic, _ = chi_square_byte_uniformity(frames)
        assert statistic > 1000

    def test_chi_square_needs_data(self):
        with pytest.raises(ValueError):
            chi_square_byte_uniformity([CanFrame(1, b"")])

    def test_uniformity_deviation_needs_populated_positions(self):
        with pytest.raises(ValueError):
            uniformity_deviation(byte_position_means([]))


class TestCombinatorics:
    def test_paper_half_million(self):
        """§V: '11-bit id and a one byte payload has half a million
        packet combinations (2^19)'."""
        assert combination_count(11, 1) == 2 ** 19 == 524_288

    def test_paper_eight_minutes(self):
        """§V: 'over eight minutes to transmit all combinations'."""
        seconds = time_to_exhaust_seconds(combination_count(11, 1), 1 * MS)
        assert 8 * 60 < seconds < 9 * 60

    def test_paper_one_and_a_half_days(self):
        """§V: 'add another data byte and all combinations transmit
        over 1.5 days'."""
        seconds = time_to_exhaust_seconds(combination_count(11, 2), 1 * MS)
        days = seconds / 86_400
        assert 1.5 < days < 1.6

    def test_expected_frames_to_hit(self):
        assert expected_frames_to_hit(0.5) == 2.0
        with pytest.raises(ValueError):
            expected_frames_to_hit(0.0)


class TestUnlockProbability:
    def test_loose_oracle_probability(self):
        """Oracle A: id (1/2048) * usable lengths (8/9) * byte (1/256)."""
        probability = unlock_hit_probability()
        assert probability == pytest.approx(
            (1 / 2048) * (8 / 9) * (1 / 256))

    def test_strict_oracle_probability(self):
        probability = unlock_hit_probability(require_exact_dlc=True)
        assert probability == pytest.approx(
            (1 / 2048) * (1 / 9) * (1 / 256))

    def test_dlc_check_slows_by_factor_eight(self):
        """The Table V mechanism: adding the DLC check divides the hit
        rate by usable-lengths/1 = 8."""
        ratio = (unlock_hit_probability()
                 / unlock_hit_probability(require_exact_dlc=True))
        assert ratio == pytest.approx(8.0)

    def test_two_byte_check_much_rarer(self):
        two_byte = unlock_hit_probability(value_bytes=2)
        one_byte = unlock_hit_probability(value_bytes=1)
        assert one_byte / two_byte > 200

    def test_expected_unlock_seconds_magnitudes(self):
        """Analytic means bracket the paper's measurements (431 s and
        1959 s are within one geometric sigma of these)."""
        loose = expected_unlock_seconds()
        strict = expected_unlock_seconds(require_exact_dlc=True)
        assert 500 < loose < 700       # ~590 s
        assert 4000 < strict < 5000    # ~4700 s

    def test_impossible_length_returns_zero(self):
        assert unlock_hit_probability(byte_position=8) == 0.0

    def test_spec_dlc_too_short_rejected(self):
        with pytest.raises(ValueError):
            unlock_hit_probability(require_exact_dlc=True, spec_dlc=0,
                                   byte_position=3)
