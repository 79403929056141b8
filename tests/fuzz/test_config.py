"""Tests for FuzzConfig (Table III parameters)."""

import pytest

from repro.fuzz.config import FuzzConfig, FuzzConfigError
from repro.sim.clock import MS


class TestDefaults:
    def test_full_range_matches_table3(self):
        """Table III: id {0..2047}, length {0..8}, byte {0..255}."""
        config = FuzzConfig.full_range()
        assert (config.id_min, config.id_max) == (0, 2047)
        assert (config.dlc_min, config.dlc_max) == (0, 8)
        assert (config.byte_min, config.byte_max) == (0, 255)

    def test_default_rate_is_one_per_ms(self):
        """'The fuzzer currently has a maximum message transmission
        rate of one message per millisecond.'"""
        assert FuzzConfig().interval == 1 * MS

    def test_id_count(self):
        assert FuzzConfig().id_count == 2048
        assert FuzzConfig.targeted((1, 2, 3)).id_count == 3


class TestValidation:
    def test_inverted_id_range_rejected(self):
        with pytest.raises(FuzzConfigError):
            FuzzConfig(id_min=100, id_max=50)

    def test_id_above_standard_limit_rejected(self):
        with pytest.raises(FuzzConfigError):
            FuzzConfig(id_max=2048)

    def test_extended_ids_allow_29_bits(self):
        config = FuzzConfig(id_max=0x1FFFFFFF, extended_ids=True)
        assert config.id_max == 0x1FFFFFFF

    def test_dlc_above_8_needs_fd(self):
        with pytest.raises(FuzzConfigError):
            FuzzConfig(dlc_max=9)
        assert FuzzConfig(dlc_max=64, fd=True).dlc_max == 64

    def test_byte_range_validated(self):
        with pytest.raises(FuzzConfigError):
            FuzzConfig(byte_max=256)
        with pytest.raises(FuzzConfigError):
            FuzzConfig(byte_min=10, byte_max=5)

    def test_interval_below_minimum_rejected(self):
        """The 1 ms floor is a property of the paper's fuzzer."""
        with pytest.raises(FuzzConfigError):
            FuzzConfig(interval=500)

    def test_empty_id_choices_rejected(self):
        with pytest.raises(FuzzConfigError):
            FuzzConfig(id_choices=())

    def test_out_of_range_id_choices_rejected(self):
        with pytest.raises(FuzzConfigError):
            FuzzConfig(id_choices=(0x900,))

    def test_out_of_range_dlc_choices_rejected(self):
        with pytest.raises(FuzzConfigError):
            FuzzConfig(dlc_choices=(9,))


class TestPools:
    def test_range_pool(self):
        config = FuzzConfig(id_min=10, id_max=12)
        assert list(config.identifier_pool()) == [10, 11, 12]

    def test_choices_override_range(self):
        config = FuzzConfig(id_choices=(5, 7))
        assert tuple(config.identifier_pool()) == (5, 7)

    def test_dlc_choices(self):
        config = FuzzConfig(dlc_choices=(7,))
        assert tuple(config.dlc_pool()) == (7,)


class TestDescribe:
    def test_describe_rows_match_table3_layout(self):
        rows = FuzzConfig.full_range().describe()
        items = [row[0] for row in rows]
        assert items == ["CAN Id", "Payload length", "Payload byte", "Rate"]
        assert rows[0][1] == "{0, ..., 2047}"
        assert rows[2][1] == "{0, ..., 255}"

    def test_describe_targeted(self):
        rows = FuzzConfig.targeted((0x215,)).describe()
        assert "533" in rows[0][1]
        assert "Targeted" in rows[0][2]
