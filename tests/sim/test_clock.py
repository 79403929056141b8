"""Tests for the virtual clock."""

import pytest

from repro.sim.clock import MS, SECOND, US, SimClock, format_time


class TestConstants:
    def test_units_relate(self):
        assert MS == 1000 * US
        assert SECOND == 1000 * MS


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0

    def test_starts_at_given_time(self):
        assert SimClock(500).now == 500

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(-1)

    def test_advance(self):
        clock = SimClock()
        clock.advance_to(1234)
        assert clock.now == 1234

    def test_advance_to_same_time_is_allowed(self):
        clock = SimClock(10)
        clock.advance_to(10)
        assert clock.now == 10

    def test_rewind_rejected(self):
        clock = SimClock(100)
        with pytest.raises(ValueError):
            clock.advance_to(99)


class TestFormatTime:
    def test_zero(self):
        assert format_time(0) == "0.000000s"

    def test_microsecond_resolution(self):
        assert format_time(5_328_009) == "5.328009s"
