"""Tests for vulnerability triggers and the fault model."""

from repro.can.frame import CanFrame
from repro.ecu.faults import (
    FaultEffect,
    FaultModel,
    Vulnerability,
    dlc_mismatch_trigger,
)


class TestDlcMismatchTrigger:
    def test_short_frame_fires(self):
        trigger = dlc_mismatch_trigger(0x296, 8)
        assert trigger(CanFrame(0x296, b"\x00\x01"))

    def test_full_length_does_not_fire(self):
        trigger = dlc_mismatch_trigger(0x296, 8)
        assert not trigger(CanFrame(0x296, bytes(8)))


class TestFaultModel:
    def test_first_matching_vulnerability_wins(self):
        model = FaultModel([
            Vulnerability("a", lambda f: f.can_id == 1, FaultEffect.CRASH),
            Vulnerability("b", lambda f: True, FaultEffect.BRICK),
        ])
        assert model.check(CanFrame(1)).name == "a"
        assert model.check(CanFrame(2)).name == "b"

    def test_no_match_returns_none(self):
        model = FaultModel()
        assert model.check(CanFrame(1)) is None

    def test_add(self):
        model = FaultModel()
        model.add(Vulnerability("v", lambda f: True, FaultEffect.LATCH))
        assert model.check(CanFrame(1)).effect is FaultEffect.LATCH
