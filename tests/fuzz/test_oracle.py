"""Tests for the test-oracle framework."""

import pytest

from repro.can.bus import CanBus
from repro.can.frame import CanFrame
from repro.can.node import CanController
from repro.ecu.base import Ecu
from repro.fuzz.oracle import (
    AckMessageOracle,
    Oracle,
    PhysicalStateOracle,
)
from repro.sim.clock import MS


@pytest.fixture
def sender(bus):
    node = CanController("sender")
    node.attach(bus)
    return node


def bound(oracle):
    findings = []
    oracle.bind(findings.append)
    return findings


class TestOracleBase:
    def test_report_before_bind_raises(self):
        with pytest.raises(RuntimeError):
            Oracle("unbound").report(0, "x")

    def test_findings_counter(self, sim, bus, sender):
        oracle = AckMessageOracle(bus, 0x100, once=False)
        findings = bound(oracle)
        sender.send(CanFrame(0x100))
        sender.send(CanFrame(0x100))
        sim.run_for(5 * MS)
        assert oracle.findings_reported == 2
        assert len(findings) == 2


class TestAckMessageOracle:
    def test_fires_on_matching_id(self, sim, bus, sender):
        oracle = AckMessageOracle(bus, 0x3A5)
        findings = bound(oracle)
        sender.send(CanFrame(0x3A5, b"\x01"))
        sim.run_for(5 * MS)
        assert len(findings) == 1
        assert oracle.first_match_time is not None

    def test_ignores_other_ids(self, sim, bus, sender):
        oracle = AckMessageOracle(bus, 0x3A5)
        findings = bound(oracle)
        sender.send(CanFrame(0x3A6))
        sim.run_for(5 * MS)
        assert findings == []

    def test_predicate_filters_payloads(self, sim, bus, sender):
        oracle = AckMessageOracle(
            bus, 0x3A5, predicate=lambda f: f.data[:1] == b"\x01")
        findings = bound(oracle)
        sender.send(CanFrame(0x3A5, b"\x00"))
        sender.send(CanFrame(0x3A5, b"\x01"))
        sim.run_for(5 * MS)
        assert len(findings) == 1

    def test_once_reports_single_finding(self, sim, bus, sender):
        oracle = AckMessageOracle(bus, 0x3A5, once=True)
        findings = bound(oracle)
        for _ in range(3):
            sender.send(CanFrame(0x3A5))
        sim.run_for(5 * MS)
        assert len(findings) == 1

    def test_exclude_sender_suppresses_self_matches(self, sim, bus, sender):
        """The fuzzer's own injected frame must not count as an ack."""
        oracle = AckMessageOracle(bus, 0x3A5, exclude_sender="sender")
        findings = bound(oracle)
        sender.send(CanFrame(0x3A5, b"\x01"))
        sim.run_for(5 * MS)
        assert findings == []
        other = CanController("other")
        other.attach(bus)
        other.send(CanFrame(0x3A5, b"\x01"))
        sim.run_for(5 * MS)
        assert len(findings) == 1


class TestPhysicalStateOracle:
    def test_detects_state_change(self, sim, bus):
        state = {"locked": True}
        oracle = PhysicalStateOracle(lambda: state["locked"], expected=True,
                                     period=10 * MS)
        findings = bound(oracle)
        oracle.start(sim)
        sim.run_for(100 * MS)
        assert findings == []
        state["locked"] = False
        sim.run_for(50 * MS)
        assert len(findings) == 1
        assert oracle.first_deviation_time is not None
        oracle.stop()

    def test_once_limits_reports(self, sim):
        state = {"v": 1}
        oracle = PhysicalStateOracle(lambda: state["v"], expected=0,
                                     period=10 * MS, once=True)
        findings = bound(oracle)
        oracle.start(sim)
        sim.run_for(100 * MS)
        assert len(findings) == 1
