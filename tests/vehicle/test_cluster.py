"""Tests for the instrument cluster: the paper's Fig 8/9 behaviours."""

import pytest

from repro.analysis.capture import BusCapture
from repro.can.frame import CanFrame
from repro.can.node import CanController
from repro.ecu.base import EcuState
from repro.sim.clock import MS, SECOND
from repro.vehicle.cluster import CRASH_DISPLAY_FAULT, InstrumentCluster
from repro.vehicle.database import (
    CLUSTER_DISPLAY_ID,
    CLUSTER_WARNINGS_ID,
    ENGINE_STATUS_ID,
    VEHICLE_SPEED_ID,
    target_vehicle_database,
)


@pytest.fixture
def db():
    return target_vehicle_database()


@pytest.fixture
def tester(bus):
    node = CanController("tester")
    node.attach(bus)
    return node


@pytest.fixture
def cluster(sim, bus, db):
    unit = InstrumentCluster(sim, bus, db)
    unit.power_on()
    sim.run_for(100 * MS)
    return unit


def engine_frame(db, rpm):
    payload = db.by_name("ENGINE_STATUS").encode({"EngineSpeed": rpm})
    return CanFrame(ENGINE_STATUS_ID, payload)


class TestGauges:
    def test_rpm_gauge_follows_bus(self, sim, cluster, tester, db):
        tester.send(engine_frame(db, 3000.0))
        sim.run_for(10 * MS)
        assert cluster.gauges.rpm == 3000.0

    def test_negative_rpm_displayed_unclamped(self, sim, cluster, tester,
                                              db):
        """Fig 8: 'the vehicle simulation handles physically invalid
        values in the same way as physically plausible ones'."""
        tester.send(engine_frame(db, -1250.0))
        sim.run_for(10 * MS)
        assert cluster.gauges.rpm == -1250.0

    def test_speed_gauge(self, sim, cluster, tester, db):
        payload = db.by_name("VEHICLE_SPEED").encode({"VehicleSpeed": 88.5})
        tester.send(CanFrame(VEHICLE_SPEED_ID, payload))
        sim.run_for(10 * MS)
        assert cluster.gauges.speed_kmh == pytest.approx(88.5)

    def test_every_frame_moves_the_needle(self, sim, cluster, tester, db):
        for rpm in (1000.0, 2000.0, 3000.0):
            tester.send(engine_frame(db, rpm))
            sim.run_for(1 * MS)
            assert cluster.gauges.rpm == rpm


class TestMils:
    def test_implausible_rpm_lights_mil(self, sim, cluster, tester, db):
        tester.send(engine_frame(db, -1250.0))
        sim.run_for(10 * MS)
        assert "MIL_ENGINE" in cluster.mils
        assert cluster.warning_sounds == 1

    def test_repeat_implausible_values_chime_once(self, sim, cluster,
                                                  tester, db):
        for _ in range(5):
            tester.send(engine_frame(db, -1250.0))
        sim.run_for(10 * MS)
        assert cluster.warning_sounds == 1

    def test_message_timeout_lights_mil(self, sim, cluster, tester, db):
        tester.send(engine_frame(db, 900.0))
        sim.run_for(10 * MS)
        assert "MIL_ENGINE" not in cluster.mils
        sim.run_for(1 * SECOND)  # silence: 10 ms cyclic message missing
        assert "MIL_ENGINE" in cluster.mils

    def test_power_cycle_clears_mils(self, sim, cluster, tester, db):
        """'Cycling the power to the cluster removes any MILs'."""
        tester.send(engine_frame(db, -1250.0))
        sim.run_for(10 * MS)
        assert cluster.mils
        cluster.power_cycle()
        sim.run_for(100 * MS)
        assert cluster.mils == set()

    def test_warnings_broadcast_on_bus(self, sim, bus, cluster, tester, db):
        capture = BusCapture(bus)
        tester.send(engine_frame(db, -1250.0))
        sim.run_for(500 * MS)
        warnings = [s for s in capture.stamped
                    if s.frame.can_id == CLUSTER_WARNINGS_ID]
        assert warnings
        decoded = db.decode_payload(CLUSTER_WARNINGS_ID,
                                    warnings[-1].frame.data)
        assert decoded["MilCount"] >= 1
        assert decoded["WarningSoundActive"] == 1.0


class TestCrashDisplayLatch:
    def test_zero_dlc_display_frame_latches_crash(self, sim, cluster,
                                                  tester):
        tester.send(CanFrame(CLUSTER_DISPLAY_ID, b""))
        sim.run_for(10 * MS)
        assert cluster.display_text == "crash"

    def test_crash_display_survives_power_cycle(self, sim, cluster, tester):
        """'Unfortunately the crash message would not clear.'"""
        tester.send(CanFrame(CLUSTER_DISPLAY_ID, b""))
        sim.run_for(10 * MS)
        cluster.power_cycle()
        sim.run_for(100 * MS)
        assert CRASH_DISPLAY_FAULT in cluster.latched_flags
        assert cluster.display_text == "crash"

    def test_normal_display_without_fault(self, cluster):
        assert cluster.display_text == "ready"


class TestClusterCrash:
    def test_short_speed_frame_crashes_cluster(self, sim, cluster, tester):
        tester.send(CanFrame(VEHICLE_SPEED_ID, b"\x01"))
        sim.run_for(10 * MS)
        assert cluster.state is EcuState.CRASHED

    def test_power_cycle_recovers_crash(self, sim, cluster, tester):
        tester.send(CanFrame(VEHICLE_SPEED_ID, b"\x01"))
        sim.run_for(10 * MS)
        cluster.power_cycle()
        sim.run_for(100 * MS)
        assert cluster.state is EcuState.RUNNING

    def test_watchdog_revives_crashed_cluster(self, sim, cluster, tester):
        """The bench cluster stayed alive through the fuzz run; its
        watchdog reboots the wedged firmware within ~300 ms."""
        tester.send(CanFrame(VEHICLE_SPEED_ID, b"\x01"))
        sim.run_for(10 * MS)
        assert cluster.state is EcuState.CRASHED
        sim.run_for(1 * SECOND)
        assert cluster.state is EcuState.RUNNING
        assert cluster.watchdog_resets == 1
