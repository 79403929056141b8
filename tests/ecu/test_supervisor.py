"""Tests for ECU supervision: DTCs, limp-home, watchdog wrapping."""

import pytest

from repro.can.errors import BUS_OFF_LIMIT
from repro.can.frame import CanFrame
from repro.ecu.base import Ecu, EcuState
from repro.ecu.modes import OperatingMode
from repro.ecu.supervisor import (
    DTC_BUS_OFF,
    DTC_BUS_RECOVERED,
    DTC_LIMP_HOME,
    DTC_WATCHDOG,
    EcuSupervisor,
)
from repro.sim.clock import MS

SAFETY_ID = 0x0F0
COMFORT_ID = 0x400


@pytest.fixture
def ecu(sim, bus):
    unit = Ecu(sim, bus, "unit", boot_time=10 * MS,
               watchdog_timeout=100 * MS)
    unit.power_on()
    sim.run_for(20 * MS)
    assert unit.running
    return unit


def _latch_bus_off(ecu) -> None:
    """Drive the controller's fault confinement to the latch directly."""
    frame = CanFrame(0x100, b"\x01")
    for _ in range(BUS_OFF_LIMIT // 8):
        ecu.controller._on_tx_error(frame)
    assert ecu.controller.counters.bus_off_latched


class TestBusOffSupervision:
    def test_bus_off_records_dtc(self, ecu):
        supervisor = EcuSupervisor(ecu)
        _latch_bus_off(ecu)
        assert supervisor.bus_off_count == 1
        assert [d.code for d in supervisor.dtcs] == [DTC_BUS_OFF]
        assert supervisor.dtcs[0].ecu == "unit"

    def test_recovery_records_history_code(self, sim, bus, ecu):
        supervisor = EcuSupervisor(ecu)
        _latch_bus_off(ecu)
        sim.run_for(50 * MS)  # idle bus: the recovery sequence completes
        assert not ecu.controller.counters.bus_off_latched
        assert [d.code for d in supervisor.dtcs] \
            == [DTC_BUS_OFF, DTC_BUS_RECOVERED]

    def test_auto_recover_flag_is_installed(self, ecu):
        assert not ecu.controller.auto_recover
        EcuSupervisor(ecu)
        assert ecu.controller.auto_recover
        other_sim_ecu = ecu  # same instance; opt-out path:
        EcuSupervisor(other_sim_ecu, auto_recover=False)
        assert not ecu.controller.auto_recover


class TestLimpHome:
    def test_escalates_after_limit(self, sim, ecu):
        supervisor = EcuSupervisor(
            ecu, safety_ids=frozenset({SAFETY_ID}), bus_off_limit=2)
        _latch_bus_off(ecu)
        sim.run_for(50 * MS)
        assert not ecu.limp_home
        _latch_bus_off(ecu)
        assert ecu.limp_home
        assert DTC_LIMP_HOME in [d.code for d in supervisor.dtcs]
        assert ecu.limp_home_entries == 1

    def test_limp_home_gates_transmission(self, sim, ecu):
        EcuSupervisor(ecu, safety_ids=frozenset({SAFETY_ID}),
                      bus_off_limit=1)
        _latch_bus_off(ecu)
        sim.run_for(50 * MS)  # recover so the controller can transmit
        assert ecu.send(CanFrame(SAFETY_ID, b"\x01"))
        assert not ecu.send(CanFrame(COMFORT_ID, b"\x02"))
        assert ecu.tx_suppressed == 1

    def test_limp_home_survives_power_cycle(self, sim, ecu):
        EcuSupervisor(ecu, bus_off_limit=1)
        _latch_bus_off(ecu)
        ecu.power_cycle()
        sim.run_for(20 * MS)
        assert ecu.limp_home  # non-volatile, like the DTCs


class TestWatchdogSupervision:
    def test_expiry_records_dtc_and_reboots(self, sim, ecu):
        supervisor = EcuSupervisor(ecu)
        ecu._crash()  # main loop stops kicking
        sim.run_for(200 * MS)
        assert supervisor.watchdog_reboots == 1
        assert DTC_WATCHDOG in [d.code for d in supervisor.dtcs]
        assert ecu.running  # the wrapped reset still ran

    def test_expiry_during_programming_returns_to_normal(self, sim, ecu):
        """Watchdog reboot mid-programming-session must land the ECU
        back in the default session with security re-locked -- a
        reboot that resumed PROGRAMMING would leave the ECU unlocked
        for whoever talks to it next."""
        supervisor = EcuSupervisor(ecu)
        ecu.modes.request(OperatingMode.DIAGNOSTIC)
        ecu.modes.unlock()
        ecu.modes.request(OperatingMode.PROGRAMMING)
        assert ecu.modes.security_unlocked
        ecu._crash()
        sim.run_for(200 * MS)
        assert ecu.running
        assert supervisor.watchdog_reboots == 1
        assert ecu.modes.mode is OperatingMode.NORMAL
        assert not ecu.modes.security_unlocked

    def test_healthy_ecu_never_trips(self, sim, ecu):
        supervisor = EcuSupervisor(ecu)
        sim.run_for(500 * MS)
        assert supervisor.watchdog_reboots == 0
        assert supervisor.dtcs == []


class TestValidation:
    def test_bus_off_limit_must_be_positive(self, ecu):
        with pytest.raises(ValueError):
            EcuSupervisor(ecu, bus_off_limit=0)

    def test_supervisor_backlink(self, ecu):
        supervisor = EcuSupervisor(ecu)
        assert ecu.supervisor is supervisor

    def test_state_digest_tracks_events(self, sim, ecu):
        supervisor = EcuSupervisor(ecu)
        before = supervisor.state_digest()
        _latch_bus_off(ecu)
        assert supervisor.state_digest() != before
