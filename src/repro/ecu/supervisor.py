"""ECU health supervision: watchdog reboots, limp-home, DTC records.

The paper's §VI worry is that fuzzing leaves real controllers wedged
or permanently damaged.  Production ECUs defend themselves: an
independent watchdog reboots a hung processor, repeated bus-off drops
the node into a limp-home mode that keeps only safety-critical traffic
alive, and every such event lands in non-volatile memory as a
diagnostic trouble code a service tool can read out later.  The
instrument cluster in the paper's Fig 9 that kept displaying "crash"
after the run *is* such a non-volatile record.

:class:`EcuSupervisor` layers that behaviour onto any
:class:`~repro.ecu.base.Ecu` without subclassing: it turns on the CAN
controller's automatic bus-off recovery, counts recoveries, escalates
to limp-home after a configurable number of bus-off events, and wraps
the watchdog so expiries are recorded before the reboot happens.  The
testbench BCM/head-unit and the target car's ECUs all get one, so
campaigns that DoS the bus meet targets that degrade and come back
instead of dying silently.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ecu.base import Ecu

#: OBD-II style trouble codes recorded by the supervisor.
DTC_BUS_OFF = "U0001"          # high-speed CAN communication bus
DTC_BUS_RECOVERED = "U0001-68"  # recovery sub-code (history, not a fault)
DTC_WATCHDOG = "P0606"         # ECM/PCM processor fault (watchdog reboot)
DTC_LIMP_HOME = "P0607"        # control module performance -> degraded


@dataclass(frozen=True)
class DiagnosticTroubleCode:
    """One non-volatile diagnostic record."""

    time: int
    ecu: str
    code: str
    description: str


class EcuSupervisor:
    """Degradation-and-recovery policy for one ECU.

    Args:
        ecu: the supervised ECU (must already have its controller
            attached; the watchdog, if any, is wrapped in place).
        safety_ids: ids the ECU may still transmit in limp-home mode.
            Empty means limp-home silences the node completely.
        bus_off_limit: bus-off events (since the DTCs were last
            cleared) that trigger limp-home.  ``None`` disables the
            limp-home escalation.
        auto_recover: run the CAN bus-off recovery sequence
            automatically (default on -- the point of supervision).
    """

    def __init__(self, ecu: Ecu, *,
                 safety_ids: frozenset[int] = frozenset(),
                 bus_off_limit: int | None = 3,
                 auto_recover: bool = True) -> None:
        if bus_off_limit is not None and bus_off_limit < 1:
            raise ValueError("bus_off_limit must be >= 1 or None")
        self.ecu = ecu
        self.safety_ids = frozenset(safety_ids)
        self.bus_off_limit = bus_off_limit
        self.dtcs: list[DiagnosticTroubleCode] = []
        self.bus_off_count = 0
        self.watchdog_reboots = 0
        controller = ecu.controller
        controller.auto_recover = auto_recover
        controller.on_bus_off = self._on_bus_off
        controller.on_bus_off_recovered = self._on_bus_off_recovered
        watchdog = ecu.watchdog
        if watchdog is not None:
            inner = watchdog.on_timeout
            def record_then_reset() -> None:
                self._record(DTC_WATCHDOG, "watchdog expiry, processor reboot")
                self.watchdog_reboots += 1
                inner()
            watchdog.on_timeout = record_then_reset
        ecu.supervisor = self

    # ------------------------------------------------------------------
    # Event hooks
    # ------------------------------------------------------------------
    def _on_bus_off(self) -> None:
        self.bus_off_count += 1
        self._record(
            DTC_BUS_OFF,
            f"CAN bus-off (event {self.bus_off_count})")
        limit = self.bus_off_limit
        if (limit is not None and self.bus_off_count >= limit
                and not self.ecu.limp_home):
            self._record(
                DTC_LIMP_HOME,
                f"limp-home after {self.bus_off_count} bus-off events")
            self.ecu.enter_limp_home(self.safety_ids)

    def _on_bus_off_recovered(self) -> None:
        self._record(DTC_BUS_RECOVERED, "bus-off recovery sequence complete")

    def _record(self, code: str, description: str) -> None:
        self.dtcs.append(DiagnosticTroubleCode(
            time=self.ecu.sim.now, ecu=self.ecu.name,
            code=code, description=description))

    # ------------------------------------------------------------------
    # Service-tool surface
    # ------------------------------------------------------------------

    def state_digest(self) -> str:
        """Deterministic summary for snapshot/determinism parity tests."""
        codes = ",".join(f"{d.time}:{d.code}" for d in self.dtcs)
        return (f"{self.ecu.name}:{self.bus_off_count}:"
                f"{self.watchdog_reboots}:{self.ecu.limp_home}:{codes}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EcuSupervisor({self.ecu.name!r}, "
                f"dtcs={len(self.dtcs)}, bus_off={self.bus_off_count}, "
                f"limp_home={self.ecu.limp_home})")
