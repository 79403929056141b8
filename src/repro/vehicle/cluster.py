"""Instrument cluster ECU.

Reproduces the component the paper fuzzed first and the failure modes
it observed (§VI, Fig 9):

- gauge needles driven straight from decoded bus values with **no
  plausibility clamping** -- a fuzzed frame makes the needles erratic
  and can display a negative RPM (Fig 8),
- malfunction indicator lamps (MILs) latch on implausible input or
  missing cyclic messages and **clear on power-cycle**,
- warning sounds accompany new MILs,
- a digital display defect **latches the word "crash"** into
  non-volatile memory, which a power-cycle does NOT clear
  ("unfortunately the crash message would not clear").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.can.bus import CanBus
from repro.can.frame import TimestampedFrame
from repro.ecu.base import Ecu
from repro.ecu.faults import (
    FaultEffect,
    FaultModel,
    Vulnerability,
    dlc_mismatch_trigger,
)
from repro.sim.clock import MS
from repro.sim.kernel import Simulator
from repro.vehicle.database import (
    BODY_STATUS_ID,
    CLUSTER_DISPLAY_ID,
    ENGINE_STATUS_ID,
    VEHICLE_SPEED_ID,
)
from repro.vehicle.signals import SignalDatabase

#: The non-volatile latch the paper observed: a display fault whose
#: message text was, memorably, "crash".
CRASH_DISPLAY_FAULT = "cluster-display-crash-latch"

#: Cyclic messages the cluster supervises; a silence of 5 cycles lights
#: the corresponding MIL (standard message-timeout monitoring).
SUPERVISED = {
    ENGINE_STATUS_ID: ("MIL_ENGINE", 10 * MS),
    VEHICLE_SPEED_ID: ("MIL_ABS", 20 * MS),
    CLUSTER_DISPLAY_ID: ("MIL_BODY", 100 * MS),
}

TIMEOUT_CYCLES = 5


@dataclass
class GaugeState:
    """What the cluster is currently displaying."""

    rpm: float = 0.0
    speed_kmh: float = 0.0
    fuel_percent: float = 0.0
    coolant_temp: float = 0.0
    odometer_text: str = ""


class InstrumentCluster(Ecu):
    """The target vehicle's instrument cluster."""

    def __init__(self, sim: Simulator, bus: CanBus,
                 database: SignalDatabase, *,
                 guard=None) -> None:
        faults = FaultModel([
            # Empty CLUSTER_DISPLAY frame: the display task formats a
            # string from uninitialised memory and the fault manager
            # burns the event to EEPROM -- the paper's latched "crash".
            Vulnerability(
                name=CRASH_DISPLAY_FAULT,
                trigger=lambda f: (f.can_id == CLUSTER_DISPLAY_ID
                                   and f.dlc == 0),
                effect=FaultEffect.LATCH,
                detail="zero-DLC display frame latches 'crash' into NVM"),
            # Short VEHICLE_SPEED frame: out-of-bounds read wedges the
            # firmware until power is cycled.
            Vulnerability(
                name="cluster-short-speed-crash",
                trigger=dlc_mismatch_trigger(VEHICLE_SPEED_ID, 4),
                effect=FaultEffect.CRASH,
                detail="short speed frame crashes the gauge task"),
        ])
        # The bench cluster kept operating throughout the fuzz run
        # (erratic needles, chimes, display) rather than going silent:
        # its watchdog keeps rebooting the wedged firmware.  300 ms is
        # a typical external-watchdog window.
        super().__init__(sim, bus, "cluster", fault_model=faults,
                         watchdog_timeout=300 * MS)
        #: Optional :class:`repro.defense.PlausibilityGuard`.  It runs
        #: ahead of the (vulnerable) parser, so a guarded cluster never
        #: reaches the zero-DLC latch or the short-frame crash -- the
        #: fix the paper's discussion recommends.
        self.guard = guard
        if guard is not None:
            self.rx_guard = guard.accepts
        self._database = database
        self._warnings_def = database.by_name("CLUSTER_WARNINGS")
        self.gauges = GaugeState()
        self.mils: set[str] = set()
        self.warning_sounds = 0
        self._last_seen: dict[int, int] = {}
        for can_id in (ENGINE_STATUS_ID, VEHICLE_SPEED_ID,
                       CLUSTER_DISPLAY_ID, BODY_STATUS_ID):
            self.on_id(can_id, self._on_signal_frame)
        self.every(50 * MS, self._check_timeouts, phase=13 * MS,
                   label="cluster:timeouts")
        self.every(200 * MS, self._send_warnings, phase=17 * MS,
                   label="cluster:warnings")

    # ------------------------------------------------------------------
    # Display state
    # ------------------------------------------------------------------
    @property
    def display_text(self) -> str:
        """What the segment display shows.

        The latched fault wins over everything -- matching the bench
        cluster that "began to display the word crash at a regular
        rate" and kept doing so after power cycles.
        """
        if CRASH_DISPLAY_FAULT in self.latched_flags:
            return "crash"
        return self.gauges.odometer_text or "ready"

    @property
    def mil_count(self) -> int:
        return len(self.mils)

    def on_boot(self) -> None:
        # MILs live in volatile memory: a power cycle clears them
        # ("cycling the power to the cluster removes any MILs").
        self.mils.clear()
        self._last_seen.clear()

    # ------------------------------------------------------------------
    # Frame handling
    # ------------------------------------------------------------------
    def _on_signal_frame(self, stamped: TimestampedFrame) -> None:
        frame = stamped.frame
        self._last_seen[frame.can_id] = stamped.time
        values = self._database.decode_payload(frame.can_id, frame.data)
        if values is None:
            return
        if frame.can_id == ENGINE_STATUS_ID and "EngineSpeed" in values:
            # Deliberately unclamped: negative and over-redline values
            # drive the needle exactly as decoded (Fig 8).
            self.gauges.rpm = values["EngineSpeed"]
            self._plausibility_check("MIL_ENGINE",
                                     values["EngineSpeed"], -50.0, 8000.0)
        if frame.can_id == ENGINE_STATUS_ID and "CoolantTemp" in values:
            self.gauges.coolant_temp = values["CoolantTemp"]
        if frame.can_id == VEHICLE_SPEED_ID and "VehicleSpeed" in values:
            self.gauges.speed_kmh = values["VehicleSpeed"]
            self._plausibility_check("MIL_ABS",
                                     values["VehicleSpeed"], -1.0, 300.0)
        if frame.can_id == CLUSTER_DISPLAY_ID and "FuelLevel" in values:
            self.gauges.fuel_percent = values["FuelLevel"]

    def _plausibility_check(self, mil: str, value: float,
                            low: float, high: float) -> None:
        """Light a MIL for out-of-range values.

        Note the asymmetry the paper demonstrates: the *gauge* shows
        the implausible value anyway; the MIL is a side lamp, not a
        filter.
        """
        if not low <= value <= high:
            self._set_mil(mil)

    def _set_mil(self, mil: str) -> None:
        if mil not in self.mils:
            self.mils.add(mil)
            self.warning_sounds += 1  # a chime accompanies each new lamp

    def _check_timeouts(self) -> None:
        for can_id, (mil, cycle) in SUPERVISED.items():
            last = self._last_seen.get(can_id)
            if last is None:
                continue  # never seen since boot; bus may still be waking
            if self.sim.now - last > TIMEOUT_CYCLES * cycle:
                self._set_mil(mil)

    def _send_warnings(self) -> None:
        self.send(self._warnings_def.frame({
            "MilCount": float(min(255, self.mil_count)),
            "WarningSoundActive": 1.0 if self.mils else 0.0,
            "DisplayFaultLatched": (
                1.0 if CRASH_DISPLAY_FAULT in self.latched_flags else 0.0),
            "GaugeSweepActive": 0.0,
        }))
