"""Body Control Module of the target vehicle.

Owns the central locking, exterior lights and the cluster's display
feed.  The remote-unlock path is the security-relevant feature: the
BCM acts on any ``BODY_COMMAND`` (0x215) frame whose first byte is the
lock or unlock code -- it does *not* authenticate the sender, which is
precisely the weakness the paper's bench experiment demonstrates a
fuzzer can find blind.
"""

from __future__ import annotations

from repro.can.bus import CanBus
from repro.can.frame import TimestampedFrame
from repro.ecu.base import Ecu
from repro.sim.clock import MS
from repro.sim.kernel import Simulator
from repro.vehicle.database import (
    BODY_COMMAND_ID,
    LOCK_COMMAND,
    UNLOCK_COMMAND,
)
from repro.vehicle.dynamics import VehicleDynamics
from repro.vehicle.signals import SignalDatabase


class BodyControlModule(Ecu):
    """The target car's BCM.

    Public state: :attr:`locked` (central locking), light flags, and
    :attr:`unlock_events` counting accepted unlock commands.
    """

    def __init__(self, sim: Simulator, bus: CanBus,
                 dynamics: VehicleDynamics,
                 database: SignalDatabase, *,
                 require_exact_dlc: bool = False) -> None:
        super().__init__(sim, bus, "bcm", watchdog_timeout=800 * MS)
        self._dynamics = dynamics
        self._database = database
        self._body_status = database.by_name("BODY_STATUS")
        self._cluster_display = database.by_name("CLUSTER_DISPLAY")
        self._lock_status = database.by_name("LOCK_STATUS")
        #: The paper's hardened variant: also require the command
        #: frame's DLC to match the specification exactly.
        self.require_exact_dlc = require_exact_dlc
        self.locked = True
        self.low_beam = False
        self.interior_light = False
        self.unlock_events = 0
        self.lock_events = 0
        self._ack_counter = 0
        self.on_id(BODY_COMMAND_ID, self._on_body_command)
        self.every(100 * MS, self._send_body_status, phase=11 * MS,
                   label="bcm:status")
        self.every(100 * MS, self._send_cluster_display, phase=23 * MS,
                   label="bcm:display")
        self.every(1000 * MS, self._send_lock_status, phase=40 * MS,
                   label="bcm:lock-status")

    # ------------------------------------------------------------------
    # Command handling
    # ------------------------------------------------------------------
    def _on_body_command(self, stamped: TimestampedFrame) -> None:
        frame = stamped.frame
        if not frame.data:
            return
        if self.require_exact_dlc and frame.dlc != self._database.by_id(
                BODY_COMMAND_ID).length:
            return
        code = frame.data[0]
        if code == UNLOCK_COMMAND:
            self.locked = False
            self.unlock_events += 1
            self._send_lock_ack()
        elif code == LOCK_COMMAND:
            self.locked = True
            self.lock_events += 1
            self._send_lock_ack()
        # Any other code is ignored: the BCM only parses byte 0.

    def _send_lock_ack(self) -> None:
        """Event-driven lock acknowledgement.

        Mirrors the paper's augmentation: "to aid with the detection of
        the unlock state the testbench was augmented to transmit an
        unlock acknowledgement CAN message."  The production car has
        the same status message on a slow cycle; the ack makes state
        changes immediately observable.
        """
        self._ack_counter = (self._ack_counter + 1) % 256
        self._send_lock_status()

    def _send_lock_status(self) -> None:
        self.send(self._lock_status.frame({
            "LockState": 1.0 if self.locked else 0.0,
            "LockAckCounter": float(self._ack_counter),
            "LockSource": 1.0,
        }))

    # ------------------------------------------------------------------
    # Cyclic traffic
    # ------------------------------------------------------------------
    def _send_body_status(self) -> None:
        self.send(self._body_status.frame({
            "DoorsLocked": 1.0 if self.locked else 0.0,
            "DriverDoorOpen": 0.0,
            "PassengerDoorOpen": 0.0,
            "LowBeam": 1.0 if self.low_beam else 0.0,
            "HighBeam": 0.0,
            "IndicatorLeft": 0.0,
            "IndicatorRight": 0.0,
            "InteriorLight": 1.0 if self.interior_light else 0.0,
            "BatteryVoltage": 14.2 if self._dynamics.engine_on else 12.4,
        }))

    def _send_cluster_display(self) -> None:
        dyn = self._dynamics
        self.send(self._cluster_display.frame({
            "FuelLevel": dyn.fuel_level,
            "OutsideTemp": 17.0,
            "RangeEstimate": max(0.0, dyn.fuel_level * 5.5),
            "TripDistance": min(6553.0, dyn.odometer_km % 1000.0),
        }))
