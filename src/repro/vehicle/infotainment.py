"""Infotainment head unit.

The paper's remote-unlock scenario (Fig 12): "the external phone app
sends an unlock command to a vehicle's infotainment ECU ... The
infotainment unit transmits the unlock command over the vehicle CAN
bus."  The phone-app side is a method call (:meth:`request_unlock`);
from there down, everything travels as CAN frames.
"""

from __future__ import annotations

from repro.can.bus import CanBus
from repro.ecu.base import Ecu
from repro.sim.kernel import Simulator
from repro.vehicle.database import (
    COMMAND_CHANNEL,
    LOCK_COMMAND,
    UNLOCK_COMMAND,
)
from repro.vehicle.signals import SignalDatabase


class HeadUnit(Ecu):
    """Infotainment ECU bridging the (assumed secure) app link to CAN."""

    def __init__(self, sim: Simulator, bus: CanBus,
                 database: SignalDatabase) -> None:
        super().__init__(sim, bus, "infotainment")
        self._command = database.by_name("BODY_COMMAND")
        self._counter = 0
        self.commands_sent = 0

    def request_unlock(self) -> bool:
        """App pressed 'unlock'.  Returns True if the command was sent."""
        return self._send_command(UNLOCK_COMMAND)

    def request_lock(self) -> bool:
        """App pressed 'lock'."""
        return self._send_command(LOCK_COMMAND)

    def _send_command(self, code: int) -> bool:
        self._counter = (self._counter + 1) % 256
        sent = self.send(self._command.frame({
            "CommandCode": float(code),
            "CommandChannel": float(COMMAND_CHANNEL),
            "CommandCounter": float(self._counter),
            "CommandFlags": 0x20,
        }))
        if sent:
            self.commands_sent += 1
        return sent
