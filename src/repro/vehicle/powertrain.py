"""Powertrain ECUs: engine, ABS and transmission nodes.

These are the residual-bus transmitters: they encode the shared
:class:`~repro.vehicle.dynamics.VehicleDynamics` state onto the
powertrain CAN at realistic cycle times, producing the background
traffic the paper captured in Table II and profiled in Fig 4.
"""

from __future__ import annotations

from repro.can.bus import CanBus
from repro.ecu.base import Ecu
from repro.ecu.faults import FaultModel, Vulnerability, FaultEffect
from repro.ecu.faults import dlc_mismatch_trigger
from repro.sim.clock import MS
from repro.sim.kernel import Simulator
from repro.vehicle.database import ENGINE_STATUS_ID, WHEEL_SPEEDS_ID
from repro.vehicle.dynamics import VehicleDynamics
from repro.vehicle.signals import SignalDatabase


class EngineEcu(Ecu):
    """Engine controller: ENGINE_STATUS @ 10 ms, FUEL_ECONOMY @ 100 ms."""

    def __init__(self, sim: Simulator, bus: CanBus,
                 dynamics: VehicleDynamics,
                 database: SignalDatabase) -> None:
        faults = FaultModel([
            # An over-length spoof of the engine's own status id hits an
            # untested branch in its rx mirror check and reboots it --
            # the "unknown code path" defect class of §III.
            Vulnerability(
                name="engine-rx-mirror-reset",
                trigger=lambda f: (f.can_id == ENGINE_STATUS_ID
                                   and len(f.data) == 0),
                effect=FaultEffect.RESET,
                detail="zero-DLC spoof of own status id causes soft reset"),
        ])
        super().__init__(sim, bus, "engine", fault_model=faults,
                         watchdog_timeout=500 * MS)
        self._dynamics = dynamics
        self._engine_status = database.by_name("ENGINE_STATUS")
        self._fuel_economy = database.by_name("FUEL_ECONOMY")
        self.every(10 * MS, self._send_engine_status, phase=1 * MS,
                   label="engine:status")
        self.every(100 * MS, self._send_fuel_economy, phase=7 * MS,
                   label="engine:fuel")

    def _send_engine_status(self) -> None:
        dyn = self._dynamics
        # Clamp into the signal's encodable range; the *sensor* is
        # honest, only the bus data can lie.
        rpm = max(-8192.0, min(8191.75, dyn.rpm))
        self.send(self._engine_status.frame({
            "EngineSpeed": rpm,
            "ThrottlePosition": dyn.throttle * 100.0,
            "CoolantTemp": dyn.coolant_temp,
            "EngineRunning": 1.0 if dyn.engine_on else 0.0,
        }))

    def _send_fuel_economy(self) -> None:
        dyn = self._dynamics
        economy = 0.0
        if dyn.fuel_rate > 0.01:
            economy = min(6553.0, dyn.speed_kmh / dyn.fuel_rate)
        self.send(self._fuel_economy.frame({
            "FuelRate": min(655.0, dyn.fuel_rate),
            "InstantEconomy": economy,
        }))


class AbsEcu(Ecu):
    """ABS/brake controller: speed, wheel speeds and brake status."""

    def __init__(self, sim: Simulator, bus: CanBus,
                 dynamics: VehicleDynamics,
                 database: SignalDatabase) -> None:
        super().__init__(sim, bus, "abs", watchdog_timeout=500 * MS)
        self._dynamics = dynamics
        self._vehicle_speed = database.by_name("VEHICLE_SPEED")
        self._wheel_speeds = database.by_name("WHEEL_SPEEDS")
        self._brake_status = database.by_name("BRAKE_STATUS")
        self.every(20 * MS, self._send_vehicle_speed, phase=2 * MS,
                   label="abs:speed")
        self.every(20 * MS, self._send_wheel_speeds, phase=5 * MS,
                   label="abs:wheels")
        self.every(20 * MS, self._send_brake_status, phase=8 * MS,
                   label="abs:brake")

    def _send_vehicle_speed(self) -> None:
        speed = max(-327.0, min(327.0, self._dynamics.speed_kmh))
        self.send(self._vehicle_speed.frame({
            "VehicleSpeed": speed,
            "SpeedStatusFlags": 0x60,  # plausibility-OK flags, as captured
        }))

    def _send_wheel_speeds(self) -> None:
        speed = max(0.0, min(655.0, self._dynamics.speed_kmh))
        self.send(self._wheel_speeds.frame({
            "WheelSpeedFL": speed,
            "WheelSpeedFR": speed,
            "WheelSpeedRL": speed,
            "WheelSpeedRR": speed,
        }))

    def _send_brake_status(self) -> None:
        dyn = self._dynamics
        self.send(self._brake_status.frame({
            "BrakePressure": min(255.0, dyn.brake * 120.0),
            "BrakePedalPressed": 1.0 if dyn.brake > 0.02 else 0.0,
        }))


class TransmissionEcu(Ecu):
    """Transmission controller: TRANSMISSION_STATUS @ 25 ms."""

    def __init__(self, sim: Simulator, bus: CanBus,
                 dynamics: VehicleDynamics,
                 database: SignalDatabase) -> None:
        faults = FaultModel([
            # A short wheel-speeds frame makes the gear-selection task
            # index past the payload; the node wedges until its
            # watchdog pulls it back (observable as a message gap).
            Vulnerability(
                name="transmission-short-wheelspeed-crash",
                trigger=dlc_mismatch_trigger(WHEEL_SPEEDS_ID, 8),
                effect=FaultEffect.CRASH,
                detail="short WHEEL_SPEEDS read out of bounds"),
        ])
        super().__init__(sim, bus, "transmission", fault_model=faults,
                         watchdog_timeout=400 * MS)
        self._dynamics = dynamics
        self._status = database.by_name("TRANSMISSION_STATUS")
        self.every(25 * MS, self._send_status, phase=3 * MS,
                   label="transmission:status")

    def _send_status(self) -> None:
        dyn = self._dynamics
        self.send(self._status.frame({
            "CurrentGear": float(dyn.gear),
            "ShiftInProgress": 0.0,
            "TransmissionTemp": min(215.0, dyn.coolant_temp - 5.0),
        }))
