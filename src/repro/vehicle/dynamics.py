"""Physics-lite vehicle dynamics.

Supplies the signal sources the transmitting ECUs encode onto the bus:
engine speed, road speed, temperatures, fuel.  The model is first-order
lag dynamics -- enough to generate the smooth, plausible traces of the
paper's Fig 6 ("normal vehicle signals") that contrast with the
erratic fuzzed traces of Fig 7.

The model runs as a periodic simulation process (default 10 ms step)
and is shared by every powertrain ECU, the way sensors feed multiple
control units in a real car.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.sim.clock import MS, SECOND
from repro.sim.kernel import Simulator
from repro.sim.process import PeriodicProcess

IDLE_RPM = 850.0
MAX_RPM = 6500.0
REDLINE_RPM = 6000.0


@dataclass
class DrivingProfile:
    """Driver input as a function of time.

    Attributes:
        throttle: maps seconds -> throttle fraction 0..1.
        brake: maps seconds -> brake fraction 0..1.
        name: label used in experiment output.
    """

    throttle: Callable[[float], float]
    brake: Callable[[float], float] = field(default=lambda _t: 0.0)
    name: str = "profile"

    @classmethod
    def idle(cls) -> "DrivingProfile":
        """Engine running, vehicle stationary -- the paper fuzzed the
        target vehicle while idling."""
        return cls(throttle=lambda _t: 0.0, name="idle")

    @classmethod
    def city(cls) -> "DrivingProfile":
        """Gentle stop-and-go: accelerate, cruise, brake, repeat."""
        def throttle(t: float) -> float:
            phase = t % 30.0
            if phase < 8.0:
                return 0.45
            if phase < 20.0:
                return 0.18
            return 0.0

        def brake(t: float) -> float:
            phase = t % 30.0
            return 0.5 if phase >= 24.0 else 0.0

        return cls(throttle=throttle, brake=brake, name="city")

    @classmethod
    def highway(cls) -> "DrivingProfile":
        """Hard acceleration then steady cruise with small modulation."""
        def throttle(t: float) -> float:
            if t < 12.0:
                return 0.8
            return 0.3 + 0.05 * math.sin(t / 3.0)

        return cls(throttle=throttle, name="highway")


#: Gear ratios (overall, including final drive) for the 5-speed model.
GEAR_RATIOS = (13.0, 8.0, 5.5, 4.2, 3.4)
#: Speed thresholds (km/h) at which the transmission upshifts.
UPSHIFT_SPEEDS = (20.0, 40.0, 65.0, 95.0)

#: Model step period, in milliseconds.
STEP_MS = 10


class VehicleDynamics:
    """The shared vehicle state, stepped on a fixed period.

    Public read attributes (the "sensor outputs"): ``rpm``,
    ``speed_kmh``, ``throttle``, ``brake``, ``gear``, ``coolant_temp``,
    ``fuel_level``, ``fuel_rate``, ``engine_on``, ``odometer_km``.
    """

    def __init__(self, sim: Simulator, *,
                 profile: DrivingProfile | None = None) -> None:
        self.sim = sim
        self.profile = profile or DrivingProfile.idle()
        self.engine_on = False
        self.rpm = 0.0
        self.speed_kmh = 0.0
        self.throttle = 0.0
        self.brake = 0.0
        self.gear = 0
        self.coolant_temp = 20.0
        self.fuel_level = 62.0          # percent
        self.fuel_rate = 0.0            # L/h
        self.odometer_km = 18204.3
        self._start_time: int | None = None
        self._process = PeriodicProcess(
            sim, STEP_MS * MS, self._step, label="dynamics")

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def start_engine(self) -> None:
        """Crank the engine and begin stepping the model."""
        self.engine_on = True
        self.rpm = IDLE_RPM
        self.gear = 0
        self._start_time = self.sim.now
        self._process.start()

    def stop_engine(self) -> None:
        self.engine_on = False
        self.rpm = 0.0
        self.speed_kmh = 0.0
        self.fuel_rate = 0.0
        self._process.stop()

    # ------------------------------------------------------------------
    # Model step
    # ------------------------------------------------------------------
    def _elapsed_seconds(self) -> float:
        if self._start_time is None:
            return 0.0
        return (self.sim.now - self._start_time) / SECOND

    def _step(self) -> None:
        if not self.engine_on:
            return
        dt = STEP_MS / 1000.0
        t = self._elapsed_seconds()
        self.throttle = min(1.0, max(0.0, self.profile.throttle(t)))
        self.brake = min(1.0, max(0.0, self.profile.brake(t)))

        # Longitudinal: drive force ~ throttle, minus brake + drag.
        accel = 3.2 * self.throttle - 6.0 * self.brake \
            - 0.012 * self.speed_kmh - 0.05
        self.speed_kmh = max(0.0, self.speed_kmh + accel * dt * 3.6)
        self.odometer_km += self.speed_kmh * dt / 3600.0

        # Gear selection from road speed.
        if self.speed_kmh < 1.0:
            self.gear = 1 if self.throttle > 0 else 0
        else:
            self.gear = 1 + sum(
                1 for threshold in UPSHIFT_SPEEDS
                if self.speed_kmh > threshold)

        # Engine speed: geared to the wheels when moving, else a lag
        # toward idle-plus-throttle.
        if self.gear >= 1 and self.speed_kmh > 1.0:
            ratio = GEAR_RATIOS[self.gear - 1]
            wheel_rpm = self.speed_kmh * 1000.0 / 60.0 / (2.0 * 0.31 * math.pi)
            target = max(IDLE_RPM, wheel_rpm * ratio)
        else:
            target = IDLE_RPM + 3200.0 * self.throttle
        target = min(target, MAX_RPM)
        self.rpm += (target - self.rpm) * min(1.0, 4.0 * dt)
        # Small combustion roughness so idle traces look live (Fig 6
        # shows real signals, which are never perfectly flat).
        self.rpm += 8.0 * math.sin(t * 9.0)
        self.rpm = max(0.0, min(self.rpm, MAX_RPM))

        # Thermals and fuel.
        warm_target = 90.0 + 4.0 * self.throttle
        self.coolant_temp += (warm_target - self.coolant_temp) * 0.002 \
            * (self.rpm / IDLE_RPM) * dt * 10.0
        self.fuel_rate = 0.7 + 18.0 * self.throttle * (self.rpm / MAX_RPM)
        self.fuel_level = max(
            0.0, self.fuel_level - self.fuel_rate * dt / 3600.0 / 0.55)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"VehicleDynamics(rpm={self.rpm:.0f}, "
                f"speed={self.speed_kmh:.1f}km/h, gear={self.gear})")
