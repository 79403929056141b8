"""Tests for the physics-lite vehicle model."""

import pytest

from repro.sim.clock import SECOND
from repro.vehicle.dynamics import (
    DrivingProfile,
    IDLE_RPM,
    MAX_RPM,
    VehicleDynamics,
)


def run_seconds(sim, duration):
    sim.run_for(round(duration * SECOND))


class TestEngineStartStop:
    def test_starts_at_idle(self, sim):
        dyn = VehicleDynamics(sim)
        dyn.start_engine()
        run_seconds(sim, 2.0)
        assert dyn.engine_on
        assert 700 <= dyn.rpm <= 1100

    def test_stop_engine_zeroes_outputs(self, sim):
        dyn = VehicleDynamics(sim)
        dyn.start_engine()
        run_seconds(sim, 1.0)
        dyn.stop_engine()
        assert dyn.rpm == 0.0
        assert dyn.fuel_rate == 0.0

    def test_model_frozen_when_off(self, sim):
        dyn = VehicleDynamics(sim)
        run_seconds(sim, 5.0)
        assert dyn.rpm == 0.0
        assert dyn.speed_kmh == 0.0


class TestIdleProfile:
    def test_idle_vehicle_is_stationary(self, sim):
        dyn = VehicleDynamics(sim, profile=DrivingProfile.idle())
        dyn.start_engine()
        run_seconds(sim, 10.0)
        assert dyn.speed_kmh == 0.0
        assert dyn.gear == 0

    def test_idle_rpm_fluctuates_but_stays_near_idle(self, sim):
        """Fig 6 shows live signals: never flat, never far from idle."""
        dyn = VehicleDynamics(sim, profile=DrivingProfile.idle())
        dyn.start_engine()
        samples = []
        for _ in range(50):
            run_seconds(sim, 0.1)
            samples.append(dyn.rpm)
        assert max(samples) != min(samples)
        assert all(IDLE_RPM - 150 <= s <= IDLE_RPM + 150 for s in samples)


class TestDrivingProfiles:
    def test_city_profile_moves_the_car(self, sim):
        dyn = VehicleDynamics(sim, profile=DrivingProfile.city())
        dyn.start_engine()
        run_seconds(sim, 10.0)
        assert dyn.speed_kmh > 10.0
        assert dyn.gear >= 1

    def test_highway_reaches_cruise(self, sim):
        dyn = VehicleDynamics(sim, profile=DrivingProfile.highway())
        dyn.start_engine()
        run_seconds(sim, 40.0)
        assert dyn.speed_kmh > 60.0
        assert dyn.gear >= 3

    def test_rpm_never_exceeds_max(self, sim):
        dyn = VehicleDynamics(sim, profile=DrivingProfile.highway())
        dyn.start_engine()
        for _ in range(100):
            run_seconds(sim, 0.5)
            assert 0.0 <= dyn.rpm <= MAX_RPM

    def test_braking_slows_the_car(self, sim):
        dyn = VehicleDynamics(sim, profile=DrivingProfile.city())
        dyn.start_engine()
        run_seconds(sim, 20.0)   # accelerate + cruise
        speed_at_cruise = dyn.speed_kmh
        run_seconds(sim, 9.0)    # braking phase of the 30 s cycle
        assert dyn.speed_kmh < speed_at_cruise

    def test_odometer_accumulates(self, sim):
        dyn = VehicleDynamics(sim, profile=DrivingProfile.highway())
        start = dyn.odometer_km
        dyn.start_engine()
        run_seconds(sim, 30.0)
        assert dyn.odometer_km > start

    def test_coolant_warms_up(self, sim):
        dyn = VehicleDynamics(sim)
        dyn.start_engine()
        start_temp = dyn.coolant_temp
        run_seconds(sim, 60.0)
        assert dyn.coolant_temp > start_temp

    def test_fuel_is_consumed(self, sim):
        dyn = VehicleDynamics(sim, profile=DrivingProfile.highway())
        dyn.start_engine()
        start = dyn.fuel_level
        run_seconds(sim, 60.0)
        assert dyn.fuel_level < start
