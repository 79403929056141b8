"""The target vehicle's signal database.

The paper's target vehicle is anonymised (operational details of
vehicle networks are "commercial secrets", §II), so this database is a
synthetic but realistic message set built around the identifiers the
paper actually shows:

- Table II capture rows: ``0x043A``, ``0x0296``, ``0x04B0``, ``0x04F2``,
  ``0x0215`` (lengths 8, 8, 8, 8, 7 -- matched here),
- Fig 13: the lock/unlock command uses CAN id 533 decimal = ``0x215``,
  DLC 7, with the lock/unlock code in the first payload byte
  (0x10 = lock, 0x20 = unlock) -- the values visible in the paper's
  app screenshot.

Message cycle times follow common automotive practice (10-25 ms
powertrain, 100-200 ms body).
"""

from __future__ import annotations

import functools

from repro.vehicle.signals import MessageDef, SignalDatabase, SignalDef

# Command codes carried in BODY_COMMAND byte 0 (paper Fig 13).
LOCK_COMMAND = 0x10
UNLOCK_COMMAND = 0x20
#: Fixed second byte seen in the paper's app (95 decimal).
COMMAND_CHANNEL = 0x5F

# Identifiers, named so experiments read clearly.
ENGINE_STATUS_ID = 0x0C9
BRAKE_STATUS_ID = 0x0F1
BODY_COMMAND_ID = 0x215       # = 533 decimal, the paper's lock/unlock id
VEHICLE_SPEED_ID = 0x296      # Table II row 2
TRANSMISSION_STATUS_ID = 0x2C4
FUEL_ECONOMY_ID = 0x3E9
CLUSTER_DISPLAY_ID = 0x43A    # Table II row 1
WHEEL_SPEEDS_ID = 0x4B0       # Table II row 3
BODY_STATUS_ID = 0x4F2        # Table II row 4
LOCK_STATUS_ID = 0x520
CLUSTER_WARNINGS_ID = 0x560


def target_vehicle_database() -> SignalDatabase:
    """The target vehicle's message database.

    Each call returns a new :class:`SignalDatabase` over one set of
    message definitions built once per process, so no car or bench
    build pays for compiling the signal codecs, and the frame memos of
    :meth:`~repro.vehicle.signals.MessageDef.frame` stay warm from one
    world to the next.
    """
    return SignalDatabase(list(_target_messages()))


@functools.cache
def _target_messages() -> tuple[MessageDef, ...]:
    return (
        MessageDef(
            name="ENGINE_STATUS", can_id=ENGINE_STATUS_ID, length=8,
            cycle_time_ms=10, sender="engine",
            signals=(
                # Signed on purpose: the Vector rig displayed a negative
                # RPM under fuzzing (Fig 8); a signed decode is how a
                # physically impossible value reaches the display.
                SignalDef("EngineSpeed", start_bit=0, length=16,
                          signed=True, scale=0.25, unit="rpm",
                          minimum=0, maximum=8000),
                SignalDef("ThrottlePosition", start_bit=16, length=8,
                          scale=0.4, unit="%", minimum=0, maximum=100),
                SignalDef("CoolantTemp", start_bit=24, length=8,
                          offset=-40.0, unit="degC",
                          minimum=-40, maximum=215),
                SignalDef("EngineRunning", start_bit=32, length=1),
            )),
        MessageDef(
            name="BRAKE_STATUS", can_id=BRAKE_STATUS_ID, length=8,
            cycle_time_ms=20, sender="abs",
            signals=(
                SignalDef("BrakePressure", start_bit=0, length=8,
                          unit="bar", minimum=0, maximum=255),
                SignalDef("BrakePedalPressed", start_bit=8, length=1),
            )),
        MessageDef(
            name="BODY_COMMAND", can_id=BODY_COMMAND_ID, length=7,
            cycle_time_ms=None, sender="infotainment",
            signals=(
                SignalDef("CommandCode", start_bit=0, length=8),
                SignalDef("CommandChannel", start_bit=8, length=8),
                SignalDef("CommandCounter", start_bit=16, length=8),
                SignalDef("CommandFlags", start_bit=40, length=8),
            )),
        MessageDef(
            name="VEHICLE_SPEED", can_id=VEHICLE_SPEED_ID, length=8,
            cycle_time_ms=20, sender="abs",
            signals=(
                SignalDef("VehicleSpeed", start_bit=0, length=16,
                          signed=True, scale=0.01, unit="km/h",
                          minimum=0, maximum=300),
                # Observed 0x60 in byte 7 of the Table II capture.
                SignalDef("SpeedStatusFlags", start_bit=56, length=8),
            )),
        MessageDef(
            name="TRANSMISSION_STATUS", can_id=TRANSMISSION_STATUS_ID,
            length=8, cycle_time_ms=25, sender="transmission",
            signals=(
                SignalDef("CurrentGear", start_bit=0, length=4),
                SignalDef("ShiftInProgress", start_bit=4, length=1),
                SignalDef("TransmissionTemp", start_bit=8, length=8,
                          offset=-40.0, unit="degC"),
            )),
        MessageDef(
            name="FUEL_ECONOMY", can_id=FUEL_ECONOMY_ID, length=8,
            cycle_time_ms=100, sender="engine",
            signals=(
                SignalDef("FuelRate", start_bit=0, length=16,
                          scale=0.01, unit="L/h"),
                SignalDef("InstantEconomy", start_bit=16, length=16,
                          scale=0.1, unit="km/L"),
            )),
        MessageDef(
            name="CLUSTER_DISPLAY", can_id=CLUSTER_DISPLAY_ID, length=8,
            cycle_time_ms=100, sender="bcm",
            signals=(
                SignalDef("FuelLevel", start_bit=0, length=8,
                          scale=0.5, unit="%", minimum=0, maximum=100),
                SignalDef("OutsideTemp", start_bit=8, length=8,
                          offset=-40.0, unit="degC"),
                SignalDef("RangeEstimate", start_bit=16, length=16,
                          scale=0.1, unit="km"),
                SignalDef("TripDistance", start_bit=32, length=16,
                          scale=0.1, unit="km"),
            )),
        MessageDef(
            name="WHEEL_SPEEDS", can_id=WHEEL_SPEEDS_ID, length=8,
            cycle_time_ms=20, sender="abs",
            signals=(
                SignalDef("WheelSpeedFL", start_bit=0, length=16,
                          scale=0.01, unit="km/h"),
                SignalDef("WheelSpeedFR", start_bit=16, length=16,
                          scale=0.01, unit="km/h"),
                SignalDef("WheelSpeedRL", start_bit=32, length=16,
                          scale=0.01, unit="km/h"),
                SignalDef("WheelSpeedRR", start_bit=48, length=16,
                          scale=0.01, unit="km/h"),
            )),
        MessageDef(
            name="BODY_STATUS", can_id=BODY_STATUS_ID, length=8,
            cycle_time_ms=100, sender="bcm",
            signals=(
                SignalDef("DoorsLocked", start_bit=0, length=1),
                SignalDef("DriverDoorOpen", start_bit=1, length=1),
                SignalDef("PassengerDoorOpen", start_bit=2, length=1),
                SignalDef("LowBeam", start_bit=8, length=1),
                SignalDef("HighBeam", start_bit=9, length=1),
                SignalDef("IndicatorLeft", start_bit=10, length=1),
                SignalDef("IndicatorRight", start_bit=11, length=1),
                SignalDef("InteriorLight", start_bit=12, length=1),
                SignalDef("BatteryVoltage", start_bit=16, length=8,
                          scale=0.1, unit="V", minimum=0, maximum=25.5),
            )),
        MessageDef(
            name="LOCK_STATUS", can_id=LOCK_STATUS_ID, length=3,
            cycle_time_ms=1000, sender="bcm",
            signals=(
                SignalDef("LockState", start_bit=0, length=8),
                SignalDef("LockAckCounter", start_bit=8, length=8),
                SignalDef("LockSource", start_bit=16, length=8),
            )),
        MessageDef(
            name="CLUSTER_WARNINGS", can_id=CLUSTER_WARNINGS_ID, length=4,
            cycle_time_ms=200, sender="cluster",
            signals=(
                SignalDef("MilCount", start_bit=0, length=8),
                SignalDef("WarningSoundActive", start_bit=8, length=1),
                SignalDef("DisplayFaultLatched", start_bit=9, length=1),
                SignalDef("GaugeSweepActive", start_bit=10, length=1),
            )),
    )


#: Which bus each message originates on in the assembled car; the
#: gateway forwards cluster-relevant powertrain traffic to the body bus.
BUS_ASSIGNMENT: dict[int, str] = {
    ENGINE_STATUS_ID: "powertrain",
    BRAKE_STATUS_ID: "powertrain",
    VEHICLE_SPEED_ID: "powertrain",
    TRANSMISSION_STATUS_ID: "powertrain",
    FUEL_ECONOMY_ID: "powertrain",
    WHEEL_SPEEDS_ID: "powertrain",
    BODY_COMMAND_ID: "body",
    CLUSTER_DISPLAY_ID: "body",
    BODY_STATUS_ID: "body",
    LOCK_STATUS_ID: "body",
    CLUSTER_WARNINGS_ID: "body",
}

#: Powertrain ids the gateway forwards onto the body bus for the
#: instrument cluster.
GATEWAY_FORWARD_TO_BODY = (
    ENGINE_STATUS_ID,
    VEHICLE_SPEED_ID,
    FUEL_ECONOMY_ID,
)

#: Body ids the gateway forwards onto the powertrain bus (remote
#: commands reach powertrain ECUs this way).
GATEWAY_FORWARD_TO_POWERTRAIN = (
    BODY_COMMAND_ID,
)
