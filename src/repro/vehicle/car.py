"""The assembled target vehicle.

Two CAN buses (powertrain + body) joined by a gateway, six ECUs, a
shared dynamics model, and OBD access to either bus -- the paper's
target exposed two buses through its OBD port and the fuzzer "was
tested on both buses".
"""

from __future__ import annotations

from repro.can.adapter import PcanStyleAdapter
from repro.can.bus import CanBus
from repro.can.timing import BitTiming, CAN_500K
from repro.ecu.supervisor import EcuSupervisor
from repro.obd.service import ObdResponder
from repro.sim.clock import SECOND
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStreams
from repro.vehicle.body import BodyControlModule
from repro.vehicle.cluster import InstrumentCluster
from repro.vehicle.database import (
    BODY_COMMAND_ID,
    BODY_STATUS_ID,
    BRAKE_STATUS_ID,
    CLUSTER_WARNINGS_ID,
    ENGINE_STATUS_ID,
    GATEWAY_FORWARD_TO_BODY,
    GATEWAY_FORWARD_TO_POWERTRAIN,
    LOCK_STATUS_ID,
    TRANSMISSION_STATUS_ID,
    WHEEL_SPEEDS_ID,
    target_vehicle_database,
)
from repro.vehicle.dynamics import DrivingProfile, VehicleDynamics
from repro.vehicle.gateway import GatewayEcu
from repro.vehicle.infotainment import HeadUnit
from repro.vehicle.powertrain import AbsEcu, EngineEcu, TransmissionEcu
from repro.vehicle.signals import SignalDatabase


class TargetCar:
    """A complete simulated target vehicle.

    Args:
        seed: root seed for all stochastic behaviour.
        timing: bus bit timing (both buses; default 500 kb/s).
        profile: driving profile; default idle, matching the paper's
            experiment ("fuzzed messages were sent into the idling
            target vehicle").

    Typical use::

        car = TargetCar(seed=1)
        car.ignition_on()
        car.run_seconds(5.0)
        adapter = car.obd_adapter("powertrain")
    """

    def __init__(self, *, seed: int = 0,
                 timing: BitTiming = CAN_500K,
                 profile: DrivingProfile | None = None) -> None:
        self.sim = Simulator()
        self.streams = RandomStreams(seed)
        self.database: SignalDatabase = target_vehicle_database()
        self.powertrain_bus = CanBus(self.sim, timing=timing,
                                     name="powertrain")
        self.body_bus = CanBus(self.sim, timing=timing, name="body")
        self.dynamics = VehicleDynamics(self.sim, profile=profile)
        self.engine = EngineEcu(self.sim, self.powertrain_bus,
                                self.dynamics, self.database)
        # The OBD port also speaks SAE J1979; the engine ECU answers.
        self.obd_responder = ObdResponder(self.engine, self.dynamics)
        self.abs = AbsEcu(self.sim, self.powertrain_bus,
                          self.dynamics, self.database)
        self.transmission = TransmissionEcu(self.sim, self.powertrain_bus,
                                            self.dynamics, self.database)
        self.bcm = BodyControlModule(self.sim, self.body_bus,
                                     self.dynamics, self.database)
        self.cluster = InstrumentCluster(self.sim, self.body_bus,
                                         self.database)
        self.head_unit = HeadUnit(self.sim, self.body_bus, self.database)
        # The gateway forwards cluster-relevant powertrain traffic to
        # the body bus, and the lock/unlock command in both directions
        # (so a remote command reaches the BCM regardless of entry bus
        # -- and so does a fuzzer's lucky frame).
        self.gateway = GatewayEcu(
            self.sim, self.powertrain_bus, self.body_bus,
            forward_to_b=tuple(GATEWAY_FORWARD_TO_BODY) + (BODY_COMMAND_ID,),
            forward_to_a=tuple(GATEWAY_FORWARD_TO_POWERTRAIN))
        self._ecus = (self.engine, self.abs, self.transmission,
                      self.bcm, self.cluster, self.head_unit)
        # Health supervision per module: auto bus-off recovery, DTCs,
        # and a limp-home whitelist of each ECU's safety-critical
        # traffic (powertrain status keeps flowing, comfort traffic is
        # shed when a module degrades).
        self.supervisors = {
            ecu.name: EcuSupervisor(ecu, safety_ids=frozenset(ids))
            for ecu, ids in (
                (self.engine, {ENGINE_STATUS_ID}),
                (self.abs, {BRAKE_STATUS_ID, WHEEL_SPEEDS_ID}),
                (self.transmission, {TRANSMISSION_STATUS_ID}),
                (self.bcm, {BODY_STATUS_ID, LOCK_STATUS_ID}),
                (self.cluster, {CLUSTER_WARNINGS_ID}),
                (self.head_unit, {BODY_COMMAND_ID}),
            )
        }
        self.ignition = False

    def bus(self, name: str) -> CanBus:
        """Look up a bus by name ("powertrain" or "body")."""
        buses = {"powertrain": self.powertrain_bus, "body": self.body_bus}
        if name not in buses:
            raise KeyError(f"no bus named {name!r}; have {sorted(buses)}")
        return buses[name]

    # ------------------------------------------------------------------
    # Power
    # ------------------------------------------------------------------
    def ignition_on(self) -> None:
        """Key on: power every ECU, start the engine model."""
        if self.ignition:
            return
        self.ignition = True
        self.gateway.power_on()
        for ecu in self._ecus:
            ecu.power_on()
        self.dynamics.start_engine()

    def ignition_off(self) -> None:
        if not self.ignition:
            return
        self.ignition = False
        self.dynamics.stop_engine()
        for ecu in self._ecus:
            ecu.power_off()
        self.gateway.power_off()

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def obd_adapter(self, bus_name: str = "powertrain") -> PcanStyleAdapter:
        """Plug a USB-CAN adaptor into the OBD port, wired to a bus.

        The paper used "an OBD cable (via the USB to CAN adaptor)";
        both vehicle buses are reachable this way.
        """
        adapter = PcanStyleAdapter(
            self.bus(bus_name),
            channel=f"PCAN_USBBUS_{bus_name.upper()}")
        adapter.initialize()
        return adapter

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    def run_seconds(self, duration: float) -> None:
        """Advance the whole vehicle by ``duration`` seconds."""
        self.sim.run_for(round(duration * SECOND))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TargetCar(ignition={self.ignition}, "
                f"rpm={self.dynamics.rpm:.0f})")
