"""Tests for the gateway and the assembled target car."""

import random

import pytest

from repro.analysis.capture import BusCapture
from repro.can.bus import CanBus
from repro.can.frame import CanFrame
from repro.can.node import CanController
from repro.sim.clock import MS, SECOND
from repro.sim.snapshot import fingerprint
from repro.vehicle.car import TargetCar
from repro.vehicle.database import (
    BODY_COMMAND_ID,
    BODY_STATUS_ID,
    CLUSTER_DISPLAY_ID,
    ENGINE_STATUS_ID,
    LOCK_STATUS_ID,
    UNLOCK_COMMAND,
    VEHICLE_SPEED_ID,
)
from repro.vehicle.gateway import GatewayEcu
from repro.vehicle.simulator import VehicleSimulator


class TestGateway:
    @pytest.fixture
    def two_buses(self, sim):
        return CanBus(sim, name="a"), CanBus(sim, name="b")

    def test_forwards_allowed_ids(self, sim, two_buses):
        bus_a, bus_b = two_buses
        gateway = GatewayEcu(sim, bus_a, bus_b,
                             forward_to_b=(0x100,), forward_to_a=())
        gateway.power_on()
        sender = CanController("sender")
        sender.attach(bus_a)
        capture_b = BusCapture(bus_b)
        sender.send(CanFrame(0x100, b"\x01"))
        sim.run_for(10 * MS)
        assert len(capture_b) == 1
        assert gateway.stats_a_to_b.forwarded == 1

    def test_blocks_unlisted_ids(self, sim, two_buses):
        bus_a, bus_b = two_buses
        gateway = GatewayEcu(sim, bus_a, bus_b,
                             forward_to_b=(0x100,), forward_to_a=())
        gateway.power_on()
        sender = CanController("sender")
        sender.attach(bus_a)
        capture_b = BusCapture(bus_b)
        sender.send(CanFrame(0x200, b"\x01"))
        sim.run_for(10 * MS)
        assert len(capture_b) == 0
        assert gateway.stats_a_to_b.blocked == 1
        assert gateway.stats_a_to_b.per_id_blocked == {0x200: 1}

    def test_none_allowlist_forwards_everything(self, sim, two_buses):
        bus_a, bus_b = two_buses
        gateway = GatewayEcu(sim, bus_a, bus_b)
        gateway.power_on()
        sender = CanController("sender")
        sender.attach(bus_a)
        capture_b = BusCapture(bus_b)
        for can_id in (0x001, 0x400, 0x7FF):
            sender.send(CanFrame(can_id))
        sim.run_for(10 * MS)
        assert len(capture_b) == 3

    def test_no_forwarding_while_off(self, sim, two_buses):
        bus_a, bus_b = two_buses
        gateway = GatewayEcu(sim, bus_a, bus_b)
        sender = CanController("sender")
        sender.attach(bus_a)
        capture_b = BusCapture(bus_b)
        sender.send(CanFrame(0x100))
        sim.run_for(10 * MS)
        assert len(capture_b) == 0

    def test_forwarding_adds_latency(self, sim, two_buses):
        bus_a, bus_b = two_buses
        gateway = GatewayEcu(sim, bus_a, bus_b, latency=2 * MS)
        gateway.power_on()
        sender = CanController("sender")
        sender.attach(bus_a)
        times_a, times_b = [], []
        bus_a.add_tap(lambda s: times_a.append(s.time))
        bus_b.add_tap(lambda s: times_b.append(s.time))
        sender.send(CanFrame(0x100))
        sim.run_for(10 * MS)
        assert times_b[0] - times_a[0] >= 2 * MS

    def test_set_firewall_reconfigures(self, sim, two_buses):
        bus_a, bus_b = two_buses
        gateway = GatewayEcu(sim, bus_a, bus_b)
        gateway.power_on()
        gateway.set_firewall(to_b=(), to_a=None)
        sender = CanController("sender")
        sender.attach(bus_a)
        capture_b = BusCapture(bus_b)
        sender.send(CanFrame(0x100))
        sim.run_for(10 * MS)
        assert len(capture_b) == 0


class TestTargetCar:
    @pytest.fixture
    def car(self):
        vehicle = TargetCar(seed=7)
        vehicle.ignition_on()
        vehicle.run_seconds(1.0)
        return vehicle

    def test_idles_after_ignition(self, car):
        assert car.ignition
        assert 700 <= car.dynamics.rpm <= 1000

    def test_powertrain_traffic_flows(self, car):
        assert car.powertrain_bus.stats.frames_delivered > 100

    def test_cluster_sees_forwarded_rpm(self, car):
        car.run_seconds(1.0)
        assert car.cluster.gauges.rpm == pytest.approx(
            car.dynamics.rpm, abs=100)

    def test_remote_unlock_via_head_unit(self, car):
        assert car.bcm.locked
        car.head_unit.request_unlock()
        car.run_seconds(0.1)
        assert not car.bcm.locked

    def test_command_crosses_gateway_from_powertrain(self, car):
        """A 0x215 injected on the POWERTRAIN bus reaches the body BCM
        through the gateway -- the attack path the fuzzer exploits."""
        adapter = car.obd_adapter("powertrain")
        adapter.write(CanFrame(BODY_COMMAND_ID,
                               bytes((UNLOCK_COMMAND,)) + bytes(6)))
        car.run_seconds(0.1)
        assert not car.bcm.locked

    def test_obd_adapter_sees_bus_traffic(self, car):
        adapter = car.obd_adapter("powertrain")
        car.run_seconds(0.2)
        frames = adapter.drain()
        assert any(s.frame.can_id == ENGINE_STATUS_ID for s in frames)

    def test_unknown_bus_name_rejected(self, car):
        with pytest.raises(KeyError):
            car.bus("chassis")

    def test_ignition_off_stops_traffic(self, car):
        car.ignition_off()
        before = car.powertrain_bus.stats.frames_delivered
        car.run_seconds(1.0)
        assert car.powertrain_bus.stats.frames_delivered == before

    def test_deterministic_across_instances(self):
        def fingerprint():
            vehicle = TargetCar(seed=3)
            vehicle.ignition_on()
            vehicle.run_seconds(1.0)
            return (vehicle.powertrain_bus.stats.frames_delivered,
                    round(vehicle.dynamics.rpm, 6))
        assert fingerprint() == fingerprint()


def body_trace() -> list[CanFrame]:
    """200 body-bus frames: payloads of 1-8 bytes on the ids the cluster
    decodes and two noise ids, with two unlock commands among them."""
    rng = random.Random(22)
    ids = (ENGINE_STATUS_ID, VEHICLE_SPEED_ID, CLUSTER_DISPLAY_ID,
           BODY_STATUS_ID, LOCK_STATUS_ID, 0x101, 0x400)
    frames = [CanFrame(rng.choice(ids),
                       bytes(rng.randrange(256)
                             for _ in range(rng.randrange(1, 9))))
              for _ in range(200)]
    for position, counter in ((60, 1), (140, 2)):
        frames[position] = CanFrame(
            BODY_COMMAND_ID, bytes((UNLOCK_COMMAND, 0x5F, counter, 0, 0,
                                    0x20, 0)))
    return frames


class TestPinnedBodyTrace:
    """The whole car against digests and gauge readings recorded with the
    bit-walk codec and a freshly built frame per periodic send: memoised
    frames and the compiled codec must leave every event, frame, counter
    and decoded value as it was."""

    def test_digests_match_recording(self):
        car = TargetCar(seed=11)
        car.ignition_on()
        car.run_seconds(2.0)
        capture = BusCapture(car.body_bus)
        adapter = car.obd_adapter("body")
        for frame in body_trace():
            adapter.write(frame)
            car.sim.run_for(1 * MS)
        car.sim.run_for(100 * MS)
        assert car.bcm.unlock_events == 2
        assert car.sim.state_digest() == (
            "8afb1ae455d4a7e022fffc6f70bd9dd9a82f6338ee28713c0e16a6cb53728466")
        assert car.powertrain_bus.state_digest() == (
            "f982eb6c2d6de315aa816c9cf77d0e35ffdda7ba923e7bb02d40f18e68a2979b")
        assert car.body_bus.state_digest() == (
            "bf555219139f59785a51c22161b08b5ebd110e62178fb804b7bb6dee9237f6cd")
        assert fingerprint(capture.stamped) == (
            "67a640f78e485f95b96d513e5c0089c48d4462c60414857599aa1b5e348818a0")
        # The needles show what the cluster decoded; the bus cannot.
        gauges = car.cluster.gauges
        assert (gauges.rpm, gauges.speed_kmh, gauges.fuel_percent,
                gauges.coolant_temp) == (6394.5, -71.56, 62.0, 166.0)
        assert car.cluster.mils == {"MIL_ABS"}


class TestVehicleSimulatorView:
    def test_traces_accumulate(self):
        car = TargetCar(seed=1)
        view = VehicleSimulator(car.database,
                                [car.powertrain_bus, car.body_bus])
        car.ignition_on()
        car.run_seconds(2.0)
        assert "EngineSpeed" in view.signal_names
        trace = view.trace("EngineSpeed")
        assert len(trace.points) > 50
        assert 700 <= trace.last <= 1000

    def test_unknown_frames_counted(self, sim):
        car = TargetCar(seed=1)
        view = VehicleSimulator(car.database, [car.powertrain_bus])
        car.ignition_on()
        adapter = car.obd_adapter("powertrain")
        adapter.write(CanFrame(0x7DF, b"\x02\x01\x00"))
        car.run_seconds(0.1)
        assert view.frames_unknown == 1

    def test_render_panel_contains_values(self):
        car = TargetCar(seed=1)
        view = VehicleSimulator(car.database,
                                [car.powertrain_bus, car.body_bus])
        car.ignition_on()
        car.run_seconds(1.0)
        panel = view.render_panel()
        assert "EngineSpeed" in panel
        assert "rpm" in panel

    def test_missing_trace_raises(self):
        car = TargetCar(seed=1)
        view = VehicleSimulator(car.database, [car.powertrain_bus])
        with pytest.raises(KeyError):
            view.trace("EngineSpeed")

    def test_roughness_metric(self):
        from repro.vehicle.simulator import SignalTrace
        smooth = SignalTrace("s", points=[(0, 0.0), (1, 1.0), (2, 2.0)])
        rough = SignalTrace("r", points=[(0, 0.0), (1, 100.0), (2, 0.0)])
        assert rough.roughness() > smooth.roughness()

    def test_windowed_trace(self):
        from repro.vehicle.simulator import SignalTrace
        trace = SignalTrace("s", points=[(0.5, 1.0), (1.5, 2.0), (2.5, 3.0)])
        window = trace.windowed(1.0, 2.0)
        assert window.values() == [2.0]
