"""Tests for the bus: arbitration, delivery, errors, statistics."""

import pytest

from repro.can.bus import CanBus
from repro.can.errors import ErrorState
from repro.can.frame import CanFrame
from repro.can.node import CanController
from repro.sim.clock import MS


def collect(controller):
    """Attach a recording rx handler and return its list."""
    received = []
    controller.set_rx_handler(received.append)
    return received


class TestDelivery:
    def test_frame_reaches_other_nodes_not_sender(self, sim, node_pair):
        a, b = node_pair
        got_a = collect(a)
        got_b = collect(b)
        a.send(CanFrame(0x100, b"\x01"))
        sim.run_for(1 * MS)
        assert len(got_b) == 1
        assert got_a == []

    def test_delivery_carries_bus_time_and_sender(self, sim, node_pair):
        a, b = node_pair
        got = collect(b)
        a.send(CanFrame(0x100, b"\x01"))
        sim.run_for(1 * MS)
        stamped = got[0]
        assert stamped.time > 0            # EOF, not submit time
        assert stamped.sender == "node-a"
        assert stamped.channel == "test-bus"

    def test_taps_see_all_traffic(self, sim, node_pair):
        a, b = node_pair
        bus = a.bus
        tapped = []
        bus.add_tap(tapped.append)
        a.send(CanFrame(0x100))
        b.send(CanFrame(0x200))
        sim.run_for(2 * MS)
        assert {s.frame.can_id for s in tapped} == {0x100, 0x200}


class TestArbitration:
    def test_lower_id_transmits_first(self, sim, node_pair):
        a, b = node_pair
        got = []
        tap = a.bus.add_tap(lambda s: got.append(s.frame.can_id))
        # Occupy the bus so both contenders queue behind a transmission.
        a.send(CanFrame(0x700, bytes(8)))
        a.send(CanFrame(0x300))
        b.send(CanFrame(0x100))
        sim.run_for(5 * MS)
        assert got == [0x700, 0x100, 0x300]

    def test_same_node_priority_queue(self, sim, node_pair):
        a, _ = node_pair
        order = []
        a.bus.add_tap(lambda s: order.append(s.frame.can_id))
        a.send(CanFrame(0x700, bytes(8)))  # occupies bus
        a.send(CanFrame(0x500))
        a.send(CanFrame(0x050))
        sim.run_for(5 * MS)
        assert order == [0x700, 0x050, 0x500]

    def test_busy_bus_delays_delivery(self, sim, node_pair):
        a, b = node_pair
        times = []
        a.bus.add_tap(lambda s: times.append(s.time))
        a.send(CanFrame(0x100, bytes(8)))
        a.send(CanFrame(0x101, bytes(8)))
        sim.run_for(5 * MS)
        # Second frame completes roughly one frame-duration later.
        assert times[1] - times[0] >= 200

    def test_bus_utilisation_grows_with_traffic(self, sim, node_pair):
        a, _ = node_pair
        for i in range(10):
            a.send(CanFrame(0x100 + i, bytes(8)))
        sim.run_for(3 * MS)
        assert a.bus.stats.utilisation(sim.now) > 0.5


class TestStats:
    def test_frames_delivered_counted(self, sim, node_pair):
        a, _ = node_pair
        for _ in range(3):
            a.send(CanFrame(0x100))
        sim.run_for(3 * MS)
        assert a.bus.stats.frames_delivered == 3

    def test_per_id_histogram(self, sim, node_pair):
        a, _ = node_pair
        a.send(CanFrame(0x100))
        a.send(CanFrame(0x100))
        a.send(CanFrame(0x200))
        sim.run_for(3 * MS)
        assert a.bus.stats.per_id == {0x100: 2, 0x200: 1}


class TestErrorHandling:
    def test_fault_injector_generates_error_frames(self, sim, node_pair):
        a, b = node_pair
        bus = a.bus
        corrupt_next = [True]

        def injector(frame):
            if corrupt_next[0]:
                corrupt_next[0] = False
                return True
            return False

        bus.fault_injector = injector
        errors = []
        bus.add_error_tap(errors.append)
        got = collect(b)
        a.send(CanFrame(0x100, b"\x01"))
        sim.run_for(5 * MS)
        # Error frame observed, then automatic retransmission succeeds.
        assert len(errors) == 1
        assert errors[0].reporter == "node-a"
        assert len(got) == 1
        assert bus.stats.error_frames == 1

    def test_transmit_errors_raise_tec(self, sim, node_pair):
        a, _ = node_pair
        fail_count = [3]

        def injector(frame):
            if fail_count[0]:
                fail_count[0] -= 1
                return True
            return False

        a.bus.fault_injector = injector
        a.send(CanFrame(0x100))
        sim.run_for(10 * MS)
        # 3 errors (+8 each) then one success (-1).
        assert a.counters.tec == 23

    def test_persistent_corruption_drives_bus_off(self, sim, node_pair):
        a, _ = node_pair
        a.bus.fault_injector = lambda frame: True
        a.send(CanFrame(0x100))
        sim.run_for(50 * MS)
        assert a.counters.state is ErrorState.BUS_OFF
        assert a.pending_tx() == 0  # queue dropped on bus-off

    def test_receivers_accumulate_rec_on_errors(self, sim, node_pair):
        a, b = node_pair
        fail = [2]
        a.bus.fault_injector = lambda f: fail[0] > 0 and (
            fail.__setitem__(0, fail[0] - 1) or True)
        a.send(CanFrame(0x100))
        sim.run_for(10 * MS)
        # 2 errors bumped REC; the final success decremented once.
        assert b.counters.rec == 1
