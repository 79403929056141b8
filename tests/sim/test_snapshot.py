"""Tests for the snapshot/restore engine.

Covers the tentpole guarantees: closure isolation (a restored world's
callbacks fire into the clone, never the original), clone isolation
over the real replay worlds, the Snapshottable protocol, event-queue
snapshot semantics, and the determinism guarantee -- run -> snapshot
-> diverge -> restore -> rerun yields a bit-identical event/frame
fingerprint, RNG streams included.
"""

import copy
import enum
import gc
import inspect
import types
import weakref

import pytest

from repro.analysis import BusCapture
from repro.can.bus import CanBus
from repro.can.channel import AdversarialChannel, ChannelConfig
from repro.can.frame import CanFrame, TimestampedFrame
from repro.can.timing import CAN_500K, BitTiming
from repro.sim.clock import MS
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStreams
from repro.sim.snapshot import Snapshottable, capture, fingerprint
from repro.testbench.bench import UnlockTestbench
from repro.testbench.factory import CarReplayFactory, UdsReplayFactory
from repro.vehicle.database import BODY_COMMAND_ID, UNLOCK_COMMAND
from repro.vehicle.signals import MessageDef, SignalDef

from tests.uds.test_isotp import make_channel

UNLOCK_FRAME = CanFrame(BODY_COMMAND_ID,
                        bytes((UNLOCK_COMMAND, 0x99, 0x01)))


def kernel_world():
    """A tiny world whose event closures capture local state."""
    sim = Simulator()
    log: list[int] = []

    def tick() -> None:
        log.append(sim.now)
        sim.call_after(5 * MS, tick, label="tick")

    sim.call_after(5 * MS, tick, label="tick")
    return sim, log


class TestClosureIsolation:
    def test_restored_callbacks_fire_into_the_clone(self):
        sim, log = kernel_world()
        sim.run_for(10 * MS)
        snap = capture((sim, log))
        clone_sim, clone_log = snap.restore()

        clone_sim.run_for(20 * MS)
        assert log == [5 * MS, 10 * MS]          # original untouched
        assert clone_log[:2] == log              # shared history...
        assert len(clone_log) > len(log)         # ...then its own future

        sim.run_for(20 * MS)
        assert log == [5 * MS, 10 * MS, 15 * MS, 20 * MS, 25 * MS,
                       30 * MS]
        # The clone's extra entries were not duplicated into the
        # original by the rerun: the closures are fully split.
        assert clone_log[2:] == log[2:]

    def test_closure_free_functions_are_shared(self):
        def plain() -> None:
            pass

        snap = capture(plain)
        assert snap.restore() is plain

    def test_builtin_bound_methods_rebind_to_the_clone(self):
        # A receiver delivering into ``got.append`` must deliver into
        # the clone's list once restored, not the original's.
        sim = Simulator()
        left, right = make_channel(sim, CanBus(sim, name="isotp"))
        got: list[bytes] = []
        right.on_message(got.append)
        payload = bytes(range(40))
        left.send(payload)
        sim.run_for(1 * MS)  # mid-transfer
        assert not right.idle
        clone_sim, clone_got = capture((sim, got)).restore()
        clone_sim.run_for(20 * MS)
        assert got == []
        assert clone_got == [payload]

    def test_snapshot_does_not_pin_the_captured_world(self):
        sim, log = kernel_world()
        sim.run_for(10 * MS)
        original = weakref.ref(sim)
        snap = capture((sim, log))
        del sim, log
        gc.collect()
        assert original() is None
        clone_sim, clone_log = snap.restore()
        clone_sim.run_for(5 * MS)
        assert clone_log == [5 * MS, 10 * MS, 15 * MS]

    def test_stock_deepcopy_behaviour_outside_captures(self):
        # Snapshots leave the copy module alone: deepcopy still treats
        # functions atomically.
        counter = [0]
        bump = lambda: counter.append(counter[0])  # noqa: E731
        assert copy.deepcopy(bump) is bump


def restored(root):
    return capture(root).restore()


#: The protocol is the class's reduction: both clone paths honour it.
CLONES = (copy.deepcopy, restored)


class TestSnapshottableProtocol:
    class Box(Snapshottable):
        def __init__(self) -> None:
            self.items: list[int] = []
            self.name = "box"

    def test_default_snapshot_is_attribute_dict(self):
        for clone in CLONES:
            box = self.Box()
            box.items.append(1)
            dup = clone(box)
            assert dup.items == [1] and dup.name == "box"
            dup.items.append(2)
            assert box.items == [1]

    def test_identity_preserved_through_memo(self):
        for clone in CLONES:
            shared = RandomStreams(1).stream("a")
            box_a, box_b = self.Box(), self.Box()
            box_a.items = shared
            box_b.items = shared
            dup_a, dup_b = clone((box_a, box_b))
            assert dup_a.items is dup_b.items
            assert dup_a.items is not shared


#: Types whose instances snapshots share by design.
BY_REFERENCE = (type, types.ModuleType, enum.Enum, CanFrame,
                TimestampedFrame, SignalDef, MessageDef, BitTiming)
#: Immutable values a clone may share with anything.
IMMUTABLE = (str, bytes, int, float, complex, type(None), tuple,
             frozenset, range, types.CodeType)
MUTABLE_BUILTINS = (list, dict, set, bytearray, types.CellType)


def mutable_reach(root) -> dict:
    """Mutable objects reachable from ``root``, by id.

    Stops at what snapshots share by design: classes, modules, enum
    members, closure-free functions, a function's globals, a bound
    method's ``__func__`` and the registered immutable types.
    """
    found: dict[int, object] = {}
    seen: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, BY_REFERENCE):
            continue
        seen.add(id(obj))
        if isinstance(obj, types.FunctionType):
            if obj.__closure__ is not None:
                stack.extend(obj.__closure__)
                stack.extend((obj.__defaults__, obj.__kwdefaults__,
                              obj.__dict__))
            continue
        if isinstance(obj, types.MethodType):
            stack.append(obj.__self__)
            continue
        if isinstance(obj, MUTABLE_BUILTINS) or not (
                isinstance(obj, IMMUTABLE)
                or type(obj).__module__ == "builtins"):
            found[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return found


def unlock_world():
    bench = UnlockTestbench(seed=11, check_mode="byte")
    bench.power_on(settle_seconds=0.2)
    adapter = bench.attacker_adapter()
    tap = BusCapture(bench.bus, limit=64)
    for value in range(10):
        adapter.write(CanFrame(0x321, bytes((value, 0x55))))
        bench.sim.run_for(1 * MS)
    return (bench, adapter, tap), bench.sim, [bench.bus], bench.streams


def diag_world():
    sim, client, failed = UdsReplayFactory()()
    client.request(bytes((0x10, 0x03)))
    bench = failed.__self__
    return (sim, client, failed), sim, [bench.bus], bench.streams


def car_world():
    sim, adapter, failed = CarReplayFactory(settle_seconds=0.5)()
    car = inspect.getclosurevars(failed).nonlocals["car"]
    return ((sim, adapter, failed), sim,
            [car.powertrain_bus, car.body_bus], car.streams)


def noisy_world():
    bench = UnlockTestbench(seed=5)
    bench.power_on(settle_seconds=0.2)
    channel = AdversarialChannel(
        ChannelConfig(ber=2e-3, burst_ber=5e-2, burst_enter=0.02,
                      burst_exit=0.2, ack_loss=0.01),
        RandomStreams(5).stream("channel"))
    bench.bus.attach_channel(channel)
    bench.sim.run_for(200 * MS)
    return (bench, channel), bench.sim, [bench.bus], bench.streams


@pytest.mark.parametrize("build", [unlock_world, diag_world, car_world,
                                   noisy_world])
class TestCloneIsolation:
    """The real replay worlds clone with nothing mutable shared."""

    def test_capture_leaves_the_original_untouched(self, build):
        root, sim, buses, streams = build()

        def digests():
            return (sim.state_digest(),
                    [bus.state_digest() for bus in buses],
                    streams.state_digest())

        before = digests()
        capture(root)
        assert digests() == before

    def test_restores_share_nothing_mutable(self, build):
        root = build()[0]
        snap = capture(root)
        first, second = snap.restore(), snap.restore()
        clone = mutable_reach(first)
        assert any(isinstance(obj, Simulator) for obj in clone.values())
        for other in (mutable_reach(root), mutable_reach(second)):
            shared = [type(obj).__name__ for key, obj in clone.items()
                      if key in other]
            assert shared == []

class TestEventQueueSnapshot:
    def test_cancelled_events_are_dropped_by_capture(self):
        sim = Simulator()
        keep = sim.call_after(10 * MS, lambda: None, label="keep")
        kill = sim.call_after(20 * MS, lambda: None, label="kill")
        sim.cancel(kill)
        clone_sim = capture(sim).restore()
        assert len(clone_sim._queue) == 1
        assert keep is not None

    def test_sequence_counter_survives_restore(self):
        # Two events scheduled at the same instant must keep their
        # insertion order in the clone, and events scheduled *after*
        # the restore must not collide with captured sequence numbers.
        sim = Simulator()
        order: list[str] = []
        sim.call_at(5 * MS, lambda: order.append("first"))
        sim.call_at(5 * MS, lambda: order.append("second"))
        clone = capture((sim, order)).restore()
        clone_sim, clone_order = clone
        clone_sim.call_at(5 * MS, lambda: clone_order.append("third"))
        clone_sim.run_for(5 * MS)
        assert clone_order == ["first", "second", "third"]

    def test_state_digest_matches_between_twin_restores(self):
        sim, _log = kernel_world()
        sim.run_for(7 * MS)
        snap = capture(sim)
        assert snap.restore().state_digest() == \
            snap.restore().state_digest()


class TestDeterminism:
    """Run -> snapshot -> diverge -> restore -> rerun, bit-identical."""

    def bench_world(self):
        bench = UnlockTestbench(seed=11, check_mode="byte")
        bench.power_on(settle_seconds=0.2)
        adapter = bench.attacker_adapter()
        tap = BusCapture(bench.bus, limit=4096)
        return bench, adapter, tap

    def drive(self, bench, adapter, rng, frames: int) -> None:
        for _ in range(frames):
            payload = bytes(rng.randrange(256) for _ in range(4))
            adapter.write(CanFrame(0x321, payload))
            bench.sim.run_for(1 * MS)

    def test_restore_and_rerun_is_bit_identical(self):
        bench, adapter, tap = self.bench_world()
        rng = bench.streams.stream("driver")
        self.drive(bench, adapter, rng, 20)

        snap = capture((bench, adapter, tap, rng))
        baseline_digest = bench.streams.state_digest()

        # Uninterrupted continuation: 30 more frames.
        self.drive(bench, adapter, rng, 30)
        uninterrupted = fingerprint(tap.stamped)
        final_rng_digest = bench.streams.state_digest()

        # Diverge a restored clone hard (different traffic, including
        # an unlock), then throw it away.
        d_bench, d_adapter, d_tap, d_rng = snap.restore()
        d_adapter.write(UNLOCK_FRAME)
        d_bench.sim.run_for(50 * MS)
        self.drive(d_bench, d_adapter, d_rng, 7)
        assert d_bench.bcm.led_on
        assert fingerprint(d_tap.stamped) != uninterrupted

        # Restore again and replay the same continuation.
        r_bench, r_adapter, r_tap, r_rng = snap.restore()
        assert r_bench.streams.state_digest() == baseline_digest
        assert not r_bench.bcm.led_on
        self.drive(r_bench, r_adapter, r_rng, 30)
        assert fingerprint(r_tap.stamped) == uninterrupted
        assert r_bench.streams.state_digest() == final_rng_digest
        assert r_bench.sim.state_digest() == bench.sim.state_digest()
        assert r_bench.bus.state_digest() == bench.bus.state_digest()


class TestAtomicSharing:
    def test_frames_and_timings_shared_not_cloned(self):
        stamped = capture(UNLOCK_FRAME).restore()
        assert stamped is UNLOCK_FRAME
        assert copy.deepcopy(CAN_500K) is CAN_500K

    def test_fingerprint_separates_order(self):
        a, b = CanFrame(1, b"\x01"), CanFrame(2, b"\x02")
        assert fingerprint([a, b]) != fingerprint([b, a])
        assert fingerprint([]) == fingerprint(())


class TestRestoreCost:
    def test_restore_is_o_state_not_o_history(self):
        # Restoring after a long run must clone the same number of
        # objects as restoring after a short one (bounded queues), not
        # grow with elapsed simulated time.
        bench, adapter, _tap = (UnlockTestbench(seed=5), None, None)
        bench.power_on(settle_seconds=0.2)
        adapter = bench.attacker_adapter()
        early = capture((bench, adapter))
        bench.run_seconds(5.0)
        late = capture((bench, adapter))
        assert late.object_count <= early.object_count * 2
