"""Tests for the snapshot-cached replayers.

The contract under test is *verdict parity*: for any candidate
sequence, a snapshot replayer must answer exactly what its fresh-build
twin answers -- same probe verdicts, same minimised traces, same probe
counts -- while reusing cached prefix checkpoints instead of
rebuilding the target.  The parity and cache-policy checks run on both
tracks of the one replay engine: CAN frames against the unlock bench
and UDS requests against the diagnostic bench, the latter both on the
analytic exchange (the default) and on the real client (the reference
twin).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.can.frame import CanFrame
from repro.fuzz.minimize import MinimizeStats
from repro.fuzz.oracle import Finding
from repro.fuzz.replay import Replayer, SnapshotReplayer
from repro.sim.clock import MS
from repro.testbench.bench import UnlockTestbench
from repro.testbench.factory import UdsReplayFactory
from repro.uds.replay import UdsReplayer, UdsSnapshotReplayer
from repro.uds.server import (BOOTLOADER_SCRATCH_DID, HANG_SESSION_SUB,
                              SCRATCH_BUFFER_SIZE)
from repro.uds.stategen import KEY_ALGORITHMS
from repro.vehicle.database import BODY_COMMAND_ID, UNLOCK_COMMAND

from .reference import reference_uds_target


def bench_factory():
    bench = UnlockTestbench(seed=3, check_mode="byte")
    bench.power_on()
    adapter = bench.attacker_adapter()
    return bench.sim, adapter, lambda: bench.bcm.led_on


UNLOCK_FRAME = CanFrame(BODY_COMMAND_ID,
                        bytes((UNLOCK_COMMAND, 0x99, 0x01)))
NOISE = [CanFrame(0x100 + i, bytes((i,))) for i in range(10)]

#: A small pool for hypothesis to build traces from: benign noise, the
#: unlock command, and a near-miss (wrong command byte).
POOL = NOISE[:4] + [UNLOCK_FRAME,
                    CanFrame(BODY_COMMAND_ID, bytes((0x21, 0x99, 0x01)))]


class Track:
    """One replay track under test: its replayer pair, target and traces.

    ``noise`` holds ten distinct benign steps, ``culprit`` is one step
    that fails the target on its own, ``pool`` feeds generated traces,
    and ddmin must reduce the failing ``witness`` to ``core``.
    """

    options: dict = {}

    @classmethod
    def fresh(cls, **options):
        return cls.fresh_cls(cls.factory, **{**cls.options, **options})

    @classmethod
    def snapshot(cls, factory=None, **options):
        return cls.snapshot_cls(factory or cls.factory,
                                **{**cls.options, **options})


class FrameTrack(Track):
    fresh_cls, snapshot_cls = Replayer, SnapshotReplayer
    factory = staticmethod(bench_factory)
    restored = "frames_restored"
    noise, culprit, pool = NOISE, UNLOCK_FRAME, POOL
    witness = NOISE[:6] + [UNLOCK_FRAME] + NOISE[6:]
    core = [UNLOCK_FRAME]
    invalid = ({"interval": 0}, {"settle": -1})


#: Reads of unassigned identification DIDs: answered 0x31, harmless in
#: every session.
REQUEST_NOISE = [bytes((0x22, 0xF1, 0x80 + i)) for i in range(10)]
HANG_REQUEST = bytes((0x10, HANG_SESSION_SUB))
#: The scratch overflow's minimal core: extended session, seed, key
#: (a stale recorded byte the replayer re-derives), programming
#: session, oversized write.
OVERFLOW_CORE = [bytes.fromhex("1003"), bytes.fromhex("2701"),
                 bytes.fromhex("270200"), bytes.fromhex("1002"),
                 bytes((0x2E, BOOTLOADER_SCRATCH_DID >> 8,
                        BOOTLOADER_SCRATCH_DID & 0xFF))
                 + bytes(SCRATCH_BUFFER_SIZE + 1)]


class RequestTrack(Track):
    fresh_cls, snapshot_cls = UdsReplayer, UdsSnapshotReplayer
    factory = UdsReplayFactory(seed=0)
    options = {"key_algorithm": 0}
    restored = "requests_restored"
    noise, culprit = REQUEST_NOISE, HANG_REQUEST
    pool = REQUEST_NOISE[:4] + [HANG_REQUEST, bytes((0x10, 0x05))]
    witness = [REQUEST_NOISE[0], OVERFLOW_CORE[0], REQUEST_NOISE[1],
               *OVERFLOW_CORE[1:3], REQUEST_NOISE[2], OVERFLOW_CORE[3],
               REQUEST_NOISE[3], OVERFLOW_CORE[4], REQUEST_NOISE[4]]
    core = OVERFLOW_CORE
    invalid = ({"interval": -1}, {"settle": -1}, {"reset_settle": -1},
               {"key_algorithm": len(KEY_ALGORITHMS)})


class ReferenceRequestTrack(RequestTrack):
    """The request track on the real client, request for request."""

    factory = staticmethod(reference_uds_target(UdsReplayFactory(seed=0)))


def generated_trace_parity(track):
    """Property test: probe verdicts on ``track`` match a fresh build.

    One snapshot replayer is shared across examples -- cross-example
    cache state is exactly what this exercises.  Built per track so
    that each test class gets its own hypothesis test function.
    """
    shared = track.snapshot(checkpoint_stride=2)

    @settings(max_examples=25, deadline=None)
    @given(trace=st.lists(st.sampled_from(track.pool), max_size=8))
    def test(self, trace):
        assert shared.probe(trace) == track.fresh().probe(trace)

    return test


class ParityCases:
    """Snapshot-versus-fresh parity; a ``Test*`` subclass sets ``track``."""

    def test_probe_verdicts_match_fresh_replayer(self):
        track = self.track
        noise, culprit = track.noise, track.culprit
        fresh = track.fresh()
        snap = track.snapshot(checkpoint_stride=2)
        for trace in (
            noise,
            noise[:5] + [culprit] + noise[5:],
            [culprit],
            [],
            noise[:3],
            noise[:5] + [culprit],
        ):
            assert snap.probe(trace) == fresh.probe(trace), trace

    def test_minimize_parity_including_probe_counts(self):
        track = self.track
        fresh_stats, snap_stats = MinimizeStats(), MinimizeStats()
        snap = track.snapshot(checkpoint_stride=2)
        fresh_minimal = track.fresh().minimize(track.witness,
                                               stats=fresh_stats)
        snap_minimal = snap.minimize(track.witness, stats=snap_stats)
        assert snap_minimal == fresh_minimal == track.core
        assert snap_stats.tests_used == fresh_stats.tests_used
        # The prefix cache really skipped work: some replayed steps
        # came from checkpoints instead of being simulated.
        assert snap.stats()[track.restored] > 0

    def test_minimize_benign_trace_raises(self):
        with pytest.raises(ValueError):
            self.track.snapshot().minimize(self.track.noise)


class TestParity(ParityCases):
    track = FrameTrack
    test_probe_parity_on_generated_traces = generated_trace_parity(
        FrameTrack)


class TestUdsParity(ParityCases):
    track = RequestTrack
    test_probe_parity_on_generated_traces = generated_trace_parity(
        RequestTrack)


class TestUdsReferenceParity(ParityCases):
    track = ReferenceRequestTrack
    test_probe_parity_on_generated_traces = generated_trace_parity(
        ReferenceRequestTrack)


class CachingCases:
    """Checkpoint policy; a ``Test*`` subclass sets ``track``."""

    def test_target_is_built_exactly_once(self):
        track = self.track
        built = []

        def counting_factory():
            built.append(True)
            return track.factory()

        replayer = track.snapshot(counting_factory)
        replayer.probe(track.noise)
        replayer.probe([track.culprit])
        replayer.probe(track.noise[:3])
        assert len(built) == 1
        assert replayer.replays == 3

    def test_second_touch_checkpointing_enables_prefix_reuse(self):
        # stride=1: every *revisited* step beyond the root becomes a
        # checkpoint.  First walk of a path stores nothing; the second
        # walk stores; the third restores mid-trace.
        track = self.track
        replayer = track.snapshot(checkpoint_stride=1)
        prefix = track.noise[:4]
        replayer.probe(prefix + [track.noise[5]])
        assert replayer.snapshots_taken == 1          # root only
        replayer.probe(prefix + [track.noise[6]])
        assert replayer.snapshots_taken > 1           # shared prefix
        restored_before = getattr(replayer, track.restored)
        replayer.probe(prefix + [track.culprit])
        assert getattr(replayer, track.restored) >= restored_before + 4
        stats = replayer.stats()
        assert stats["restores"] == 3
        assert stats["cached_snapshots"] >= 4

    def test_one_off_suffixes_cost_no_captures(self):
        replayer = self.track.snapshot(checkpoint_stride=1)
        replayer.probe(self.track.noise)   # first walk: index only
        assert replayer.snapshots_taken == 1
        assert replayer.cached_snapshots == 0

    def test_stride_limits_checkpoint_density(self):
        track = self.track
        dense = track.snapshot(checkpoint_stride=1)
        sparse = track.snapshot(checkpoint_stride=5)
        for replayer in (dense, sparse):
            replayer.probe(track.noise)
            replayer.probe(track.noise + [track.culprit])
        assert sparse.cached_snapshots < dense.cached_snapshots

    def test_lru_eviction_bounds_memory(self):
        track = self.track
        replayer = track.snapshot(checkpoint_stride=1, max_snapshots=3)
        replayer.probe(track.noise)
        replayer.probe(track.noise + [track.culprit])  # checkpoints noise
        assert replayer.cached_snapshots <= 3
        # Evicted prefixes still answer correctly (rebuilt from root).
        assert replayer.probe(track.noise[:2] + [track.culprit])
        assert not replayer.probe(track.noise[:2])

    def test_parameter_validation(self):
        track = self.track
        for options in track.invalid:
            with pytest.raises(ValueError):
                track.fresh(**options)
            with pytest.raises(ValueError):
                track.snapshot(**options)
        for options in ({"checkpoint_stride": 0}, {"max_snapshots": 0}):
            with pytest.raises(ValueError):
                track.snapshot(**options)


class TestCaching(CachingCases):
    track = FrameTrack

    def test_different_pacing_does_not_share_checkpoints(self):
        replayer = SnapshotReplayer(bench_factory, checkpoint_stride=1)
        times_a = [i * 1 * MS for i in range(len(NOISE))]
        times_b = [i * 3 * MS for i in range(len(NOISE))]
        replayer.probe(NOISE, times=times_a)
        replayer.probe(NOISE, times=times_a)
        taken = replayer.snapshots_taken
        assert taken > 1                              # shared path stored
        replayer.probe(NOISE, times=times_b)
        # The differently-paced walk is a fresh path: no restore depth.
        assert replayer.probe(NOISE, times=times_b) is False
        assert replayer.snapshots_taken > taken


class TestUdsCaching(CachingCases):
    track = RequestTrack


class TestUdsReferenceCaching(CachingCases):
    track = ReferenceRequestTrack


class TestRecordedPacing:
    class _LoggingAdapter:
        """Stub adapter: records (time, frame) writes.

        The log lives on the *class* so that the snapshot replayer's
        deepcopied clone (which gets its own instance ``__dict__``)
        still reports into the same list the test reads.
        """

        writes: "list[tuple[int, CanFrame]]" = []

        def __init__(self, sim):
            self._sim = sim

        def write(self, frame):
            type(self).writes.append((self._sim.now, frame))

    def _run(self, replayer_cls, frames, times):
        from repro.sim.kernel import Simulator

        def factory():
            sim = Simulator()
            return sim, self._LoggingAdapter(sim), lambda: False

        self._LoggingAdapter.writes.clear()
        replayer_cls(factory).probe(frames, times=times)
        return [t for t, _ in self._LoggingAdapter.writes]

    @pytest.mark.parametrize("replayer_cls", [Replayer, SnapshotReplayer])
    def test_recorded_gaps_are_replayed(self, replayer_cls):
        times = [0, 2 * MS, 9 * MS]
        write_times = self._run(replayer_cls, NOISE[:3], times)
        gaps = [b - a for a, b in zip(write_times, write_times[1:])]
        assert gaps == [2 * MS, 7 * MS]

    @pytest.mark.parametrize("replayer_cls", [Replayer, SnapshotReplayer])
    def test_malformed_times_fall_back_to_grid(self, replayer_cls):
        write_times = self._run(replayer_cls, NOISE[:3], [0, 5])  # len != 3
        gaps = [b - a for a, b in zip(write_times, write_times[1:])]
        assert gaps == [1 * MS, 1 * MS]

    def test_probe_finding_uses_recorded_times(self):
        frames = tuple(NOISE[:2]) + (UNLOCK_FRAME,)
        finding = Finding(time=123, oracle="ack", description="unlock",
                          recent_frames=frames,
                          recent_times=(0, 1 * MS, 4 * MS))
        assert SnapshotReplayer(bench_factory).probe_finding(finding)
        assert Replayer(bench_factory).probe_finding(finding)
