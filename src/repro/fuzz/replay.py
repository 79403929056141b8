"""Replay recorded fuzz traffic against a fresh target.

Closes the fuzzing loop the paper describes ("if a system failure
occurs the conditions that caused it are recorded and the system is
reset"): a recorded window -- from a finding, a capture or a saved
:class:`~repro.fuzz.session.FuzzResult` -- is retransmitted with the
original pacing against a newly built target, and the oracles judge
whether the failure reproduces.  When the finding carries recorded
per-frame timestamps (:attr:`~repro.fuzz.oracle.Finding.recent_times`)
the recorded inter-frame gaps are reproduced; otherwise the replay
falls back to a fixed ``interval`` grid.

This module is the one replay engine for every track.
:class:`StepReplayer` replays a trace step by step on a freshly built
target and provides probing, ddmin minimisation and confirmation;
:class:`PrefixCache` layers the checkpoint prefix tree on top.  A
track supplies only how its ``probe`` turns a trace into hashable
steps, how ``_step`` runs one step on a built world, and which
recorded trace ``probe_finding`` replays.  The frame track lives here
(:class:`Replayer`, :class:`SnapshotReplayer`: ``(frame, gap)``
steps); the UDS request track lives in :mod:`repro.uds.replay`.

:class:`SnapshotReplayer` is the fast path: instead of rebuilding the
target and re-simulating the whole candidate for every ddmin probe, it
keeps a prefix tree of :class:`~repro.sim.snapshot.Snapshot`
checkpoints keyed by transmission steps.  A probe restores the deepest
cached ancestor of its candidate and only simulates the suffix.
Verdict parity with the fresh-build :class:`Replayer` is structural: a
checkpoint is exactly the world a fresh replay of that prefix would
have produced (same steps, same pacing, same powered-on start state),
and the simulator is deterministic, so continuing from the restored
checkpoint and continuing from a fresh rebuild are bit-identical.  A
UDS world stepped on the analytic exchange (see
:meth:`StepReplayer._attach`) equals one stepped on the wire in every
state a verdict reads; its bus statistics are the one exception, as
the exchange moves no frame over the bus.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

from repro.can.adapter import PcanStyleAdapter
from repro.can.frame import CanFrame
from repro.fuzz.minimize import MinimizeStats, minimize_trace
from repro.fuzz.oracle import Finding
from repro.sim.clock import MS
from repro.sim.kernel import Simulator
from repro.sim.snapshot import Snapshot, capture

#: Builds a fresh target and returns (simulator, attacker adapter,
#: failure probe).  The probe reports whether the failure state is
#: present after the replay.
TargetFactory = Callable[[], tuple[Simulator, PcanStyleAdapter,
                                   Callable[[], bool]]]


@dataclass
class ConfirmationReport:
    """Outcome of clean-target replay confirmation."""

    confirmed: list[Finding]
    rejected: list[Finding]

    @property
    def noise_filtered(self) -> int:
        return len(self.rejected)

    def to_dict(self) -> dict:
        return {
            "confirmed": len(self.confirmed),
            "noise_filtered": self.noise_filtered,
            "rejected_oracles": sorted({f.oracle for f in self.rejected}),
        }


def _nothing_to_undo() -> None:
    """The undo of a world that :meth:`StepReplayer._attach` left as
    it was."""


class StepReplayer:
    """Replays step sequences against freshly built targets.

    The factory returns a ``(simulator, endpoint, failure probe)``
    world; a track subclass defines ``probe`` (trace to hashable
    steps, then :meth:`_run`), ``_step`` (one step on the endpoint)
    and ``probe_finding`` (the recorded trace a finding replays).

    Args:
        target_factory: builds an isolated target per replay; replays
            must not share state or the verdicts are meaningless.
        interval: the track's pacing between replayed steps.
        settle: extra simulated time after the last step before the
            failure probe is evaluated (lets acks, resets and
            watchdogs land).
    """

    #: What one step is called in reports ("frames", "requests").
    unit = "steps"

    def __init__(self, target_factory: Callable, *, interval: int,
                 settle: int) -> None:
        if settle < 0:
            raise ValueError("settle must be >= 0")
        self._target_factory = target_factory
        self.interval = interval
        self.settle = settle
        self.replays = 0

    def _run(self, path: Sequence[Hashable]) -> bool:
        """Replay ``path`` on a fresh target; True if it fails."""
        world = self._target_factory()
        sim, endpoint, failed = world
        self.replays += 1
        detach = self._attach(world, True)
        try:
            for step in path:
                self._step(sim, endpoint, step)
            sim.run_for(self.settle)
            return bool(failed())
        finally:
            detach()

    def _attach(self, world, pristine: bool) -> Callable[[], None]:
        """Ready ``world`` for its steps; return the callable undoing it.

        Called on every world a probe steps on: ``pristine`` is True
        for a fresh factory build (or the first restore of a cached
        root) and False for a world restored from a checkpoint or
        resumed after one was captured.  The undo runs before every
        capture and when the probe ends, raising or not, so
        checkpoints and callers never see what the hook put on.  The
        frame track needs nothing; the UDS track installs the analytic
        exchange here.
        """
        return _nothing_to_undo

    def stats(self) -> dict:
        """Counter snapshot for reports (JSON-ready)."""
        return {"replays": self.replays}

    def minimize(self, trace: Sequence, *, max_tests: int = 10_000,
                 stats: MinimizeStats | None = None) -> list:
        """Shrink ``trace`` to a 1-minimal failing subsequence."""
        return minimize_trace(trace, self.probe, max_tests=max_tests,
                              stats=stats)

    def confirm(self, findings: list[Finding]) -> ConfirmationReport:
        """Replay each finding's record; the ones that still fail are
        confirmed, the rest are filtered as noise."""
        confirmed: list[Finding] = []
        rejected: list[Finding] = []
        for finding in findings:
            if self.probe_finding(finding):
                confirmed.append(finding)
            else:
                rejected.append(finding)
        return ConfirmationReport(confirmed=confirmed, rejected=rejected)


class Replayer(StepReplayer):
    """Replays frame sequences against freshly built targets.

    ``probe`` is a ready-made ``still_fails`` predicate for
    :func:`~repro.fuzz.minimize.minimize_trace`.

    Args:
        target_factory: builds an isolated target per replay.
        interval: pacing between replayed frames when no recorded
            timestamps are given (defaults to the fuzzer's 1 ms grid).
        settle: extra simulated time after the last frame before the
            failure probe is evaluated.
    """

    unit = "frames"

    def __init__(self, target_factory: TargetFactory, *,
                 interval: int = 1 * MS, settle: int = 50 * MS) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        super().__init__(target_factory, interval=interval, settle=settle)

    def _gaps(self, frames: Sequence[CanFrame],
              times: Sequence[int] | None) -> list[int]:
        """Per-frame simulated durations to run after each write.

        With recorded ``times`` (one transmit timestamp per frame) the
        gap after frame *i* is ``times[i+1] - times[i]`` -- the
        original pacing, jitter included.  A malformed recording (a
        length mismatch, or a non-positive gap from clock weirdness)
        falls back to the fixed ``interval`` grid rather than raising:
        replay is a forensic tool and a best-effort cadence beats no
        replay.  The last frame always gets one ``interval`` of
        run-time before the settle window.
        """
        count = len(frames)
        interval = self.interval
        if times is None or len(times) != count or count == 0:
            return [interval] * count
        gaps = []
        for i in range(count - 1):
            gap = times[i + 1] - times[i]
            gaps.append(gap if gap > 0 else interval)
        gaps.append(interval)
        return gaps

    def _step(self, sim: Simulator, adapter: PcanStyleAdapter,
              step: tuple[CanFrame, int]) -> None:
        frame, gap = step
        adapter.write(frame)
        sim.run_for(gap)

    def probe(self, frames: Sequence[CanFrame],
              times: Sequence[int] | None = None) -> bool:
        """Replay ``frames``; True if the target fails.

        ``times`` optionally carries the recorded transmit timestamps
        (see :meth:`probe_finding`).  A step is the frame plus the
        simulated duration run after writing it, so two probes whose
        pacing differs never share a checkpoint.
        """
        return self._run(tuple(zip(frames, self._gaps(frames, times))))

    def probe_finding(self, finding: Finding) -> bool:
        """Replay a finding's recorded window with its recorded pacing."""
        return self.probe(finding.recent_frames,
                          times=finding.recent_times or None)


class _PrefixNode:
    """One step of the checkpoint prefix tree.

    Children are keyed by a track's hashable step.  ``snapshot`` is
    ``None`` for pass-through nodes (no checkpoint stored, or evicted).
    """

    __slots__ = ("children", "snapshot")

    def __init__(self) -> None:
        self.children: dict[Hashable, "_PrefixNode"] = {}
        self.snapshot: Snapshot | None = None

    def walk(self, key: Hashable) -> "tuple[_PrefixNode, bool]":
        """Child for ``key``, creating it if absent; True when it existed.

        A node that already existed marks a *shared* prefix -- some
        earlier probe walked the same step -- which is what makes it
        worth checkpointing (see the second-touch policy in
        :class:`PrefixCache`).
        """
        child = self.children.get(key)
        if child is not None:
            return child, True
        child = _PrefixNode()
        self.children[key] = child
        return child, False


class PrefixCache:
    """Resumes a :class:`StepReplayer` track's probes from checkpoints.

    Mixed in ahead of a track class.  The target is built **once** (the
    root checkpoint); every probe restores the deepest cached ancestor
    of its candidate's step path and simulates only the remaining
    suffix.

    Checkpoints follow a *second-touch* policy: a capture costs more
    wall clock than a restore, and both cost many steps -- on a 2-core
    x86_64 box about 1.0 ms and 0.7 ms on the car (16 and 11 frame
    steps), 0.18 ms and 0.09 ms on the diagnostic bench (14 and 7
    request steps on the analytic exchange) -- and every stored
    checkpoint holds memory, so it is only worth paying on a prefix
    that is actually shared between probes.  The
    first probe through a path merely indexes it in the tree; a later
    probe that walks the same step again (proving the prefix shared)
    drops a checkpoint there, at most one per ``checkpoint_stride``
    simulated steps.  One-off suffixes -- the parts of rejected ddmin
    candidates no other probe revisits -- therefore cost no captures
    at all.  A checkpoint is captured before the settle window runs,
    so the stored world is exactly "prefix replayed, nothing settled
    yet".

    Args:
        checkpoint_stride: minimum simulated steps between stored
            checkpoints along one probe's path.  Smaller = denser
            checkpoints = shorter suffixes to re-simulate, but more
            capture time and snapshot memory.
        max_snapshots: bound on cached checkpoints (root excluded);
            least-recently-used checkpoints are dropped first.

    Counters (all cumulative; ``<unit>`` is the track's step noun):
        ``replays`` -- probes answered;
        ``restores`` -- checkpoint restorations performed;
        ``<unit>_restored`` -- steps skipped by restoring mid-trace;
        ``<unit>_simulated`` -- steps actually replayed;
        ``snapshots_taken`` -- checkpoints captured.
    """

    def __init__(self, target_factory: Callable, *, checkpoint_stride: int,
                 max_snapshots: int, **options) -> None:
        super().__init__(target_factory, **options)
        if checkpoint_stride < 1:
            raise ValueError("checkpoint_stride must be at least 1")
        if max_snapshots < 1:
            raise ValueError("max_snapshots must be at least 1")
        self._stride = checkpoint_stride
        self._max_snapshots = max_snapshots
        self._root = _PrefixNode()
        self._lru: "OrderedDict[int, _PrefixNode]" = OrderedDict()
        self.restores = 0
        self.steps_restored = 0
        self.steps_simulated = 0
        self.snapshots_taken = 0

    def _run(self, path: Sequence[Hashable]) -> bool:
        root = self._root
        pristine = root.snapshot is None
        if pristine:
            root.snapshot = capture(self._target_factory(), label="root")
            self.snapshots_taken += 1
        # Deepest ancestor of the candidate that still holds a
        # checkpoint (pass-through/evicted nodes are skipped over).
        node = best_node = root
        best_depth = 0
        for depth, key in enumerate(path, start=1):
            node = node.children.get(key)
            if node is None:
                break
            if node.snapshot is not None:
                best_node, best_depth = node, depth
        if best_node is not root:
            self._lru.move_to_end(id(best_node))
        world = best_node.snapshot.restore()
        sim, endpoint, failed = world
        self.replays += 1
        self.restores += 1
        self.steps_restored += best_depth
        self.steps_simulated += len(path) - best_depth
        # Simulate (and index) the suffix.
        node = best_node
        since_checkpoint = 0
        detach = self._attach(world, pristine)
        try:
            for key in path[best_depth:]:
                node, shared = node.walk(key)
                self._step(sim, endpoint, key)
                since_checkpoint += 1
                if (shared and node.snapshot is None
                        and since_checkpoint >= self._stride):
                    detach()
                    self._store(node, capture(world))
                    detach = self._attach(world, False)
                    since_checkpoint = 0
            sim.run_for(self.settle)
            return bool(failed())
        finally:
            detach()

    def _store(self, node: _PrefixNode, snap: Snapshot) -> None:
        node.snapshot = snap
        self.snapshots_taken += 1
        self._lru[id(node)] = node
        while len(self._lru) > self._max_snapshots:
            _, evicted = self._lru.popitem(last=False)
            # The node stays in the tree (its children may hold live
            # checkpoints); only the snapshot memory is released.
            evicted.snapshot = None

    @property
    def cached_snapshots(self) -> int:
        """Checkpoints currently held (excluding the root)."""
        return len(self._lru)

    def stats(self) -> dict:
        return {
            **super().stats(),
            "restores": self.restores,
            f"{self.unit}_restored": self.steps_restored,
            f"{self.unit}_simulated": self.steps_simulated,
            "snapshots_taken": self.snapshots_taken,
            "cached_snapshots": self.cached_snapshots,
        }


class SnapshotReplayer(PrefixCache, Replayer):
    """A :class:`Replayer` that resumes probes from cached checkpoints.

    Steps are ``(frame, gap)`` pairs; see :class:`PrefixCache` for the
    checkpoint policy and counters.

    Args:
        target_factory: as for :class:`Replayer`; called exactly once.
        checkpoint_stride, max_snapshots: as for :class:`PrefixCache`.
    """

    def __init__(self, target_factory: TargetFactory, *,
                 interval: int = 1 * MS, settle: int = 50 * MS,
                 checkpoint_stride: int = 64,
                 max_snapshots: int = 256) -> None:
        super().__init__(target_factory, interval=interval, settle=settle,
                         checkpoint_stride=checkpoint_stride,
                         max_snapshots=max_snapshots)

    @property
    def frames_restored(self) -> int:
        return self.steps_restored

    @property
    def frames_simulated(self) -> int:
        return self.steps_simulated
