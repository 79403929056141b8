"""The shared CAN medium: arbitration, delivery, errors, statistics.

The bus is modelled at frame granularity with bit-accurate durations:
when the medium goes idle, every controller with pending traffic
contends and the frame with the lowest arbitration key wins (CSMA/CR,
exactly the priority behaviour of the wire).  Losers keep their frames
queued and contend again at the next idle point -- so under fuzzer
load, low-priority residual traffic is delayed and shed the same way
it is on a real vehicle bus.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

from repro.can.channel import ChannelVerdict
from repro.can.errors import ErrorFrameRecord
from repro.can.frame import CanFrame, TimestampedFrame
from repro.can.identifiers import arbitration_key
from repro.can.node import CanController
from repro.can.timing import BitTiming, CAN_500K
from repro.sim.kernel import Simulator

Tap = Callable[[TimestampedFrame], None]
ErrorTap = Callable[[ErrorFrameRecord], None]
#: Decides whether a given transmission is corrupted on the wire.
#: Legacy single-boolean hook; superseded by the richer channel
#: protocol (:meth:`CanBus.attach_channel`), which wins when both are
#: set.
FaultInjector = Callable[[CanFrame], bool]

# Hot-loop constants: verdict identity checks per transmission.
_VERDICT_OK = ChannelVerdict.OK
_VERDICT_CORRUPT = ChannelVerdict.CORRUPT


@dataclass
class BusStats:
    """Running statistics for one bus.

    ``started_at`` is the simulation time at which the bus began
    observing; utilisation is measured against time elapsed since then,
    so a bus created mid-run reports meaningful figures.
    """

    frames_delivered: int = 0
    error_frames: int = 0
    busy_ticks: int = 0
    arbitration_rounds: int = 0
    started_at: int = 0
    per_id: dict[int, int] = field(default_factory=dict)

    def utilisation(self, now: int) -> float:
        """Fraction of observed time the bus was transmitting."""
        elapsed = now - self.started_at
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_ticks / elapsed)


class CanBus:
    """A single CAN bus segment.

    Args:
        sim: the simulation executive providing time.
        timing: bit timing (defaults to the paper's 500 kb/s).
        name: bus name for traces ("powertrain", "body", "bench").
    """

    def __init__(self, sim: Simulator, *, timing: BitTiming = CAN_500K,
                 name: str = "can0") -> None:
        self.sim = sim
        self.timing = timing
        self.name = name
        self.stats = BusStats(started_at=sim.now)
        self.fault_injector: FaultInjector | None = None
        #: Rich channel model (see :meth:`attach_channel`); ``None``
        #: means a perfect wire (modulo the legacy fault_injector).
        self._channel = None
        self._nodes: list[CanController] = []
        self._taps: list[Tap] = []
        self._error_taps: list[ErrorTap] = []
        self._busy = False
        # In-flight transmission state.  The bus carries one frame at a
        # time, so plain attributes replace the per-frame closures the
        # completion events used to capture -- two fewer allocations on
        # the hottest scheduling path in the whole simulator.
        self._pending_sender: CanController | None = None
        self._pending_frame: CanFrame | None = None
        self._pending_ticks = 0
        # Re-arbitration bookkeeping: _rearm records a request that
        # arrived while a frame was in flight, _had_contention that the
        # last round left losers queued.  Together with the winner's
        # own queue they tell end-of-frame whether scanning every node
        # again can possibly find a contender.
        self._rearm = False
        self._had_contention = False
        # Event labels, precomputed: this is the hottest scheduling
        # path in the whole simulator.
        self._label_eof = f"{name}:eof"
        self._label_error = f"{name}:error"
        # Hot-path bindings: completion events go straight onto the
        # event queue as bare callables (the delay is a frame duration,
        # always positive, so call_after's validation adds nothing, and
        # completions are never cancelled, so no Event handle is
        # needed), and the frame-duration lookup skips two attribute
        # hops per transmission.
        self._push_call = sim._queue.push_call
        self._clock = sim.clock
        self._frame_duration = timing.frame_duration
        # Tap snapshot, rebuilt on add/remove: _complete_ok iterates a
        # stable tuple without allocating one per delivered frame.
        self._taps_snapshot: tuple[Tap, ...] = ()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _register(self, controller: CanController) -> None:
        self._nodes.append(controller)

    @property
    def nodes(self) -> tuple[CanController, ...]:
        return tuple(self._nodes)

    def add_tap(self, tap: Tap) -> None:
        """Observe every successfully delivered frame (capture devices,
        the fuzzer's traffic monitor, gateways and oracles use taps)."""
        self._taps.append(tap)
        self._taps_snapshot = tuple(self._taps)

    def add_error_tap(self, tap: ErrorTap) -> None:
        """Observe error frames (used by error-frame oracles)."""
        self._error_taps.append(tap)

    def attach_channel(self, channel) -> None:
        """Route every transmission through ``channel``.

        ``channel`` must expose ``classify(frame, now) ->``
        :class:`~repro.can.channel.ChannelVerdict` (canonically an
        :class:`~repro.can.channel.AdversarialChannel`).  Replaces the
        boolean :attr:`fault_injector` hook with per-frame verdicts
        that distinguish mid-frame corruption from a lost
        acknowledgement; when both are set the channel wins.
        """
        self._channel = channel

    def detach_channel(self) -> None:
        """Restore a perfect wire."""
        self._channel = None

    @property
    def channel(self):
        """The attached channel model, or ``None``."""
        return self._channel

    # ------------------------------------------------------------------
    # Arbitration and transmission
    # ------------------------------------------------------------------
    def request_arbitration(self) -> None:
        """Ask the bus to start a transmission as soon as it is idle.

        Called by controllers when traffic is queued.  When the bus is
        idle, arbitration runs immediately (synchronously) -- one fewer
        scheduled event on the hottest path in the simulator.  Frames
        queued while a transmission is in flight contend at the next
        end-of-frame, exactly as on the wire.
        """
        if self._busy:
            self._rearm = True
            return
        self._arbitrate()

    def _tx_request(self, node: CanController) -> None:
        """Fast-path arbitration entry used by :meth:`CanController.send`.

        When the bus is idle no *other* controller can have traffic
        pending: anything queued either started transmitting at once or
        re-arbitrated at the last end-of-frame before the bus went idle
        (disabling, resetting or bus-off all clear the queue).  The
        sending node is therefore the sole contender and the full node
        scan is skipped -- this runs once per fuzzed frame.
        """
        if self._busy:
            self._rearm = True
            return
        queue = node._tx_queue
        if len(queue) == 1:
            frame = queue[0]
        else:
            frame = node.peek_tx()
            if frame is None:
                return
        self._had_contention = False
        self._start(node, frame)

    def _arbitrate(self) -> None:
        if self._busy:
            return
        # Inline contender scan.  The single-contender round dominates
        # a fuzzing run (the fuzzer is usually the only node with
        # traffic queued), so the arbitration key is only computed once
        # a second contender actually shows up.
        sender: CanController | None = None
        frame: CanFrame | None = None
        best_key = None
        contention = False
        for node in self._nodes:
            candidate = node.peek_tx()
            if candidate is None:
                continue
            if sender is None:
                sender, frame = node, candidate
                continue
            contention = True
            if best_key is None:
                best_key = arbitration_key(frame)
            key = arbitration_key(candidate)
            if key < best_key:
                sender, frame, best_key = node, candidate, key
        if sender is None:
            return
        self._had_contention = contention
        self._start(sender, frame)

    def _start(self, sender: CanController, frame: CanFrame) -> None:
        """Put ``frame`` on the wire and schedule its completion."""
        self.stats.arbitration_rounds += 1
        self._busy = True
        self._pending_sender = sender
        self._pending_frame = frame
        channel = self._channel
        if channel is not None:
            verdict = channel.classify(frame, self._clock._now)
            if verdict is not _VERDICT_OK:
                if verdict is _VERDICT_CORRUPT:
                    # The error is detected mid-frame; approximate the
                    # wasted time as half the frame plus the error
                    # frame itself.
                    wasted = (self._frame_duration(frame) // 2
                              + self.timing.error_frame_duration())
                    completion = self._complete_error
                else:  # ACK_LOST: the error shows at the ACK slot,
                    # i.e. after the full frame went over the wire.
                    wasted = (self._frame_duration(frame)
                              + self.timing.error_frame_duration())
                    completion = self._complete_ack_lost
                self._pending_ticks = wasted
                self._push_call(self._clock._now + wasted,
                                completion, Simulator.BUS_PRIORITY)
                return
        else:
            injector = self.fault_injector
            if injector is not None and injector(frame):
                # Legacy boolean hook: corruption mid-frame.
                wasted = (self._frame_duration(frame) // 2
                          + self.timing.error_frame_duration())
                self._pending_ticks = wasted
                self._push_call(self._clock._now + wasted,
                                self._complete_error,
                                Simulator.BUS_PRIORITY)
                return
        duration = self._frame_duration(frame)
        self._pending_ticks = duration
        self._push_call(self._clock._now + duration,
                        self._complete_ok, Simulator.BUS_PRIORITY)

    def _rearbitrate(self, sender: CanController) -> None:
        """Contend again after end-of-frame -- but only when someone can
        possibly win: a request arrived mid-flight, the last round had
        losers, or the finished sender still has traffic queued.  In a
        plain fuzzing run none of these hold and the per-frame node
        scan is skipped entirely."""
        if self._rearm or self._had_contention or sender._tx_queue:
            self._rearm = False
            self._arbitrate()

    def _complete_ok(self) -> None:
        sender = self._pending_sender
        frame = self._pending_frame
        stats = self.stats
        self._pending_sender = None
        self._pending_frame = None
        # _busy stays True until the re-arbitration below: a handler
        # that transmits a response from inside its delivery callback
        # must queue and contend at this end-of-frame (setting _rearm
        # via the busy path) rather than see a sneak-idle bus and start
        # mid-completion -- the _tx_request fast path relies on an idle
        # bus having no other pending traffic anywhere.
        if not sender._tx_try_remove(frame):
            # The transmitter was reset or disabled mid-frame; on the
            # wire that truncates the frame, so nobody receives it and
            # the medium was only held for part of the window --
            # approximate the wasted occupancy as half the duration.
            stats.busy_ticks += self._pending_ticks // 2
            self._rearm = True  # queues changed mid-flight; rescan
            self._busy = False
            self._rearbitrate(sender)
            return
        stats.busy_ticks += self._pending_ticks
        # sender._on_tx_success() inlined (tx count, TEC -= 1 floor 0):
        # one call saved per delivered frame.
        sender.tx_count += 1
        counters = sender.counters
        if counters.tec > 0:
            counters.tec -= 1
        if sender._retry_frame is not None:
            # The previously erroring frame made it through; its
            # bounded-retransmission budget resets.
            sender._retry_frame = None
            sender._retry_count = 0
        stats.frames_delivered += 1
        per_id = stats.per_id
        can_id = frame.can_id
        per_id[can_id] = per_id.get(can_id, 0) + 1
        # TimestampedFrame assembled via __new__ + direct slot writes:
        # the frozen-dataclass __init__ costs a call plus four guarded
        # setattrs, once per delivered frame.
        stamped = TimestampedFrame.__new__(TimestampedFrame)
        osa = object.__setattr__
        osa(stamped, "time", self._clock._now)
        osa(stamped, "frame", frame)
        osa(stamped, "channel", self.name)
        osa(stamped, "sender", sender.name)
        for node in self._nodes:
            if node is not sender:
                node._on_delivery(stamped)
        for tap in self._taps_snapshot:
            tap(stamped)
        self._busy = False
        # _rearbitrate inlined: the no-contention case (a lone fuzzer
        # hammering the bus) must cost no call and no node scan.
        if self._rearm or self._had_contention or sender._tx_queue:
            self._rearm = False
            self._arbitrate()

    def _complete_error(self) -> None:
        sender = self._pending_sender
        frame = self._pending_frame
        self._pending_sender = None
        self._pending_frame = None
        # The corrupted frame plus error frame occupied the wire for
        # the whole approximated window.
        self.stats.busy_ticks += self._pending_ticks
        self.stats.error_frames += 1
        sender._on_tx_error(frame)
        # Per the errors.py fault-confinement rules: TEC += 8 for the
        # transmitter, REC += 1 for every *active receiver* of the
        # corrupted frame.  Disabled controllers (powered-off ECUs,
        # closed adapter channels) are not on the wire and see nothing.
        for node in self._nodes:
            if node is not sender and node.enabled:
                node.counters.on_receive_error()
        record = ErrorFrameRecord(time=self.sim.now, reporter=sender.name,
                                  reason=f"corrupted frame {frame.id_hex()}")
        for tap in tuple(self._error_taps):
            tap(record)
        # The sender retransmits automatically (frame still queued,
        # subject to its retransmit_limit) unless the error drove it to
        # bus-off, which cleared its queue.
        self._busy = False
        self._rearbitrate(sender)

    def _complete_ack_lost(self) -> None:
        """The frame crossed the wire but its acknowledgement did not.

        An ACK-slot error: the transmitter saw a recessive ACK slot,
        raises an error flag and retransmits (TEC += 8, same as any
        transmit error), but the receivers acknowledged a frame they
        saw as valid -- their REC is not charged and nothing is
        delivered, because a CAN frame is only valid for a receiver
        once the whole frame (ACK included) completes without error
        flags.
        """
        sender = self._pending_sender
        frame = self._pending_frame
        self._pending_sender = None
        self._pending_frame = None
        self.stats.busy_ticks += self._pending_ticks
        self.stats.error_frames += 1
        sender._on_tx_error(frame)
        record = ErrorFrameRecord(time=self.sim.now, reporter=sender.name,
                                  reason=f"ack lost for frame {frame.id_hex()}")
        for tap in tuple(self._error_taps):
            tap(record)
        self._busy = False
        self._rearbitrate(sender)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def state_digest(self) -> str:
        """Deterministic digest of the bus and every attached node.

        Complements :meth:`repro.sim.kernel.Simulator.state_digest`:
        the kernel digest covers the scheduled future, this one covers
        the wire's present (in-flight frame, stats, per-node queues and
        counters).  The snapshot determinism tests compare both between
        the uninterrupted run and a restore-and-rerun.
        """
        stats = self.stats
        digest = hashlib.sha256()
        digest.update(
            f"{self.name}:{self._busy}:{self._pending_ticks}:"
            f"{self._rearm}:{self._had_contention}:"
            f"{self._pending_frame!r}:"
            f"{stats.frames_delivered}:{stats.error_frames}:"
            f"{stats.busy_ticks}:{stats.arbitration_rounds}:"
            f"{stats.started_at}:{sorted(stats.per_id.items())}"
            .encode("utf-8", "backslashreplace"))
        for node in self._nodes:
            digest.update(node.state_digest().encode("ascii"))
        return digest.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CanBus({self.name!r}, nodes={len(self._nodes)}, "
                f"delivered={self.stats.frames_delivered})")
