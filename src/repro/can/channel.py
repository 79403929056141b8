"""Adversarial channel models: a deterministic, lossy, hostile wire.

The paper warns (§VI) that fuzzing "could cause the total failure of
the vehicle electronics" -- naive campaigns DoS the bus and drive
targets to bus-off.  Testing *that* regime needs a channel that is
itself an adversary: random bit errors, bursty noise, jamming, lost
acknowledgements, and a babbling node hogging arbitration.  HackCar
(Stabili et al.) and the KU Leuven ECU-fuzzing testbed both model the
channel this way so attack/defense experiments exercise degradation
and recovery, not just the happy path.

:class:`AdversarialChannel` replaces the bus's bare boolean
``fault_injector`` hook with per-frame verdicts:

- ``OK`` -- the frame crosses the wire untouched.
- ``CORRUPT`` -- a bit error mid-frame: error frame, TEC += 8 for the
  sender, REC += 1 for active receivers, automatic retransmission.
- ``ACK_LOST`` -- the frame arrived but its acknowledgement did not:
  the sender errors and retransmits, receivers are not charged.

Every decision draws from one ``random.Random`` stream (hand it
``RandomStreams(seed).stream("channel")``), so runs are reproducible,
checkpointable (``state_dict``/``load_state``) and snapshot-safe (the
channel and its stream clone with the rest of the world).
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass
from random import Random

from repro.can.frame import CanFrame
from repro.sim.clock import MS, SECOND
from repro.sim.random import rng_state_from_json, rng_state_to_json
from repro.sim.snapshot import Snapshottable


class ChannelVerdict(enum.Enum):
    """What the channel did to one transmission."""

    OK = "ok"
    CORRUPT = "corrupt"
    ACK_LOST = "ack-lost"


def _probability(name: str, value: float, *, strict_upper: bool = False) -> None:
    upper_ok = value < 1.0 if strict_upper else value <= 1.0
    if not (0.0 <= value and upper_ok):
        bound = "1" if strict_upper else "1 inclusive"
        raise ValueError(f"{name} must be in [0, {bound}), got {value!r}")


@dataclass(frozen=True)
class ChannelConfig:
    """Noise parameters for an :class:`AdversarialChannel`.

    Attributes:
        ber: per-bit error probability in the good (quiet) state.  A
            frame of ``n`` on-wire bits is corrupted with probability
            ``1 - (1 - ber)^n``, so longer frames are hit more often,
            as on a real wire.
        burst_ber: per-bit error probability while a noise burst is
            active (the Gilbert-Elliott "bad" state).
        burst_enter: per-frame probability of entering a burst.
        burst_exit: per-frame probability of leaving a burst.
        ack_loss: per-frame probability the acknowledgement is lost
            even though the frame itself crossed intact.
        jam_rate: expected stuck-dominant jam windows per simulated
            second (0 disables jamming).  While a jam is active every
            transmission is corrupted -- a node holding the bus
            dominant kills all traffic.
        jam_duration: length of one jam window in ticks.
    """

    ber: float = 0.0
    burst_ber: float = 0.0
    burst_enter: float = 0.0
    burst_exit: float = 1.0
    ack_loss: float = 0.0
    jam_rate: float = 0.0
    jam_duration: int = 2 * MS

    def __post_init__(self) -> None:
        _probability("ber", self.ber, strict_upper=True)
        _probability("burst_ber", self.burst_ber, strict_upper=True)
        _probability("burst_enter", self.burst_enter)
        _probability("burst_exit", self.burst_exit)
        _probability("ack_loss", self.ack_loss)
        if self.jam_rate < 0:
            raise ValueError(f"jam_rate must be >= 0, got {self.jam_rate!r}")
        if self.jam_duration <= 0:
            raise ValueError(
                f"jam_duration must be positive, got {self.jam_duration!r}")

    def describe(self) -> list[tuple[str, str, str]]:
        """Rows for run reports, in the FuzzConfig.describe() shape."""
        return [
            ("channel", "bit error rate", f"{self.ber:g}"),
            ("channel", "burst BER / enter / exit",
             f"{self.burst_ber:g} / {self.burst_enter:g} / "
             f"{self.burst_exit:g}"),
            ("channel", "ack loss", f"{self.ack_loss:g}"),
            ("channel", "jam rate / duration",
             f"{self.jam_rate:g}/s / {self.jam_duration} ticks"),
        ]


class AdversarialChannel(Snapshottable):
    """A seeded, stateful noise model for one CAN bus.

    Attach with :meth:`repro.can.bus.CanBus.attach_channel`; the bus
    calls :meth:`classify` once per started transmission.  Decision
    order per frame is fixed (jam, burst chain, bit errors, ack loss)
    so a given ``(config, rng state)`` always produces the same
    verdict stream -- the determinism the campaign fingerprint gate
    relies on.

    Args:
        config: noise parameters.
        rng: the channel's private random stream.  Use a
            :class:`~repro.sim.random.RandomStreams` stream so the
            channel's draws never perturb any other component's.
    """

    def __init__(self, config: ChannelConfig, rng: Random) -> None:
        self.config = config
        self._rng = rng
        self._burst = False
        self._jam_until = 0
        self._next_jam_at: int | None = None
        self.frames_seen = 0
        self.frames_corrupted = 0
        self.acks_lost = 0
        self.jam_corruptions = 0
        self.burst_frames = 0
        # Per-bit survival is frame-length dependent; hoist the
        # log-space constants so classify costs one log1p per *state*,
        # not per frame.
        self._log_keep_good = math.log1p(-config.ber) if config.ber else 0.0
        self._log_keep_burst = (math.log1p(-config.burst_ber)
                                if config.burst_ber else 0.0)

    # ------------------------------------------------------------------
    # The bus-facing protocol
    # ------------------------------------------------------------------
    def classify(self, frame: CanFrame, now: int) -> ChannelVerdict:
        """Decide the fate of one transmission starting at ``now``."""
        self.frames_seen += 1
        config = self.config
        rng = self._rng
        # 1. Stuck-dominant jamming: windows are sampled lazily from an
        # exponential arrival process, so no events sit on the queue
        # when nothing transmits.
        if config.jam_rate > 0:
            if self._next_jam_at is None:
                self._next_jam_at = now + round(
                    rng.expovariate(config.jam_rate / SECOND))
            while now >= self._next_jam_at:
                self._jam_until = self._next_jam_at + config.jam_duration
                self._next_jam_at = self._jam_until + round(
                    rng.expovariate(config.jam_rate / SECOND))
        if now < self._jam_until:
            self.jam_corruptions += 1
            self.frames_corrupted += 1
            return ChannelVerdict.CORRUPT
        # 2. Gilbert-Elliott burst chain, advanced once per frame.
        if self._burst:
            self.burst_frames += 1
            if rng.random() < config.burst_exit:
                self._burst = False
        elif config.burst_enter > 0 and rng.random() < config.burst_enter:
            self._burst = True
        # 3. Independent bit errors over the frame's on-wire length.
        log_keep = self._log_keep_burst if self._burst else self._log_keep_good
        if log_keep:
            nominal, data_phase = frame.wire_bit_lengths()
            corrupt_p = -math.expm1((nominal + data_phase) * log_keep)
            if rng.random() < corrupt_p:
                self.frames_corrupted += 1
                return ChannelVerdict.CORRUPT
        # 4. Lost acknowledgement.
        if config.ack_loss > 0 and rng.random() < config.ack_loss:
            self.acks_lost += 1
            return ChannelVerdict.ACK_LOST
        return ChannelVerdict.OK

    def jam_now(self, now: int, duration: int | None = None) -> None:
        """Force a stuck-dominant window starting at ``now`` (tests,
        scripted attack scenarios)."""
        until = now + (duration if duration is not None
                       else self.config.jam_duration)
        if until > self._jam_until:
            self._jam_until = until

    @property
    def in_burst(self) -> bool:
        return self._burst

    # ------------------------------------------------------------------
    # Durable checkpoints (journal) and diagnostics
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-ready channel state for durable campaign checkpoints.

        A resumed campaign restores this before its first transmission
        so the verdict stream continues exactly where the killed run
        stood -- the channel-side half of the kill-resume determinism
        guarantee.
        """
        return {
            "rng": rng_state_to_json(self._rng.getstate()),
            "burst": self._burst,
            "jam_until": self._jam_until,
            "next_jam_at": self._next_jam_at,
            "frames_seen": self.frames_seen,
            "frames_corrupted": self.frames_corrupted,
            "acks_lost": self.acks_lost,
            "jam_corruptions": self.jam_corruptions,
            "burst_frames": self.burst_frames,
        }

    def load_state(self, state: dict) -> None:
        """Restore state exported by :meth:`state_dict`."""
        self._rng.setstate(rng_state_from_json(state["rng"]))
        self._burst = state["burst"]
        self._jam_until = state["jam_until"]
        self._next_jam_at = state["next_jam_at"]
        self.frames_seen = state["frames_seen"]
        self.frames_corrupted = state["frames_corrupted"]
        self.acks_lost = state["acks_lost"]
        self.jam_corruptions = state["jam_corruptions"]
        self.burst_frames = state["burst_frames"]

    def state_digest(self) -> str:
        """Deterministic digest of the channel's mutable state."""
        digest = hashlib.sha256()
        digest.update(
            f"{self._burst}:{self._jam_until}:{self._next_jam_at}:"
            f"{self.frames_seen}:{self.frames_corrupted}:"
            f"{self.acks_lost}:{self.jam_corruptions}:{self.burst_frames}:"
            f"{self._rng.getstate()!r}".encode("utf-8", "backslashreplace"))
        return digest.hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"AdversarialChannel(seen={self.frames_seen}, "
                f"corrupted={self.frames_corrupted}, "
                f"acks_lost={self.acks_lost}, burst={self._burst})")
