"""Pickleable campaign factories for the sharded parallel runner.

A :class:`~repro.fuzz.parallel.ShardedCampaign` worker receives a
factory and a :class:`~repro.fuzz.parallel.ShardSpec` over the process
boundary and must build its *entire* universe -- simulator, bus, bench
nodes, adapter, generator, oracles -- from the spec's seed alone.  The
factory here is a frozen dataclass of plain values, so it pickles
under any start method and two workers can never share bench state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.can.channel import AdversarialChannel, ChannelConfig
from repro.can.frame import CanFrame
from repro.fuzz.campaign import FuzzCampaign
from repro.fuzz.config import FuzzConfig
from repro.fuzz.generator import RandomFrameGenerator
from repro.fuzz.health import CampaignSupervisor
from repro.fuzz.oracle import AckMessageOracle, PhysicalStateOracle
from repro.fuzz.parallel import ShardSpec
from repro.sim.clock import MS
from repro.sim.random import RandomStreams
from repro.testbench.bcm import UNLOCK_ACK_ID
from repro.testbench.bench import UnlockTestbench


def _unlock_ack(frame: CanFrame) -> bool:
    """The augmented acknowledgement payload test (module-level so the
    factory stays pickleable under the spawn start method too)."""
    return bool(frame.data) and frame.data[0] == 0x01


@dataclass(frozen=True)
class UnlockBenchFactory:
    """Builds a fresh Table V-style unlock hunt for one shard.

    Mirrors the single-process campaign the CLI's ``fuzz-bench`` and
    :class:`~repro.testbench.experiment.UnlockExperiment` assemble:
    a fresh :class:`UnlockTestbench`, a full-range random generator
    seeded from the shard seed, and the two paper oracles (ack message
    on the wire, LED as the physical probe).

    Args:
        check_mode: BCM unlock-recognition code ("byte", "byte+dlc",
            "two-byte").
        interval: fuzzer transmit interval (paper: 1 ms).
        settle_seconds: bus settle time after power-on.
        monitor_limit: frames retained by the bench monitor (bounded,
            as in the experiment harness, so shards stay lean).
        channel: optional noise parameters; when set, an
            :class:`~repro.can.channel.AdversarialChannel` seeded from
            the shard's "channel" stream is attached to the bench bus
            and its state rides the campaign's durable checkpoints.
        supervise: add a :class:`~repro.fuzz.health.CampaignSupervisor`
            so the campaign survives bus-DoS and adapter bus-off
            (recommended whenever ``channel`` is set).
    """

    check_mode: str = "byte"
    interval: int = 1 * MS
    settle_seconds: float = 0.5
    monitor_limit: int = 256
    channel: ChannelConfig | None = None
    supervise: bool = False

    def __call__(self, spec: ShardSpec) -> FuzzCampaign:
        bench = UnlockTestbench(seed=spec.seed,
                                check_mode=self.check_mode,
                                monitor_limit=self.monitor_limit)
        bench.power_on(settle_seconds=self.settle_seconds)
        adapter = bench.attacker_adapter()
        generator = RandomFrameGenerator(
            FuzzConfig.full_range(interval=self.interval),
            RandomStreams(spec.seed).stream("fuzzer"))
        oracles = [
            AckMessageOracle(bench.bus, UNLOCK_ACK_ID,
                             predicate=_unlock_ack,
                             exclude_sender=adapter.controller.name,
                             name="unlock-ack"),
            # The lambda pins the bench (and everything it owns) to the
            # campaign's lifetime.
            PhysicalStateOracle(lambda: bench.bcm.led_on, expected=False,
                                period=20 * MS, name="led"),
        ]
        channel = None
        if self.channel is not None:
            channel = AdversarialChannel(
                self.channel, RandomStreams(spec.seed).stream("channel"))
            bench.bus.attach_channel(channel)
        if self.supervise:
            oracles.append(CampaignSupervisor(bench.bus))
        campaign = FuzzCampaign(
            bench.sim, adapter, generator, limits=spec.limits,
            oracles=oracles, interval=self.interval,
            name=f"unlock-{self.check_mode}-shard{spec.index}",
            channel=channel)
        # Pin the bench on the campaign: it keeps the world alive for
        # the campaign's lifetime and lets run() take the fast path
        # (repro.fuzz.batch) once the prover has checked the target.
        campaign.bench = bench
        return campaign


@dataclass(frozen=True)
class UdsBenchFactory:
    """Builds a fresh stateful UDS campaign for one shard.

    The diagnostic counterpart of :class:`UnlockBenchFactory`: a quiet
    :class:`~repro.testbench.diag.DiagTestbench`, a coverage-guided
    :class:`~repro.uds.stategen.UdsStateGenerator` seeded from the
    shard seed, and a :class:`~repro.fuzz.uds_campaign.UdsFuzzCampaign`
    wiring them together.  Frozen plain values, so it pickles to
    :class:`~repro.fuzz.parallel.ShardedCampaign` workers, and the same
    callable doubles as the deterministic ``build`` for
    :meth:`~repro.fuzz.uds_campaign.UdsFuzzCampaign.resume`.
    """

    interval: int = 2 * MS
    settle_seconds: float = 0.05
    boot_time: int = 20 * MS
    recent_window: int = 32
    stop_on_finding: bool = True
    #: Index into :data:`repro.uds.stategen.KEY_ALGORITHMS` for the
    #: *target's* seed-to-key routine (an index, not a callable, so
    #: the factory stays pickleable).  None keeps the server default;
    #: the generator still has to learn whichever one is installed.
    key_algorithm: int | None = None

    def __call__(self, spec: ShardSpec):
        from repro.fuzz.uds_campaign import UdsFuzzCampaign
        from repro.testbench.diag import DiagTestbench
        from repro.uds.stategen import KEY_ALGORITHMS, UdsStateGenerator

        algorithm = None
        if self.key_algorithm is not None:
            algorithm = KEY_ALGORITHMS[self.key_algorithm][1]
        bench = DiagTestbench(seed=spec.seed, boot_time=self.boot_time,
                              key_algorithm=algorithm)
        bench.power_on(settle_seconds=self.settle_seconds)
        generator = UdsStateGenerator(
            bench.streams.stream("uds-fuzzer"),
            seed_label=f"uds-state-{spec.seed}")
        limits = spec.limits
        if not self.stop_on_finding and limits.stop_on_finding:
            # The factory-level keep-going override: hunt to the full
            # request budget even after a finding fires.
            limits = replace(limits, stop_on_finding=False)
        campaign = UdsFuzzCampaign(
            bench.sim, bench.client, bench.server, generator,
            limits=limits, interval=self.interval,
            recent_window=self.recent_window,
            name=f"uds-shard{spec.index}")
        # Pin the bench on the campaign: it keeps the world alive for
        # the campaign's lifetime and lets run() take the fast path
        # (repro.fuzz.batch) once the prover has checked the world.
        campaign.bench = bench
        return campaign


@dataclass(frozen=True)
class UdsReplayFactory:
    """A request-level replay target for UDS findings.

    The :class:`~repro.uds.replay.UdsReplayer` contract: a
    zero-argument callable returning ``(simulator, UDS client, failure
    probe)``.  Rebuilds the same quiet diagnostic bench the campaign
    fuzzed (same seed and boot/settle timing), with the crash of the
    target ECU as the failure verdict.
    """

    seed: int = 0
    settle_seconds: float = 0.05
    boot_time: int = 20 * MS
    #: Target key-algorithm index, matching the campaign bench's
    #: (:class:`UdsBenchFactory.key_algorithm`).
    key_algorithm: int | None = None

    def __call__(self):
        from repro.testbench.diag import DiagTestbench
        from repro.uds.stategen import KEY_ALGORITHMS

        algorithm = None
        if self.key_algorithm is not None:
            algorithm = KEY_ALGORITHMS[self.key_algorithm][1]
        bench = DiagTestbench(seed=self.seed, boot_time=self.boot_time,
                              key_algorithm=algorithm)
        bench.power_on(settle_seconds=self.settle_seconds)
        # The bound method pins the bench for the probe's lifetime.
        # ``failed`` covers both loss modes a liveness finding can
        # record: a crashed target and one wedged in the NRC-path hang.
        return bench.sim, bench.client, bench.failed


@dataclass(frozen=True)
class CarReplayFactory:
    """A replay/minimisation target backed by the full target vehicle.

    The §IV scenario: a finding was made against the complete simulated
    car (two buses, six ECUs, gateway, dynamics), and reproducing it
    means powering the whole vehicle up again -- ignition on plus a
    bus-settle window -- before retransmitting a candidate trace.  That
    reset is exactly the cost the paper's workflow pays per reproduction
    attempt and what Werquin et al. identify as the throughput limit of
    automotive fuzzing; it is also what makes this factory the
    interesting target for :class:`~repro.fuzz.replay.SnapshotReplayer`,
    whose checkpoints skip the reset entirely.

    The failure probe reports an unlocked vehicle; ``min_unlock_events``
    additionally requires that many *accepted* unlock commands, which
    models failures that need several cooperating frames (a ddmin
    worst case: none of the frames is removable alone).

    Args:
        seed: the car's root seed (match the finding's campaign seed).
        bus: which bus the attacker's OBD adapter taps.
        settle_seconds: simulated time after ignition before the world
            is handed over (the vehicle's wake-up/boot window).
        min_unlock_events: accepted-unlock count the probe requires
            (0 = any unlocked state fails).
    """

    seed: int = 0
    bus: str = "body"
    settle_seconds: float = 2.0
    min_unlock_events: int = 0

    def __call__(self):
        from repro.vehicle import TargetCar

        car = TargetCar(seed=self.seed)
        car.ignition_on()
        car.run_seconds(self.settle_seconds)
        adapter = car.obd_adapter(self.bus)
        needed = self.min_unlock_events

        def failed() -> bool:
            return (not car.bcm.locked
                    and car.bcm.unlock_events >= needed)

        return car.sim, adapter, failed


@dataclass(frozen=True)
class UnlockReplayFactory:
    """A replay/minimisation target for the unlock bench.

    The :class:`~repro.fuzz.replay.Replayer` contract: a zero-argument
    callable returning ``(simulator, attacker adapter, failure
    probe)``.  Built from the same ``(seed, check_mode)`` pair that
    produced a finding, so the probe replays against a world identical
    to the campaign's at power-on.  A frozen dataclass of plain values:
    it pickles, so sharded tooling can ship it to workers, and the
    snapshot replayer can hold it without dragging bench state along.

    ``monitor_limit`` is deliberately small -- the monitor's ring
    buffer is cloned into every checkpoint the snapshot replayer
    stores, and replay verdicts never read it.
    """

    check_mode: str = "byte"
    seed: int = 0
    settle_seconds: float = 0.5
    monitor_limit: int = 256

    def __call__(self):
        bench = UnlockTestbench(seed=self.seed,
                                check_mode=self.check_mode,
                                monitor_limit=self.monitor_limit)
        bench.power_on(settle_seconds=self.settle_seconds)
        adapter = bench.attacker_adapter()
        # The lambda pins the bench for the probe's lifetime (and is
        # created per call, keeping the factory itself pickleable).
        return bench.sim, adapter, lambda: bench.bcm.led_on
