"""The Table V experiment: blind fuzz until the unlock activates.

"With the fuzzer, the unlock (or lock) functionality was activated
after a few minutes of randomly generated CAN data ... At this rate
the mean time to cause the unlock response, based on a small sample
of 12 runs, was 431 seconds.  ... When the code was changed to
include a test for the length of the data packet, the mean time
increased to 1959 seconds."

:class:`UnlockExperiment` runs N independent trials per BCM check
mode; each trial is a fresh bench, a fresh fuzzer stream and a
campaign that stops at the first unlock acknowledgement.  Trials run
through ``FuzzCampaign.run``, which puts an admitted world on the
block-stepped frame engine (:mod:`repro.fuzz.batch`), bit-identical to
the reference kernel; a trial its prover cannot admit runs on the
reference kernel and names the rule in its outcome.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.fuzz.campaign import CampaignLimits, FuzzCampaign
from repro.fuzz.config import FuzzConfig
from repro.fuzz.coverage import expected_unlock_seconds
from repro.fuzz.generator import RandomFrameGenerator
from repro.fuzz.oracle import AckMessageOracle, PhysicalStateOracle
from repro.sim.clock import MS, SECOND
from repro.sim.random import RandomStreams
from repro.testbench.bcm import UNLOCK_ACK_ID
from repro.testbench.bench import UnlockTestbench


@dataclass(frozen=True)
class TrialOutcome:
    """One trial of the unlock experiment."""

    trial: int
    unlocked: bool
    seconds_to_unlock: float | None
    frames_sent: int
    #: The prover's rule that sent the trial to the reference kernel,
    #: or ``None`` when the frame engine ran it.
    fallback_reason: str | None = None


@dataclass(frozen=True)
class TableVRow:
    """One row of the paper's Table V."""

    label: str
    check_mode: str
    times_seconds: tuple[float, ...]
    timeouts: int
    #: ``"trial k: rule"`` for each trial that ran on the reference
    #: kernel.
    fallback_reasons: tuple[str, ...] = ()

    @property
    def mean_seconds(self) -> float:
        if not self.times_seconds:
            raise ValueError(f"row {self.label!r} has no successful trials")
        return statistics.fmean(self.times_seconds)

    def format(self) -> str:
        times = ", ".join(f"{t:.0f}" for t in self.times_seconds)
        return (f"{self.label:<35} times(s): {times}  "
                f"mean: {self.mean_seconds:.0f}s")


#: Table V row labels, keyed by BCM check mode.
ROW_LABELS = {
    "byte": "Single id and byte",
    "byte+dlc": "Single id, byte plus data length",
    "two-byte": "Single id and two byte value (ext)",
}


class UnlockExperiment:
    """Run repeated blind-fuzz trials against the bench.

    Args:
        check_mode: the BCM's unlock-recognition code.
        seed: root seed; trial ``k`` forks stream ``trial-k`` so each
            trial is independent but the whole experiment reproduces.
        interval: fuzzer transmit interval (paper: 1 ms).
        trial_timeout_seconds: per-trial cap in *simulated* seconds.
            The default is ~6x the slowest configuration's analytic
            mean, making a timeout a <1% event per trial.
    """

    def __init__(self, *, check_mode: str = "byte", seed: int = 0,
                 interval: int = 1 * MS,
                 trial_timeout_seconds: float | None = None) -> None:
        self.check_mode = check_mode
        self.seed = seed
        self.interval = interval
        if trial_timeout_seconds is None:
            analytic = expected_unlock_seconds(
                require_exact_dlc=(check_mode == "byte+dlc"),
                value_bytes=2 if check_mode == "two-byte" else 1,
                interval_ticks=interval)
            # Stored as the whole-tick cap the campaign applies
            # (``round(cap * SECOND)`` ticks), so the cap reported here
            # is exactly the one a timed-out trial ran to.
            trial_timeout_seconds = round(6.0 * analytic * SECOND) / SECOND
        self.trial_timeout_seconds = trial_timeout_seconds

    # ------------------------------------------------------------------
    # Single trial
    # ------------------------------------------------------------------
    def build_trial(self, trial: int) -> FuzzCampaign:
        """The world of one trial: a fresh bench (on ``campaign.bench``)
        and fuzzer stream, and a campaign that stops at the first
        unlock acknowledgement."""
        streams = RandomStreams(self.seed).fork(f"trial-{trial}")
        bench = UnlockTestbench(seed=self.seed,
                                check_mode=self.check_mode,
                                monitor_limit=256)
        bench.power_on()
        adapter = bench.attacker_adapter()
        generator = RandomFrameGenerator(
            FuzzConfig.full_range(interval=self.interval),
            streams.stream("fuzzer"))
        # Two oracles, as in the paper: the augmented ack message on
        # the network, and (belt and braces) the LED itself.
        ack_oracle = AckMessageOracle(
            bench.bus, UNLOCK_ACK_ID,
            predicate=lambda f: bool(f.data) and f.data[0] == 0x01,
            exclude_sender=adapter.controller.name,
            name="unlock-ack")
        led_oracle = PhysicalStateOracle(
            lambda: bench.bcm.led_on, expected=False,
            period=20 * MS, name="led-camera")
        campaign = FuzzCampaign(
            bench.sim, adapter, generator,
            limits=CampaignLimits(
                max_duration=round(self.trial_timeout_seconds * SECOND),
                stop_on_finding=True),
            oracles=[ack_oracle, led_oracle],
            interval=self.interval,
            name=f"unlock-{self.check_mode}-trial{trial}")
        campaign.bench = bench
        return campaign

    def run_trial(self, trial: int) -> TrialOutcome:
        """One independent blind-fuzz trial on a fresh bench."""
        campaign = self.build_trial(trial)
        result = campaign.run()
        unlocked = not campaign.bench.bcm.locked
        return TrialOutcome(
            trial=trial,
            unlocked=unlocked,
            seconds_to_unlock=(result.first_finding_seconds
                               if unlocked else None),
            frames_sent=result.frames_sent,
            fallback_reason=(result.fallback_reasons[0]
                             if result.fallback_reasons else None))

    # ------------------------------------------------------------------
    # Full row
    # ------------------------------------------------------------------
    def run_trials(self, count: int = 12) -> TableVRow:
        """The paper's sample of 12 runs (count configurable)."""
        times = []
        timeouts = 0
        reasons = []
        for trial in range(count):
            outcome = self.run_trial(trial)
            if outcome.seconds_to_unlock is None:
                timeouts += 1
            else:
                times.append(outcome.seconds_to_unlock)
            if outcome.fallback_reason is not None:
                reasons.append(f"trial {trial}: {outcome.fallback_reason}")
        return TableVRow(
            label=ROW_LABELS.get(self.check_mode, self.check_mode),
            check_mode=self.check_mode,
            times_seconds=tuple(times),
            timeouts=timeouts,
            fallback_reasons=tuple(reasons))
