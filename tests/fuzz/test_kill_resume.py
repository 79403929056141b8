"""Kill-resume determinism: a killed campaign continues bit-identically.

The durability contract is stronger than "no data lost": a campaign
killed at an arbitrary point and resumed from its journal must produce
*exactly* the result an uninterrupted run produces -- same findings,
same timestamps, same frame counts, same sharded-run fingerprint.
These tests kill campaigns three ways (an in-simulation exception, a
worker process crash, a real SIGKILL of a whole sharded run) and
assert that equality.
"""

import os
import random
import signal
import subprocess
import sys
import time
import json
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from repro.can.adapter import PcanStyleAdapter
from repro.can.bus import CanBus
from repro.can.timing import CAN_500K
from repro.fuzz.campaign import CampaignLimits, FuzzCampaign
from repro.fuzz.config import FuzzConfig
from repro.fuzz.durability import CampaignJournal
from repro.fuzz.generator import RandomFrameGenerator
from repro.fuzz.parallel import ShardedCampaign, ShardSpec
from repro.sim.clock import MS, SECOND
from repro.sim.kernel import Simulator
from repro.testbench.factory import UnlockBenchFactory
from tests.journals import record_types, rewrite_in_older_format


@pytest.fixture(autouse=True)
def _no_worker_left(no_worker_left_behind):
    """No test here may leave a worker process running."""


def _build_tiny_campaign() -> FuzzCampaign:
    """Deterministic jittered campaign on a bare bus (no target)."""
    sim = Simulator()
    bus = CanBus(sim, timing=CAN_500K, name="kr")
    adapter = PcanStyleAdapter(bus, channel="PCAN_USBBUS_KR")
    adapter.initialize()
    generator = RandomFrameGenerator(FuzzConfig.full_range(),
                                     random.Random(99))
    return FuzzCampaign(
        sim, adapter, generator,
        limits=CampaignLimits(max_frames=400, stop_on_finding=False),
        interval_jitter=MS, rng=random.Random(5), name="kill-resume")


class _SimulatedCrash(Exception):
    """Stands in for SIGKILL inside a single-process test."""


class TestCampaignResume:
    def _crash_at(self, campaign: FuzzCampaign, at_ticks: int) -> None:
        def bomb() -> None:
            raise _SimulatedCrash()

        campaign.sim.call_at(campaign.sim.now + at_ticks, bomb)

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        baseline = _build_tiny_campaign().run()
        campaign = _build_tiny_campaign()
        campaign.attach_journal(CampaignJournal(tmp_path),
                                checkpoint_every=100)
        self._crash_at(campaign, 250 * MS)
        with pytest.raises(_SimulatedCrash):
            campaign.run()
        resumed = FuzzCampaign.resume(tmp_path, _build_tiny_campaign)
        assert resumed.to_json() == baseline.to_json()

    def test_crash_at_every_checkpoint_phase(self, tmp_path):
        # Kill shortly after a checkpoint, right before the next one,
        # and mid-interval: the resumed result never changes.
        baseline = _build_tiny_campaign().run()
        for case, crash_ticks in (("early", 110 * MS),
                                  ("late", 199 * MS),
                                  ("mid", 257 * MS)):
            journal_dir = tmp_path / case
            campaign = _build_tiny_campaign()
            campaign.attach_journal(CampaignJournal(journal_dir),
                                    checkpoint_every=100)
            self._crash_at(campaign, crash_ticks)
            with pytest.raises(_SimulatedCrash):
                campaign.run()
            resumed = FuzzCampaign.resume(journal_dir,
                                          _build_tiny_campaign)
            assert resumed.to_json() == baseline.to_json(), case

    def test_log_in_the_older_rng_encoding_resumes(self, tmp_path):
        # A log written before the compact RNG encoding: the RNG words
        # are JSON lists of ints, and a progress record precedes each
        # checkpoint.  Resuming it still matches the uninterrupted run.
        baseline = _build_tiny_campaign().run()
        campaign = _build_tiny_campaign()
        campaign.attach_journal(CampaignJournal(tmp_path),
                                checkpoint_every=100)
        self._crash_at(campaign, 250 * MS)
        with pytest.raises(_SimulatedCrash):
            campaign.run()
        rewrite_in_older_format(tmp_path)
        resumed = FuzzCampaign.resume(tmp_path, _build_tiny_campaign)
        assert resumed.to_json() == baseline.to_json()

    def test_completed_run_resumes_without_rebuilding(self, tmp_path):
        campaign = _build_tiny_campaign()
        campaign.attach_journal(CampaignJournal(tmp_path))
        finished = campaign.run()
        builds = []

        def counting_build() -> FuzzCampaign:
            builds.append(1)
            return _build_tiny_campaign()

        again = FuzzCampaign.resume(tmp_path, counting_build)
        assert again.to_json() == finished.to_json()
        assert builds == []  # the saved result short-circuits

    def test_resume_from_empty_journal_starts_fresh(self, tmp_path):
        baseline = _build_tiny_campaign().run()
        result = FuzzCampaign.resume(tmp_path, _build_tiny_campaign)
        assert result.to_json() == baseline.to_json()

    def test_journal_streams_findings_and_lifecycle(self, tmp_path):
        campaign = _build_tiny_campaign()
        journal = CampaignJournal(tmp_path)
        campaign.attach_journal(journal, checkpoint_every=100)
        campaign.run()
        kinds = [record["type"] for record in journal.records]
        assert kinds[0] == "start"
        assert kinds[-1] == "end"
        assert record_types(tmp_path).count("checkpoint") >= 3
        # The journal survives a reopen byte-for-byte.
        assert CampaignJournal(tmp_path).records == journal.records


# ----------------------------------------------------------------------
# Sharded kill-resume (module-level factories pickle under any start
# method; markers on disk make "crash once" survive same-spec retries).
# ----------------------------------------------------------------------

SMALL = CampaignLimits(max_frames=400, stop_on_finding=False)


@dataclass(frozen=True)
class TinyFactory:
    def __call__(self, spec: ShardSpec) -> FuzzCampaign:
        sim = Simulator()
        bus = CanBus(sim, timing=CAN_500K, name=f"shard-{spec.index}")
        adapter = PcanStyleAdapter(bus, channel="PCAN_USBBUS_TINY")
        adapter.initialize()
        generator = RandomFrameGenerator(
            FuzzConfig.full_range(), random.Random(spec.seed))
        return FuzzCampaign(sim, adapter, generator, limits=spec.limits,
                            name=f"tiny-{spec.index}")


@dataclass(frozen=True)
class CrashOnceByMarker:
    """Shard 0's worker dies at build until the marker file exists.

    Journalled retries reuse the same spec (same seed, same attempt),
    so the crash trigger must live outside the spec.
    """

    marker: str

    def __call__(self, spec: ShardSpec) -> FuzzCampaign:
        if spec.index == 0 and not os.path.exists(self.marker):
            open(self.marker, "w").close()
            os._exit(3)
        return TinyFactory()(spec)


@dataclass(frozen=True)
class CrashMidRunByMarker:
    """Shard 0's worker hard-dies 60 simulated ms into its first run.

    At a 1 ms transmit interval that is past the frame-50 checkpoint
    but well before the shard's ~134-frame slice of ``SMALL`` ends.
    """

    marker: str

    def __call__(self, spec: ShardSpec) -> FuzzCampaign:
        campaign = TinyFactory()(spec)
        if spec.index == 0 and not os.path.exists(self.marker):
            open(self.marker, "w").close()
            campaign.sim.call_after(60 * MS, lambda: os._exit(9))
        return campaign


@dataclass(frozen=True)
class HangOnceByMarker:
    """Shard 0's worker hangs until killed, once."""

    marker: str

    def __call__(self, spec: ShardSpec) -> FuzzCampaign:
        if spec.index == 0 and not os.path.exists(self.marker):
            open(self.marker, "w").close()
            time.sleep(60)
        return TinyFactory()(spec)


class TestShardedKillResume:
    def _baseline(self) -> "ShardedResult":
        return ShardedCampaign(TinyFactory(), shards=3, limits=SMALL,
                               master_seed=7, jobs=2).run()

    def test_crashed_worker_resumes_with_same_seed(self, tmp_path):
        baseline = self._baseline()
        crashed = ShardedCampaign(
            CrashOnceByMarker(str(tmp_path / "marker")), shards=3,
            limits=SMALL, master_seed=7, jobs=2,
            journal_dir=tmp_path / "journal", checkpoint_every=50).run()
        assert crashed.ok
        assert crashed.fault_count == 1
        # Journalled retry keeps seed and attempt, so the fingerprint
        # matches a run that never crashed -- the non-journalled path
        # would re-derive a fresh seed here and diverge.
        assert crashed.fingerprint() == baseline.fingerprint()
        assert all(o.attempt == 0 for o in crashed.outcomes)

    def test_mid_run_crash_resumes_and_logs_progress(self, tmp_path):
        baseline = self._baseline()
        crashed = ShardedCampaign(
            CrashMidRunByMarker(str(tmp_path / "marker")), shards=3,
            limits=SMALL, master_seed=7, jobs=2,
            journal_dir=tmp_path / "journal", checkpoint_every=50).run()
        assert crashed.ok
        assert crashed.fingerprint() == baseline.fingerprint()
        # Satellite: the fault log records what the dead worker had
        # durably achieved instead of silently discarding it.
        shard0 = crashed.outcomes[0]
        assert shard0.faults
        assert "exit code" in shard0.faults[0]
        assert "last journaled frames_sent=" in shard0.faults[0]

    def test_hung_worker_killed_and_resumed(self, tmp_path):
        baseline = self._baseline()
        hung = ShardedCampaign(
            HangOnceByMarker(str(tmp_path / "marker")), shards=3,
            limits=SMALL, master_seed=7, jobs=2, shard_timeout=1.5,
            journal_dir=tmp_path / "journal", checkpoint_every=50).run()
        assert hung.ok
        assert hung.fingerprint() == baseline.fingerprint()
        assert any("worker hung" in fault
                   for o in hung.outcomes for fault in o.faults)

    def test_rerun_skips_completed_shards(self, tmp_path):
        journal_dir = tmp_path / "journal"
        first = ShardedCampaign(TinyFactory(), shards=3, limits=SMALL,
                                master_seed=7, jobs=2,
                                journal_dir=journal_dir).run()
        rerun = ShardedCampaign(TinyFactory(), shards=3, limits=SMALL,
                                master_seed=7, jobs=2,
                                journal_dir=journal_dir).run()
        assert rerun.fingerprint() == first.fingerprint()
        assert all(any("loaded from journal" in w for w in o.warnings)
                   for o in rerun.outcomes)

    def test_serial_rerun_also_skips_completed_shards(self, tmp_path):
        journal_dir = tmp_path / "journal"
        first = ShardedCampaign(TinyFactory(), shards=2, limits=SMALL,
                                master_seed=7, journal_dir=journal_dir
                                ).run_serial()
        rerun = ShardedCampaign(TinyFactory(), shards=2, limits=SMALL,
                                master_seed=7, journal_dir=journal_dir
                                ).run_serial()
        assert rerun.fingerprint() == first.fingerprint()

    def test_mismatched_run_identity_refused(self, tmp_path):
        journal_dir = tmp_path / "journal"
        ShardedCampaign(TinyFactory(), shards=2, limits=SMALL,
                        master_seed=7, journal_dir=journal_dir)
        with pytest.raises(ValueError, match="refusing to resume"):
            ShardedCampaign(TinyFactory(), shards=2, limits=SMALL,
                            master_seed=8, journal_dir=journal_dir)
        with pytest.raises(ValueError, match="refusing to resume"):
            ShardedCampaign(TinyFactory(), shards=3, limits=SMALL,
                            master_seed=7, journal_dir=journal_dir)
        # The total limits and the factory's configuration are pinned
        # too: a byte-mode hunt cannot be resumed as a longer one, nor
        # in two-byte mode.
        byte_dir = tmp_path / "byte"
        ShardedCampaign(UnlockBenchFactory(), shards=2, limits=SMALL,
                        master_seed=7, journal_dir=byte_dir)
        with pytest.raises(ValueError, match="refusing to resume"):
            ShardedCampaign(UnlockBenchFactory(), shards=2,
                            limits=replace(SMALL, max_frames=4000),
                            master_seed=7, journal_dir=byte_dir)
        with pytest.raises(ValueError, match="refusing to resume"):
            ShardedCampaign(UnlockBenchFactory(check_mode="two-byte"),
                            shards=2, limits=SMALL, master_seed=7,
                            journal_dir=byte_dir)

    def test_manifest_without_limits_and_factory_warns_then_pins(
            self, tmp_path):
        # A manifest that pins only the seed and shard count resumes
        # with a warning and is rewritten to pin the rest.
        journal_dir = tmp_path / "journal"
        journal_dir.mkdir()
        (journal_dir / "master.json").write_text(json.dumps(
            {"format": 1, "master_seed": 7, "shard_count": 2}))
        runner = ShardedCampaign(TinyFactory(), shards=2, limits=SMALL,
                                 master_seed=7, journal_dir=journal_dir)
        assert len(runner.manifest_warnings) == 1
        assert "limits, factory" in runner.manifest_warnings[0]
        with pytest.raises(ValueError, match="refusing to resume"):
            ShardedCampaign(TinyFactory(), shards=2,
                            limits=replace(SMALL, max_frames=800),
                            master_seed=7, journal_dir=journal_dir)

    @pytest.mark.parametrize("text", ["{not json", "7", "[]"])
    def test_corrupt_manifest_is_rewritten(self, tmp_path, text):
        journal_dir = tmp_path / "journal"
        journal_dir.mkdir()
        (journal_dir / "master.json").write_text(text)
        runner = ShardedCampaign(TinyFactory(), shards=2, limits=SMALL,
                                 master_seed=7, journal_dir=journal_dir)
        assert runner.manifest_warnings == [
            "master.json corrupt; rewriting it"]
        assert json.loads((journal_dir / "master.json").read_text())[
            "master_seed"] == 7


# ----------------------------------------------------------------------
# The acceptance test: SIGKILL a real sharded unlock hunt mid-flight,
# resume it, and demand the exact uninterrupted fingerprint.
# ----------------------------------------------------------------------

class _SlowStartGenerator:
    """Wraps a generator, wall-clock-throttling the first N frames.

    Simulated time is untouched -- the wrapper only widens the
    wall-clock window in which SIGKILL can land mid-flight, keeping
    the kill-resume test deterministic in the domain that matters.
    """

    def __init__(self, inner, slow_frames: int, delay: float) -> None:
        self._inner = inner
        self._slow_frames = slow_frames
        self._delay = delay

    def next_frame(self):
        if self._inner.generated < self._slow_frames:
            time.sleep(self._delay)
        return self._inner.next_frame()

    def state_dict(self) -> dict:
        return self._inner.state_dict()

    def load_state(self, state: dict) -> None:
        self._inner.load_state(state)

    def __getattr__(self, item):
        return getattr(self._inner, item)


@dataclass(frozen=True)
class SlowUnlockFactory:
    """The unlock bench, throttled early so a kill lands mid-flight."""

    slow_frames: int = 3000
    delay: float = 0.0005

    def __call__(self, spec: ShardSpec) -> FuzzCampaign:
        campaign = UnlockBenchFactory()(spec)
        campaign.generator = _SlowStartGenerator(
            campaign.generator, self.slow_frames, self.delay)
        return campaign


#: Master seed 14 over two shards: shard 1's stream hits the unlock
#: within the budget (pinned by tests/test_cli.py), so the killed run
#: has an actual finding to not lose.
SIGKILL_SEED = 14
SIGKILL_LIMITS = CampaignLimits(max_duration=25 * SECOND)

_RUNNER_SCRIPT = """
import sys
from fuzz.test_kill_resume import SIGKILL_LIMITS, SIGKILL_SEED, \\
    SlowUnlockFactory
from repro.fuzz.parallel import ShardedCampaign

ShardedCampaign(SlowUnlockFactory(), shards=2, jobs=2,
                master_seed=SIGKILL_SEED, limits=SIGKILL_LIMITS,
                journal_dir=sys.argv[1], checkpoint_every=500).run()
"""


class TestSigkillResume:
    def test_sigkilled_run_resumes_to_identical_fingerprint(self, tmp_path):
        journal_dir = tmp_path / "journal"
        tests_dir = Path(__file__).resolve().parents[1]
        src_dir = tests_dir.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_dir), str(tests_dir)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.Popen(
            [sys.executable, "-c", _RUNNER_SCRIPT, str(journal_dir)],
            env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            # Wait for the first durable checkpoint, then kill the
            # whole process group -- parent and both workers -- with
            # the one signal no handler can soften.
            deadline = time.monotonic() + 90
            shards = [journal_dir / f"shard-{i:04d}" for i in range(2)]
            while not any("checkpoint" in record_types(shard)
                          for shard in shards):
                assert proc.poll() is None, \
                    "runner exited before its first checkpoint"
                assert time.monotonic() < deadline, \
                    "no checkpoint appeared within 90 s"
                time.sleep(0.01)
            os.killpg(proc.pid, signal.SIGKILL)
        finally:
            if proc.poll() is None:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:  # pragma: no cover
                    pass
            proc.wait()
        assert proc.returncode == -signal.SIGKILL

        resumed = ShardedCampaign(
            SlowUnlockFactory(), shards=2, jobs=2,
            master_seed=SIGKILL_SEED, limits=SIGKILL_LIMITS,
            journal_dir=journal_dir, checkpoint_every=500).run()
        baseline = ShardedCampaign(
            SlowUnlockFactory(), shards=2, jobs=2,
            master_seed=SIGKILL_SEED, limits=SIGKILL_LIMITS).run()

        assert resumed.ok
        assert resumed.fingerprint() == baseline.fingerprint()
        # Zero findings lost: the unlock shard 1 discovers is present,
        # at the same simulated time, with the same evidence window.
        assert len(baseline.findings) >= 1
        assert [(i, f.time, f.oracle) for i, f in resumed.findings] \
            == [(i, f.time, f.oracle) for i, f in baseline.findings]
