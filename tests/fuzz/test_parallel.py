"""Tests for the sharded parallel campaign runner."""

import hashlib
import json
import os
import random
import signal
import threading
import time
from dataclasses import dataclass

import pytest

from repro.can.adapter import PcanStyleAdapter
from repro.can.bus import CanBus
from repro.can.timing import CAN_500K
from repro.fuzz.campaign import CampaignLimits, FuzzCampaign
from repro.fuzz.config import FuzzConfig
from repro.fuzz.generator import RandomFrameGenerator
from repro.fuzz.parallel import (
    ShardedCampaign,
    ShardedResult,
    ShardSpec,
    derive_shard_seed,
    slice_limits,
)
from repro.sim.kernel import Simulator
from repro.testbench.factory import UnlockBenchFactory


# Factories live at module level so they pickle under any start method.
@dataclass(frozen=True)
class TinyFactory:
    """Bare bus + adapter: the smallest possible shard target."""

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
class CrashOnceFactory:
    """Hard-kills the worker on shard 0's first attempt (no traceback,
    no message -- the parent must notice the dead process)."""

    def __call__(self, spec: ShardSpec) -> FuzzCampaign:
        if spec.index == 0 and spec.attempt == 0:
            os._exit(3)
        return TinyFactory()(spec)


@dataclass(frozen=True)
class RaiseOnceFactory:
    """Raises inside the worker on shard 0's first attempt."""

    def __call__(self, spec: ShardSpec) -> FuzzCampaign:
        if spec.index == 0 and spec.attempt == 0:
            raise ValueError("deliberate shard fault")
        return TinyFactory()(spec)


@dataclass(frozen=True)
class AlwaysRaiseFactory:
    """Shard 0 never succeeds; other shards are fine."""

    def __call__(self, spec: ShardSpec) -> FuzzCampaign:
        if spec.index == 0:
            raise ValueError("permanent shard fault")
        return TinyFactory()(spec)


@dataclass(frozen=True)
class HangOnceFactory:
    """Hangs the worker on shard 0's first attempt."""

    def __call__(self, spec: ShardSpec) -> FuzzCampaign:
        if spec.index == 0 and spec.attempt == 0:
            time.sleep(60)
        return TinyFactory()(spec)


@dataclass(frozen=True)
class StubbornHangFactory:
    """Shard 0's first attempt ignores SIGTERM *and* hangs -- the
    worker a plain terminate cannot reap."""

    def __call__(self, spec: ShardSpec) -> FuzzCampaign:
        if spec.index == 0 and spec.attempt == 0:
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            time.sleep(60)
        return TinyFactory()(spec)


@dataclass(frozen=True)
class LingerFactory:
    """Shard 0's worker reports its result and then does not exit: the
    factory leaves a non-daemon thread behind, which the interpreter
    waits for before the process can end."""

    def __call__(self, spec: ShardSpec) -> FuzzCampaign:
        if spec.index == 0:
            threading.Thread(target=time.sleep, args=(60,),
                             daemon=False).start()
        return TinyFactory()(spec)


SMALL = CampaignLimits(max_frames=400, stop_on_finding=False)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_shard_seed(7, 3) == derive_shard_seed(7, 3)

    def test_shards_draw_distinct_seeds(self):
        seeds = {derive_shard_seed(0, i) for i in range(64)}
        assert len(seeds) == 64

    def test_master_seed_changes_every_shard(self):
        assert derive_shard_seed(0, 1) != derive_shard_seed(1, 1)

    def test_retry_attempt_changes_the_seed(self):
        assert derive_shard_seed(0, 1, attempt=1) != derive_shard_seed(0, 1)


class TestSliceLimits:
    def test_even_split_with_remainder_to_low_shards(self):
        slices = slice_limits(CampaignLimits(max_frames=10), 4)
        assert [s.max_frames for s in slices] == [3, 3, 2, 2]

    def test_duration_and_stop_flag_pass_through(self):
        base = CampaignLimits(max_duration=500, stop_on_finding=False)
        slices = slice_limits(base, 3)
        assert all(s.max_duration == 500 for s in slices)
        assert all(not s.stop_on_finding for s in slices)

    def test_total_budget_is_preserved(self):
        slices = slice_limits(CampaignLimits(max_frames=1001), 7)
        assert sum(s.max_frames for s in slices) == 1001

    def test_too_many_shards_rejected(self):
        with pytest.raises(ValueError):
            slice_limits(CampaignLimits(max_frames=2), 4)

    def test_nonpositive_shards_rejected(self):
        with pytest.raises(ValueError):
            slice_limits(CampaignLimits(max_frames=10), 0)


class TestDeterminism:
    def test_equal_seed_and_index_reproduce_identical_results(self):
        """The satellite guarantee: equal (master_seed, shard_index)
        pairs reproduce bit-identical shard results."""
        factory = TinyFactory()
        spec = ShardSpec(index=2, shard_count=4, master_seed=9,
                         seed=derive_shard_seed(9, 2), limits=SMALL)
        first = factory(spec).run()
        second = factory(spec).run()
        assert first.to_json() == second.to_json()

    def test_serial_runs_fingerprint_identically(self):
        make = lambda: ShardedCampaign(TinyFactory(), shards=3,
                                       master_seed=5, limits=SMALL)
        assert (make().run_serial().fingerprint()
                == make().run_serial().fingerprint())

    def test_different_master_seeds_diverge(self):
        a = ShardedCampaign(TinyFactory(), shards=2, master_seed=1,
                            limits=SMALL).run_serial()
        b = ShardedCampaign(TinyFactory(), shards=2, master_seed=2,
                            limits=SMALL).run_serial()
        assert a.fingerprint() != b.fingerprint()


class TestParallelRun:
    def test_parallel_matches_serial_bit_for_bit(self):
        runner = ShardedCampaign(TinyFactory(), shards=3, jobs=2,
                                 master_seed=11, limits=SMALL)
        serial = runner.run_serial()
        parallel = runner.run()
        assert parallel.ok
        assert parallel.fingerprint() == serial.fingerprint()

    def test_merge_aggregates_frames_and_orders_shards(self):
        runner = ShardedCampaign(TinyFactory(), shards=4, jobs=2,
                                 master_seed=0,
                                 limits=CampaignLimits(
                                     max_frames=402,
                                     stop_on_finding=False))
        merged = runner.run()
        assert [o.index for o in merged.outcomes] == [0, 1, 2, 3]
        assert merged.frames_sent == 402
        assert [o.result.frames_sent
                for o in merged.outcomes] == [101, 101, 100, 100]

    def test_findings_carry_shard_provenance(self):
        """The unlock-bench factory against a seed whose shard 1 hits
        the unlock inside the budget (found by scan, then pinned)."""
        runner = ShardedCampaign(
            UnlockBenchFactory(), shards=2, jobs=2, master_seed=14,
            limits=CampaignLimits(max_frames=20_000))
        merged = runner.run()
        assert merged.ok
        shards_with_findings = {s for s, _ in merged.findings}
        assert shards_with_findings == {1}
        assert any(f.oracle == "unlock-ack" for _, f in merged.findings)

    def test_json_roundtrip_preserves_fingerprint(self):
        merged = ShardedCampaign(TinyFactory(), shards=2, jobs=2,
                                 master_seed=3, limits=SMALL).run()
        restored = ShardedResult.from_json(merged.to_json())
        assert restored.fingerprint() == merged.fingerprint()
        # The digest is that of the whole payload's canonical JSON.
        payload = [(o.index, o.seed, o.attempt, o.result.to_dict())
                   for o in merged.outcomes]
        assert merged.fingerprint() == hashlib.sha256(json.dumps(
            payload, sort_keys=True).encode("utf-8")).hexdigest()
        assert restored.frames_sent == merged.frames_sent
        assert restored.jobs == merged.jobs

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ShardedCampaign(TinyFactory(), shards=0, limits=SMALL)
        with pytest.raises(ValueError):
            ShardedCampaign(TinyFactory(), shards=1, jobs=0, limits=SMALL)
        with pytest.raises(ValueError):
            ShardedCampaign(TinyFactory(), shards=1, limits=SMALL,
                            shard_timeout=0)
        with pytest.raises(ValueError):
            ShardedCampaign(TinyFactory(), shards=1, limits=SMALL,
                            max_retries=-1)


class TestFaultHandling:
    def test_crashed_worker_is_retried_with_fresh_seed(self):
        runner = ShardedCampaign(CrashOnceFactory(), shards=2, jobs=2,
                                 master_seed=1, limits=SMALL)
        merged = runner.run()
        assert merged.ok
        shard0 = merged.outcomes[0]
        assert shard0.attempt == 1
        assert shard0.seed == derive_shard_seed(1, 0, attempt=1)
        assert len(shard0.faults) == 1
        assert "exit code 3" in shard0.faults[0]
        # Shard 1 was untouched by shard 0's fault.
        assert merged.outcomes[1].attempt == 0

    def test_worker_exception_is_recorded_and_retried(self):
        merged = ShardedCampaign(RaiseOnceFactory(), shards=2, jobs=2,
                                 master_seed=1, limits=SMALL).run()
        assert merged.ok
        assert "deliberate shard fault" in merged.outcomes[0].faults[0]

    @pytest.mark.parametrize("batch_size", [1, 2])
    def test_retry_budget_exhaustion_is_a_failure_not_a_crash(
            self, batch_size):
        merged = ShardedCampaign(AlwaysRaiseFactory(), shards=2, jobs=2,
                                 master_seed=1, limits=SMALL,
                                 max_retries=1, batch_size=batch_size).run()
        assert not merged.ok
        assert [f.index for f in merged.failures] == [0]
        assert len(merged.failures[0].faults) == 2  # initial + 1 retry
        # The healthy shard still contributed.
        assert [o.index for o in merged.outcomes] == [1]
        assert merged.frames_sent == merged.outcomes[0].result.frames_sent

    def test_hung_worker_is_killed_and_retried(self):
        runner = ShardedCampaign(HangOnceFactory(), shards=2, jobs=2,
                                 master_seed=1, limits=SMALL,
                                 shard_timeout=1.0)
        started = time.monotonic()
        merged = runner.run()
        assert time.monotonic() - started < 30
        assert merged.ok
        assert merged.outcomes[0].attempt == 1
        assert "hung" in merged.outcomes[0].faults[0]

    def test_spawn_refusal_degrades_to_inline_execution(
            self, refusing_mp_context):
        """If the OS refuses every process, shards still run (inline)."""
        runner = ShardedCampaign(TinyFactory(), shards=3, jobs=2,
                                 master_seed=4, limits=SMALL,
                                 mp_context=refusing_mp_context)
        merged = runner.run()
        assert merged.ok
        assert (merged.fingerprint()
                == ShardedCampaign(TinyFactory(), shards=3, master_seed=4,
                                   limits=SMALL).run_serial().fingerprint())

    def test_summary_mentions_faults_and_failures(self):
        merged = ShardedCampaign(AlwaysRaiseFactory(), shards=2, jobs=2,
                                 master_seed=1, limits=SMALL,
                                 max_retries=0).run()
        text = merged.summary()
        assert "FAILED" in text
        assert "1/2 shards" in text

    def test_sigterm_ignoring_worker_escalates_to_sigkill(self):
        runner = ShardedCampaign(StubbornHangFactory(), shards=2, jobs=2,
                                 master_seed=1, limits=SMALL,
                                 shard_timeout=1.0, terminate_grace=0.5)
        started = time.monotonic()
        merged = runner.run()
        assert time.monotonic() - started < 30
        assert merged.ok
        shard0 = merged.outcomes[0]
        # The fault log records the escalation: SIGTERM was ignored,
        # SIGKILL reaped the worker, nothing leaked.
        assert any("escalated to SIGKILL" in fault
                   for fault in shard0.faults)
        assert any("ignored SIGTERM" in fault for fault in shard0.faults)

    def test_worker_that_lingers_after_its_result_is_reaped(self):
        """A result does not end the hang protection: a worker that
        reports and then does not exit is killed after terminate_grace
        instead of blocking the run forever."""
        runner = ShardedCampaign(LingerFactory(), shards=2, jobs=2,
                                 master_seed=1, limits=SMALL,
                                 shard_timeout=1.0, terminate_grace=0.5)
        # The lingering thread ends after 60 s, so a regression fails
        # here instead of hanging.
        started = time.monotonic()
        merged = runner.run()
        assert time.monotonic() - started < 30
        assert merged.ok
        assert (merged.fingerprint()
                == ShardedCampaign(TinyFactory(), shards=2, master_seed=1,
                                   limits=SMALL).run_serial().fingerprint())

    def test_negative_terminate_grace_rejected(self):
        with pytest.raises(ValueError, match="terminate_grace"):
            ShardedCampaign(TinyFactory(), shards=1, limits=SMALL,
                            terminate_grace=-1.0)


class TestRetryReport:
    def test_counts_attempts_and_retries_per_shard(self):
        merged = ShardedCampaign(CrashOnceFactory(), shards=2, jobs=2,
                                 master_seed=1, limits=SMALL).run()
        assert merged.total_retries == 1
        assert merged.shard_retries == {0: 1}
        assert merged.shard_attempts == {0: 1, 1: 0}
        report = merged.retry_report()
        assert report["total_retries"] == 1
        assert report["shard_retries"] == {"0": 1}
        assert report["shard_attempts"] == {"0": 1, "1": 0}

    def test_clean_run_reports_zero_retries(self):
        merged = ShardedCampaign(TinyFactory(), shards=2, jobs=2,
                                 master_seed=1, limits=SMALL).run()
        assert merged.total_retries == 0
        assert merged.retry_report() == {
            "total_retries": 0, "shard_retries": {},
            "shard_attempts": {"0": 0, "1": 0}}

    def test_permanent_failures_count_their_faults(self):
        merged = ShardedCampaign(AlwaysRaiseFactory(), shards=2, jobs=2,
                                 master_seed=1, limits=SMALL,
                                 max_retries=1).run()
        report = merged.retry_report()
        assert report["shard_retries"]["0"] == 2  # initial + 1 retry
        assert report["total_retries"] == 2
