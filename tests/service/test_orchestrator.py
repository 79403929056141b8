"""Orchestrator control loop: completion parity, retries, quarantine,
graceful shutdown, orphan recovery."""

import asyncio
import time

import pytest

from repro.fuzz.durability import RetryPolicy
from repro.service.orchestrator import Orchestrator, shard_spec_for
from repro.service.queue import JobQueue, JobSpec, result_fingerprint
from repro.testbench.factory import UdsBenchFactory

from .helpers import register_test_kinds

register_test_kinds()


def _no_sleep(_seconds: float) -> None:
    pass


#: No wait between a fault and the re-grant -- retries land on the
#: next tick so the tests stay fast.
EAGER = RetryPolicy(attempts=1, backoff=0.0, sleep=_no_sleep)


def direct_fingerprint(**fields) -> str:
    """The bit-identical baseline: the same spec run straight through
    the bench factory on the reference kernel, no service, no journal,
    no interruptions."""
    spec = JobSpec(**fields)
    campaign = UdsBenchFactory(
        stop_on_finding=spec.stop_on_finding)(shard_spec_for(spec))
    return result_fingerprint(campaign._execute(None).to_dict())


class TestCompletion:
    def test_service_results_match_direct_runs(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(job_id="a", kind="uds", seed=7, max_frames=400)
        queue.submit(job_id="b", kind="uds", seed=11, max_frames=300,
                     stop_on_finding=False)
        orch = Orchestrator(queue, workers=2, backoff=EAGER)
        orch.run_until_idle(timeout=60.0)

        for job_id, fields in (
                ("a", dict(job_id="a", seed=7, max_frames=400)),
                ("b", dict(job_id="b", seed=11, max_frames=300,
                           stop_on_finding=False))):
            job = queue.get(job_id)
            assert job.state == "completed", job.faults
            assert job.attempts == 1
            assert job.fingerprint == direct_fingerprint(**fields)
        assert queue.load_result("a")["findings"], \
            "seed 7 finds the liveness bug in 400 frames"

    def test_heartbeats_surface_progress(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(job_id="a", kind="uds", seed=7, max_frames=400)
        orch = Orchestrator(queue, workers=1, checkpoint_every=50,
                            backoff=EAGER)
        orch.run_until_idle(timeout=60.0)
        job = queue.get("a")
        assert job.progress.get("phase") == "end"
        assert job.progress.get("frames_sent", 0) > 0
        assert orch.leases.stats()["renewed"] > 0

    def test_status_is_json_ready(self, tmp_path):
        import json

        queue = JobQueue(tmp_path)
        queue.submit(job_id="a", kind="uds", seed=7, max_frames=200)
        orch = Orchestrator(queue, backoff=EAGER)
        orch.run_until_idle(timeout=60.0)
        status = orch.status()
        assert json.loads(json.dumps(status)) == status
        assert status["queue"]["states"]["completed"] == 1


class TestCrashHandoff:
    def test_crashed_worker_retries_to_identical_result(self, tmp_path):
        queue = JobQueue(tmp_path / "data")
        marker = str(tmp_path / "crash.marker")
        queue.submit(job_id="a", kind="slow-uds", seed=7, max_frames=400,
                     params={"delay": 0.0, "marker": marker,
                             "crash_at": 60})
        orch = Orchestrator(queue, workers=1, checkpoint_every=20,
                            backoff=EAGER)
        orch.run_until_idle(timeout=60.0)

        job = queue.get("a")
        assert job.state == "completed"
        assert job.attempts == 2
        assert len(job.faults) == 1
        assert "crashed" in job.faults[0]
        # The retry resumed the same journal with the same seed: the
        # interrupted run's result is bit-identical to a clean one.
        assert job.fingerprint == direct_fingerprint(
            job_id="a", seed=7, max_frames=400)

    def test_repeat_crasher_is_quarantined(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(job_id="a", kind="always-crash", seed=0,
                     max_frames=10)
        queue.submit(job_id="b", kind="uds", seed=7, max_frames=200)
        orch = Orchestrator(queue, workers=1, quarantine_after=2,
                            backoff=EAGER)
        orch.run_until_idle(timeout=60.0)

        bad = queue.get("a")
        assert bad.state == "quarantined"
        assert len(bad.faults) == 2
        assert "quarantined" in bad.faults[-1]
        # The repeat-crasher did not starve the healthy job.
        assert queue.get("b").state == "completed"

    def test_unknown_kind_quarantined_without_spawning(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(job_id="a", kind="no-such-kind", seed=0,
                     max_frames=10)
        orch = Orchestrator(queue, backoff=EAGER)
        orch.run_until_idle(timeout=10.0)
        job = queue.get("a")
        assert job.state == "quarantined"
        assert "cannot be built" in job.faults[0]
        assert orch.leases.stats()["granted"] == 0

    def test_backoff_holds_a_faulted_job_back(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(job_id="a", kind="always-crash", seed=0,
                     max_frames=10)
        patient = RetryPolicy(attempts=1, backoff=1000.0,
                              sleep=_no_sleep)
        orch = Orchestrator(queue, workers=1, quarantine_after=3,
                            backoff=patient)
        deadline = time.monotonic() + 30.0
        while not queue.get("a").faults:
            orch.tick()
            assert time.monotonic() < deadline
            time.sleep(0.02)
        for _ in range(5):
            orch.tick()
        job = queue.get("a")
        assert job.state == "pending"  # waiting out the backoff
        assert len(job.faults) == 1
        assert not orch.worker_pids()


class TestSpawnRefusal:
    def test_refused_spawn_runs_the_job_inline(self, tmp_path,
                                               refusing_mp_context):
        queue = JobQueue(tmp_path)
        queue.submit(job_id="a", kind="uds", seed=7, max_frames=400)
        orch = Orchestrator(queue, workers=2, backoff=EAGER,
                            mp_context=refusing_mp_context)
        # With no worker running, one refusal is enough to go inline:
        # waiting for a slot would free nothing.
        orch.tick()
        job = queue.get("a")
        assert job.state == "completed", job.faults
        assert job.fingerprint == direct_fingerprint(
            job_id="a", seed=7, max_frames=400)
        assert orch.inline_completions == 1
        assert orch.status()["workers"]["slots"] == 1
        assert any("degraded" in note and "inline" in note
                   for note in orch.notes)


class TestLifecycle:
    def test_graceful_stop_requeues_without_a_strike(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(job_id="a", kind="slow-uds", seed=7,
                     max_frames=5000, stop_on_finding=False,
                     params={"delay": 0.01})
        orch = Orchestrator(queue, workers=1, terminate_grace=5.0,
                            backoff=EAGER)

        async def drive():
            stop = asyncio.Event()
            task = asyncio.create_task(orch.run(stop))
            deadline = time.monotonic() + 30.0
            while not orch.worker_pids():
                assert time.monotonic() < deadline
                await asyncio.sleep(0.02)
            stop.set()
            await task

        asyncio.run(drive())
        job = queue.get("a")
        assert job.state == "pending"
        assert job.faults == []
        assert any("not faulted" in note for note in job.notes)
        assert not orch.worker_pids()

    def test_restart_releases_orphaned_leases(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(job_id="a", kind="uds", seed=7, max_frames=200)
        queue.mark_leased("a", "w-dead")

        reopened = JobQueue(tmp_path)
        orch = Orchestrator(reopened, backoff=EAGER)
        assert reopened.get("a").state == "pending"
        assert any("orphaned lease" in note for note in orch.notes)
        orch.run_until_idle(timeout=60.0)
        assert reopened.get("a").state == "completed"

    def test_batch_mode_run_exits_when_idle(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(job_id="a", kind="uds", seed=7, max_frames=200)
        orch = Orchestrator(queue, backoff=EAGER)
        asyncio.run(asyncio.wait_for(orch.run(), timeout=60.0))
        assert queue.get("a").state == "completed"

    def test_constructor_validation(self, tmp_path):
        queue = JobQueue(tmp_path)
        with pytest.raises(ValueError):
            Orchestrator(queue, workers=0)
        with pytest.raises(ValueError):
            Orchestrator(queue, checkpoint_every=0)
        with pytest.raises(ValueError):
            Orchestrator(queue, quarantine_after=0)
        with pytest.raises(ValueError):
            Orchestrator(queue, terminate_grace=-1.0)
