"""Resource guards end-to-end: abusive jobs strike out, never hang.

A job that floods its journal past the per-job disk quota, or burns
CPU past its rlimit, must surface as journalled fault strikes and a
deterministic quarantine -- the orchestrator stays live and the queue
drains.
"""

import sys

import pytest

from repro.chaos.workload import register_chaos_kinds
from repro.fuzz.durability import RetryPolicy
from repro.fuzz.parallel import ResourceGuards
from repro.service.orchestrator import Orchestrator
from repro.service.queue import JobQueue


def _no_sleep(_seconds: float) -> None:
    pass


EAGER = RetryPolicy(attempts=1, backoff=0.0, sleep=_no_sleep)


@pytest.fixture(autouse=True)
def kinds():
    register_chaos_kinds()


class TestDiskQuota:
    def test_disk_hog_is_quarantined_as_fault_strikes(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(job_id="hog", kind="hog", seed=1, max_frames=40,
                     params={"mode": "disk"})
        orch = Orchestrator(queue, workers=1, checkpoint_every=5,
                            quarantine_after=2, backoff=EAGER,
                            poll_interval=0.01, terminate_grace=1.0,
                            job_quota_bytes=32 << 10)
        orch.run_until_idle(timeout=60.0)
        job = queue.get("hog")
        assert job.state == "quarantined"
        assert len(job.faults) == 2
        assert any("DiskQuotaExceeded" in note for note in job.faults)

    def test_healthy_job_fits_inside_the_quota(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.submit(job_id="ok", kind="uds", seed=1, max_frames=40)
        orch = Orchestrator(queue, workers=1, checkpoint_every=10,
                            backoff=EAGER, poll_interval=0.01,
                            job_quota_bytes=16 << 20)
        orch.run_until_idle(timeout=60.0)
        assert queue.get("ok").state == "completed"


@pytest.mark.skipif(sys.platform == "win32",
                    reason="rlimits are POSIX-only")
class TestCpuGuard:
    def test_cpu_hog_dies_by_sigxcpu_and_strikes_out(self, tmp_path):
        # The healthy job runs first, so the hog's first attempt runs
        # on the worker it left idle; the retry forks a new one.
        queue = JobQueue(tmp_path)
        queue.submit(job_id="ok", kind="uds", seed=1, max_frames=40)
        queue.submit(job_id="spin", kind="hog", seed=1, max_frames=40,
                     params={"mode": "cpu"})
        orch = Orchestrator(
            queue, workers=1, checkpoint_every=5,
            quarantine_after=2, backoff=EAGER, poll_interval=0.01,
            terminate_grace=1.0, lease_duration=30.0,
            resource_guards=ResourceGuards(cpu_seconds=1))
        orch.run_until_idle(timeout=90.0)
        assert queue.get("ok").state == "completed"
        job = queue.get("spin")
        assert job.state == "quarantined"
        # SIGXCPU kills the worker outright, reused or fresh: a crash
        # strike, not a wedge waiting out the lease.
        assert len(job.faults) == 2
        assert all("crashed" in note for note in job.faults)
        assert orch.status()["workers"]["spawned"] == 2

    def test_guards_leave_a_healthy_job_alone(self, tmp_path):
        queue = JobQueue(tmp_path)
        for job_id in ("ok", "again"):
            queue.submit(job_id=job_id, kind="uds", seed=1, max_frames=40)
        orch = Orchestrator(
            queue, workers=1, checkpoint_every=10, backoff=EAGER,
            poll_interval=0.01,
            resource_guards=ResourceGuards(cpu_seconds=60))
        orch.run_until_idle(timeout=60.0)
        assert queue.get("ok").state == "completed"
        assert queue.get("again").state == "completed"
        assert orch.status()["workers"]["spawned"] == 1
