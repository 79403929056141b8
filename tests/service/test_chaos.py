"""Chaos gate: SIGKILL workers mid-lease AND the orchestrator mid-run.

The acceptance criterion for the service: every submitted job must
still complete, and its findings must be bit-identical to an
uninterrupted run -- at-least-once execution, exactly-once results.
The throttled job kinds (see :mod:`helpers`) slow campaigns down in
wall-clock only, so the kill windows are wide while the simulated
results stay byte-for-byte those of the plain bench factory.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.fuzz.durability import RetryPolicy
from repro.service.orchestrator import Orchestrator, shard_spec_for
from repro.service.queue import JobQueue, JobSpec, result_fingerprint
from repro.testbench.factory import UdsBenchFactory
from tests.journals import record_types

from .helpers import register_test_kinds

register_test_kinds()

TESTS_DIR = Path(__file__).resolve().parent.parent
SRC_DIR = TESTS_DIR.parent / "src"


def _no_sleep(_seconds: float) -> None:
    pass


EAGER = RetryPolicy(attempts=1, backoff=0.0, sleep=_no_sleep)


def baseline(seed: int, max_frames: int = 400) -> dict:
    """The uninterrupted reference-kernel run every chaos outcome must
    match."""
    spec = JobSpec(job_id="baseline", seed=seed, max_frames=max_frames)
    return UdsBenchFactory()(shard_spec_for(spec))._execute(None).to_dict()


class TestWorkerSigkill:
    def test_sigkilled_worker_hands_off_bit_identically(self, tmp_path):
        queue = JobQueue(tmp_path / "data")
        queue.submit(job_id="a", kind="slow-uds", seed=7,
                     max_frames=400, params={"delay": 0.01})
        orch = Orchestrator(queue, workers=1, checkpoint_every=25,
                            lease_duration=30.0, backoff=EAGER)

        # Let the worker make durable progress past a checkpoint, then
        # SIGKILL it -- no SIGTERM courtesy, no atexit, nothing.
        deadline = time.monotonic() + 30.0
        while queue.get("a").progress.get("frames_sent", 0) < 25:
            orch.tick()
            assert time.monotonic() < deadline, "no checkpoint in time"
            time.sleep(0.02)
        pid = orch.worker_pids()["a"]
        os.kill(pid, signal.SIGKILL)

        orch.run_until_idle(timeout=60.0)
        job = queue.get("a")
        expected = baseline(seed=7)
        assert job.state == "completed"
        assert job.attempts == 2
        assert len(job.faults) == 1 and "crashed" in job.faults[0]
        assert job.fingerprint == result_fingerprint(expected)
        assert queue.load_result("a") == expected
        # Findings streamed across both executions collapse to exactly
        # the uninterrupted run's findings.
        assert queue.job_findings("a") == expected["findings"]


class TestLeaseExpiry:
    def test_wedged_worker_loses_the_lease_and_a_peer_finishes(
            self, tmp_path):
        queue = JobQueue(tmp_path / "data")
        marker = str(tmp_path / "hang.marker")
        queue.submit(job_id="a", kind="slow-uds", seed=7,
                     max_frames=400,
                     params={"delay": 0.002, "marker": marker,
                             "hang_at": 60})
        orch = Orchestrator(queue, workers=1, checkpoint_every=25,
                            lease_duration=1.0, terminate_grace=1.0,
                            backoff=EAGER)
        orch.run_until_idle(timeout=60.0)

        job = queue.get("a")
        expected = baseline(seed=7)
        assert job.state == "completed"
        assert job.attempts == 2
        assert len(job.faults) == 1
        assert "lease expired" in job.faults[0]
        assert job.fingerprint == result_fingerprint(expected)
        assert queue.load_result("a") == expected
        assert orch.leases.stats()["expired"] == 1
        assert os.path.exists(marker), "the hang actually fired"


_RUNNER = """\
import sys
sys.path[:0] = [{src!r}, {tests!r}]
from service.helpers import register_test_kinds
register_test_kinds()
from repro.service.orchestrator import Orchestrator
from repro.service.queue import JobQueue
queue = JobQueue({root!r})
for job_id, seed in (("c0", 7), ("c1", 11)):
    if queue.get(job_id) is None:
        queue.submit(job_id=job_id, kind="slow-uds", seed=seed,
                     max_frames=400, params={{"delay": 0.01}})
orch = Orchestrator(queue, workers=2, checkpoint_every=25)
print("ready", flush=True)
orch.run_until_idle(timeout=120.0)
"""


class TestOrchestratorSigkill:
    def test_sigkilled_orchestrator_recovers_every_job(self, tmp_path):
        root = tmp_path / "data"
        script = _RUNNER.format(src=str(SRC_DIR), tests=str(TESTS_DIR),
                                root=str(root))
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            start_new_session=True)
        try:
            # Wait for durable progress: a checkpoint under any job dir
            # proves a worker is mid-run with state worth resuming.
            deadline = time.monotonic() + 60.0
            while not any("checkpoint" in record_types(job)
                          for job in root.glob("jobs/*")):
                assert proc.poll() is None, proc.stdout.read().decode()
                assert time.monotonic() < deadline, \
                    "no checkpoint before the kill"
                time.sleep(0.05)
            # SIGKILL the whole tree: orchestrator and workers at once.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30.0)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.stdout.close()

        # A fresh orchestrator on the same data dir: the queue replays
        # its journal, orphaned leases are released, and every job runs
        # out to the uninterrupted result.
        queue = JobQueue(root)
        assert [job.spec.job_id for job in queue.in_order()] \
            == ["c0", "c1"]
        orch = Orchestrator(queue, workers=2, checkpoint_every=25,
                            backoff=EAGER)
        assert any("orphaned lease" in note for note in orch.notes)
        orch.run_until_idle(timeout=120.0)

        for job_id, seed in (("c0", 7), ("c1", 11)):
            job = queue.get(job_id)
            expected = baseline(seed=seed)
            assert job.state == "completed", job.faults
            assert job.fingerprint == result_fingerprint(expected)
            assert queue.load_result(job_id) == expected
            assert queue.job_findings(job_id) == expected["findings"]
            # The kill was not the job's fault: restart recovery is a
            # note, never a quarantine strike.
            assert job.faults == []
        assert queue.counters()["states"]["quarantined"] == 0
