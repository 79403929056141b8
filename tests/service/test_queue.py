"""Durable job queue: lifecycle, replay parity, dedup, torn-write chaos."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.fuzz.durability import (DirectoryStore, FaultyStore,
                                   RetryPolicy)
from repro.service.queue import (JOB_STATES, JobQueue, JobSpec,
                                 TERMINAL_STATES, result_fingerprint)


def _no_sleep(_seconds: float) -> None:
    pass


FAST_RETRY = RetryPolicy(attempts=2, backoff=0.0, sleep=_no_sleep)

RESULT = {"frames_sent": 42, "findings": [{"oracle": "o", "time": 7}],
          "stop_reason": "frame limit reached"}


def _submit(queue, job_id="j0", **overrides):
    fields = dict(job_id=job_id, kind="uds", seed=3, max_frames=100)
    fields.update(overrides)
    return queue.submit(**fields)


class TestJobSpec:
    def test_unbounded_spec_rejected(self):
        with pytest.raises(ValueError, match="never finishes"):
            JobSpec(job_id="x")

    def test_round_trips_through_dict(self):
        spec = JobSpec(job_id="x", tenant="t", kind="uds", seed=9,
                       max_frames=10, max_seconds=1.5,
                       stop_on_finding=False, params={"a": 1})
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_invalid_budgets_rejected(self):
        with pytest.raises(ValueError):
            JobSpec(job_id="x", max_frames=0)
        with pytest.raises(ValueError):
            JobSpec(job_id="x", max_seconds=-1.0)


class TestLifecycle:
    def test_submit_lease_complete(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = _submit(queue)
        assert job.state == "pending"
        queue.mark_leased("j0", "w1")
        assert job.state == "leased" and job.attempts == 1
        assert queue.mark_completed("j0", RESULT) == "recorded"
        assert job.state == "completed"
        assert job.fingerprint == result_fingerprint(RESULT)
        assert job.result_summary["findings"] == 1
        assert queue.idle()

    def test_duplicate_job_id_refused(self, tmp_path):
        queue = JobQueue(tmp_path)
        _submit(queue)
        with pytest.raises(ValueError, match="already exists"):
            _submit(queue)

    def test_generated_ids_are_sequential(self, tmp_path):
        queue = JobQueue(tmp_path)
        ids = [queue.submit(kind="uds", seed=i, max_frames=10).spec.job_id
               for i in range(3)]
        assert ids == ["job-000000", "job-000001", "job-000002"]

    def test_requeue_counts_faults_not_notes(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = _submit(queue)
        queue.mark_leased("j0", "w1")
        assert queue.requeue("j0", "worker crashed") == 1
        assert job.state == "pending" and job.faults == ["worker crashed"]
        queue.mark_leased("j0", "w2")
        queue.requeue("j0", "orchestrator shutdown", fault=False)
        assert job.faults == ["worker crashed"]
        assert job.notes == ["orchestrator shutdown"]
        assert job.attempts == 2

    def test_quarantine_is_terminal(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = _submit(queue)
        queue.mark_leased("j0", "w1")
        queue.quarantine("j0", "kept crashing")
        assert job.state == "quarantined" and job.terminal
        assert queue.idle()

    def test_leasing_a_non_pending_job_refused(self, tmp_path):
        queue = JobQueue(tmp_path)
        _submit(queue)
        queue.mark_leased("j0", "w1")
        with pytest.raises(ValueError, match="not pending"):
            queue.mark_leased("j0", "w2")


class TestExactlyOnceResults:
    def test_identical_repeat_is_a_counted_duplicate(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = _submit(queue)
        queue.mark_leased("j0", "w1")
        assert queue.mark_completed("j0", RESULT) == "recorded"
        # The at-least-once repeat: an orphaned worker finishing the
        # same deterministic run reports the same bytes.
        assert queue.mark_completed("j0", dict(RESULT)) == "duplicate"
        assert job.duplicate_completions == 1
        assert queue.counters()["duplicate_completions"] == 1

    def test_divergent_repeat_is_recorded_not_merged(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = _submit(queue)
        queue.mark_leased("j0", "w1")
        queue.mark_completed("j0", RESULT)
        other = dict(RESULT, frames_sent=43)
        assert queue.mark_completed("j0", other) == "divergent"
        # First result wins; the anomaly is loud in the counters.
        assert job.fingerprint == result_fingerprint(RESULT)
        assert queue.counters()["divergent_completions"] == 1


class TestReplay:
    def test_reopen_reconstructs_exactly(self, tmp_path):
        queue = JobQueue(tmp_path)
        _submit(queue, "a", tenant="t1")
        _submit(queue, "b", tenant="t2")
        _submit(queue, "c", tenant="t1")
        queue.mark_leased("a", "w1")
        queue.mark_completed("a", RESULT)
        queue.mark_leased("b", "w2")
        queue.requeue("b", "crashed")
        queue.mark_leased("b", "w3")

        reopened = JobQueue(tmp_path)
        assert [job.spec.job_id for job in reopened.in_order()] \
            == ["a", "b", "c"]
        for job_id in ("a", "b", "c"):
            original, replayed = queue.get(job_id), reopened.get(job_id)
            assert replayed.state == original.state
            assert replayed.attempts == original.attempts
            assert replayed.faults == original.faults
            assert replayed.fingerprint == original.fingerprint
        assert reopened.counters() == queue.counters()

    def test_live_jobs_keep_submission_order(self, tmp_path):
        # pending(), idle() and active_for_tenant() read an index of
        # the live jobs; after every step each equals a scan of every
        # job, a requeued job keeps its place, and a reopened queue
        # rebuilds the same index from the log.
        queue = JobQueue(tmp_path)

        def check(q):
            live = [job for job in q.in_order() if not job.terminal]
            assert q.pending() == [job for job in live
                                   if job.state == "pending"]
            assert q.idle() == (not live)
            for tenant in ("t1", "t2"):
                assert q.active_for_tenant(tenant) == sum(
                    job.spec.tenant == tenant for job in live)
            return [job.spec.job_id for job in q.pending()]

        steps = [
            lambda: [_submit(queue, job_id, tenant=f"t{i % 2 + 1}")
                     for i, job_id in enumerate("abcde")],
            lambda: queue.mark_leased("a", "w1"),
            lambda: queue.mark_leased("b", "w2"),
            lambda: queue.requeue("a", "worker crashed"),
            lambda: queue.quarantine("c", "job cannot be built"),
            lambda: queue.mark_completed("b", RESULT),
            lambda: _submit(queue, "f", tenant="t2"),
            lambda: queue.mark_leased("d", "w3"),
            lambda: queue.requeue("d", "shutdown", fault=False),
            lambda: queue.mark_leased("e", "w4"),
        ]
        for step in steps:
            step()
            check(queue)
        assert check(queue) == ["a", "d", "f"]
        reopened = JobQueue(tmp_path)
        assert check(reopened) == ["a", "d", "f"]
        assert reopened.release_orphans("restart") == ["e"]
        assert check(reopened) == ["a", "d", "e", "f"]
        for job_id in ("a", "d", "e", "f"):
            reopened.mark_leased(job_id, "w9")
            reopened.mark_completed(job_id, RESULT)
        assert check(reopened) == [] and reopened.idle()

    def test_release_orphans_requeues_stale_leases(self, tmp_path):
        queue = JobQueue(tmp_path)
        _submit(queue, "a")
        _submit(queue, "b")
        queue.mark_leased("a", "w1")
        reopened = JobQueue(tmp_path)
        assert reopened.release_orphans("restart") == ["a"]
        job = reopened.get("a")
        assert job.state == "pending"
        assert job.faults == []  # a restart is not the job's fault
        assert job.notes == ["restart"]

    def test_tenant_accounting(self, tmp_path):
        queue = JobQueue(tmp_path)
        _submit(queue, "a", tenant="t1")
        _submit(queue, "b", tenant="t1")
        _submit(queue, "c", tenant="t2")
        queue.mark_leased("a", "w1")
        queue.mark_completed("a", RESULT)
        assert queue.active_for_tenant("t1") == 1
        assert queue.active_for_tenant("t2") == 1
        assert queue.active_for_tenant("nobody") == 0


def recount(queue):
    """``counters()`` recounted from every job the queue holds."""
    states = dict.fromkeys(JOB_STATES, 0)
    for job in queue.in_order():
        states[job.state] += 1
    return {
        "jobs": len(queue.jobs),
        "states": states,
        "duplicate_completions": sum(job.duplicate_completions
                                     for job in queue.in_order()),
        "divergent_completions": queue.divergent_completions,
        "total_retries": sum(len(job.faults) for job in queue.in_order()),
    }


def submitted(job_id):
    return {"type": "job-submitted",
            "job": JobSpec(job_id=job_id, max_frames=10).to_dict()}


#: Any event the fold may meet, in any order: the mutation methods'
#: guards do not hold for a log, so events for unknown or terminal
#: jobs, repeated submits and unknown types are drawn too.
EVENTS = st.one_of(
    st.builds(submitted, st.sampled_from("abc")),
    st.builds(lambda kind, job_id, fault: {
        "type": kind, "job_id": job_id, "worker": "w", "note": kind,
        "fault": fault, "fingerprint": "f", "frames_sent": 1,
        "findings": 0, "stop_reason": "done"},
        st.sampled_from(["job-leased", "job-requeued", "job-completed",
                         "job-duplicate", "job-divergent",
                         "job-quarantined", "job-unknown"]),
        st.sampled_from("abcd"), st.booleans()))


class TestCounters:
    @settings(max_examples=60, deadline=None)
    @given(events=st.lists(EVENTS, max_size=25))
    def test_counters_equal_a_recount_live_and_reopened(
            self, tmp_path_factory, events):
        root = tmp_path_factory.mktemp("counters")
        queue = JobQueue(root)
        # Most drawn events then find their job (one job id is never
        # submitted).
        for event in [submitted("a"), submitted("b")] + events:
            queue._record(event)
            assert queue.counters() == recount(queue)
        reopened = JobQueue(root)
        assert reopened.counters() == recount(reopened) == queue.counters()


class TestTornWriteChaos:
    """Satellite: the queue's own persistence survives torn writes.

    A torn append mid-stream costs every later record on replay (the
    WAL trusts only the intact prefix), so the reopened queue may be
    *stale* -- but it must never be *wrong*: no exception, no invented
    state, and re-driving the lost operations converges to the same
    fingerprints, with repeats absorbed as duplicates.
    """

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_replay_after_torn_writes_is_a_consistent_prefix(
            self, tmp_path, seed):
        root = tmp_path / f"seed-{seed}"

        def chaos_store(path, _seed=seed):
            return FaultyStore(DirectoryStore(path), seed=_seed,
                               torn_rate=0.3, sleep=_no_sleep)

        queue = JobQueue(root, store_factory=chaos_store,
                         retry=FAST_RETRY)
        # The API absorbs the weather: none of this may raise.
        for i in range(3):
            _submit(queue, f"j{i}", seed=i)
        queue.mark_leased("j0", "w1")
        queue.mark_completed("j0", RESULT)
        queue.mark_leased("j1", "w2")
        queue.requeue("j1", "worker crashed")
        queue.mark_leased("j1", "w3")

        reopened = JobQueue(root)  # clean store: what truly survived?
        assert len(reopened.jobs) <= len(queue.jobs)
        for job in reopened.in_order():
            original = queue.get(job.spec.job_id)
            assert original is not None
            assert job.spec == original.spec
            assert job.state in ("pending", "leased") + tuple(
                TERMINAL_STATES)
            if job.state == "completed":
                assert job.fingerprint == original.fingerprint

        # Converge: release stale leases and re-drive j0's completion;
        # dedup makes the repeat harmless whatever was lost.
        reopened.release_orphans("restart after torn-write chaos")
        if reopened.get("j0") is not None:
            if reopened.get("j0").state == "pending":
                reopened.mark_leased("j0", "w9")
            disposition = reopened.mark_completed("j0", RESULT)
            assert disposition in ("recorded", "duplicate")
            assert reopened.get("j0").fingerprint \
                == result_fingerprint(RESULT)

    def test_total_outage_degrades_but_queue_stays_live(self, tmp_path):
        def dead_store(path):
            return FaultyStore(DirectoryStore(path), seed=0,
                               fail_rate=1.0, sleep=_no_sleep)

        queue = JobQueue(tmp_path, store_factory=dead_store,
                         retry=FAST_RETRY)
        _submit(queue)
        queue.mark_leased("j0", "w1")
        assert queue.mark_completed("j0", RESULT) == "recorded"
        assert queue.get("j0").state == "completed"
        assert any("degraded" in warning for warning in queue.warnings)


class TestArtefacts:
    def test_job_findings_deduplicates_replayed_records(self, tmp_path):
        from repro.fuzz.durability import CampaignJournal

        queue = JobQueue(tmp_path)
        _submit(queue)
        journal = CampaignJournal(queue.job_dir("j0"))
        finding = {"oracle": "o", "time": 5, "description": "d"}
        # A from-zero resume appends the same findings again; the
        # read side must collapse them.
        journal.append({"type": "finding", "finding": finding})
        journal.append({"type": "finding", "finding": dict(finding)})
        other = dict(finding, time=9)
        journal.append({"type": "finding", "finding": other})
        assert queue.job_findings("j0") == [finding, other]

    def test_load_result_reads_the_job_journal(self, tmp_path):
        from repro.fuzz.durability import CampaignJournal

        queue = JobQueue(tmp_path)
        _submit(queue)
        assert queue.load_result("j0") is None
        CampaignJournal(queue.job_dir("j0")).save_result(RESULT)
        assert queue.load_result("j0") == json.loads(json.dumps(RESULT))

    def test_missing_job_dir_yields_empty_findings(self, tmp_path):
        queue = JobQueue(tmp_path)
        _submit(queue)
        assert queue.job_findings("j0") == []
