"""Corrupt artefact handling: recorded warnings, never a 500.

Bit-flip and truncate the result and finding records of the journal
under ``jobs/<id>/`` and assert every read path -- queue methods and
the HTTP routes over them -- degrades to a recorded warning with the
intact data prefix, instead of raising a traceback through the API.
"""

import pytest

from repro.fuzz.durability import encode_record
from repro.service.api import ServiceApi
from repro.service.orchestrator import Orchestrator
from repro.service.queue import JobQueue


@pytest.fixture
def queue(tmp_path):
    queue = JobQueue(tmp_path)
    queue.submit(job_id="j1", seed=3, max_frames=50)
    queue.job_dir("j1").mkdir(parents=True, exist_ok=True)
    return queue


def write_journal(queue, job_id, data: bytes) -> None:
    (queue.job_dir(job_id) / "journal-000000.wal").write_bytes(data)


def finding_record(index: int) -> bytes:
    return encode_record({"type": "finding",
                          "finding": {"kind": "crash", "id": index}})


def result_record(payload) -> bytes:
    return encode_record({"type": "result", "result": payload})


START = encode_record({"type": "start", "name": "j1"})


class TestLoadResult:
    def test_intact_result_loads_silently(self, queue):
        write_journal(queue, "j1", START + result_record({"seed": 3}))
        assert queue.load_result("j1") == {"seed": 3}
        assert queue.artefact_warnings == []

    def test_missing_result_is_silent(self, queue):
        # Not-finished-yet is the normal case, not corruption.
        assert queue.load_result("j1") is None
        write_journal(queue, "j1", START + finding_record(0))
        assert queue.load_result("j1") is None
        assert queue.artefact_warnings == []

    def test_bit_flipped_result_warns_and_returns_none(self, queue):
        data = bytearray(START + result_record({"seed": 3}))
        data[-4] ^= 0xFF
        write_journal(queue, "j1", bytes(data))
        assert queue.load_result("j1") is None
        assert any("corrupt record" in warning
                   for warning in queue.warnings_for_job("j1"))

    def test_truncated_result_warns_and_returns_none(self, queue):
        write_journal(queue, "j1",
                      START + result_record({"seed": 3})[:-4])
        assert queue.load_result("j1") is None
        assert len(queue.warnings_for_job("j1")) == 1

    def test_damage_before_the_result_hides_it(self, queue):
        # The log ends at its first bad record, whatever follows.
        data = bytearray(START + finding_record(0))
        data[-4] ^= 0xFF
        write_journal(queue, "j1", bytes(data) + result_record({"seed": 3}))
        assert queue.load_result("j1") is None
        assert any("journal-000000.wal" in warning
                   for warning in queue.warnings_for_job("j1"))

    def test_warnings_are_deduplicated_across_reads(self, queue):
        write_journal(queue, "j1", b"garbage")
        for _ in range(5):
            queue.load_result("j1")
        assert len(queue.warnings_for_job("j1")) == 1


class TestJobFindings:
    def test_intact_journal_reads_silently(self, queue):
        write_journal(queue, "j1",
                      finding_record(0) + finding_record(1))
        assert len(queue.job_findings("j1")) == 2
        assert queue.artefact_warnings == []

    def test_torn_tail_keeps_prefix_and_warns(self, queue):
        write_journal(queue, "j1",
                      finding_record(0) + finding_record(1)[:-7])
        findings = queue.job_findings("j1")
        assert [f["id"] for f in findings] == [0]
        assert any("journal-000000.wal" in warning
                   for warning in queue.warnings_for_job("j1"))

    def test_bit_flip_keeps_prefix_and_warns(self, queue):
        record = bytearray(finding_record(1))
        record[15] ^= 0x40
        write_journal(queue, "j1", finding_record(0) + bytes(record))
        findings = queue.job_findings("j1")
        assert [f["id"] for f in findings] == [0]
        assert len(queue.warnings_for_job("j1")) == 1


class TestApiSurface:
    """The HTTP routes over corrupt artefacts: 200 + warnings."""

    @pytest.fixture
    def api(self, queue):
        return ServiceApi(queue, Orchestrator(queue))

    def test_artefacts_route_degrades_not_500(self, queue, api):
        write_journal(queue, "j1",
                      finding_record(0) + finding_record(1)[:-3])
        status, payload, _ = api._route("GET", "/jobs/j1/artefacts",
                                        {}, b"")
        assert status == 200
        assert payload["result"] is None
        assert [f["id"] for f in payload["findings"]] == [0]
        # Both readers met the one torn record; it is reported once.
        assert len(payload["warnings"]) == 1

    def test_findings_route_degrades_not_500(self, queue, api):
        write_journal(queue, "j1", b"not a journal at all\n")
        status, payload, _ = api._route("GET", "/jobs/j1/findings",
                                        {}, b"")
        assert status == 200
        assert payload["findings"] == []
        assert payload["warnings"]

    def test_status_surfaces_artefact_warnings(self, queue, api):
        write_journal(queue, "j1", b"garbage")
        queue.load_result("j1")
        status, payload, _ = api._route("GET", "/status", {}, b"")
        assert status == 200
        assert any("job j1" in warning
                   for warning in payload["artefact_warnings"])
