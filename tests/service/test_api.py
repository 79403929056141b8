"""HTTP front door: routing, quotas, rate limiting, one real socket."""

import asyncio
import json

import pytest

from repro.service.api import ServiceApi, TokenBucket
from repro.service.orchestrator import Orchestrator
from repro.service.queue import JobQueue


class FakeClock:
    def __init__(self) -> None:
        self.now = 500.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def api(tmp_path, clock):
    queue = JobQueue(tmp_path)
    orch = Orchestrator(queue, clock=clock)
    return ServiceApi(queue, orch, rate=1.0, burst=100.0,
                      max_active_per_tenant=2, clock=clock)


def post(api, path, payload, headers=None):
    return api._route("POST", path, headers or {},
                      json.dumps(payload).encode())


def get(api, path, headers=None):
    return api._route("GET", path, headers or {}, b"")


class TestTokenBucket:
    def test_burst_then_refill(self, clock):
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        assert [bucket.take() for _ in range(3)] == [None, None, None]
        retry_after = bucket.take()
        assert retry_after == pytest.approx(0.5)
        assert bucket.shed == 1
        clock.advance(0.5)  # exactly one token back
        assert bucket.take() is None
        assert bucket.take() is not None

    def test_refill_caps_at_burst(self, clock):
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        clock.advance(1000.0)
        assert [bucket.take() for _ in range(2)] == [None, None]
        assert bucket.take() is not None

    def test_invalid_parameters_rejected(self, clock):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, clock=clock)
        with pytest.raises(ValueError):
            TokenBucket(burst=0.5, clock=clock)


class TestSubmit:
    def test_submit_creates_a_job(self, api):
        status, payload, _ = post(api, "/jobs", {
            "job_id": "a", "seed": 7, "max_frames": 100})
        assert status == 201
        assert payload["job_id"] == "a"
        assert payload["state"] == "pending"
        assert api.queue.get("a") is not None

    def test_tenant_from_header_or_body(self, api):
        post(api, "/jobs", {"job_id": "a", "max_frames": 10},
             headers={"x-tenant": "t1"})
        post(api, "/jobs", {"job_id": "b", "max_frames": 10,
                            "tenant": "t2"})
        assert api.queue.get("a").spec.tenant == "t1"
        assert api.queue.get("b").spec.tenant == "t2"

    def test_unknown_kind_is_400(self, api):
        status, payload, _ = post(api, "/jobs", {
            "kind": "nope", "max_frames": 10})
        assert status == 400
        assert "unknown kind" in payload["error"]

    def test_unbounded_job_is_400(self, api):
        status, payload, _ = post(api, "/jobs", {"seed": 1})
        assert status == 400
        assert "never finishes" in payload["error"]

    def test_quota_sheds_with_429_and_retry_after(self, api):
        for job_id in ("a", "b"):
            assert post(api, "/jobs", {"job_id": job_id,
                                       "max_frames": 10})[0] == 201
        status, payload, extra = post(api, "/jobs", {
            "job_id": "c", "max_frames": 10})
        assert status == 429
        assert "quota" in payload["error"]
        assert extra["Retry-After"]
        assert api.queue.get("c") is None
        # Another tenant's quota is untouched.
        assert post(api, "/jobs", {"job_id": "d", "max_frames": 10,
                                   "tenant": "other"})[0] == 201


class TestRateLimit:
    def test_drained_bucket_sheds_with_429(self, tmp_path, clock):
        queue = JobQueue(tmp_path)
        api = ServiceApi(queue, Orchestrator(queue, clock=clock),
                         rate=1.0, burst=2.0, clock=clock)
        codes = [get(api, "/status")[0] for _ in range(4)]
        assert codes == [200, 200, 429, 429]
        status, payload, extra = get(api, "/status")
        assert status == 429
        assert payload["retry_after"] > 0
        assert int(extra["Retry-After"]) >= 1
        clock.advance(2.0)
        assert get(api, "/status")[0] == 200

    def test_buckets_are_per_tenant(self, tmp_path, clock):
        queue = JobQueue(tmp_path)
        api = ServiceApi(queue, Orchestrator(queue, clock=clock),
                         rate=1.0, burst=1.0, clock=clock)
        assert get(api, "/status", {"x-tenant": "t1"})[0] == 200
        assert get(api, "/status", {"x-tenant": "t1"})[0] == 429
        assert get(api, "/status", {"x-tenant": "t2"})[0] == 200


class TestReads:
    def test_job_status_findings_artefacts(self, api):
        post(api, "/jobs", {"job_id": "a", "seed": 7, "max_frames": 10})
        status, payload, _ = get(api, "/jobs/a")
        assert (status, payload["state"]) == (200, "pending")
        status, payload, _ = get(api, "/jobs/a/findings")
        assert (status, payload["findings"]) == (200, [])
        status, payload, _ = get(api, "/jobs/a/artefacts")
        assert status == 200
        assert payload["result"] is None
        assert payload["status"]["job_id"] == "a"

    def test_list_filters_by_tenant(self, api):
        post(api, "/jobs", {"job_id": "a", "max_frames": 10,
                            "tenant": "t1"})
        post(api, "/jobs", {"job_id": "b", "max_frames": 10,
                            "tenant": "t2"})
        _, payload, _ = get(api, "/jobs")
        assert [job["job_id"] for job in payload["jobs"]] == ["a", "b"]
        _, payload, _ = get(api, "/jobs?tenant=t2")
        assert [job["job_id"] for job in payload["jobs"]] == ["b"]

    def test_status_reports_api_counters(self, api):
        get(api, "/status")
        _, payload, _ = get(api, "/status")
        assert payload["api"]["requests"] == 0  # counted in _serve only
        assert "anonymous" in payload["api"]["tenants"]
        assert payload["workers"]["configured"] == 2

    def test_unknown_routes_and_methods(self, api):
        assert get(api, "/jobs/nope")[0] == 404
        assert get(api, "/jobs/nope/findings")[0] == 404
        assert get(api, "/nowhere")[0] == 404
        assert api._route("DELETE", "/jobs/a", {}, b"")[0] == 405
        assert post(api, "/jobs", {"max_frames": 10})[0] == 201
        status, payload, _ = api._route(
            "POST", "/jobs", {}, b"not json")
        assert status == 400


class TestSocket:
    def test_end_to_end_over_a_real_socket(self, tmp_path):
        queue = JobQueue(tmp_path)
        orch = Orchestrator(queue)
        api = ServiceApi(queue, orch)

        async def roundtrip(host, port, request: bytes) -> tuple[int, dict]:
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(request)
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
            head, _, body = raw.partition(b"\r\n\r\n")
            return int(head.split(b" ")[1]), json.loads(body)

        async def drive():
            host, port = await api.start()
            body = json.dumps({"job_id": "a", "seed": 7,
                               "max_frames": 100}).encode()
            request = (
                f"POST /jobs HTTP/1.1\r\nHost: x\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode() + body
            code, payload = await roundtrip(host, port, request)
            assert (code, payload["state"]) == (201, "pending")
            code, payload = await roundtrip(
                host, port, b"GET /status HTTP/1.1\r\nHost: x\r\n\r\n")
            assert code == 200
            assert payload["api"]["requests"] == 2
            assert payload["queue"]["jobs"] == 1
            await api.close()

        asyncio.run(drive())

    def test_response_ends_while_a_worker_holds_the_socket(self, tmp_path):
        # A worker forked while a connection is open holds a copy of its
        # socket and, idle after its job, outlives the response: the
        # client must still read EOF at the end of the response.
        queue = JobQueue(tmp_path)
        queue.submit(job_id="a", kind="uds", seed=7, max_frames=50)
        orch = Orchestrator(queue, workers=1)
        api = ServiceApi(queue, orch)

        async def drive():
            host, port = await api.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                await asyncio.sleep(0.05)  # the server accepts it
                while queue.get("a").state != "completed":
                    orch.tick()  # forks the worker, then reads its reply
                    await asyncio.sleep(0.02)
                assert orch.status()["workers"]["idle"] == 1
                writer.write(b"GET /status HTTP/1.1\r\nHost: x\r\n\r\n")
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(), timeout=5.0)
                writer.close()
                await writer.wait_closed()
                assert raw.startswith(b"HTTP/1.1 200")
            finally:
                orch.shutdown()
                await api.close()

        asyncio.run(drive())
