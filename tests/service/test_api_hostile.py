"""Hostile HTTP clients against the API: deterministic shed codes.

Every malformed, slow, or oversized request shape gets an explicit
status code (400/408/413), shows up in the shed counters, and leaves
the server fully serviceable -- no unhandled exception ever reaches
the accept loop.
"""

import asyncio
import json

import pytest

from repro.service.api import ServiceApi
from repro.service.orchestrator import Orchestrator
from repro.service.queue import JobQueue

from .helpers import hostile_strikes


def serve(tmp_path, **kwargs):
    queue = JobQueue(tmp_path)
    return ServiceApi(queue, Orchestrator(queue), **kwargs)


async def raw_exchange(host, port, payload: bytes, *,
                       timeout=5.0) -> tuple[int | None, dict]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(payload)
        await writer.drain()
        # Half-close: the client sent everything it ever will.  A
        # body shorter than declared is then an EOF (400), not a
        # stall (408 -- exercised separately).
        writer.write_eof()
        data = await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
    if not data:
        return None, {}
    head, _, body = data.partition(b"\r\n\r\n")
    try:
        parsed = json.loads(body) if body else {}
    except ValueError:
        parsed = {}
    return int(head.split(b" ")[1]), parsed


class TestHostileStrikes:
    @pytest.mark.parametrize("name", sorted(hostile_strikes()))
    def test_each_strike_gets_its_documented_status(self, tmp_path,
                                                    name):
        cap = 4096
        raw, expected, sheds = hostile_strikes(cap)[name]
        api = serve(tmp_path, header_timeout=0.3, body_timeout=0.3,
                    max_body_bytes=cap)

        async def drive():
            host, port = await api.start()
            status, _payload = await raw_exchange(host, port, raw)
            # The server is still serviceable after the strike.
            after, payload = await raw_exchange(
                host, port, b"GET /status HTTP/1.1\r\n\r\n")
            await api.close()
            return status, after, payload

        status, after, payload = asyncio.run(drive())
        assert status == expected
        assert after == 200
        shed = payload["api"]["shed"]
        assert sum(shed.values()) == (1 if sheds else 0)

    def test_oversized_body_is_refused_before_reading(self, tmp_path):
        api = serve(tmp_path, max_body_bytes=100)

        async def drive():
            host, port = await api.start()
            # Declare 10 MB but send nothing: a server that tried to
            # read it would wait; the cap must answer instantly.
            status, payload = await raw_exchange(
                host, port,
                b"POST /jobs HTTP/1.1\r\nContent-Length: 10485760"
                b"\r\n\r\n")
            await api.close()
            return status, payload

        status, payload = asyncio.run(drive())
        assert status == 413
        assert "cap" in payload["error"]
        assert api.shed["oversized"] == 1

    def test_slow_loris_header_gets_408(self, tmp_path):
        api = serve(tmp_path, header_timeout=0.2)

        async def drive():
            host, port = await api.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET /status HTT")  # never finishes the head
            await writer.drain()
            data = await asyncio.wait_for(reader.read(), timeout=5.0)
            writer.close()
            await api.close()
            return data

        data = asyncio.run(drive())
        assert data.startswith(b"HTTP/1.1 408")
        assert api.shed["slow"] == 1

    def test_slow_body_gets_408(self, tmp_path):
        api = serve(tmp_path, body_timeout=0.2)

        async def drive():
            host, port = await api.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"POST /jobs HTTP/1.1\r\nContent-Length: 50"
                         b"\r\n\r\n{")  # 1 of 50 declared bytes
            await writer.drain()
            data = await asyncio.wait_for(reader.read(), timeout=5.0)
            writer.close()
            await api.close()
            return data

        data = asyncio.run(drive())
        assert data.startswith(b"HTTP/1.1 408")
        assert api.shed["slow"] == 1

    def test_shed_counters_reach_the_status_api(self, tmp_path):
        api = serve(tmp_path, max_body_bytes=64)
        status, payload, _ = api._route("GET", "/status", {}, b"")
        assert status == 200
        assert payload["api"]["shed"] \
            == {"slow": 0, "malformed": 0, "oversized": 0}

    def test_a_barrage_never_kills_the_server(self, tmp_path):
        api = serve(tmp_path, header_timeout=0.3, body_timeout=0.3,
                    max_body_bytes=4096)
        strikes = hostile_strikes(4096)

        async def drive():
            host, port = await api.start()
            for _round in range(3):
                for name in sorted(strikes):
                    await raw_exchange(host, port, strikes[name][0],
                                       timeout=5.0)
            status, payload = await raw_exchange(
                host, port, b"GET /status HTTP/1.1\r\n\r\n")
            await api.close()
            return status, payload

        status, payload = asyncio.run(drive())
        assert status == 200
        shed = payload["api"]["shed"]
        assert shed["malformed"] >= 3 and shed["oversized"] == 3
