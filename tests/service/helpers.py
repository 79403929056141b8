"""Shared chaos fixtures for the service tests.

The throttled/booby-trapped job kinds were promoted into
:mod:`repro.chaos.workload` when the chaos engine needed them from
the CLI; this module keeps the historical import surface
(``service.helpers``) for the test-suite and the subprocess chaos
runner (tests dir on ``PYTHONPATH``, mirroring
``fuzz.test_kill_resume``).  :func:`hostile_strikes` holds the raw
malformed requests the hostile-client tests throw at the API.
"""

from __future__ import annotations

from repro.chaos.workload import (ExplodingFactory, ThrottledUdsFactory,
                                  build_always_crash, build_slow_uds,
                                  register_chaos_kinds)

__all__ = [
    "ExplodingFactory",
    "ThrottledUdsFactory",
    "build_always_crash",
    "build_slow_uds",
    "hostile_strikes",
    "register_test_kinds",
]

#: Historical name: the service tests call this; it now installs the
#: full chaos kind set (slow-uds, always-crash, hog).
register_test_kinds = register_chaos_kinds


#: Raw request bytes hostile-client tests throw at the API, mapped to
#: ``(raw, status, sheds)``: the deterministic status code the server
#: must answer with, and whether the strike is dropped by the parser's
#: shed counters (as opposed to reaching routing and failing
#: validation there).
def hostile_strikes(max_body_bytes: int = 1 << 20
                    ) -> dict[str, tuple[bytes, int, bool]]:
    return {
        "bad-request-line": (b"\x00\xff-garbage\r\n\r\n", 400, True),
        "missing-length-body": (
            b"POST /jobs HTTP/1.1\r\n\r\n", 400, False),
        "garbage-length": (
            b"POST /jobs HTTP/1.1\r\nContent-Length: banana\r\n\r\n{}",
            400, True),
        "negative-length": (
            b"POST /jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            400, True),
        "short-body": (
            b"POST /jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\n{}",
            400, True),
        "oversized": (
            ("POST /jobs HTTP/1.1\r\nContent-Length: "
             f"{max_body_bytes + 1}\r\n\r\n").encode("ascii"),
            413, True),
        "pipelined-junk": (
            b"GET /status HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
            b"\x01\x02\x03 trailing junk that must be ignored",
            200, False),
    }
