"""Parity of ``UdsClient.request``'s wait with the 1 ms slice loop.

The client runs straight over poll slices in which nothing is queued.
:func:`slice_request` below is the loop it replaced: one ``run_for``
per 1 ms slice, with a reply check after each.  Twin benches driven by
the same seeded request stream must agree after every request on the
response, the clock, the events fired, the client's counters and the
kernel digest -- across single-frame and segmented requests (paced
at STmin values from 300 us to 3 ms), negative responses, ECUReset,
the NRC-path hang, a crashed target, a request sent while the previous
transfer is stuck, and timeouts under 1 ms.
"""

import random

import pytest

from repro.sim.clock import MS, US
from repro.testbench.diag import DiagTestbench
from repro.uds.client import UdsResponse
from repro.uds.server import (BOOTLOADER_SCRATCH_DID, HANG_SESSION_SUB,
                              SECURITY_XOR_SECRET)

#: Stands in for the sendKey byte; each twin derives it from its own
#: client's last seed.
KEY = object()

SCRATCH = BOOTLOADER_SCRATCH_DID.to_bytes(2, "big")

#: ``(payload, timeout)`` vocabulary of the random stretch.
VOCABULARY = [
    (bytes((0x3E, 0x00)), None),                  # single frame, positive
    (bytes((0x10, 0x03)), None),                  # extended session
    (bytes((0x10, 0x01)), None),                  # default session
    (bytes((0x22, 0xF1, 0x90)), None),            # segmented response
    (bytes((0x22, 0x00, 0x00)), None),            # negative: out of range
    (bytes((0x99, 0x01)), None),                  # negative: unknown SID
    (bytes((0x10, 0x07)), None),                  # negative: sub-function
    (bytes((0x2E, 0xF1, 0x90)) + bytes(30), None),  # segmented request
    (bytes((0x27, 0x01)), None),                  # seed request
    (bytes((0x27, 0x02, 0x00)), None),            # wrong key
    (bytes((0x11, 0x01)), None),                  # ECUReset
    (bytes((0x10, HANG_SESSION_SUB)), None),      # NRC-path hang
    (bytes((0x2E, 0xF1, 0xA0)) + bytes(100), 2 * MS),  # left stuck
    (bytes((0x3E, 0x00)), 300 * US),              # timeout under 1 ms
    (bytes((0x10, 0x03)), 0),                     # zero timeout
]

#: Stands in for a request: both twins just run for the given ticks.
SETTLE = object()

#: Ride out any hang, reset, then unlock, enter programming and
#: overflow the scratch buffer.
CRASH = [
    (SETTLE, 1200 * MS),
    (bytes((0x11, 0x01)), None),
    (SETTLE, 100 * MS),
    (bytes((0x10, 0x03)), None),
    (bytes((0x27, 0x01)), None),
    (bytes((0x27, 0x02)), KEY),
    (bytes((0x10, 0x02)), None),
    (bytes((0x2E,)) + SCRATCH + bytes(20), None),
]


def slice_request(client, payload, timeout=None):
    """``UdsClient.request`` polling slice by slice (the reference)."""
    payload = bytes(payload)
    timeout = client.timeout if timeout is None else timeout
    if not client.endpoint.tx_idle:
        client.endpoint.abort_tx()
        client.aborted_requests += 1
    sid = payload[0]
    if client._responses:
        client.stale_responses += len(client._responses)
        client._responses.clear()
    client.endpoint.send(payload)
    sim = client.sim
    deadline = sim.now + timeout
    while True:
        matched = client._take_matching(sid)
        if matched is not None:
            return UdsResponse(matched)
        if sim.now >= deadline:
            break
        before = sim.now
        sim.run_for(min(1 * MS, deadline - sim.now))
        if sim.now == before:
            break
    return UdsResponse(client._take_matching(sid))


def request_stream(seed, length=60):
    """A seeded stream: a random stretch, the crash, then a dead target."""
    rng = random.Random(seed)
    stream = [rng.choice(VOCABULARY) for _ in range(length)]
    return stream + CRASH + [rng.choice(VOCABULARY) for _ in range(8)]


def observe(bench, response):
    client, sim = bench.client, bench.sim
    return (response.message, sim.now, sim.events_fired,
            client.stale_responses, client.aborted_requests,
            sim.state_digest())


def payload_for(bench, payload, marker):
    if marker is KEY:
        seed = bench.client.last_seed or 0
        return payload + bytes((seed ^ SECURITY_XOR_SECRET,)), None
    return payload, marker


def twin(seed, server_st_min, tester_st_min):
    """A powered bench; STmin values above 1 ms leave empty poll slices
    between consecutive frames of one transfer."""
    bench = DiagTestbench(seed=seed)
    bench.server.endpoint.st_min = server_st_min
    bench.client.endpoint.st_min = tester_st_min
    bench.power_on()
    return bench


@pytest.mark.parametrize("seed,server_st_min,tester_st_min", [
    (0, 1 * MS, 1 * MS),
    (1, 3 * MS, 2 * MS),
    (2, 2 * MS, 300 * US),
])
def test_wait_matches_the_slice_loop(seed, server_st_min, tester_st_min):
    fast = twin(seed, server_st_min, tester_st_min)
    slow = twin(seed, server_st_min, tester_st_min)
    outcomes = []
    for number, (payload, marker) in enumerate(request_stream(seed)):
        if payload is SETTLE:
            fast.sim.run_for(marker)
            slow.sim.run_for(marker)
            continue
        request, timeout = payload_for(fast, payload, marker)
        assert payload_for(slow, payload, marker) == (request, timeout)
        got = observe(fast, fast.client.request(request, timeout=timeout))
        want = observe(slow, slice_request(slow.client, request, timeout))
        assert got == want, f"request {number}: {request.hex()}"
        outcomes.append((got[0], fast.hung()))
    # The stream reached every path the wait has to mirror.
    assert fast.crashed() and outcomes[-1][0] is None
    assert fast.client.aborted_requests > 0
    assert fast.client.stale_responses > 0
    assert any(message is None and hung for message, hung in outcomes)
    assert any(message and message[0] == 0x7F for message, _ in outcomes)
    assert any(message and len(message) > 7 for message, _ in outcomes)
