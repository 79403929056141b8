"""Tester-side UDS client.

Drives request/response exchanges over ISO-TP from a dedicated tester
node (the role a diagnostic tool -- or a fuzzer -- plays on the bus).
The client owns the simulation loop during a request, which is the
natural shape for tester scripts and for the UDS fuzzer.

Two hardening rules matter for long fuzz campaigns:

- responses are correlated to the outstanding request by SID, so a
  late reply to a request that already timed out is counted as stale
  instead of being misattributed to the current request;
- a timeout that strikes mid-segmentation leaves the ISO-TP tx state
  machine busy; the next :meth:`UdsClient.request` aborts the stuck
  transmission and carries on rather than raising ``IsoTpError`` and
  killing the fuzz loop.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.can.bus import CanBus
from repro.can.node import CanController
from repro.sim.clock import MS
from repro.sim.kernel import Simulator
from repro.uds.isotp import IsoTpEndpoint
from repro.uds.server import (
    DEFAULT_RX_ID,
    DEFAULT_TX_ID,
    SECURITY_XOR_SECRET,
)
from repro.uds.services import (
    POSITIVE_RESPONSE_OFFSET,
    SECURITY_REQUEST_SEED,
    SECURITY_SEND_KEY,
    ServiceId,
)


@dataclass(frozen=True)
class UdsResponse:
    """Outcome of one request."""

    message: bytes | None

    @property
    def timed_out(self) -> bool:
        return self.message is None

    @property
    def positive(self) -> bool:
        return (self.message is not None and len(self.message) >= 1
                and self.message[0] != 0x7F)

    @property
    def nrc(self) -> int | None:
        """Negative response code, if this is a negative response."""
        if self.message is not None and len(self.message) >= 3 \
                and self.message[0] == 0x7F:
            return self.message[2]
        return None


def matches_request(sid: int, message: bytes) -> bool:
    """Does ``message`` answer a request with service id ``sid``?

    Positive responses echo ``sid + 0x40``; negative responses are
    ``7F <sid> <nrc>``.  (For SID 0x3F the positive echo collides with
    the negative marker; the negative layout wins, which matches how a
    tester must parse the wire anyway.)
    """
    if not message:
        return False
    first = message[0]
    if first == 0x7F:
        return len(message) >= 2 and message[1] == sid
    return first == (sid + POSITIVE_RESPONSE_OFFSET) & 0xFF


class UdsClient:
    """A diagnostic tester attached to a bus."""

    def __init__(self, sim: Simulator, bus: CanBus, *,
                 request_id: int = DEFAULT_RX_ID,
                 response_id: int = DEFAULT_TX_ID,
                 timeout: int = 200 * MS,
                 name: str = "tester") -> None:
        self.sim = sim
        self.timeout = timeout
        self._controller = CanController(name)
        self._controller.attach(bus)
        self.endpoint = IsoTpEndpoint(
            sim, self._send_frame, tx_id=request_id, rx_id=response_id)
        self.endpoint.on_message(self._on_response)
        self._controller.set_rx_handler(self.endpoint.handle_frame)
        self._responses: list[bytes] = []
        #: Replies that answered an earlier, already timed-out request.
        self.stale_responses = 0
        #: Stuck transmissions dropped to recover the endpoint.
        self.aborted_requests = 0
        #: Most recent SecurityAccess seed the server handed out.  Kept
        #: on the client so stateful replay (which snapshots the whole
        #: world) can re-derive keys from the seed of *this* run.
        self.last_seed: int | None = None

    def _send_frame(self, frame) -> bool:
        try:
            self._controller.send(frame)
        except Exception:
            return False
        return True

    def _on_response(self, payload: bytes) -> None:
        if (len(payload) >= 3
                and payload[0] == ServiceId.SECURITY_ACCESS
                + POSITIVE_RESPONSE_OFFSET
                and payload[1] == SECURITY_REQUEST_SEED):
            self.last_seed = payload[2]
        self._responses.append(payload)

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def request(self, payload: bytes,
                timeout: int | None = None) -> UdsResponse:
        """Send a request and run the simulation until the response.

        The client polls for the reply on a 1 ms grid from the send
        and returns at the first grid point at or after it (the
        deadline ends the last slice).  Slices in which nothing is
        queued cannot produce a reply, so the loop runs straight over
        them: to the end of the slice holding the next queued event,
        or to the deadline when nothing is queued before it.  A
        timed-out request on a dead target therefore costs one
        ``run_until`` instead of one per millisecond, and fires the
        same events at the same times as the slice-by-slice loop.

        Returns a timed-out response if the server stays silent --
        which, for a fuzzer, is the signal that the server died.

        Raises:
            ValueError: empty request (a UDS request is at least the
                SID byte).
        """
        payload = bytes(payload)
        if not payload:
            raise ValueError("a UDS request is at least one byte (the SID)")
        timeout = self.timeout if timeout is None else timeout
        if not self.endpoint.tx_idle:
            # The previous request timed out mid-segmentation.  Drop
            # the stuck transmission instead of raising; the peer's
            # reassembly either times out or is reset by our next FF.
            self.endpoint.abort_tx()
            self.aborted_requests += 1
        sid = payload[0]
        if self._responses:
            # Anything already queued predates this request.
            self.stale_responses += len(self._responses)
            self._responses.clear()
        self.endpoint.send(payload)
        sim = self.sim
        deadline = sim.now + timeout
        while True:
            matched = self._take_matching(sid)
            if matched is not None:
                return UdsResponse(matched)
            before = sim.now
            if before >= deadline:
                break
            head = sim.next_event_bound()
            if head is None or head > deadline:
                end = deadline
            else:
                end = before + MS
                if head > end:
                    # End with the slice that holds ``head``.
                    end += -(-(head - end) // MS) * MS
                if end > deadline:
                    end = deadline
            sim.run_until(end)
            if sim.now == before:
                break
        matched = self._take_matching(sid)
        if matched is not None:
            return UdsResponse(matched)
        return UdsResponse(None)

    def _take_matching(self, sid: int) -> bytes | None:
        """Pop the first reply answering ``sid``; count the rest stale."""
        while self._responses:
            message = self._responses.pop(0)
            if matches_request(sid, message):
                return message
            self.stale_responses += 1
        return None

    # ------------------------------------------------------------------
    # Convenience services
    # ------------------------------------------------------------------
    def change_session(self, session: int) -> UdsResponse:
        return self.request(bytes((0x10, session)))

    def tester_present(self) -> UdsResponse:
        return self.request(bytes((0x3E, 0x00)))

    def read_did(self, did: int) -> UdsResponse:
        return self.request(bytes((0x22, did >> 8, did & 0xFF)))

    def write_did(self, did: int, record: bytes) -> UdsResponse:
        return self.request(
            bytes((0x2E, did >> 8, did & 0xFF)) + bytes(record))

    def security_unlock(self) -> bool:
        """Perform the toy seed/key exchange; True when unlocked."""
        seed_response = self.request(bytes((0x27, SECURITY_REQUEST_SEED)))
        if not seed_response.positive or len(seed_response.message) < 3:
            return False
        seed = seed_response.message[2]
        key = seed ^ SECURITY_XOR_SECRET
        key_response = self.request(bytes((0x27, SECURITY_SEND_KEY, key)))
        return key_response.positive

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serialisable tester state (taken between requests)."""
        return {
            "stale_responses": self.stale_responses,
            "aborted_requests": self.aborted_requests,
            "last_seed": self.last_seed,
            "pending_responses": [r.hex() for r in self._responses],
            "endpoint": self.endpoint.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        """Restore tester state saved by :meth:`state_dict`."""
        self.stale_responses = int(state.get("stale_responses", 0))
        self.aborted_requests = int(state.get("aborted_requests", 0))
        last_seed = state.get("last_seed")
        self.last_seed = None if last_seed is None else int(last_seed)
        self._responses = [bytes.fromhex(r)
                           for r in state.get("pending_responses", ())]
        self.endpoint.load_state(state.get("endpoint", {}))

    def state_digest(self) -> str:
        """Stable fingerprint of the tester state."""
        blob = json.dumps(self.state_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]
