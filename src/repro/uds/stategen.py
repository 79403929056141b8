"""Coverage-guided stateful UDS request generator.

The paper's point is that "it is important for system testers to cover
all the states of an ECU": the seeded bootloader-scratch overflow only
exists behind extended session -> security access -> programming
session, a path frame-level fuzzing essentially never walks.  This
generator keeps a *belief* model of the server's session/security
state machine, mirrors it from the responses it sees, and mixes four
strategies:

- **state moves** walk the belief machine toward the armed state
  (unlocked programming session) and, once there, attack writable
  data identifiers with boundary-length records;
- **protocol moves** probe the diagnostic surface: a deterministic
  sweep of the ISO 14229 identification DID block (0xF180-0xF1FF),
  random reads/writes, and a deterministic sweep of all 256
  DiagnosticSessionControl sub-functions (so every NRC rejection
  path is probed -- the probe that finds a sub whose negative
  response path hangs the server).  Write probes while locked are
  the discriminating oracle: a protected DID answers
  securityAccessDenied (0x33) where an unmapped one answers
  requestOutOfRange (0x31);
- **corpus mutations** replay byte-mutated copies of requests that
  produced new :class:`~repro.fuzz.coverage.ProtocolStateCoverage`
  tuples;
- **garbage** keeps raw negative-path coverage alive.

Security keys are *learned*, not wired in: the generator tries
candidate seed-to-key algorithms until a positive ``67 02`` confirms
one, recovering from attempt-limit lockouts with an ECU reset.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Callable

from repro.fuzz.coverage import ProtocolStateCoverage
from repro.sim.random import rng_state_from_json, rng_state_to_json
from repro.uds.services import (
    NegativeResponse,
    SECURITY_REQUEST_SEED,
    SECURITY_SEND_KEY,
    SESSION_DEFAULT,
    SESSION_EXTENDED,
    SESSION_PROGRAMMING,
    ServiceId,
)

#: Coverage-tuple outcome sentinels (the ``nrc`` slot).
NRC_TIMEOUT = -1
NRC_MALFORMED = -2
NRC_POSITIVE = 0

#: Coverage-tuple sub-function sentinel for services without one.
NO_SUB = -1

#: Services whose second request byte is a sub-function.
SUB_FUNCTION_SIDS = frozenset((0x10, 0x11, 0x27, 0x28, 0x31, 0x3E, 0x85))

def crc8_key(seed: int) -> int:
    """CRC-8/SAE-J1850 of the seed byte (poly 0x1D, init/xorout 0xFF).

    The polynomial automotive ECUs actually ship for message CRCs, so
    it is a natural candidate for a vendor's seed-to-key routine.
    """
    crc = 0xFF ^ (seed & 0xFF)
    for _ in range(8):
        if crc & 0x80:
            crc = ((crc << 1) ^ 0x1D) & 0xFF
        else:
            crc = (crc << 1) & 0xFF
    return crc ^ 0xFF


def lfsr8_key(seed: int) -> int:
    """Eight steps of an 8-bit Galois LFSR (taps ``0xB8``) over the seed.

    A zero seed is mapped to ``0xFF`` first: an all-zero LFSR state
    never leaves zero, which would make the key trivially guessable.
    """
    state = (seed & 0xFF) or 0xFF
    for _ in range(8):
        lsb = state & 1
        state >>= 1
        if lsb:
            state ^= 0xB8
    return state


#: Candidate seed-to-key algorithms, tried until one is confirmed.
#: Append-only: indices are persisted in checkpoints and finding
#: metadata, so existing entries must keep their positions.
KEY_ALGORITHMS: tuple[tuple[str, Callable[[int], int]], ...] = (
    ("xor-a5", lambda seed: seed ^ 0xA5),
    ("identity", lambda seed: seed),
    ("complement", lambda seed: seed ^ 0xFF),
    ("plus-one", lambda seed: (seed + 1) & 0xFF),
    ("swap-nibbles", lambda seed: ((seed << 4) | (seed >> 4)) & 0xFF),
    ("crc8-j1850", crc8_key),
    ("lfsr8-b8", lfsr8_key),
)

#: Record lengths for attack writes: boundary values around typical
#: buffer sizes, including multi-frame lengths.
ATTACK_LENGTHS = (1, 4, 8, 15, 16, 17, 24, 33, 64, 129, 256)

#: The ISO 14229 identification DID block the sweep walks.
SWEEP_FIRST_DID = 0xF180
SWEEP_LAST_DID = 0xF1FF

#: Raw-garbage ingredients: SIDs around the implemented surface and
#: payload lengths at the boundaries of typical buffers.
GARBAGE_SIDS = (0x10, 0x11, 0x22, 0x27, 0x2E, 0x31, 0x3E, 0x19, 0x28, 0x85)
GARBAGE_LENGTHS = (0, 1, 2, 3, 7, 8, 15, 16, 17, 32, 63, 64, 128)

# Fixed requests the state walk re-emits constantly, built once
# (bytes are immutable, so sharing one object is safe).
_REQ_HARD_RESET = bytes((ServiceId.ECU_RESET, 0x01))
_REQ_SESSION_EXTENDED = bytes((ServiceId.DIAGNOSTIC_SESSION_CONTROL,
                               SESSION_EXTENDED))
_REQ_SESSION_PROGRAMMING = bytes((ServiceId.DIAGNOSTIC_SESSION_CONTROL,
                                  SESSION_PROGRAMMING))
_REQ_REQUEST_SEED = bytes((ServiceId.SECURITY_ACCESS,
                           SECURITY_REQUEST_SEED))
_REQ_TESTER_PRESENT = bytes((ServiceId.TESTER_PRESENT, 0x00))


class UdsStateGenerator:
    """Generates UDS requests guided by protocol-state coverage.

    Args:
        rng: dedicated random stream (checkpointed with the generator).
        coverage: shared coverage map; a fresh one is created when not
            supplied.
        corpus_limit: maximum requests kept for mutation.
        max_record: largest write record the attack strategy emits.
    """

    def __init__(self, rng: random.Random,
                 coverage: ProtocolStateCoverage | None = None, *,
                 corpus_limit: int = 64, max_record: int = 300,
                 seed_label: str = "uds-state") -> None:
        self._rng = rng
        self.coverage = coverage if coverage is not None \
            else ProtocolStateCoverage()
        self.corpus_limit = corpus_limit
        self.max_record = max_record
        self.seed_label = seed_label
        self.requests_generated = 0
        # Belief state: the tester's mirror of the server's machine.
        self._session = SESSION_DEFAULT
        self._unlocked = False
        self._seed: int | None = None
        self._locked_out = False
        self._last_key_algorithm: int | None = None
        #: Confirmed seed-to-key algorithm index, once learned.
        self.key_algorithm: int | None = None
        self._interesting_dids: set[int] = set()
        # Lazily re-sorted mirror of the set: attack moves draw from
        # the sorted order every time, while additions are rare.
        self._interesting_sorted: list[int] | None = []
        self._sweep_did = SWEEP_FIRST_DID
        self._session_sweep_sub = 0
        self._corpus: list[bytes] = []

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def next_request(self) -> bytes:
        """Produce the next request according to the strategy mix."""
        self.requests_generated += 1
        roll = self._rng.random()
        if roll < 0.45:
            return self._state_move()
        if roll < 0.70:
            return self._protocol_move()
        if roll < 0.85 and self._corpus:
            return self._mutate_move()
        return self._garbage_move()

    def _state_move(self) -> bytes:
        """One step toward -- or an attack from -- the armed state."""
        if self._locked_out:
            # Only a hard reset clears the attempt counter.
            return _REQ_HARD_RESET
        if self._session == SESSION_DEFAULT:
            return _REQ_SESSION_EXTENDED
        if not self._unlocked:
            if self._seed is None:
                return _REQ_REQUEST_SEED
            index = self.key_algorithm
            if index is None:
                index = self._rng.randrange(len(KEY_ALGORITHMS))
            self._last_key_algorithm = index
            key = KEY_ALGORITHMS[index][1](self._seed)
            return bytes((ServiceId.SECURITY_ACCESS, SECURITY_SEND_KEY,
                          key))
        if self._session != SESSION_PROGRAMMING:
            return _REQ_SESSION_PROGRAMMING
        if self._rng.random() < 0.2:
            # Armed-state read probe: some defects fire on *reading*
            # protected data mid-reprogram, which attack writes alone
            # would never exercise.
            return self._armed_read()
        return self._attack_write()

    def _armed_read(self) -> bytes:
        """Read a DID worth attacking from the armed state."""
        rng = self._rng
        if self._interesting_dids and rng.random() < 0.7:
            dids = self._interesting_sorted
            if dids is None:
                dids = self._interesting_sorted = \
                    sorted(self._interesting_dids)
            did = rng.choice(dids)
        else:
            did = self._advance_sweep()
        return bytes((ServiceId.READ_DATA_BY_IDENTIFIER,
                      did >> 8, did & 0xFF))

    def _attack_write(self) -> bytes:
        """Boundary-length write to a DID worth attacking."""
        rng = self._rng
        if self._interesting_dids and rng.random() < 0.7:
            dids = self._interesting_sorted
            if dids is None:
                dids = self._interesting_sorted = \
                    sorted(self._interesting_dids)
            did = rng.choice(dids)
        else:
            did = self._advance_sweep()
        length = rng.choice(ATTACK_LENGTHS)
        length = min(length, self.max_record)
        return (bytes((ServiceId.WRITE_DATA_BY_IDENTIFIER,
                       did >> 8, did & 0xFF))
                + rng.randbytes(length))

    def _protocol_move(self) -> bytes:
        """Probe the diagnostic surface (sweep-heavy)."""
        rng = self._rng
        roll = rng.random()
        if roll < 0.55:
            # Locked write probe: distinguishes protected DIDs (0x33)
            # from unmapped ones (0x31) -- read probes cannot see a
            # write-only DID at all.
            did = self._advance_sweep()
            return bytes((ServiceId.WRITE_DATA_BY_IDENTIFIER,
                          did >> 8, did & 0xFF, rng.randrange(256)))
        if roll < 0.80:
            did = rng.randint(0xF100, 0xF1FF)
            return bytes((ServiceId.READ_DATA_BY_IDENTIFIER,
                          did >> 8, did & 0xFF))
        if roll < 0.90:
            # Sub-function sweep: a deterministic walk of all 256
            # DiagnosticSessionControl sub-functions.  Random draws
            # revisit popular values while whole regions stay cold; the
            # sweep guarantees every NRC rejection path -- including a
            # sub whose *negative* response path is defective -- is
            # probed within 256 session moves.
            return bytes((ServiceId.DIAGNOSTIC_SESSION_CONTROL,
                          self._advance_session_sweep()))
        return _REQ_TESTER_PRESENT

    def _advance_sweep(self) -> int:
        did = self._sweep_did
        self._sweep_did += 1
        if self._sweep_did > SWEEP_LAST_DID:
            self._sweep_did = SWEEP_FIRST_DID
        return did

    def _advance_session_sweep(self) -> int:
        sub = self._session_sweep_sub
        self._session_sweep_sub = (sub + 1) & 0xFF
        return sub

    def _mutate_move(self) -> bytes:
        """Byte-level mutation of a coverage-producing request."""
        rng = self._rng
        base = bytearray(rng.choice(self._corpus))
        operation = rng.randrange(4)
        if operation == 0 and base:  # flip a byte
            base[rng.randrange(len(base))] = rng.randrange(256)
        elif operation == 1 and len(base) > 1:  # truncate
            del base[rng.randrange(1, len(base)):]
        elif operation == 2:  # extend
            base.extend(rng.randbytes(rng.randrange(1, 9)))
        elif base:  # duplicate a byte
            position = rng.randrange(len(base))
            base.insert(position, base[position])
        return bytes(base) if base else b"\x3e"

    def _garbage_move(self) -> bytes:
        """Raw negative-path pressure: a mostly-known SID with a boundary
        or short random payload length."""
        rng = self._rng
        if rng.random() < 0.8:
            sid = rng.choice(GARBAGE_SIDS)
        else:
            sid = rng.randrange(256)
        if rng.random() < 0.6:
            length = rng.choice(GARBAGE_LENGTHS)
        else:
            length = rng.randrange(0, 32)
        return bytes((sid,)) + rng.randbytes(length)

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe(self, request: bytes, response) -> bool:
        """Digest one exchange; True when it produced new coverage.

        ``response`` is a :class:`~repro.uds.client.UdsResponse`-shaped
        object (``timed_out``/``positive``/``nrc``/``message``).
        Belief updates are driven purely by what went over the wire, so
        a garbage request that really changed the session is tracked
        just like a deliberate one.
        """
        if not request:
            return False
        sid = request[0]
        sub = request[1] if len(request) >= 2 and sid in SUB_FUNCTION_SIDS \
            else NO_SUB
        session_at_send = self._session
        # One read of response.message, with the timed_out / positive /
        # nrc property logic applied inline -- observe runs once per
        # exchange in every engine, scalar or batched.
        message = response.message
        if message is None:
            nrc = NRC_TIMEOUT
        elif message and message[0] != 0x7F:
            nrc = NRC_POSITIVE
            self._digest_positive(sid, sub, request, message)
        else:
            nrc = message[2] if len(message) >= 3 else NRC_MALFORMED
            self._digest_negative(sid, nrc, request)
        new_coverage = self.coverage.record(sid, sub, nrc, session_at_send)
        if new_coverage and nrc != NRC_TIMEOUT:
            self._remember(request)
        return new_coverage

    def _digest_positive(self, sid: int, sub: int, request: bytes,
                         message: bytes) -> None:
        if sid == ServiceId.DIAGNOSTIC_SESSION_CONTROL and sub != NO_SUB:
            self._session = sub
            if sub == SESSION_DEFAULT:
                # Default session re-locks security.
                self._unlocked = False
                self._seed = None
        elif sid == ServiceId.SECURITY_ACCESS:
            if sub == SECURITY_REQUEST_SEED and len(message) >= 3:
                self._seed = message[2]
            elif sub == SECURITY_SEND_KEY:
                self._unlocked = True
                self._seed = None
                if self._last_key_algorithm is not None:
                    self.key_algorithm = self._last_key_algorithm
        elif sid == ServiceId.ECU_RESET:
            # Hard reset: the server reboots into a clean default
            # state, which also clears any attempt-limit lockout.
            self._session = SESSION_DEFAULT
            self._unlocked = False
            self._seed = None
            self._locked_out = False
        elif sid in (ServiceId.READ_DATA_BY_IDENTIFIER,
                     ServiceId.WRITE_DATA_BY_IDENTIFIER) \
                and len(request) >= 3:
            self._interesting_dids.add((request[1] << 8) | request[2])
            self._interesting_sorted = None

    def _digest_negative(self, sid: int, nrc: int, request: bytes) -> None:
        if nrc == NegativeResponse.EXCEEDED_NUMBER_OF_ATTEMPTS:
            self._locked_out = True
        elif nrc == NegativeResponse.INVALID_KEY:
            # The seed was consumed by the failed attempt.
            self._seed = None
        elif nrc == NegativeResponse.SECURITY_ACCESS_DENIED \
                and sid in (ServiceId.READ_DATA_BY_IDENTIFIER,
                            ServiceId.WRITE_DATA_BY_IDENTIFIER) \
                and len(request) >= 3:
            # Protected data: exactly what an attack write wants.
            self._interesting_dids.add((request[1] << 8) | request[2])
            self._interesting_sorted = None
        elif nrc == NegativeResponse.CONDITIONS_NOT_CORRECT:
            if sid == ServiceId.SECURITY_ACCESS:
                # Seed refused: we are not in a diagnostic session.
                self._session = SESSION_DEFAULT
            elif sid == ServiceId.DIAGNOSTIC_SESSION_CONTROL \
                    and len(request) >= 2 \
                    and request[1] == SESSION_PROGRAMMING:
                # Programming refused: our unlock belief was wrong.
                self._unlocked = False

    def _remember(self, request: bytes) -> None:
        if request in self._corpus:
            return
        self._corpus.append(bytes(request))
        if len(self._corpus) > self.corpus_limit:
            self._corpus.pop(0)

    def notify_target_reset(self) -> None:
        """Align beliefs after the campaign power-cycled the target."""
        self._session = SESSION_DEFAULT
        self._unlocked = False
        self._seed = None
        self._locked_out = False

    # ------------------------------------------------------------------
    # Replay support
    # ------------------------------------------------------------------
    def state_witness(self) -> tuple[bytes, ...]:
        """Requests that re-establish the current belief state.

        Findings carry this prefix in front of the recent-request
        window: a rolling window alone can miss the session walk that
        armed the server long before the crashing request, and a
        replay from a fresh boot would then never reach the defect.
        The key byte in the witness is a placeholder -- stateful
        replay re-derives it from the seed of the replay run.
        """
        steps: list[bytes] = []
        if self._session == SESSION_DEFAULT and not self._unlocked:
            return ()
        steps.append(bytes((ServiceId.DIAGNOSTIC_SESSION_CONTROL,
                            SESSION_EXTENDED)))
        if self._unlocked:
            steps.append(bytes((ServiceId.SECURITY_ACCESS,
                                SECURITY_REQUEST_SEED)))
            steps.append(bytes((ServiceId.SECURITY_ACCESS,
                                SECURITY_SEND_KEY, 0x00)))
            if self._session == SESSION_PROGRAMMING:
                steps.append(bytes((ServiceId.DIAGNOSTIC_SESSION_CONTROL,
                                    SESSION_PROGRAMMING)))
        return tuple(steps)

    @property
    def key_algorithm_name(self) -> str | None:
        """Human-readable name of the learned key algorithm."""
        if self.key_algorithm is None:
            return None
        return KEY_ALGORITHMS[self.key_algorithm][0]

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "requests_generated": self.requests_generated,
            "session": self._session,
            "unlocked": self._unlocked,
            "seed": self._seed,
            "locked_out": self._locked_out,
            "last_key_algorithm": self._last_key_algorithm,
            "key_algorithm": self.key_algorithm,
            "interesting_dids": sorted(self._interesting_dids),
            "sweep_did": self._sweep_did,
            "session_sweep": self._session_sweep_sub,
            "corpus": [entry.hex() for entry in self._corpus],
            "rng": rng_state_to_json(self._rng.getstate()),
            "coverage": self.coverage.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        self.requests_generated = int(state.get("requests_generated", 0))
        self._session = int(state.get("session", SESSION_DEFAULT))
        self._unlocked = bool(state.get("unlocked", False))
        seed = state.get("seed")
        self._seed = None if seed is None else int(seed)
        self._locked_out = bool(state.get("locked_out", False))
        last = state.get("last_key_algorithm")
        self._last_key_algorithm = None if last is None else int(last)
        learned = state.get("key_algorithm")
        self.key_algorithm = None if learned is None else int(learned)
        self._interesting_dids = {int(d) for d in
                                  state.get("interesting_dids", ())}
        self._interesting_sorted = None
        self._sweep_did = int(state.get("sweep_did", SWEEP_FIRST_DID))
        self._session_sweep_sub = int(state.get("session_sweep", 0))
        self._corpus = [bytes.fromhex(entry)
                        for entry in state.get("corpus", ())]
        rng_state = state.get("rng")
        if rng_state is not None:
            self._rng.setstate(rng_state_from_json(rng_state))
        self.coverage.load_state(state.get("coverage", {}))

    def state_digest(self) -> str:
        blob = json.dumps(self.state_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]
