"""Reproducible per-component random-number streams.

Fuzzing is random by definition, but a fuzzing *experiment* must be
reproducible: the paper's Table V reports twelve runs per configuration
and we need to regenerate the same twelve.  Handing every component an
independent stream derived from ``(root_seed, component_name)`` means
adding or removing one consumer does not perturb the draws seen by any
other component.
"""

from __future__ import annotations

import base64
import hashlib
import random
import struct


def rng_state_to_json(state: tuple) -> list:
    """``random.Random.getstate()`` as a JSON-ready value.

    The CPython state is ``(version, tuple_of_ints, gauss_next)``: 624
    Mersenne Twister words and a position, all below 2**32.  They are
    written as one base64 string of little-endian uint32 words, about
    half the size of a JSON list of the same ints, and rebuilt by
    :func:`rng_state_from_json`.  Durable checkpoints store these so a
    resumed campaign draws the exact frame stream the killed run would
    have drawn.
    """
    version, internal, gauss_next = state
    words = struct.pack(f"<{len(internal)}I", *internal)
    return [version, base64.b64encode(words).decode("ascii"), gauss_next]


def rng_state_from_json(payload: list) -> tuple:
    """Inverse of :func:`rng_state_to_json`, ready for ``setstate``.

    Also reads the older form, a JSON list of the ints, so a checkpoint
    written before the compact form still resumes.
    """
    version, internal, gauss_next = payload
    if isinstance(internal, str):
        words = base64.b64decode(internal)
        internal = struct.unpack(f"<{len(words) // 4}I", words)
    return (version, tuple(internal), gauss_next)


class RandomStreams:
    """Factory of named, independently seeded ``random.Random`` streams.

    >>> streams = RandomStreams(42)
    >>> a = streams.stream("fuzzer")
    >>> b = streams.stream("engine-noise")
    >>> a is streams.stream("fuzzer")   # same name -> same stream object
    True
    """

    def __init__(self, root_seed: int) -> None:
        self.root_seed = int(root_seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = random.Random(self._derive_seed(name))
        return self._streams[name]

    def fork(self, name: str) -> "RandomStreams":
        """A child factory whose streams are independent of this one.

        Used to give each of the twelve Table V trials its own universe
        of streams while still being a pure function of the root seed.
        """
        return RandomStreams(self._derive_seed(f"fork:{name}"))

    def state_digest(self) -> str:
        """Deterministic digest of every stream's internal RNG state.

        Part of the snapshot determinism guarantee: a restored world
        must resume its random draws exactly where the captured world
        stood, so tests compare this digest between the uninterrupted
        run and the restore-and-rerun.  ``Random.getstate()`` is a
        tuple of ints, so its repr is stable and address-free.
        """
        digest = hashlib.sha256(str(self.root_seed).encode("utf-8"))
        for name in sorted(self._streams):
            digest.update(name.encode("utf-8"))
            digest.update(repr(self._streams[name].getstate())
                          .encode("utf-8"))
        return digest.hexdigest()

    def state_dict(self) -> dict:
        """JSON-ready export of every stream's internal RNG state.

        The checkpoint-side counterpart of :meth:`state_digest`: where
        the digest only *compares* worlds, this payload lets a durable
        checkpoint rebuild them -- :meth:`load_state` puts every stream
        back exactly where the exporting process stood.
        """
        return {
            "root_seed": self.root_seed,
            "streams": {name: rng_state_to_json(rng.getstate())
                        for name, rng in sorted(self._streams.items())},
        }

    def load_state(self, payload: dict) -> None:
        """Restore stream states exported by :meth:`state_dict`.

        Streams are created on demand, so loading into a fresh factory
        with the same root seed reproduces the exporting factory; a
        root-seed mismatch is rejected because the derived seeds (and
        any stream created *after* the restore) would silently diverge.
        """
        root_seed = payload.get("root_seed", self.root_seed)
        if root_seed != self.root_seed:
            raise ValueError(
                f"checkpoint was taken with root_seed={root_seed}, "
                f"this factory uses root_seed={self.root_seed}")
        for name, state in payload.get("streams", {}).items():
            self.stream(name).setstate(rng_state_from_json(state))

    def _derive_seed(self, name: str) -> int:
        digest = hashlib.sha256(
            f"{self.root_seed}:{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RandomStreams(root_seed={self.root_seed}, "
                f"streams={sorted(self._streams)})")
