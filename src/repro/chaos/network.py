"""Socket-level network chaos for the service API.

:class:`ChaosProxy` sits between HTTP clients and a live
:class:`~repro.service.api.ServiceApi`, and mangles connections with
seeded per-connection draws:

- ``reset``   -- abort the client connection without contacting the
  server (the client sees a connection reset and must retry);
- ``partial`` -- forward only a prefix of the client's bytes, then
  half-close towards the server (the server sees a truncated head or
  body and must shed it with 400, never 500);
- ``stall``   -- forward all but the last byte and then go silent (the
  server's read timeout must fire and answer 408);
- ``garbage`` -- prepend a junk line to the client's request (the
  server must answer 400 and stay serviceable);
- anything else passes through byte-for-byte.

The draw sequence comes from ``random.Random(seed)`` in connection-
accept order, so a sequential client reproduces the exact same
behaviour sequence from the same seed.
"""

from __future__ import annotations

import asyncio
import random


class ChaosProxy:
    """Seeded mangling TCP proxy in front of the service API."""

    BEHAVIOURS = ("reset", "partial", "stall", "garbage")

    def __init__(self, upstream: tuple[str, int], *, seed: int,
                 rates: dict[str, float] | None = None) -> None:
        self.upstream = upstream
        self._rng = random.Random(seed)
        self.rates = dict(rates or {})
        unknown = set(self.rates) - set(self.BEHAVIOURS)
        if unknown:
            raise ValueError(f"unknown proxy behaviours: {sorted(unknown)}")
        if sum(self.rates.values()) > 1.0:
            raise ValueError("behaviour rates must sum to <= 1.0")
        self._server: asyncio.AbstractServer | None = None
        self.address: tuple[str, int] | None = None
        self.connections = 0
        self.behaviours = {name: 0 for name in self.BEHAVIOURS}
        self.behaviours["pass"] = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> tuple[str, int]:
        self._server = await asyncio.start_server(self._handle, host,
                                                  port)
        self.address = self._server.sockets[0].getsockname()[:2]
        return self.address

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def stats(self) -> dict:
        return {"connections": self.connections,
                "behaviours": dict(self.behaviours)}

    # ------------------------------------------------------------------
    # Per-connection mangling
    # ------------------------------------------------------------------
    def _draw(self) -> str:
        roll = self._rng.random()
        mark = 0.0
        for name in self.BEHAVIOURS:
            mark += self.rates.get(name, 0.0)
            if roll < mark:
                return name
        return "pass"

    async def _handle(self, creader: asyncio.StreamReader,
                      cwriter: asyncio.StreamWriter) -> None:
        behaviour = self._draw()
        self.connections += 1
        self.behaviours[behaviour] += 1
        try:
            if behaviour == "reset":
                # Never reaches the server: the client's problem.
                cwriter.transport.abort()
                return
            sreader, swriter = await asyncio.open_connection(
                *self.upstream)
        except (ConnectionError, OSError):
            cwriter.transport.abort()
            return
        try:
            await self._relay(behaviour, creader, cwriter, sreader,
                              swriter)
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            for writer in (swriter, cwriter):
                try:
                    writer.close()
                except Exception:
                    pass

    async def _relay(self, behaviour: str, creader, cwriter, sreader,
                     swriter) -> None:
        if behaviour == "garbage":
            # A single-token junk line: unparseable as a request line,
            # so the server must answer 400, never 500.
            swriter.write(b"\x13\x37_not_http_junk\r\n")
            await swriter.drain()

        async def client_to_server() -> None:
            first = True
            while True:
                chunk = await creader.read(65536)
                if not chunk:
                    break
                if behaviour == "partial" and first:
                    # Half of the first chunk, then half-close: the
                    # server sees a truncated request and must 400.
                    swriter.write(chunk[:max(1, len(chunk) // 2)])
                    await swriter.drain()
                    break
                if behaviour == "stall":
                    # Everything but the final byte, then silence: the
                    # server's read timeout must fire (408).
                    swriter.write(chunk[:-1])
                    await swriter.drain()
                    return  # no write_eof: the server waits us out
                swriter.write(chunk)
                await swriter.drain()
                first = False
            try:
                swriter.write_eof()
            except (ConnectionError, OSError):
                pass

        async def server_to_client() -> None:
            while True:
                chunk = await sreader.read(65536)
                if not chunk:
                    break
                cwriter.write(chunk)
                await cwriter.drain()

        upload = asyncio.ensure_future(client_to_server())
        try:
            await server_to_client()
        finally:
            upload.cancel()
            try:
                await upload
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass
