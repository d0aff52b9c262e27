"""Stdlib-only asyncio HTTP front-end over :class:`repro.serve.Server`.

One deliberately small HTTP/1.1 endpoint — no framework, no dependency —
so a pipeline artifact can serve raw-text requests over a socket with
nothing but the standard library:

* ``POST /predict`` — body ``{"text": "..."}`` (one item) or
  ``{"texts": [...], "domains": [...], "deadline_ms": 50}`` (a batch).
  Single-item responses carry the prediction dict; batch responses carry
  ``{"predictions": [...]}`` with per-item errors isolated in their slot.
* ``GET /health`` — :meth:`Server.health` (``200`` while the pool can still
  serve, ``503`` once the server has failed or stopped).
* ``GET /stats`` — the :class:`repro.serve.ServeStats` snapshot.

Status mapping for ``POST /predict``: structurally invalid requests are
``400``; a queue at its high-water mark is ``503`` with a ``Retry-After``
hint (the backpressure contract made visible to HTTP clients); scoring
failures are ``200`` with the error in the prediction body, because the
request itself was well-formed and accepted.

Connections are ``Connection: close`` — one request per connection keeps
the parser honest and is plenty for the load levels one artifact serves.
"""

from __future__ import annotations

import asyncio
import json

from repro.serve.server import Server, ServerOverloaded

_MAX_HEADER_BYTES = 16_384
_MAX_BODY_BYTES = 8_000_000


class HttpFrontend:
    """Bind :class:`Server` to a TCP port (``port=0`` picks a free one)."""

    def __init__(self, server: Server, host: str = "127.0.0.1", port: int = 0):
        self.server = server
        self.host = host
        self.port = port
        self._asyncio_server: asyncio.AbstractServer | None = None

    async def start(self) -> int:
        """Start listening; returns the bound port."""
        self._asyncio_server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._asyncio_server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()
            self._asyncio_server = None

    async def serve_forever(self) -> None:
        if self._asyncio_server is None:
            await self.start()
        await self._asyncio_server.serve_forever()

    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            status, payload = await self._handle_request(reader)
        except Exception as error:  # noqa: BLE001 - one bad request, one 500
            status, payload = 500, {"error": f"{type(error).__name__}: {error}"}
        body = json.dumps(payload).encode("utf-8")
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 500: "Internal Server Error",
                  503: "Service Unavailable"}.get(status, "Error")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                + ("Retry-After: 1\r\n" if status == 503 else "")
                + "Connection: close\r\n\r\n")
        try:
            writer.write(head.encode("ascii") + body)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):  # client went away
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _handle_request(self, reader: asyncio.StreamReader):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return 400, {"error": "malformed HTTP request"}
        if len(head) > _MAX_HEADER_BYTES:
            return 400, {"error": "request headers too large"}
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        parts = request_line.split(" ")
        if len(parts) != 3:
            return 400, {"error": f"malformed request line: {request_line!r}"}
        method, path, _version = parts
        headers = {}
        for line in header_lines:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        body = b""
        if "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError:
                return 400, {"error": "invalid Content-Length"}
            if length > _MAX_BODY_BYTES:
                return 400, {"error": f"body of {length} bytes over the "
                                      f"{_MAX_BODY_BYTES}-byte limit"}
            body = await reader.readexactly(length)

        if path == "/health":
            if method != "GET":
                return 405, {"error": "use GET for /health"}
            report = self.server.health()
            code = 200 if report["status"] in ("ok", "degraded") else 503
            return code, report
        if path == "/stats":
            if method != "GET":
                return 405, {"error": "use GET for /stats"}
            return 200, self.server.stats.snapshot()
        if path == "/predict":
            if method != "POST":
                return 405, {"error": "use POST for /predict"}
            return await self._predict(body)
        return 404, {"error": f"no route for {path}; available: "
                              "POST /predict, GET /health, GET /stats"}

    async def _predict(self, body: bytes):
        try:
            request = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            return 400, {"error": f"request body is not valid JSON: {error}"}
        if not isinstance(request, dict):
            return 400, {"error": "request body must be a JSON object"}
        deadline_ms = request.get("deadline_ms")
        if "text" in request:
            try:
                prediction = await self.server.submit(
                    request["text"], domain=request.get("domain"),
                    deadline_ms=deadline_ms)
            except ServerOverloaded as error:
                return 503, {"error": str(error)}
            except (ValueError, KeyError) as error:
                return 400, {"error": str(error)}
            except RuntimeError as error:  # server stopped/failed
                return 503, {"error": str(error)}
            return 200, prediction.as_dict()
        if "texts" in request:
            texts = request["texts"]
            if not isinstance(texts, list):
                return 400, {"error": "'texts' must be a list of strings"}
            try:
                predictions = await self.server.submit_many(
                    texts, domains=request.get("domains"),
                    deadline_ms=deadline_ms)
            except ValueError as error:  # malformed or mismatched domains
                return 400, {"error": str(error)}
            return 200, {"predictions": [p.as_dict() for p in predictions]}
        return 400, {"error": "request must carry 'text' or 'texts'"}
