"""The asyncio daemon: zero-dependency HTTP + SSE over ``asyncio.start_server``.

No third-party web stack: requests are parsed from the raw stream (the
subset of HTTP/1.1 a JSON-API needs), responses close the connection,
and event streams are plain ``text/event-stream`` bodies fed from each
session's replay buffer.  Everything runs on one event loop: the
:class:`~repro.serve.manager.SessionManager` pump interleaves simulation
slices with request handling, so the daemon stays responsive while
hundreds of sessions step.

Endpoint catalogue (see ``docs/serving.md`` for payloads)::

    GET    /healthz                     liveness + session count
    GET    /metrics                     daemon-level Prometheus exposition
    GET    /v1/cells                    every pinned cell id
    GET    /v1/sessions                 list session descriptors
    POST   /v1/sessions                 create from a manifest (+autostart)
    GET    /v1/sessions/{id}            one session descriptor
    DELETE /v1/sessions/{id}            reap a session
    POST   /v1/sessions/{id}/start      lifecycle transitions
    POST   /v1/sessions/{id}/pause
    POST   /v1/sessions/{id}/resume
    POST   /v1/sessions/{id}/inject     decision injection
    GET    /v1/sessions/{id}/events     SSE stream (Last-Event-ID resume)
    GET    /v1/sessions/{id}/summary    final summary (409 until done)
    GET    /v1/sessions/{id}/metrics    per-session Prometheus exposition
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from collections.abc import Mapping
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.serve.manager import CapacityError, SessionManager
from repro.serve.manifest import ManifestError, parse_manifest
from repro.serve.session import Session, SessionError, SessionState
from repro.serve.sse import encode_comment

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8737
#: Largest accepted request body (a manifest is a few hundred bytes).
MAX_BODY_BYTES = 1 << 20
#: Idle seconds between SSE keep-alive comments.
SSE_HEARTBEAT_S = 10.0

_STATUS_TEXT = {
    200: "OK", 201: "Created", 204: "No Content", 400: "Bad Request",
    404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """Terminates a request with a status + JSON error body."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _response(status: int, body: bytes, content_type: str) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("ascii") + body


def _json_response(status: int, payload: Any) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    return _response(status, body, "application/json")


def _text_response(status: int, text: str,
                   content_type: str = "text/plain; version=0.0.4") -> bytes:
    return _response(status, text.encode(), content_type)


class ServeDaemon:
    """Bind, accept, route; owns the session manager and its pump."""

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        max_sessions: int = 64,
        max_buffered_events: int = 4096,
    ) -> None:
        self.host = host
        self.port = port
        self.manager = SessionManager(max_sessions=max_sessions,
                                      max_buffered_events=max_buffered_events)
        self._server: asyncio.AbstractServer | None = None
        self._pump: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener (port 0 picks an ephemeral port) and start
        the stepping pump."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._pump = asyncio.create_task(self.manager.run())

    async def stop(self) -> None:
        if self._pump is not None:
            self._pump.cancel()
            try:
                await self._pump
            except asyncio.CancelledError:
                pass
            self._pump = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        await self.start()
        print(f"repro serve: listening on http://{self.host}:{self.port} "
              f"(max {self.manager.max_sessions} sessions)", flush=True)
        try:
            await self._server.serve_forever()
        finally:
            await self.stop()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            method, target, headers, body = await self._read_request(reader)
            await self._route(method, target, headers, body, writer)
        except HttpError as exc:
            writer.write(_json_response(exc.status, {"error": str(exc)}))
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # never kill the daemon on one request
            try:
                writer.write(_json_response(
                    500, {"error": f"{type(exc).__name__}: {exc}"}))
            except (ConnectionResetError, BrokenPipeError):
                pass
        finally:
            try:
                if writer.can_write_eof():
                    writer.write_eof()
            except (OSError, RuntimeError):
                pass
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
            writer.close()

    async def _read_request(self, reader: asyncio.StreamReader):
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise HttpError(400, "empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise HttpError(400, f"malformed request line {request_line!r}")
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
            if not line:
                break
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    @staticmethod
    def _json_body(body: bytes) -> dict:
        if not body:
            return {}
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(payload, Mapping):
            raise HttpError(400, "body must be a JSON object")
        return dict(payload)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(self, method: str, target: str, headers: Mapping[str, str],
                     body: bytes, writer: asyncio.StreamWriter) -> None:
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}
        segments = [s for s in path.split("/") if s]

        if path == "/healthz" and method == "GET":
            writer.write(_json_response(200, {
                "ok": True,
                "sessions": len(self.manager.sessions),
                "live": len(self.manager.live_sessions()),
            }))
            return
        if path == "/metrics" and method == "GET":
            writer.write(_text_response(200, self.manager.registry.to_prometheus()))
            return
        if path == "/v1/cells" and method == "GET":
            from repro.cell import available_cell_ids

            writer.write(_json_response(200, {"cells": available_cell_ids()}))
            return
        if path == "/v1/sessions":
            if method == "GET":
                writer.write(_json_response(
                    200, {"sessions": self.manager.list_info()}))
                return
            if method == "POST":
                self._create_session(body, writer)
                return
            raise HttpError(405, f"{method} not allowed on {path}")
        if len(segments) >= 3 and segments[:2] == ["v1", "sessions"]:
            session = self._session_or_404(segments[2])
            action = segments[3] if len(segments) > 3 else None
            await self._route_session(method, session, action, body,
                                      headers, query, writer)
            return
        raise HttpError(404, f"no route {method} {path}")

    def _session_or_404(self, session_id: str) -> Session:
        try:
            return self.manager.get(session_id)
        except KeyError as exc:
            raise HttpError(404, str(exc)) from None

    def _create_session(self, body: bytes, writer: asyncio.StreamWriter) -> None:
        payload = self._json_body(body)
        autostart = bool(payload.pop("autostart", True))
        try:
            manifest = parse_manifest(payload)
            session = self.manager.create(manifest, autostart=autostart)
        except ManifestError as exc:
            raise HttpError(400, str(exc)) from None
        except CapacityError as exc:
            raise HttpError(503, str(exc)) from None
        writer.write(_json_response(201, session.info()))

    async def _route_session(
        self, method: str, session: Session, action: str | None, body: bytes,
        headers: Mapping[str, str], query: Mapping[str, str],
        writer: asyncio.StreamWriter,
    ) -> None:
        if action is None:
            if method == "GET":
                writer.write(_json_response(200, session.info()))
                return
            if method == "DELETE":
                self.manager.remove(session.id)
                writer.write(_json_response(200, {"session": session.id,
                                                  "reaped": True}))
                return
            raise HttpError(405, f"{method} not allowed on a session")
        if action in ("start", "pause", "resume") and method == "POST":
            try:
                getattr(session, action)()
            except SessionError as exc:
                raise HttpError(409, str(exc)) from None
            self.manager.kick()
            writer.write(_json_response(200, session.info()))
            return
        if action == "inject" and method == "POST":
            try:
                ack = session.inject(self._json_body(body))
            except SessionError as exc:
                raise HttpError(400, str(exc)) from None
            self.manager.note_injection()
            writer.write(_json_response(200, ack))
            return
        if action == "summary" and method == "GET":
            if session.summary_payload is None:
                raise HttpError(
                    409, f"session {session.id} is {session.state}; "
                         f"summary available once done")
            writer.write(_json_response(200, session.summary_payload))
            return
        if action == "metrics" and method == "GET":
            writer.write(_text_response(
                200, session.obs.registry.to_prometheus()))
            return
        if action == "events" and method == "GET":
            await self._stream_events(session, headers, query, writer)
            return
        raise HttpError(404, f"no session action {action!r}")

    # ------------------------------------------------------------------
    # SSE streaming
    # ------------------------------------------------------------------
    async def _stream_events(
        self, session: Session, headers: Mapping[str, str],
        query: Mapping[str, str], writer: asyncio.StreamWriter,
    ) -> None:
        raw = headers.get("last-event-id", query.get("last_event_id", "0"))
        try:
            last_id = int(raw)
        except ValueError:
            last_id = 0

        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        queue: asyncio.Queue = asyncio.Queue()
        listener = queue.put_nowait
        # Subscribe *before* replay so nothing appended mid-replay is
        # lost; the id filter below drops any duplicates that race in.
        session.events.subscribe(listener)
        try:
            ended = False
            for event in session.events.events_after(last_id):
                writer.write(event.encode())
                last_id = event.id
                ended = ended or event.event == "end"
            await writer.drain()
            while not ended:
                try:
                    event = await asyncio.wait_for(
                        queue.get(), timeout=SSE_HEARTBEAT_S)
                except asyncio.TimeoutError:
                    writer.write(encode_comment("keep-alive"))
                    await writer.drain()
                    continue
                if event.id <= last_id:
                    continue
                writer.write(event.encode())
                last_id = event.id
                await writer.drain()
                ended = event.event == "end"
        finally:
            session.events.unsubscribe(listener)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="simulation-as-a-service daemon (SSE streaming telemetry)",
    )
    parser.add_argument("--host", default=DEFAULT_HOST)
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"listen port (default {DEFAULT_PORT}; 0 = ephemeral)")
    parser.add_argument("--max-sessions", type=int, default=64,
                        help="live-session capacity (default 64)")
    parser.add_argument("--max-buffered-events", type=int, default=4096,
                        help="per-session SSE replay buffer (default 4096)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    daemon = ServeDaemon(
        host=args.host, port=args.port, max_sessions=args.max_sessions,
        max_buffered_events=args.max_buffered_events,
    )
    try:
        asyncio.run(daemon.serve_forever())
    except KeyboardInterrupt:
        print("repro serve: shutting down", flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI/CI
    sys.exit(main())
