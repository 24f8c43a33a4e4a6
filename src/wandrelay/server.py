"""TCP front end for the delivery service.

Connections speak newline-delimited JSON frames and must open with HELLO.
Recipient connections are live sessions (a later connect supersedes an
earlier one); sender connections are plain request/response. Frames the
service addresses to other principals (for example REACTION_NOTIFY for a
sessionless sender) are recorded in the frame log and not transmitted here;
senders pick them up by polling their view.

A connection speaks for the principal its acknowledged HELLO named: a later
HELLO naming another principal is refused, while one repeating its own is
answered as usual. A frame line longer than ``MAX_LINE_BYTES`` is refused and
closes the connection, so no client can make a handler buffer without bound.
"""

from __future__ import annotations

import errno
import socket
import socketserver
from typing import Any

from . import protocol
from .errors import AddressInUse, ParseError
from .service import DeliveryService

MAX_LINE_BYTES = 1 << 20  # newline included


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        service: DeliveryService = self.server.service  # type: ignore[attr-defined]
        principal: str | None = None
        role: str | None = None
        session_generation: int | None = None
        try:
            while raw := self.rfile.readline(MAX_LINE_BYTES):
                if len(raw) == MAX_LINE_BYTES and not raw.endswith(b"\n"):
                    self._send(protocol.error_frame(ParseError(f"frame line over {MAX_LINE_BYTES} bytes")))
                    break
                line = raw.strip()
                if not line:
                    continue
                try:
                    frame = protocol.decode_frame(line)
                except ParseError as exc:
                    self._send(protocol.error_frame(exc))
                    continue
                claimed = principal
                if frame["kind"] == protocol.HELLO:
                    claimed = frame["payload"].get("principal")
                    if principal not in (None, claimed):
                        self._send(protocol.error_frame(ParseError(f"connection is introduced as {principal}")))
                        continue
                elif principal is None:
                    self._send(protocol.error_frame(ParseError("first frame must be HELLO")))
                    continue
                frame.setdefault("from", claimed)
                responses = service.handle_frame(frame)
                for response in responses:
                    # Only direct responses travel on this connection.
                    if response.get("to") in (None, claimed):
                        self._send(response)
                if frame["kind"] == protocol.HELLO and responses[0]["kind"] == protocol.ACK:
                    # Only an acknowledged HELLO introduces the connection.
                    if principal is None:
                        principal, role = claimed, frame["payload"]["role"]
                    if role == "recipient":
                        session_generation = service.session_generation(principal)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if role == "recipient" and principal is not None:
                service.close_session(principal, session_generation)

    def _send(self, frame: dict[str, Any]) -> None:
        self.wfile.write(protocol.encode_frame(frame))
        self.wfile.flush()


class WandRelayServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = False

    def __init__(self, host: str, port: int, service: DeliveryService):
        self.service = service
        try:
            super().__init__((host, port), _Handler)
        except OSError as exc:
            if exc.errno == errno.EADDRINUSE:
                raise AddressInUse(f"{host}:{port}") from None
            raise


class WireClient:
    """Minimal frame client for the CLI and tests."""

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def send(self, frame: dict[str, Any]) -> None:
        self._file.write(protocol.encode_frame(frame))
        self._file.flush()

    def read_frame(self) -> dict[str, Any]:
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return protocol.decode_frame(line)

    def request(self, frame: dict[str, Any]) -> dict[str, Any]:
        """Send one frame and read exactly one response frame."""
        self.send(frame)
        return self.read_frame()

    def hello(self, role: str, principal: str) -> dict[str, Any]:
        return self.request(
            protocol.make_frame(protocol.HELLO, {"role": role, "principal": principal}, sender=principal)
        )

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "WireClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
