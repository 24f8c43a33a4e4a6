"""TCP front end for the delivery service.

Connections speak newline-delimited JSON frames and must open with HELLO.
Recipient connections are live sessions (a later connect supersedes an
earlier one); sender connections are plain request/response. Frames the
service addresses to other principals (for example REACTION_NOTIFY for a
sessionless sender) are recorded in the frame log and not transmitted here;
senders pick them up by polling their view.

Each connection has its own thread, and the server owns everything they
share: ``lock``, which runs one ``handle_frame`` at a time, and ``sessions``,
which maps each recipient to the handler of its live session. A recipient
HELLO, first or repeated, makes its connection the live session, and that
connection's close ends the session unless a later one has taken it over. A
CONTEXT from a principal without a live session is refused with NoSession.

A connection speaks for the principal its acknowledged HELLO named: every
frame's ``from`` is overwritten with it, a later HELLO naming another
principal is refused, and one repeating its own is answered as usual. A
frame line longer than ``MAX_LINE_BYTES`` is refused and closes the
connection, so no client can make a handler buffer without bound. None of
these connection-level refusals reaches the service or its frame log.

A request's direct replies leave in one write, in order. Written one by one,
a reply sent while an earlier one is unacknowledged waits on Nagle's
algorithm for the client's delayed ACK, about 40 ms on Linux, once per
reaction cycle; joined, they need no socket option.
"""

from __future__ import annotations

import errno
import socket
import socketserver
import threading
from typing import Any

from . import protocol
from .errors import AddressInUse, NoSession, ParseError
from .service import DeliveryService

MAX_LINE_BYTES = 1 << 20  # newline included


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: WandRelayServer = self.server  # type: ignore[assignment]
        principal: str | None = None
        try:
            while raw := self.rfile.readline(MAX_LINE_BYTES):
                if len(raw) == MAX_LINE_BYTES and not raw.endswith(b"\n"):
                    self._send([protocol.error_frame(ParseError(f"frame line over {MAX_LINE_BYTES} bytes"))])
                    break
                line = raw.strip()
                if not line:
                    continue
                try:
                    frame = protocol.decode_frame(line)
                except ParseError as exc:
                    self._send([protocol.error_frame(exc)])
                    continue
                claimed = principal
                if frame["kind"] == protocol.HELLO:
                    claimed = frame["payload"].get("principal")
                    if principal not in (None, claimed):
                        self._send([protocol.error_frame(ParseError(f"connection is introduced as {principal}"))])
                        continue
                elif principal is None:
                    self._send([protocol.error_frame(ParseError("first frame must be HELLO"))])
                    continue
                elif frame["kind"] == protocol.CONTEXT and principal not in server.sessions:
                    self._send([protocol.error_frame(NoSession(principal), to=principal)])
                    continue
                frame["from"] = claimed
                with server.lock:
                    responses = server.service.handle_frame(frame)
                    if frame["kind"] == protocol.HELLO and responses[0]["kind"] == protocol.ACK:
                        # Only an acknowledged HELLO introduces the connection.
                        principal = claimed
                        if frame["payload"]["role"] == "recipient":
                            server.sessions[principal] = self
                # Only direct responses travel on this connection.
                self._send([r for r in responses if r.get("to") in (None, claimed)])
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            with server.lock:
                if server.sessions.get(principal) is self:
                    del server.sessions[principal]

    def _send(self, frames: list[dict[str, Any]]) -> None:
        """One write per request: its replies leave together, in order."""
        if frames:
            self.wfile.write(b"".join(map(protocol.encode_frame, frames)))


class WandRelayServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = False

    def __init__(self, host: str, port: int, service: DeliveryService):
        super().__init__((host, port), _Handler, bind_and_activate=False)
        self.service = service
        self.lock = threading.Lock()
        self.sessions: dict[str, _Handler] = {}  # recipient -> the handler of its live session
        try:
            self.server_bind()
            self.server_activate()
        except OSError as exc:
            self.socket.close()  # the service stays open: it is not the server's until it serves
            if exc.errno == errno.EADDRINUSE:
                raise AddressInUse(f"{host}:{port}") from None
            raise

    def server_close(self) -> None:
        """Stop listening, then close the service once no request is running."""
        super().server_close()
        with self.lock:
            self.service.close()


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
