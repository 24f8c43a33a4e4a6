"""Loopback plumbing: a `wandrelay serve` subprocess and a frame connection.

The benchmark drives the server over at most two connections at a time (one
sender, one recipient) and never sends a frame on behalf of another
principal, so every barrier used here stays valid once the server binds
``from`` to the HELLO principal.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

READY_TIMEOUT_S = 60.0
IO_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
WAKE_RETRY_S = 0.005  # between wake-up connections while a stopped server exits


def encode(frame: dict[str, Any]) -> bytes:
    return (json.dumps(frame, separators=(",", ":"), ensure_ascii=False) + "\n").encode("utf-8")


def frame(kind: str, payload: dict[str, Any], principal: str) -> dict[str, Any]:
    return {"v": 1, "kind": kind, "payload": payload, "from": principal}


def hello(role: str, principal: str) -> dict[str, Any]:
    return frame("HELLO", {"role": role, "principal": principal}, principal)


class Conn:
    """One client connection speaking newline-delimited JSON frames.

    The socket keeps the kernel's default options, as the program's own
    ``WireClient`` does: Nagle on, delayed ACKs on. What the benchmark times
    is what such a client sees.
    """

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=IO_TIMEOUT_S)
        self._rfile = self.sock.makefile("rb")
        self.bytes_out = 0
        self.bytes_in = 0

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)
        self.bytes_out += len(data)

    def recv_line(self) -> bytes:
        line = self._rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        self.bytes_in += len(line)
        return line

    def recv(self) -> dict[str, Any]:
        return json.loads(self.recv_line())

    def request(self, frame_: dict[str, Any]) -> dict[str, Any]:
        self.send(encode(frame_))
        return self.recv()

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self.sock.close()


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _read_line(proc: subprocess.Popen, timeout: float) -> bytes:
    """First stdout line of ``proc``, or b"" on EOF or timeout."""
    fd = proc.stdout.fileno()
    buf = b""
    deadline = time.monotonic() + timeout
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while b"\n" not in buf:
            left = deadline - time.monotonic()
            if left <= 0 or not sel.select(left):
                return b""
            chunk = os.read(fd, 4096)
            if not chunk:
                return b""
            buf += chunk
    return buf


class Server:
    """`wandrelay serve` on a loopback port, run from the checkout's sources."""

    def __init__(self, src: Path, data_dir: Path):
        self.src = src
        self.data_dir = data_dir
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        err_path = self.data_dir.with_name(self.data_dir.name + ".stderr")
        for _ in range(5):
            port = _free_port()
            with open(err_path, "ab") as err:
                proc = subprocess.Popen(
                    [sys.executable, "-m", "wandrelay.cli", "serve",
                     "--listen", f"127.0.0.1:{port}", "--data-dir", str(self.data_dir)],
                    stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err, env=env,
                )
            line = _read_line(proc, READY_TIMEOUT_S)
            if line.startswith(b"ready"):
                self.proc, self.port = proc, port
                return
            _terminate(proc)
            if b"AddressInUse" not in err_path.read_bytes():
                break
        raise RuntimeError(f"wandrelay serve did not come up; see {err_path}")

    def stop(self) -> int:
        """SIGTERM (the server snapshots its queues) and wait for the exit code.

        The serve loop looks for a shutdown request only between polls of
        its listening socket, every 0.5 s, so connection attempts wake it
        until the process has exited; otherwise the restart time would carry
        a uniformly random wait of up to half a second. A connection that
        comes before the signal handler has asked for the shutdown is served
        and closed, and the next one wakes the loop again.
        """
        proc, self.proc = self.proc, None
        if proc is None:
            return 0
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + STOP_TIMEOUT_S
            while proc.poll() is None and time.monotonic() < deadline:
                try:
                    socket.create_connection(("127.0.0.1", self.port), timeout=1.0).close()
                except OSError:
                    pass
                try:
                    proc.wait(timeout=WAKE_RETRY_S)
                except subprocess.TimeoutExpired:
                    pass
        return _wait(proc)

    def vm_hwm_mb(self) -> float:
        """Peak resident set of the server process, from /proc."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")


def _terminate(proc: subprocess.Popen) -> int:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    return _wait(proc)


def _wait(proc: subprocess.Popen) -> int:
    try:
        code = proc.wait(timeout=STOP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = -9
    if proc.stdout is not None:
        proc.stdout.close()
    return code
