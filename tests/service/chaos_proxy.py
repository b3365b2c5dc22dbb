"""A mode-switchable TCP chaos proxy for federation fault tests.

:class:`ChaosProxy` sits between an agent (or client) and a live
coordinator and misbehaves on command.  Modes, switchable at runtime
while connections are in flight:

* ``"pass"`` -- forward bytes both ways faithfully (the control case);
* ``"refuse"`` -- accept and immediately close every new connection
  (connection-dropped errors on the client side);
* ``"blackhole"`` -- accept connections and read the request bytes but
  never forward them and never answer (the heartbeat-eating partition:
  the caller blocks until its socket timeout).  A partition cuts the
  connections already open too: while the base mode is
  ``"blackhole"``, relays drop every byte, so a keep-alive client
  cannot tunnel through the partition on a pooled connection;
* ``"slow"`` -- forward, but trickle the upstream response back with a
  delay per chunk (slow-read / thundering-timeout behavior);
* ``"half-close"`` -- forward the request, relay roughly half of the
  response bytes, then sever the connection (torn replies).

Everything is stdlib sockets and daemon threads; ``stop()`` (or the
context manager) tears the listener down.  New connections observe the
mode at accept time (and open ones a flip to ``"blackhole"``), so a
test can let a registration through in ``"pass"`` and then flip to
``"blackhole"`` to partition heartbeats.
"""

import socket
import threading
import time

#: Bytes per relay read.
_CHUNK = 4096

#: Modes the proxy understands.
MODES = ("pass", "refuse", "blackhole", "slow", "half-close")


class ChaosProxy:
    """Listen on an ephemeral port and relay to ``(host, port)`` chaotically.

    Parameters:
        upstream_host: the real server's host.
        upstream_port: the real server's port.
        mode: initial misbehavior mode (default ``"pass"``).
        slow_delay: per-chunk sleep in ``"slow"`` mode, seconds.
    """

    def __init__(self, upstream_host: str, upstream_port: int,
                 mode: str = "pass", slow_delay: float = 0.5):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        self.upstream = (upstream_host, upstream_port)
        self.slow_delay = slow_delay
        self._mode = mode
        self._once: list[str] = []
        self._mode_lock = threading.Lock()
        self._stopping = threading.Event()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(16)
        self.port = self._listener.getsockname()[1]
        self.url = f"http://127.0.0.1:{self.port}"
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-proxy-accept", daemon=True)
        self._accept_thread.start()

    @property
    def mode(self) -> str:
        """The current misbehavior mode."""
        with self._mode_lock:
            return self._mode

    @mode.setter
    def mode(self, value: str) -> None:
        if value not in MODES:
            raise ValueError(
                f"unknown mode {value!r}; expected one of {MODES}")
        with self._mode_lock:
            self._mode = value

    def fail_next(self, mode: str, count: int = 1) -> None:
        """Apply ``mode`` to only the next ``count`` connections.

        One-shot modes are consumed at accept time, after which the
        base :attr:`mode` applies again -- the natural shape for
        "flaky" tests: refuse two connections, let the third through,
        and assert the client's retry loop absorbed the flakiness.
        """
        if mode not in MODES:
            raise ValueError(
                f"unknown mode {mode!r}; expected one of {MODES}")
        with self._mode_lock:
            self._once.extend([mode] * count)

    def _next_mode(self) -> str:
        with self._mode_lock:
            if self._once:
                return self._once.pop(0)
            return self._mode

    def stop(self) -> None:
        """Close the listener; in-flight relays die with their sockets."""
        self._stopping.set()
        try:
            self._listener.close()
        except OSError:
            pass

    def __enter__(self) -> "ChaosProxy":
        """Context-manager entry: the proxy itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit stops the proxy."""
        self.stop()

    # -- internals -----------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                client, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            threading.Thread(target=self._handle, args=(client,),
                             daemon=True).start()

    def _handle(self, client: socket.socket) -> None:
        mode = self._next_mode()
        try:
            if mode == "refuse":
                client.close()
                return
            if mode == "blackhole":
                self._swallow(client)
                return
            self._relay(client, mode)
        except OSError:
            pass
        finally:
            try:
                client.close()
            except OSError:
                pass

    def _swallow(self, client: socket.socket) -> None:
        """Read and discard until the peer gives up (never answer)."""
        client.settimeout(1.0)
        while not self._stopping.is_set():
            try:
                if not client.recv(_CHUNK):
                    return
            except socket.timeout:
                continue
            except OSError:
                return

    def _relay(self, client: socket.socket, mode: str) -> None:
        upstream = socket.create_connection(self.upstream, timeout=10.0)
        try:
            up = threading.Thread(
                target=self._pump, args=(client, upstream, "pass"),
                daemon=True)
            up.start()
            self._pump(upstream, client, mode)
            up.join(timeout=10.0)
        finally:
            try:
                upstream.close()
            except OSError:
                pass

    def _pump(self, source: socket.socket, sink: socket.socket,
              mode: str) -> None:
        """Copy source -> sink, mangled according to ``mode``."""
        half_close_budget = None
        source.settimeout(1.0)
        while not self._stopping.is_set():
            try:
                chunk = source.recv(_CHUNK)
            except socket.timeout:
                continue
            except OSError:
                return
            if not chunk:
                try:
                    sink.shutdown(socket.SHUT_WR)
                except OSError:
                    pass
                return
            if self.mode == "blackhole":
                continue  # partitioned: the bytes vanish
            if mode == "slow":
                time.sleep(self.slow_delay)
            if mode == "half-close":
                # Cut mid-*body*: truncating inside the headers makes
                # http.client see a headerless-but-valid empty reply,
                # which is undetectably wrong; a short body against the
                # Content-Length header is the real torn-reply failure.
                if half_close_budget is None:
                    header_end = chunk.find(b"\r\n\r\n")
                    if header_end != -1:
                        body = len(chunk) - header_end - 4
                        half_close_budget = header_end + 4 + body // 2
                    else:
                        half_close_budget = max(1, len(chunk) // 2)
                chunk = chunk[:half_close_budget]
                try:
                    sink.sendall(chunk)
                finally:
                    try:
                        sink.close()
                    except OSError:
                        pass
                return
            try:
                sink.sendall(chunk)
            except OSError:
                return
