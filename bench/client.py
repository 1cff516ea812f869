"""The load generator's raw HTTP client and its /proc readers.

One keep-alive connection, ``TCP_NODELAY``, each request written with a
single ``sendall`` — the client adds no segment-coalescing delay of its
own, so what it times is the server's.
"""

import json
import os
import socket
import time


class ProtocolError(RuntimeError):
    """The peer closed the connection or sent an unframed response."""


def read_response(recv, pending=b""):
    """Read one ``Content-Length``-framed HTTP response from ``recv``.

    Returns ``(status, body, rest)``; ``rest`` holds bytes already read
    that belong to the next response.
    """
    buffer = pending
    while b"\r\n\r\n" not in buffer:
        chunk = recv(65536)
        if not chunk:
            raise ProtocolError("connection closed inside response head")
        buffer += chunk
    head, _, body = buffer.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    try:
        status = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise ProtocolError("bad status line %r" % lines[0][:80])
    length = None
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    if length is None:
        raise ProtocolError("response without Content-Length")
    parts = [body]
    have = len(body)
    while have < length:
        chunk = recv(1 << 20)
        if not chunk:
            raise ProtocolError("connection closed inside response body")
        parts.append(chunk)
        have += len(chunk)
    body = b"".join(parts)
    return status, body[:length], body[length:]


class Client:
    """A closed-loop client: one connection, one request in flight.

    With ``quick_ack`` set the kernel ACKs what the server sends at once
    instead of up to 40 ms later, as a stock client's does.
    """

    def __init__(self, host, port, timeout=None):
        self._socket = socket.create_connection((host, port), timeout)
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._pending = b""
        self.quick_ack = False

    def request(self, method, path, payload=None):
        """``(status, body bytes, latency seconds)`` of one request.

        Latency runs from the first request byte written to the last
        response byte read.
        """
        body = b"" if payload is None else json.dumps(payload).encode()
        message = (
            "%s %s HTTP/1.1\r\nHost: bench\r\n"
            "Content-Type: application/json\r\nContent-Length: %d\r\n\r\n"
            % (method, path, len(body))
        ).encode() + body
        started = time.perf_counter()
        self._socket.sendall(message)
        if self.quick_ack:
            # not sticky: sending put the socket back into delayed-ACK mode
            self._socket.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        status, body, self._pending = read_response(
            self._socket.recv, self._pending
        )
        return status, body, time.perf_counter() - started

    def close(self):
        self._socket.close()


# /proc readers ---------------------------------------------------------------


def process_tree(pid):
    """``pid`` and every live descendant, parents first."""
    tree = []
    stack = [pid]
    while stack:
        current = stack.pop()
        tree.append(current)
        try:
            tasks = os.listdir("/proc/%d/task" % current)
        except OSError:
            continue
        for task in tasks:
            try:
                with open("/proc/%d/task/%s/children" % (current, task)) as f:
                    stack.extend(int(child) for child in f.read().split())
            except OSError:
                pass
    return tree


def tree_cpu_ns(pids):
    """CPU nanoseconds consumed so far by every thread of ``pids``.

    Field 1 of ``schedstat``: nanosecond resolution, where the ticks of
    ``/proc/<pid>/stat`` are too coarse for millisecond requests.
    """
    total = 0
    for pid in pids:
        try:
            tasks = os.listdir("/proc/%d/task" % pid)
        except OSError:
            continue
        for task in tasks:
            try:
                with open("/proc/%d/task/%s/schedstat" % (pid, task)) as f:
                    total += int(f.read().split()[0])
            except (OSError, IndexError, ValueError):
                pass
    return total


def tree_peak_rss_kb(pids):
    """Sum of ``VmHWM`` (peak resident set, KiB) over ``pids``."""
    total = 0
    for pid in pids:
        try:
            with open("/proc/%d/status" % pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
                        break
        except OSError:
            pass
    return total
