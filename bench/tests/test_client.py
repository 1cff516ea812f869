import os
import socket
import threading

import pytest

from bench import client


def _recv_from(chunks):
    chunks = list(chunks)
    return lambda size: chunks.pop(0) if chunks else b""


def test_response_framing_across_arbitrary_segment_boundaries():
    wire = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"content-length: 11\r\n\r\nhello world"
            b"HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\nno")
    for cut in (1, 7, 40, 75, 80, len(wire) - 1):
        recv = _recv_from([wire[:cut], wire[cut:]])
        status, body, rest = client.read_response(recv)
        assert (status, body) == (200, b"hello world")
        status, body, rest = client.read_response(recv, rest)
        assert (status, body, rest) == (404, b"no", b"")


def test_truncated_or_unframed_responses_raise():
    with pytest.raises(client.ProtocolError):
        client.read_response(_recv_from([b"HTTP/1.1 200 OK\r\nContent-Le"]))
    with pytest.raises(client.ProtocolError):
        client.read_response(_recv_from(
            [b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab"]))
    with pytest.raises(client.ProtocolError):
        client.read_response(_recv_from([b"HTTP/1.1 200 OK\r\n\r\nbody"]))


def test_request_is_one_framed_message_on_a_keep_alive_connection():
    listener = socket.create_server(("127.0.0.1", 0))
    received = []

    def serve():
        connection, _ = listener.accept()
        with connection:
            for reply in (b"one", b"two"):
                data = b""
                while not data.endswith(b'{"k": 1}'):
                    data += connection.recv(65536)
                received.append(data)
                connection.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\n" + reply)

    thread = threading.Thread(target=serve)
    thread.start()
    try:
        peer = client.Client(*listener.getsockname(), timeout=5)
        try:
            assert peer.request("POST", "/query", {"k": 1})[:2] == (200, b"one")
            peer.quick_ack = True  # changes the kernel's ACKs, not the bytes
            status, body, latency = peer.request("POST", "/query", {"k": 1})
            assert (status, body) == (200, b"two") and latency > 0
        finally:
            peer.close()
    finally:
        thread.join(timeout=5)
        listener.close()
    assert not thread.is_alive()
    assert received[0].startswith(b"POST /query HTTP/1.1\r\n")
    assert b"Content-Length: 8\r\n\r\n" in received[0]


def test_schedstat_tree_walk_on_this_process():
    pid = os.getpid()
    assert client.process_tree(pid)[0] == pid
    before = client.tree_cpu_ns([pid])
    total = 0
    for value in range(300000):
        total += value * value
    burnt = client.tree_cpu_ns([pid]) - before
    assert 0 < burnt < 60e9
    assert client.tree_peak_rss_kb([pid]) > 1000
    assert client.tree_cpu_ns([2 ** 22 + 12345]) == 0  # no such process
