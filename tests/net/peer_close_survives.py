#!/usr/bin/env python3
"""decision_server must outlive clients that close with answers unread.

Starts `decision_server --listen 0`, then runs rounds of: connect, send a
burst of request frames and a FLUSH, close without reading.  Answering a
burst takes more than one write, and a peer that has gone away turns a
later write into a broken pipe; that must close one connection, not kill
the server with SIGPIPE.  Afterwards a fresh connection must still get its
response, and SIGTERM must drain the server to exit status 0.

usage: peer_close_survives.py <path/to/decision_server> [rounds] [burst]
"""
import socket
import struct
import subprocess
import sys
import tempfile

HEADER = struct.Struct("<IBBH")  # length, type, version, reserved
REQUEST = 1
RESPONSE = 2
FLUSH = 4
VERSION = 1


def request_frame(request_id, now):
    # now, id, bandwidth, speed, angle, distance, holding, x, y, heading,
    # then service/kind/priority bytes and 5 bytes of padding (88 bytes).
    payload = struct.pack("<dQdddddddd3B5x", now, request_id, 1.0, 30.0,
                          10.0, 100.0, 60.0, 10.0, 10.0, 0.0, 0, 0, 0)
    return HEADER.pack(len(payload), REQUEST, VERSION, 0) + payload


def flush_frame():
    return HEADER.pack(0, FLUSH, VERSION, 0)


def read_exact(sock, n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise RuntimeError("server closed the connection")
        data += chunk
    return data


def main():
    server_bin = sys.argv[1]
    rounds = int(sys.argv[2]) if len(sys.argv) > 2 else 50
    burst = int(sys.argv[3]) if len(sys.argv) > 3 else 2000
    with tempfile.TemporaryDirectory() as tmp:
        server = subprocess.Popen(
            [server_bin, "--listen", "0", "--flush-idle", "3600",
             "--out", tmp + "/peer_close"],
            stdout=subprocess.PIPE, text=True)
        try:
            line = server.stdout.readline()
            # "listening on 127.0.0.1:<port> (admission)"
            port = int(line.split(":")[1].split()[0])
            next_id = 0
            for _ in range(rounds):
                frames = [request_frame(next_id + i, 0.1 + 0.001 * (next_id + i))
                          for i in range(burst)]
                next_id += burst
                with socket.create_connection(("127.0.0.1", port)) as s:
                    s.sendall(b"".join(frames) + flush_frame())
                if server.poll() is not None:
                    break
            if server.poll() is None:
                with socket.create_connection(("127.0.0.1", port),
                                              timeout=10) as s:
                    s.sendall(request_frame(next_id, 0.1 + 0.001 * next_id) +
                              flush_frame())
                    length, kind, _, _ = HEADER.unpack(read_exact(s, 8))
                    payload = read_exact(s, length)
                    if kind != RESPONSE:
                        print(f"FAIL: expected a response frame, got type {kind}")
                        return 1
                    (answered,) = struct.unpack_from("<Q", payload)
                    if answered != next_id:
                        print(f"FAIL: response for id {answered}, sent {next_id}")
                        return 1
            if server.poll() is not None:
                print(f"FAIL: decision_server exited with {server.returncode} "
                      "while peers closed with responses pending")
                return 1
            server.terminate()
            code = server.wait(timeout=30)
            if code != 0:
                print(f"FAIL: decision_server drained to exit status {code}")
                return 1
            print(f"ok: {rounds} closed-unread bursts of {burst}, then served")
            return 0
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()


if __name__ == "__main__":
    sys.exit(main())
