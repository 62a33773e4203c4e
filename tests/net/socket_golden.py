#!/usr/bin/env python3
"""The socket path must reproduce the replay golden byte for byte.

Starts `decision_server --listen 0 --flush-idle 3600`, streams a recorded
trace to it with `net_loadgen`, drains the server with SIGTERM (exit status
0 required) and compares its telemetry CSV with the golden.  The long idle
flush keeps wall-clock batch closes out of the run, so batches close only
on watermark advance and the loadgen's final FLUSH: that is what makes the
socket path bit-reproducible (see docs/serving.md).

usage: socket_golden.py <decision_server> <net_loadgen> <trace.csv>
                        <golden.csv> <out-dir>
"""
import os
import signal
import subprocess
import sys


def first_difference(want, got):
    for n, (w, g) in enumerate(zip(want, got), start=1):
        if w != g:
            return n, w, g
    n = min(len(want), len(got)) + 1
    return (n, want[n - 1] if n <= len(want) else "(end of file)",
            got[n - 1] if n <= len(got) else "(end of file)")


def main():
    server_bin, loadgen_bin, trace, golden, out_dir = sys.argv[1:6]
    os.makedirs(out_dir, exist_ok=True)
    prefix = os.path.join(out_dir, "net")
    telemetry = prefix + "_telemetry.csv"
    if os.path.exists(telemetry):
        os.remove(telemetry)
    server = subprocess.Popen(
        [server_bin, "--listen", "0", "--flush-idle", "3600",
         "--out", prefix],
        stdout=subprocess.PIPE, text=True)
    try:
        line = server.stdout.readline()
        if "listening on" not in line:
            print(f"FAIL: expected 'listening on', got {line!r}")
            return 1
        # "listening on 127.0.0.1:<port> (admission)"
        port = line.split(":")[1].split()[0]
        loadgen = subprocess.run(
            [loadgen_bin, "--port", port, "--trace", trace, "--quiet"],
            timeout=300)
        if loadgen.returncode != 0:
            print(f"FAIL: net_loadgen exited with {loadgen.returncode}")
            return 1
        server.send_signal(signal.SIGTERM)
        code = server.wait(timeout=60)
        if code != 0:
            print(f"FAIL: decision_server drained to exit status {code}")
            return 1
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()

    with open(golden, "rb") as f:
        want = f.read()
    with open(telemetry, "rb") as f:
        got = f.read()
    if want != got:
        n, w, g = first_difference(
            want.decode(errors="replace").split("\n"),
            got.decode(errors="replace").split("\n"))
        print(f"FAIL: {telemetry} differs from {golden} at line {n}:\n"
              f"  golden: {w}\n  output: {g}")
        return 1
    lines = got.count(b"\n")
    print(f"ok: socket telemetry matches {os.path.basename(golden)} "
          f"({lines} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
