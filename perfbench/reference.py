"""The references: the units the benchmark's times are reported in.

This machine shares its host with other tenants, and its speed drifts by
10-40% from one minute to the next.  Every run therefore also times a
fixed pure-Python loop, many times over the run, and reports each time
as a multiple of the loop's typical time just before it (unit ``ref``).
A slow minute slows the loop and the program alike, so the ratio stays
put; a change to the program moves it as it moves the seconds.

A workload that keeps two processes busy is slowed by a busy host more
than one that keeps one busy, so the loop runs on as many processes at
once as the workload keeps busy: here, and in ``width - 1`` helper
processes (``python3 reference.py --helper``, one count per input line,
one JSON list of times per output line).

The service spends most of a request outside the program's Python, in
connecting, waking processes and moving bytes, and its times did not
follow the loop's.  Its reference is a loopback TCP round trip on a
fresh connection to an echo helper (``RoundTrip``).

The loop does the kind of work the program does: small objects,
attribute access, method calls, tuple and frozenset hashing, dict and
set building, sorting and generators.  It imports nothing of the
program, so no change to the program changes it.
"""

from __future__ import annotations

import gc
import json
import socket
import struct
import subprocess
import sys
import threading
import time
from typing import List


class _Atom:
    __slots__ = ("name", "args")

    def __init__(self, name, args):
        self.name = name
        self.args = args

    def key(self):
        return (self.name, len(self.args))


def _atoms(count: int):
    x = 12345
    for _ in range(count):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        yield _Atom("R%d" % (x % 7), tuple((x >> shift) % 11 for shift in (3, 9, 15)))


def loop() -> int:
    """One run of the reference work; returns a checksum."""
    index = {}
    for atom in _atoms(1500):
        index.setdefault(atom.key(), []).append(atom)
    total = 0
    for key, group in sorted(index.items()):
        seen = set()
        for atom in group:
            seen.add(frozenset(atom.args))
        total += len(seen) + sorted(a.args for a in group)[len(group) // 2][0]
    return total


CHECKSUM = loop()


def sample(count: int) -> List[float]:
    """Time ``count`` runs of the loop in this process, one time each.

    The garbage collector is off while the loop runs: a collection's cost
    grows with every object the program holds, and the loop must not
    measure the program's heap.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(count):
            start = time.perf_counter()
            if loop() != CHECKSUM:
                raise RuntimeError("the reference loop is not deterministic")
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return times


class Reference:
    """Times the loop on ``width`` processes at once; ``close`` stops the
    helpers and waits for them."""

    # Seconds a ref counts as where a time must be given in seconds
    # (``setup_s``): about the loop's time on the 2-CPU container, which
    # ranged from 2.0 ms to 5.4 ms over one afternoon.
    seconds_per_ref = 0.004

    def __init__(self, width: int = 1) -> None:
        self.width = width
        self.helpers = [
            subprocess.Popen([sys.executable, __file__, "--helper"],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for _ in range(width - 1)
        ]

    def sample(self, count: int) -> List[float]:
        for helper in self.helpers:
            helper.stdin.write(f"{count}\n")
            helper.stdin.flush()
        times = sample(count)
        for helper in self.helpers:
            line = helper.stdout.readline()
            if not line:
                raise RuntimeError("a reference helper process ended early")
            times += json.loads(line)
        return times

    def close(self) -> None:
        for helper in self.helpers:
            helper.stdin.close()
        for helper in self.helpers:
            try:
                helper.wait(timeout=30)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()
        self.helpers = []


_PAYLOAD = b"x" * 200


def reset_on_close(sock: socket.socket) -> None:
    """Make ``sock`` end with a reset when closed, so that neither end
    keeps the connection in TIME_WAIT.  With a connection per request a
    run otherwise leaves over 10,000 of those behind for a minute, and the
    next run would open its connections among them."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))


def _exchange(conn: socket.socket) -> None:
    """Read a whole payload from ``conn`` and send it back."""
    data = b""
    while len(data) < len(_PAYLOAD):
        chunk = conn.recv(len(_PAYLOAD) - len(data))
        if not chunk:
            raise RuntimeError("the echo connection closed early")
        data += chunk
    conn.sendall(data)


class RoundTrip(Reference):
    """Times loopback TCP round trips to an echo helper process
    (``python3 reference.py --echo``), each on a fresh connection, as the
    service benchmark's clients make their requests.  One time covers
    ``trips`` round trips."""

    trips = 20
    seconds_per_ref = 0.0015  # 1.1-1.7 ms on the 2-CPU container

    def __init__(self) -> None:
        self.width = 1
        self.helpers = [subprocess.Popen([sys.executable, __file__, "--echo"],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         text=True)]
        line = self.helpers[0].stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("the echo helper did not start")
        self.port = int(line)

    def sample(self, count: int) -> List[float]:
        times = []
        for _ in range(count):
            start = time.perf_counter()
            for _ in range(self.trips):
                with socket.create_connection(("127.0.0.1", self.port)) as conn:
                    reset_on_close(conn)
                    conn.sendall(_PAYLOAD)
                    data = b""
                    while len(data) < len(_PAYLOAD):
                        chunk = conn.recv(len(_PAYLOAD))
                        if not chunk:
                            raise RuntimeError("the echo helper closed a connection early")
                        data += chunk
            times.append(time.perf_counter() - start)
        return times


def _echo() -> None:
    """The echo helper: serve round trips until standard input closes."""
    server = socket.create_server(("127.0.0.1", 0))
    print(server.getsockname()[1], flush=True)

    def serve():
        while True:
            conn, _ = server.accept()
            with conn:
                _exchange(conn)

    threading.Thread(target=serve, daemon=True).start()
    sys.stdin.read()


def typical(times: List[float]) -> float:
    """The mean of the middle 80% of ``times``: it follows a slowdown that
    hits many samples, as a mean does, and ignores a few wild ones."""
    ordered = sorted(times)
    cut = len(ordered) // 10
    middle = ordered[cut:len(ordered) - cut] or ordered
    return sum(middle) / len(middle)


if __name__ == "__main__" and sys.argv[1:] == ["--helper"]:
    for request in sys.stdin:
        print(json.dumps(sample(int(request))), flush=True)
elif __name__ == "__main__" and sys.argv[1:] == ["--echo"]:
    _echo()
