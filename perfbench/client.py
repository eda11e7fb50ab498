"""Closed-loop HTTP clients for serve-mixed, run in a process of their own.

Reads one JSON object from standard input — ``port``, ``seconds``, the
``questions`` as ``[kind, body, expected]`` and one index ``stream`` per
client, repeated when it runs out — and writes one JSON object to standard output: the ``elapsed``
seconds of the loop and, per request, ``[sent, answered, question,
correct, decided]`` with times from ``time.perf_counter`` (a system-wide
monotonic clock).  Each client thread sends its next request only after
the previous answer arrived.

Keeping the clients out of the server's process keeps their work off the
interpreter lock the server's threads share.  Standard library only.
"""

from __future__ import annotations

import itertools
import json
import socket
import sys
import threading
import time


def post(port: int, kind: str, body: bytes, expected: bool):
    """One request; returns (answer correct, verdict decided).

    A raw socket rather than ``http.client``: the server closes every
    connection after one response, and the lighter client leaves more of
    the machine to the server it measures.
    """
    head = (
        f"POST /v1/{kind} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1")
    chunks = []
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=120) as sock:
            sock.sendall(head + body)
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        status_line, _, rest = b"".join(chunks).partition(b"\r\n")
        payload = json.loads(rest.partition(b"\r\n\r\n")[2])
    except (OSError, ValueError):
        return False, False
    if status_line.split(b" ")[1:2] != [b"200"]:
        return False, False
    decided = payload.get("verdict") == "ok"
    answer = payload.get("found" if kind == "dominance" else "equivalent")
    return (not decided) or answer == expected, decided


def run(spec: dict) -> dict:
    port, seconds, questions = spec["port"], spec["seconds"], spec["questions"]
    results = [[] for _ in spec["streams"]]
    start = time.perf_counter()
    stop_at = start + seconds

    def client(stream, samples) -> None:
        for qid in itertools.cycle(stream):
            began = time.perf_counter()
            if began >= stop_at:
                return
            kind, body, expected = questions[qid]
            correct, decided = post(port, kind, body.encode(), expected)
            samples.append([began, time.perf_counter(), qid, correct, decided])

    threads = [
        threading.Thread(target=client, args=(stream, samples))
        for stream, samples in zip(spec["streams"], results)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {
        "elapsed": time.perf_counter() - start,
        "samples": [sample for samples in results for sample in samples],
    }


if __name__ == "__main__":
    json.dump(run(json.load(sys.stdin)), sys.stdout)
