"""Deterministic embedding service for the remote-embed workload.

Run as a process of its own: ``python3 perfbench/stub.py``.  It binds
127.0.0.1 on a free port, prints the port on the first line of stdout, and
serves until it is terminated.

* ``POST /embed`` with ``{"texts": [...], "dim": d}`` returns
  ``{"vectors": [[...], ...], "dim": d}``.  Each vector is a float32 unit
  vector drawn from a generator seeded by the BLAKE2b digest of its text,
  so equal texts always get bit-identical vectors.
* ``GET /stats`` returns ``{"requests": n, "texts": m}``: the ``/embed``
  requests and texts served so far.
"""

from __future__ import annotations

import hashlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np


def text_vector(text: str, dim: int) -> list[float]:
    seed = int.from_bytes(hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "little")
    vec = np.random.default_rng(seed).standard_normal(dim)
    return (vec / np.linalg.norm(vec)).astype(np.float32).tolist()


class Counters:
    def __init__(self):
        self.requests = 0
        self.texts = 0
        self.lock = threading.Lock()


def make_handler(counters: Counters):
    class Handler(BaseHTTPRequestHandler):
        def _reply(self, code: int, payload: dict | None = None) -> None:
            data = json.dumps(payload).encode("utf-8") if payload is not None else b""
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path != "/stats":
                self._reply(404)
                return
            with counters.lock:
                stats = {"requests": counters.requests, "texts": counters.texts}
            self._reply(200, stats)

        def do_POST(self):
            if self.path != "/embed":
                self._reply(404)
                return
            length = int(self.headers.get("Content-Length", "0"))
            try:
                body = json.loads(self.rfile.read(length))
                texts, dim = body["texts"], int(body["dim"])
            except (ValueError, KeyError, TypeError):
                self._reply(400)
                return
            with counters.lock:
                counters.requests += 1
                counters.texts += len(texts)
            self._reply(200, {"vectors": [text_vector(t, dim) for t in texts], "dim": dim})

        def log_message(self, *args):
            pass

    return Handler


def main() -> None:
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(Counters()))
    server.daemon_threads = True
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
