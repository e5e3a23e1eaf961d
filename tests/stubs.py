"""Local recording stub servers for the embedding and generation services."""

from __future__ import annotations

import hashlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np


def float32_vector(text: str, dim: int, decades: int = 0) -> list[float]:
    """A seeded normal vector per text, float32-valued, for ``embed_fn``.

    Each entry is scaled by 10**k for a seeded k in [-decades, decades].
    """
    seed = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "little")
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=dim) * 10.0 ** rng.integers(-decades, decades + 1, size=dim)
    return vec.astype(np.float32).tolist()


class StubService:
    """A tiny HTTP server serving /embed and /generate, recording every request.

    ``embed_fn(text, dim) -> list[float]`` and ``generate_fn(prompt) -> str``
    control responses.  ``fail_times`` makes the first N POSTs return
    ``status`` (500 by default), with a ``Location: location`` header if
    ``location`` is given, for retry and redirect tests.  ``body``, if given,
    is the raw body of every 200 response on either path.  ``short_by`` makes
    every 200 response declare that many more bytes than it sends, so the
    client sees the connection close mid-body.  Every GET is answered 404.

    Each request is recorded as ``{"method", "path", "content_type", "raw",
    "body"}``: ``raw`` is the request body as received, ``body`` its JSON.
    """

    def __init__(self, embed_fn=None, generate_fn=None, fail_times: int = 0, status: int = 500,
                 body: bytes | None = None, location: str | None = None, short_by: int = 0):
        self.embed_fn = embed_fn or (lambda text, dim: [float(len(text))] * dim)
        self.generate_fn = generate_fn or (lambda prompt: "stub summary.")
        self.fail_times = fail_times
        self.status = status
        self.body = body
        self.location = location
        self.short_by = short_by
        self.requests: list[dict] = []
        self._lock = threading.Lock()

        stub = self

        class Handler(BaseHTTPRequestHandler):
            def _record(self, raw: bytes, body) -> None:
                stub.requests.append({"method": self.command, "path": self.path,
                                      "content_type": self.headers.get("Content-Type"),
                                      "raw": raw, "body": body})

            def do_GET(self):
                with stub._lock:
                    self._record(b"", None)
                self.send_response(404)
                self.end_headers()

            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                raw = self.rfile.read(length)
                body = json.loads(raw or b"{}")
                with stub._lock:
                    self._record(raw, body)
                    if stub.fail_times > 0:
                        stub.fail_times -= 1
                        self.send_response(stub.status)
                        if stub.location is not None:
                            self.send_header("Location", stub.location)
                        self.end_headers()
                        return
                if self.path == "/embed":
                    dim = body["dim"]
                    payload = {"vectors": [stub.embed_fn(t, dim) for t in body["texts"]], "dim": dim}
                elif self.path == "/generate":
                    payload = {"text": stub.generate_fn(body["prompt"])}
                else:
                    self.send_response(404)
                    self.end_headers()
                    return
                data = json.dumps(payload).encode("utf-8") if stub.body is None else stub.body
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data) + stub.short_by))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    @property
    def request_count(self) -> int:
        with self._lock:
            return len(self.requests)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._server.server_close()
        return False
