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
    control responses.  ``fail_times`` makes the first N requests return
    ``status`` (500 by default), for retry tests.  ``body``, if given, is the
    raw body of every 200 response on either path.
    """

    def __init__(self, embed_fn=None, generate_fn=None, fail_times: int = 0, status: int = 500,
                 body: bytes | None = None):
        self.embed_fn = embed_fn or (lambda text, dim: [float(len(text))] * dim)
        self.generate_fn = generate_fn or (lambda prompt: "stub summary.")
        self.fail_times = fail_times
        self.status = status
        self.body = body
        self.requests: list[dict] = []
        self._lock = threading.Lock()

        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", "0"))
                body = json.loads(self.rfile.read(length) or b"{}")
                with stub._lock:
                    stub.requests.append({"path": self.path, "body": body})
                    if stub.fail_times > 0:
                        stub.fail_times -= 1
                        self.send_response(stub.status)
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
                self.send_header("Content-Length", str(len(data)))
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
