"""HTTP plumbing shared by the remote embedding and generation clients.

Both services are simple JSON-over-POST endpoints.  Calls are retried on
connection, timeout, 5xx, 408 and 429 failures, and responses are cached on
disk so reruns are idempotent and issue zero network requests.  Cache writes
go through a temp file + rename so concurrent writers cannot leave partial
files.
"""

from __future__ import annotations

import hashlib
import logging
import os
import struct
import time
from pathlib import Path

import numpy as np
import requests

from .errors import RemoteServiceError

logger = logging.getLogger(__name__)

DEFAULT_TIMEOUT_MS = 30_000
DEFAULT_RETRIES = 3
_COUNT_HEADER = struct.Struct("<Q")
# Client errors worth a retry: request timeout and too many requests.
_RETRIABLE_4XX = (408, 429)


def http_timeout_seconds() -> float:
    """Resolve the HTTP timeout from TBVAD_HTTP_TIMEOUT_MS (milliseconds)."""
    raw = os.environ.get("TBVAD_HTTP_TIMEOUT_MS", "")
    try:
        ms = int(raw) if raw else DEFAULT_TIMEOUT_MS
    except ValueError:
        ms = DEFAULT_TIMEOUT_MS
    return ms / 1000.0


def default_cache_dir() -> Path | None:
    raw = os.environ.get("TBVAD_CACHE_DIR", "")
    return Path(raw) if raw else None


def post_json(url: str, payload: dict, retries: int = DEFAULT_RETRIES,
              backoff_s: float = 0.2, session: requests.Session | None = None) -> dict:
    """POST a JSON payload, retrying transient failures.

    Connection errors, timeouts, invalid JSON and non-200 responses are
    retried, except a 4xx other than 408 (timeout) and 429 (too many
    requests): the request itself is at fault, so it fails at once.
    Raises RemoteServiceError carrying the attempt count.
    """
    sess = session or requests
    timeout = http_timeout_seconds()
    last_error = "no attempt made"
    for attempt in range(1, retries + 1):
        try:
            resp = sess.post(url, json=payload, timeout=timeout)
        except (requests.ConnectionError, requests.Timeout) as e:
            last_error = f"{type(e).__name__}: {e}"
        else:
            if resp.status_code == 200:
                try:
                    return resp.json()
                except ValueError as e:
                    last_error = f"invalid JSON in response: {e}"
            else:
                last_error = f"HTTP {resp.status_code}"
                if 400 <= resp.status_code < 500 and resp.status_code not in _RETRIABLE_4XX:
                    raise RemoteServiceError(f"POST {url} failed: {last_error}", attempts=attempt)
        if attempt < retries:
            time.sleep(backoff_s * attempt)
    raise RemoteServiceError(f"POST {url} failed: {last_error}", attempts=retries)


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


class VectorCache:
    """On-disk cache of float32 vectors, one file per key.

    File layout: an 8-byte little-endian count followed by that many raw
    little-endian float32 values.  Keys are SHA-256 over
    (endpoint, dim, text), NUL-separated.
    """

    def __init__(self, cache_dir: str | Path):
        self.dir = Path(cache_dir)
        self.dir.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def key(endpoint: str, dim: int, text: str) -> str:
        h = hashlib.sha256()
        h.update(endpoint.encode("utf-8"))
        h.update(b"\x00")
        h.update(str(dim).encode("ascii"))
        h.update(b"\x00")
        h.update(text.encode("utf-8"))
        return h.hexdigest()

    def _path(self, key: str) -> Path:
        return self.dir / f"{key}.vec"

    def get(self, key: str) -> np.ndarray | None:
        path = self._path(key)
        if not path.exists():
            return None
        data = path.read_bytes()
        if len(data) < _COUNT_HEADER.size:
            logger.warning("dropping truncated cache file %s", path)
            return None
        (count,) = _COUNT_HEADER.unpack_from(data)
        expected = _COUNT_HEADER.size + 4 * count
        if len(data) != expected:
            logger.warning("dropping corrupt cache file %s", path)
            return None
        return np.frombuffer(data, dtype="<f4", offset=_COUNT_HEADER.size, count=count).copy()

    def put(self, key: str, vector: np.ndarray) -> None:
        vec = np.ascontiguousarray(vector, dtype="<f4")
        _atomic_write(self._path(key), _COUNT_HEADER.pack(vec.size) + vec.tobytes())


class TextCache:
    """On-disk cache of generated text, one UTF-8 file per key."""

    def __init__(self, cache_dir: str | Path):
        self.dir = Path(cache_dir)
        self.dir.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def key(endpoint: str, prompt: str, max_new_tokens: int) -> str:
        h = hashlib.sha256()
        h.update(endpoint.encode("utf-8"))
        h.update(b"\x00")
        h.update(str(max_new_tokens).encode("ascii"))
        h.update(b"\x00")
        h.update(prompt.encode("utf-8"))
        return h.hexdigest()

    def _path(self, key: str) -> Path:
        return self.dir / f"{key}.txt"

    def get(self, key: str) -> str | None:
        path = self._path(key)
        if not path.exists():
            return None
        return path.read_text(encoding="utf-8")

    def put(self, key: str, text: str) -> None:
        _atomic_write(self._path(key), text.encode("utf-8"))
