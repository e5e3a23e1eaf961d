"""HTTP plumbing shared by the remote embedding and generation clients.

Both services are simple JSON-over-POST endpoints.  Calls are retried on
connection, timeout, 5xx, 408 and 429 failures, and responses are cached on
disk so reruns are idempotent and issue zero network requests.  Embeddings
are cached as one pack file per store, generated texts as one file per
prompt.  Cache writes go through a temp file + rename so concurrent writers
cannot leave partial files.
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
RETRIES = 3
BACKOFF_S = 0.2
# Pack header: key count and vector dim.
_PACK_HEADER = struct.Struct("<QQ")
_KEY_BYTES = 32
# Client errors worth a retry: request timeout and too many requests.
_RETRIABLE_4XX = (408, 429)


def http_timeout_seconds() -> float:
    """TBVAD_HTTP_TIMEOUT_MS (milliseconds) in seconds if a positive integer, else the default."""
    try:
        ms = int(os.environ.get("TBVAD_HTTP_TIMEOUT_MS", ""))
    except ValueError:
        ms = 0
    return (ms if ms > 0 else DEFAULT_TIMEOUT_MS) / 1000.0


def default_cache_dir() -> Path | None:
    raw = os.environ.get("TBVAD_CACHE_DIR", "")
    return Path(raw) if raw else None


def post_json(url: str, payload: dict) -> dict:
    """POST a JSON payload, retrying transient failures.

    Connection errors, timeouts, a body that is not a JSON object and non-200
    responses are retried, except a 4xx other than 408 (timeout) and 429 (too
    many requests): the request itself is at fault, so it fails at once.
    Raises RemoteServiceError carrying the attempt count.
    """
    timeout = http_timeout_seconds()
    last_error = "no attempt made"
    for attempt in range(1, RETRIES + 1):
        try:
            resp = requests.post(url, json=payload, timeout=timeout)
        except (requests.ConnectionError, requests.Timeout) as e:
            last_error = f"{type(e).__name__}: {e}"
        else:
            if resp.status_code == 200:
                try:
                    body = resp.json()
                    if isinstance(body, dict):
                        return body
                    last_error = f"response is a JSON {type(body).__name__}, not an object"
                except ValueError as e:
                    last_error = f"invalid JSON in response: {e}"
            else:
                last_error = f"HTTP {resp.status_code}"
                if 400 <= resp.status_code < 500 and resp.status_code not in _RETRIABLE_4XX:
                    raise RemoteServiceError(f"POST {url} failed: {last_error}", attempts=attempt)
        if attempt < RETRIES:
            time.sleep(BACKOFF_S * attempt)
    raise RemoteServiceError(f"POST {url} failed: {last_error}", attempts=RETRIES)


def atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_bytes(data)
    os.replace(tmp, path)


class VectorCache:
    """On-disk cache of float32 vectors, stored as pack files of many keys each.

    Pack layout: an 8-byte little-endian count ``n`` and an 8-byte
    little-endian dim ``d``, then ``n`` raw 32-byte SHA-256 keys, then
    ``n * d`` little-endian float32 values, one row per key.  A pack is
    named by the SHA-256 of its bytes plus ``.vecs``, so a pack whose bytes
    no longer hash to its name, or whose length disagrees with its header,
    is dropped with a warning and cannot return a wrong vector.  Keys are
    SHA-256 over (endpoint, dim, text), NUL-separated.

    The first lookup reads every pack in the directory once, in sorted name
    order; when packs share a key, the first one read wins.
    """

    def __init__(self, cache_dir: str | Path):
        self.dir = Path(cache_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self._index: dict[bytes, np.ndarray] | None = None

    @staticmethod
    def key(endpoint: str, dim: int, text: str) -> str:
        h = hashlib.sha256()
        h.update(endpoint.encode("utf-8"))
        h.update(b"\x00")
        h.update(str(dim).encode("ascii"))
        h.update(b"\x00")
        h.update(text.encode("utf-8"))
        return h.hexdigest()

    def _read_pack(self, path: Path) -> tuple[list[bytes], list[np.ndarray]] | None:
        """The raw keys and float32 rows of one pack, or None if it is damaged."""
        data = path.read_bytes()
        if hashlib.sha256(data).hexdigest() != path.stem:
            logger.warning("dropping cache pack %s: its bytes do not match its name", path)
            return None
        if len(data) >= _PACK_HEADER.size:
            n, d = _PACK_HEADER.unpack_from(data)
            keys_end = _PACK_HEADER.size + _KEY_BYTES * n
            if len(data) == keys_end + 4 * n * d:
                keys = np.frombuffer(data, dtype=f"V{_KEY_BYTES}", count=n, offset=_PACK_HEADER.size)
                rows = np.frombuffer(data, dtype="<f4", count=n * d, offset=keys_end)
                return keys.tolist(), list(rows.reshape(n, d))
        logger.warning("dropping cache pack %s: its length does not match its header", path)
        return None

    def _entries(self) -> dict[bytes, np.ndarray]:
        if self._index is None:
            packs = [self._read_pack(path) for path in sorted(self.dir.glob("*.vecs"))]
            self._index = {}
            # Merged last to first, so a key in several packs keeps the first pack's row.
            for pack in reversed(packs):
                if pack is not None:
                    self._index.update(zip(*pack))
        return self._index

    def get(self, key: str) -> np.ndarray | None:
        return self._entries().get(bytes.fromhex(key))

    def put(self, items: list[tuple[str, np.ndarray]]) -> None:
        """Write ``(key, vector)`` pairs of one dim as one pack."""
        if not items:
            return
        index = self._entries()
        keys = [bytes.fromhex(key) for key, _ in items]
        rows = np.stack([np.asarray(vec, dtype="<f4") for _, vec in items])
        data = b"".join([_PACK_HEADER.pack(*rows.shape), *keys, rows.tobytes()])
        atomic_write(self.dir / f"{hashlib.sha256(data).hexdigest()}.vecs", data)
        for key, row in zip(keys, rows):
            index.setdefault(key, row)


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
        atomic_write(self._path(key), text.encode("utf-8"))
