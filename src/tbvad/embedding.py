"""Text embedding backends behind one contract, plus pooling and cosine similarity.

Two interchangeable backends produce per-token embedding sequences:

* ``hash`` — fully offline feature hashing.  Each lowercase token is hashed
  (seeded, via blake2b, independent of PYTHONHASHSEED) into one of ``d``
  signed buckets and L2-normalized, so equal tokens always map to equal
  vectors and the whole embedder is a pure function of (text, d, seed).
* ``remote`` — a client for an HTTP embedding service standing in for a
  frozen pretrained encoder.  Token strings are sent as texts in batches of
  at most 64, fetched with bounded parallelism, and cached on disk so a
  rerun issues no network requests.

Both keep every token vector they produce in memory for the life of the
embedder, and ``embed_captions`` looks up the distinct tokens of many texts
in one call.

All vectors are float32-valued (stored in float64 arrays) so cache hits and
misses return bit-identical data.
"""

from __future__ import annotations

import hashlib
import logging
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import RemoteServiceError, ValidationError
from .remote import VectorCache, default_cache_dir, post_json

logger = logging.getLogger(__name__)

MAX_BATCH_TEXTS = 64

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase whitespace/punctuation tokenization shared across the package."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class EmbedderConfig:
    """Settings for one embedding role (descriptions or knowledge).

    ``max_tokens`` encodes the per-role token budget (512 for descriptions,
    4096 for knowledge by default).  The remote backend requires ``endpoint``.
    """

    backend: str = "hash"
    d: int = 64
    max_tokens: int = 512
    endpoint: str | None = None
    cache_dir: str | None = None
    seed: int = 0
    max_parallel: int = 4

    def __post_init__(self):
        if self.backend not in ("hash", "remote"):
            raise ValidationError(f"unknown embedder backend {self.backend!r}")
        if self.d < 1:
            raise ValidationError(f"embedding dim must be positive, got {self.d}")
        if self.max_tokens < 1:
            raise ValidationError(f"max_tokens must be positive, got {self.max_tokens}")
        if self.backend == "remote" and not self.endpoint:
            raise ValidationError("remote embedder backend requires an endpoint")


@dataclass
class TokenEmbeddingSeq:
    """A T x d matrix of token embeddings with a padding mask (True = real token)."""

    vectors: np.ndarray
    mask: np.ndarray
    d: int = field(default=0)

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.vectors.ndim != 2 or self.vectors.shape[0] < 1:
            raise ValidationError(f"vectors must be a T x d matrix with T >= 1, got shape {self.vectors.shape}")
        if self.mask.shape != (self.vectors.shape[0],):
            raise ValidationError("mask length must equal the number of rows")
        if not np.all(np.isfinite(self.vectors)):
            raise ValidationError("embedding matrix contains non-finite values")
        if np.any(self.vectors[~self.mask] != 0.0):
            raise ValidationError("masked-out rows must be all-zero")
        self.d = self.vectors.shape[1]

    @property
    def t(self) -> int:
        return self.vectors.shape[0]


def _hash_token_vector(token: str, d: int, seed: int) -> np.ndarray:
    """Map one token to a unit vector with a single seeded signed bucket."""
    digest = hashlib.blake2b(
        token.encode("utf-8"), digest_size=8, key=str(seed).encode("ascii")
    ).digest()
    bucket = int.from_bytes(digest[:4], "little") % d
    sign = 1.0 if digest[4] & 1 else -1.0
    vec = np.zeros(d, dtype=np.float64)
    vec[bucket] = sign
    return vec


class _TokenEmbedder:
    """Shared contract of both backends: token lookup, sequences and pooling.

    A backend supplies ``_lookup(tokens)``, one vector per token, and keeps
    every vector it has produced in ``_token_cache``, so one instance looks
    each distinct token up once.
    """

    def __init__(self, cfg: EmbedderConfig):
        self.cfg = cfg
        self._token_cache: dict[str, np.ndarray] = {}

    def _tokens(self, text: str) -> list[str]:
        tokens = tokenize(text)[: self.cfg.max_tokens]
        if not tokens:
            raise ValidationError(f"text has no tokens to embed: {text!r}")
        return tokens

    def embed_tokens(self, text: str) -> TokenEmbeddingSeq:
        tokens = self._tokens(text)
        vectors = np.stack(self._lookup(tokens))
        return TokenEmbeddingSeq(vectors=vectors, mask=np.ones(len(tokens), dtype=bool))

    def embed_captions(self, texts: list[str]) -> list[np.ndarray]:
        """Mean-pooled embedding of each text, with every distinct token looked up in one call."""
        self._lookup(list(dict.fromkeys(t for text in texts for t in self._tokens(text))))
        return [mean_pool(self.embed_tokens(text)) for text in texts]


class HashEmbedder(_TokenEmbedder):
    """Deterministic offline feature-hashing embedder."""

    def token_vector(self, token: str) -> np.ndarray:
        vec = self._token_cache.get(token)
        if vec is None:
            vec = _hash_token_vector(token, self.cfg.d, self.cfg.seed)
            norm = np.linalg.norm(vec)
            if norm > 0:
                vec = vec / norm
            self._token_cache[token] = vec
        return vec

    def _lookup(self, tokens: list[str]) -> list[np.ndarray]:
        return [self.token_vector(t) for t in tokens]


class RemoteEmbedder(_TokenEmbedder):
    """Client for the HTTP embedding service with disk cache and retries.

    Wire protocol: POST {endpoint}/embed with {"texts": [...], "dim": d}
    returning {"vectors": [[...], ...], "dim": d}.  Token strings are sent
    as the texts, so one request batch yields up to 64 token vectors.
    """

    def __init__(self, cfg: EmbedderConfig):
        if not cfg.endpoint:
            raise ValidationError("remote embedder requires an endpoint")
        super().__init__(cfg)
        cache_dir = cfg.cache_dir or default_cache_dir()
        self.cache = VectorCache(Path(cache_dir) / "embed") if cache_dir else None

    def _fetch_batch(self, texts: list[str]) -> list[np.ndarray]:
        url = self.cfg.endpoint.rstrip("/") + "/embed"
        body = post_json(url, {"texts": texts, "dim": self.cfg.d})
        vectors = body.get("vectors")
        if body.get("dim") != self.cfg.d or not isinstance(vectors, list) or len(vectors) != len(texts):
            raise RemoteServiceError(f"embedding service returned a malformed response from {url}")
        out = []
        for v in vectors:
            arr = np.asarray(v, dtype=np.float32)
            if arr.shape != (self.cfg.d,):
                raise ValidationError(
                    f"embedding service returned dim {arr.shape} but config requires ({self.cfg.d},)"
                )
            out.append(arr)
        return out

    def embed_texts(self, texts: list[str]) -> list[np.ndarray]:
        """Embed a list of strings, one vector each: memory, then disk cache, then batched fetch."""
        missing: dict[str, str | None] = {}
        for text in dict.fromkeys(texts):
            if text in self._token_cache:
                continue
            key = VectorCache.key(self.cfg.endpoint, self.cfg.d, text) if self.cache else None
            cached = self.cache.get(key) if self.cache else None
            if cached is None:
                missing[text] = key
                continue
            if cached.shape != (self.cfg.d,):
                raise ValidationError(
                    f"cached embedding has dim {cached.shape} but config requires ({self.cfg.d},)"
                )
            self._token_cache[text] = np.asarray(cached, dtype=np.float64)

        if missing:
            unique_missing = list(missing)
            batches = [unique_missing[i:i + MAX_BATCH_TEXTS]
                       for i in range(0, len(unique_missing), MAX_BATCH_TEXTS)]
            workers = max(1, min(self.cfg.max_parallel, len(batches)))
            if workers == 1:
                fetched = [self._fetch_batch(b) for b in batches]
            else:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    fetched = list(pool.map(self._fetch_batch, batches))
            for batch, vecs in zip(batches, fetched):
                for text, vec in zip(batch, vecs):
                    if self.cache:
                        self.cache.put(missing[text], vec)
                    self._token_cache[text] = np.asarray(vec, dtype=np.float64)
        return [self._token_cache[t] for t in texts]

    def _lookup(self, tokens: list[str]) -> list[np.ndarray]:
        return self.embed_texts(tokens)


def make_embedder(cfg: EmbedderConfig) -> HashEmbedder | RemoteEmbedder:
    if cfg.backend == "hash":
        return HashEmbedder(cfg)
    return RemoteEmbedder(cfg)


def embed_tokens(text: str, cfg: EmbedderConfig) -> TokenEmbeddingSeq:
    """Embed a text into a T x d token-embedding sequence (T <= cfg.max_tokens)."""
    return make_embedder(cfg).embed_tokens(text)


def mean_pool(seq: TokenEmbeddingSeq) -> np.ndarray:
    """Arithmetic mean over unmasked rows only."""
    count = int(seq.mask.sum())
    if count == 0:
        raise ValidationError("cannot mean-pool a sequence whose rows are all masked")
    return seq.vectors[seq.mask].sum(axis=0) / count


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; zero-norm inputs yield 0.0 with a warning."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise ValidationError(f"cosine_similarity requires equal-length vectors, got {u.shape} and {v.shape}")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise ValidationError("cosine_similarity received non-finite input")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        logger.warning("cosine_similarity of a zero-norm vector defined as 0.0")
        return 0.0
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))
