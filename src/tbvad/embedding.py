"""Text embedding backends behind one contract, plus pooling and cosine similarity.

Two interchangeable backends produce per-token embedding sequences:

* ``hash`` — fully offline feature hashing.  Each lowercase token is hashed
  (seeded, via blake2b, independent of PYTHONHASHSEED) into one of ``d``
  signed buckets (a unit vector with one ±1 entry), so equal tokens always
  map to equal vectors and the whole embedder is a pure function of (text,
  d, seed).
* ``remote`` — a client for an HTTP embedding service standing in for a
  frozen pretrained encoder.  Token strings are sent as texts in batches of
  at most 64, fetched with bounded parallelism, and cached on disk, one pack
  file per call that fetched anything, so a rerun issues no network
  requests.

A token is a maximal run of alphanumeric characters (``str.isalnum``) of
the lowercased text; every other character, ``_`` included, splits.

Both keep every token vector they produce in memory for the life of the
embedder.  ``embed_captions`` pools many texts in one pass: it tokenizes
each text once into integer ids, looks the distinct tokens up in one call,
and walks the token positions once, longest text first, adding position
``j`` of every text that has one in ``mean_pool``'s order, so its (n, d)
result equals the per-text ``mean_pool(embed_tokens(text))`` bit for bit.

All vectors are float32-valued (stored in float64 arrays) so cache hits and
misses return bit-identical data.
"""

from __future__ import annotations

import hashlib
import logging
from array import array
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import RemoteServiceError, ValidationError
from .remote import VectorCache, default_cache_dir, post_json

logger = logging.getLogger(__name__)

MAX_BATCH_TEXTS = 64
# Tokens kept per text, caption or knowledge; bounds embed_captions' position loop.
MAX_TOKENS = 4096


class _TokenChars(dict):
    """``str.translate`` table keeping alphanumeric code points, all others a space.

    Filled one code point at a time, the first time a text holds it, so it
    holds one entry per distinct code point the process has tokenized.
    """

    def __missing__(self, code: int) -> int:
        self[code] = mapped = code if chr(code).isalnum() else 0x20
        return mapped


_TOKEN_CHARS = _TokenChars()


def tokenize(text: str) -> list[str]:
    """The maximal runs of ``str.isalnum`` characters of the lowercased text.

    This is the regex ``[^\\W_]+`` (Unicode ``\\w`` is ``isalnum`` plus
    ``_``), shared across the package.  Every character that is not
    alphanumeric becomes a space, and no alphanumeric one is a space, so
    ``split`` leaves exactly the runs.
    """
    return text.lower().translate(_TOKEN_CHARS).split()


@dataclass(frozen=True)
class EmbedderConfig:
    """Settings of the one embedder that captions and knowledge share.

    The remote backend requires ``endpoint``.
    """

    backend: str = "hash"
    d: int = 64
    endpoint: str | None = None
    cache_dir: str | None = None
    seed: int = 0
    max_parallel: int = 4

    def __post_init__(self):
        if self.backend not in ("hash", "remote"):
            raise ValidationError(f"unknown embedder backend {self.backend!r}")
        if self.d < 1:
            raise ValidationError(f"embedding dim must be positive, got {self.d}")
        if self.max_parallel < 1:
            raise ValidationError(f"max_parallel must be positive, got {self.max_parallel}")
        if self.backend == "remote" and not self.endpoint:
            raise ValidationError("remote embedder backend requires an endpoint")


@dataclass
class TokenEmbeddingSeq:
    """A T x d matrix of token embeddings, one row per token."""

    vectors: np.ndarray
    d: int = field(default=0)

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2 or self.vectors.shape[0] < 1:
            raise ValidationError(f"vectors must be a T x d matrix with T >= 1, got shape {self.vectors.shape}")
        if not np.all(np.isfinite(self.vectors)):
            raise ValidationError("embedding matrix contains non-finite values")
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

    # The on-disk vector cache, if the backend has one.
    cache: VectorCache | None = None

    def __init__(self, cfg: EmbedderConfig):
        self.cfg = cfg
        self._token_cache: dict[str, np.ndarray] = {}

    def _tokens(self, text: str) -> list[str]:
        tokens = tokenize(text)[:MAX_TOKENS]
        if not tokens:
            raise ValidationError(f"text has no tokens to embed: {text!r}")
        return tokens

    def embed_tokens(self, text: str) -> TokenEmbeddingSeq:
        tokens = self._tokens(text)
        vectors = np.stack(self._lookup(tokens))
        return TokenEmbeddingSeq(vectors=vectors)

    def embed_captions(self, texts: list[str]) -> np.ndarray:
        """Mean-pooled embedding of each text as one (n, d) array, in one pass.

        Each text is tokenized once into integer ids over the call's distinct
        tokens, which one ``_lookup`` call turns into a (V, d) table.  With
        the texts sorted longest first, step ``j`` adds the ``j``-th token's
        row to every text that has one, a leading slice of the sorted rows,
        so the loop runs once per position of the longest text.  Each row
        sums in ``mean_pool``'s order, so row ``i`` equals
        ``mean_pool(embed_tokens(texts[i]))`` bit for bit and no (n, T, d)
        gather is ever built.
        """
        if not texts:
            return np.empty((0, self.cfg.d))
        index: defaultdict[str, int] = defaultdict()
        index.default_factory = index.__len__  # a new token gets the next id
        ids = array("i")
        starts = np.empty(len(texts), dtype=np.intp)
        counts = np.empty(len(texts), dtype=np.intp)
        for i, text in enumerate(texts):
            tokens = self._tokens(text)
            starts[i] = len(ids)
            counts[i] = len(tokens)
            ids.extend(map(index.__getitem__, tokens))
        table = np.stack(self._lookup(list(index)))
        if not np.all(np.isfinite(table)):
            raise ValidationError("embedding matrix contains non-finite values")
        flat = np.frombuffer(ids, dtype=np.intc)
        order = np.argsort(-counts, kind="stable")
        counts = counts[order]
        col = starts[order]  # where each sorted text's current token id sits in flat
        # live[j - 1]: how many sorted texts have a token at position j.
        live = np.searchsorted(-counts, -np.arange(1, counts[0]), side="left")
        acc = table[flat[col]]
        for n_j in live.tolist():
            head = col[:n_j]
            head += 1
            acc[:n_j] += table[flat[head]]
        acc /= counts[:, None]
        out = np.empty_like(acc)
        out[order] = acc
        return out


class HashEmbedder(_TokenEmbedder):
    """Deterministic offline feature-hashing embedder."""

    def token_vector(self, token: str) -> np.ndarray:
        vec = self._token_cache.get(token)
        if vec is None:
            vec = _hash_token_vector(token, self.cfg.d, self.cfg.seed)
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

    def __init__(self, cfg: EmbedderConfig, cache: VectorCache | None = None):
        if not cfg.endpoint:
            raise ValidationError("remote embedder requires an endpoint")
        super().__init__(cfg)
        cache_dir = cfg.cache_dir or default_cache_dir()
        embed_dir = Path(cache_dir) / "embed" if cache_dir else None
        if cache is None or cache.dir != embed_dir:
            cache = VectorCache(embed_dir) if embed_dir else None
        self.cache = cache

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
            workers = min(self.cfg.max_parallel, len(batches))
            if workers == 1:
                fetched = [self._fetch_batch(b) for b in batches]
            else:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    fetched = list(pool.map(self._fetch_batch, batches))
            vectors = [vec for vecs in fetched for vec in vecs]
            if self.cache:
                self.cache.put([(missing[text], vec) for text, vec in zip(unique_missing, vectors)])
            for text, vec in zip(unique_missing, vectors):
                self._token_cache[text] = np.asarray(vec, dtype=np.float64)
        return [self._token_cache[t] for t in texts]

    def _lookup(self, tokens: list[str]) -> list[np.ndarray]:
        return self.embed_texts(tokens)


def make_embedder(cfg: EmbedderConfig, cache: VectorCache | None = None) -> HashEmbedder | RemoteEmbedder:
    """The embedder for ``cfg``.

    ``cache`` is a ``VectorCache`` another embedder of the same command
    opened, as the knowledge base hands it over.  A remote embedder whose
    cache directory is ``cache.dir`` shares it, so the packs there are read
    once; any other ignores it.
    """
    if cfg.backend == "hash":
        return HashEmbedder(cfg)
    return RemoteEmbedder(cfg, cache)


def embed_tokens(text: str, cfg: EmbedderConfig) -> TokenEmbeddingSeq:
    """Embed a text into a T x d token-embedding sequence (T <= MAX_TOKENS)."""
    return make_embedder(cfg).embed_tokens(text)


def mean_pool(seq: TokenEmbeddingSeq) -> np.ndarray:
    """Arithmetic mean of the rows."""
    # A running sum down the rows, the order embed_captions pools in: on a
    # one-column input, sum(axis=0) adds pairwise and can differ in the last bit.
    return np.cumsum(seq.vectors, axis=0)[-1] / seq.t


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
