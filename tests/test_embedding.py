from __future__ import annotations

import hashlib
import json
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tbvad.classifier import videos_features
from tbvad.corpus import sample_evenly
from tbvad.embedding import (
    MAX_TOKENS,
    EmbedderConfig,
    HashEmbedder,
    RemoteEmbedder,
    TokenEmbeddingSeq,
    cosine_similarity,
    embed_tokens,
    mean_pool,
    tokenize,
)
from tbvad.errors import RemoteServiceError, ValidationError
from tbvad.remote import VectorCache

import reference_summarizer
from conftest import make_video
from stubs import StubService, float32_vector

HASH64 = EmbedderConfig(backend="hash", d=64, seed=7)


def wide_vector(text: str, dim: int) -> list[float]:
    """Entries spread over 24 decades: sums round, so a change of summation order shows."""
    return float32_vector(text, dim, decades=12)


# A small vocabulary makes repeated tokens within and across texts common.
WORDS = st.sampled_from(["a", "man", "runs", "the", "bat", "crowd", "x1", "street", "Car"])
TEXTS = st.lists(st.lists(WORDS, min_size=1, max_size=20).map(" ".join), min_size=1, max_size=12)
# 1 token, repeated tokens, and truncation at MAX_TOKENS, all in one batch.
EDGE_TEXTS = ["bat", "man man man man",
              " ".join((["a", "crowd", "runs"] * MAX_TOKENS)[:MAX_TOKENS + 3]), "the the"]


def assert_rows_pool_each_text(pooled: np.ndarray, texts: list[str], reference) -> None:
    """Row i of one embed_captions call equals mean_pool(embed_tokens(texts[i])) byte for byte."""
    assert pooled.shape == (len(texts), reference.cfg.d)
    for text, row in zip(texts, pooled):
        assert row.tobytes() == mean_pool(reference.embed_tokens(text)).tobytes()


class TestHashEmbedder:
    def test_embed_captions_equals_pooled_embed_tokens(self):
        texts = ["a man runs across the street", "the man stops", "A man runs."]
        pooled = HashEmbedder(HASH64).embed_captions(texts)
        for text, vec in zip(texts, pooled):
            assert np.array_equal(vec, mean_pool(embed_tokens(text, HASH64)))

    def test_determinism(self):
        a = embed_tokens("a man runs across the street", HASH64)
        b = embed_tokens("a man runs across the street", HASH64)
        assert np.array_equal(a.vectors, b.vectors)

    def test_truncation_to_max_tokens(self):
        text = " ".join(f"tok{i}" for i in range(MAX_TOKENS + 100))
        seq = embed_tokens(text, EmbedderConfig(backend="hash", d=16, seed=0))
        assert seq.t == MAX_TOKENS

    def test_equal_tokens_equal_rows(self):
        seq = embed_tokens("a b a", EmbedderConfig(backend="hash", d=64, seed=3))
        assert np.array_equal(seq.vectors[0], seq.vectors[2])
        assert seq.t == 3

    def test_rows_are_unit_norm(self):
        seq = embed_tokens("walking near the station", HASH64)
        norms = np.linalg.norm(seq.vectors, axis=1)
        assert np.allclose(norms, 1.0)

    def test_seed_changes_embedding(self):
        a = embed_tokens("crowbar", EmbedderConfig(backend="hash", d=64, seed=1))
        b = embed_tokens("crowbar", EmbedderConfig(backend="hash", d=64, seed=2))
        assert not np.array_equal(a.vectors, b.vectors)

    def test_no_tokens_rejected(self):
        with pytest.raises(ValidationError, match="no tokens"):
            embed_tokens("!!! ...", HASH64)

    @given(st.text(alphabet=st.characters(whitelist_categories=("Ll", "Nd", "Zs")), min_size=1, max_size=80))
    @settings(max_examples=50, deadline=None)
    def test_pure_function_of_text(self, text):
        if not tokenize(text):
            return
        a = embed_tokens(text, HASH64)
        b = embed_tokens(text, HASH64)
        assert np.array_equal(a.vectors, b.vectors)


# Where a regex and a str-predicate tokenizer could part: "_" (a word
# character, not alphanumeric), "\x1c" and "\xa0" (whitespace to Python, not
# to C's isspace), "İ" (lowercases to "i" and a combining dot), combining
# marks, and digits and numerals outside ASCII.
TOKEN_EDGE_CHARS = "_\x1c\x1f\x85\xa0\u2028\u3000İΣßǅ\u0301\u0307\u0663²½ⅷ.!?-' \t\nAz09"


class TestTokenize:
    def test_regex_classes_are_the_str_predicates(self):
        # tokenize relies on [^\W_] matching exactly the isalnum characters, and
        # sentence_split on \s matching exactly the isspace ones.
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"[^\W_]", every) == [c for c in every if c.isalnum()]
        assert re.findall(r"\s", every) == [c for c in every if c.isspace()]

    def test_hand_values(self):
        assert tokenize("A man's snake_case bat, x1!") == ["a", "man", "s", "snake", "case", "bat", "x1"]
        # "İ" lowercases to "i" and U+0307, which is not alphanumeric.
        assert tokenize("İstanbul\xa0Café\x1cé") == ["i", "stanbul", "café", "é"]
        assert tokenize("e\u0301 ٣² ½") == ["e", "٣²", "½"]
        assert tokenize("__ .. \x1c") == []

    @given(st.text(alphabet=st.one_of(st.sampled_from(TOKEN_EDGE_CHARS), st.characters()),
                   max_size=80))
    @example("snake_case İstanbul\x1cA\xa0b e\u0301 ǅx")
    @settings(max_examples=200, deadline=None)
    def test_matches_regex(self, text):
        assert tokenize(text) == reference_summarizer.tokenize(text)


class TestEmbedCaptions:
    @given(texts=TEXTS, d=st.sampled_from([1, 3, 16]), seed=st.integers(0, 3))
    @example(texts=EDGE_TEXTS, d=16, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_hash_rows_equal_pooled_embed_tokens(self, texts, d, seed):
        cfg = EmbedderConfig(backend="hash", d=d, seed=seed)
        assert_rows_pool_each_text(HashEmbedder(cfg).embed_captions(texts), texts, HashEmbedder(cfg))

    def test_remote_rows_equal_pooled_embed_tokens(self, monkeypatch):
        monkeypatch.delenv("TBVAD_CACHE_DIR", raising=False)
        with StubService(embed_fn=wide_vector) as svc:

            @given(texts=TEXTS, d=st.sampled_from([1, 5, 16]))
            @example(texts=EDGE_TEXTS, d=16)
            # One column and eight tokens: a pairwise sum would differ in the last bit.
            @example(texts=["a a a a a the a a"], d=1)
            @settings(max_examples=25, deadline=None)
            def check(texts, d):
                cfg = EmbedderConfig(backend="remote", d=d, endpoint=svc.endpoint, seed=0)
                pooled = RemoteEmbedder(cfg).embed_captions(texts)
                assert_rows_pool_each_text(pooled, texts, RemoteEmbedder(cfg))

            check()

    @given(texts=TEXTS, k_frames=st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_video_rows_are_unit_normalized_pools(self, texts, k_frames):
        videos = [make_video(f"v{i}", "normal", texts[i:i + 3]) for i in range(0, len(texts), 3)]
        reference = HashEmbedder(HASH64)
        for video, feats in zip(videos, videos_features(videos, HASH64, k_frames)):
            sampled = sample_evenly(video, k_frames)
            assert feats.x.shape == (len(sampled), HASH64.d)
            for caption, row in zip(sampled, feats.x):
                pooled = mean_pool(reference.embed_tokens(caption.text))
                norm = np.linalg.norm(pooled)
                assert row.tobytes() == (pooled / norm if norm > 0 else pooled).tobytes()

    def test_video_rows_equal_linalg_normalized_pools(self, monkeypatch):
        # One eval's worth of rows (300 videos of 8 frames) whose norms span many decades.
        monkeypatch.delenv("TBVAD_CACHE_DIR", raising=False)
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(300)]
        texts = [" ".join(rng.choice(words, size=rng.integers(1, 20))) for _ in range(2400)]
        videos = [make_video(f"v{i}", "normal", texts[i:i + 8]) for i in range(0, len(texts), 8)]
        with StubService(embed_fn=wide_vector) as svc:
            cfg = EmbedderConfig(backend="remote", d=16, endpoint=svc.endpoint, seed=0)
            rows = np.concatenate([f.x for f in videos_features(videos, cfg, 8)])
            pooled = RemoteEmbedder(cfg).embed_captions(texts)
        for row, p in zip(rows, pooled, strict=True):
            assert row.tobytes() == (p / np.linalg.norm(p)).tobytes()

    def test_one_long_text_among_short_ones(self, monkeypatch):
        # The knowledge shape: one joined text past the token cap among short
        # slot texts, with row sums that round.
        monkeypatch.delenv("TBVAD_CACHE_DIR", raising=False)
        rng = np.random.default_rng(3)
        words = [f"w{i}" for i in range(200)]
        joined = " ".join(rng.choice(words, size=MAX_TOKENS + 5))
        texts = ["w1 w2", "w3", joined, "w4 w5 w6", "w7", "w1 w8 w9 w2"]
        with StubService(embed_fn=wide_vector) as svc:
            cfg = EmbedderConfig(backend="remote", d=4, endpoint=svc.endpoint, seed=0)
            pooled = RemoteEmbedder(cfg).embed_captions(texts)
            assert_rows_pool_each_text(pooled, texts, RemoteEmbedder(cfg))

    def test_empty_input_gives_empty_matrix(self):
        pooled = HashEmbedder(HASH64).embed_captions([])
        assert pooled.shape == (0, HASH64.d)

    def test_first_text_without_tokens_is_named(self):
        with pytest.raises(ValidationError, match=r"text has no tokens to embed: '!!!'"):
            HashEmbedder(HASH64).embed_captions(["a man", "!!!", "...", "runs"])

    def test_non_finite_vector_rejected(self, tmp_path):
        def embed(text, dim):
            return [float("nan")] * dim if text == "glitch" else float32_vector(text, dim)

        with StubService(embed_fn=embed) as svc:
            cfg = EmbedderConfig(backend="remote", d=8, endpoint=svc.endpoint,
                                 cache_dir=str(tmp_path / "cache"), seed=0)
            with pytest.raises(ValidationError, match="embedding matrix contains non-finite values"):
                RemoteEmbedder(cfg).embed_captions(["a man runs", "a glitch"])

    def test_peak_memory_is_a_small_multiple_of_the_output(self):
        n, t, d = 500, 512, 64
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(1000)]
        texts = [" ".join(words[j] for j in rng.integers(0, len(words), t)) for _ in range(n)]
        emb = HashEmbedder(EmbedderConfig(backend="hash", d=d, seed=0))
        emb.embed_captions(texts)  # fill the token cache, which lives as long as the embedder
        tracemalloc.start()
        try:
            pooled = emb.embed_captions(texts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pooled.shape == (n, d)
        # The (n, d) output and work buffers, the (V, d) token table and 4 bytes per token id.
        # Gathering every token row at once would take n * t * d * 8 bytes (131 MB).
        assert peak < 12 * n * d * 8 < n * t * d * 8 / 40


class TestMeanPool:
    def test_hand_mean(self):
        seq = TokenEmbeddingSeq(vectors=np.array([[1.0, 3.0], [3.0, 5.0]]))
        assert np.array_equal(mean_pool(seq), np.array([2.0, 4.0]))

    def test_single_row_identity(self):
        v = np.array([[0.5, -1.5, 2.0]])
        seq = TokenEmbeddingSeq(vectors=v)
        assert np.array_equal(mean_pool(seq), v[0])

    def test_matches_sum_divide_oracle(self):
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(5, 8))
        seq = TokenEmbeddingSeq(vectors=vectors)
        oracle = np.zeros(8)
        for row in vectors:
            oracle += row
        oracle /= 5
        assert np.max(np.abs(mean_pool(seq) - oracle)) <= 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        vectors = rng.normal(size=(6, 4))
        seq = TokenEmbeddingSeq(vectors=vectors)
        perm = rng.permutation(6)
        seq_p = TokenEmbeddingSeq(vectors=vectors[perm])
        assert np.allclose(mean_pool(seq), mean_pool(seq_p))


class TestCosineSimilarity:
    def test_self_similarity(self):
        v = np.array([1.0, 2.0, -3.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_value(self):
        got = cosine_similarity(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert got == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-9)

    def test_zero_norm_defined_as_zero(self):
        assert cosine_similarity(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            cosine_similarity(np.ones(3), np.ones(4))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            cosine_similarity(np.array([np.nan, 1.0]), np.ones(2))

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, alpha):
        rng = np.random.default_rng(11)
        u, v = rng.normal(size=4), rng.normal(size=4)
        assert cosine_similarity(alpha * u, v) == pytest.approx(cosine_similarity(u, v), abs=1e-9)


class TestTokenEmbeddingSeq:
    def test_non_finite_rejected(self):
        bad = np.array([[1.0, np.inf]])
        with pytest.raises(ValidationError):
            TokenEmbeddingSeq(vectors=bad)


class TestRemoteEmbedder:
    def cfg(self, endpoint, tmp_path, d=8):
        return EmbedderConfig(backend="remote", d=d, endpoint=endpoint,
                              cache_dir=str(tmp_path / "cache"), seed=0)

    def test_round_trip_and_dimensions(self, tmp_path):
        with StubService() as svc:
            seq = embed_tokens("alpha beta", self.cfg(svc.endpoint, tmp_path))
            assert seq.vectors.shape == (2, 8)
            assert seq.vectors[0, 0] == 5.0  # len("alpha")

    def test_cache_hit_issues_zero_requests(self, tmp_path):
        with StubService() as svc:
            cfg = self.cfg(svc.endpoint, tmp_path)
            first = embed_tokens("gamma delta gamma", cfg)
            before = svc.request_count
            assert before >= 1
            second = embed_tokens("gamma delta gamma", cfg)
            assert svc.request_count == before
            assert np.array_equal(first.vectors, second.vectors)

    def test_batches_limited_to_64(self, tmp_path):
        text = " ".join(f"tok{i}" for i in range(130))
        with StubService() as svc:
            embed_tokens(text, self.cfg(svc.endpoint, tmp_path))
            batch_sizes = [len(r["body"]["texts"]) for r in svc.requests]
            assert sum(batch_sizes) == 130
            assert max(batch_sizes) <= 64
            assert len(batch_sizes) == 3

    def test_retries_then_succeeds(self, tmp_path):
        with StubService(fail_times=2) as svc:
            seq = embed_tokens("epsilon", self.cfg(svc.endpoint, tmp_path))
            assert seq.t == 1
            assert svc.request_count == 3

    @pytest.mark.parametrize("status", [400, 404, 422])
    def test_permanent_client_error_fails_at_once(self, tmp_path, status):
        with StubService(fail_times=99, status=status) as svc:
            with pytest.raises(RemoteServiceError, match=f"HTTP {status}.*1 attempt"):
                embed_tokens("zeta", self.cfg(svc.endpoint, tmp_path))
            assert svc.request_count == 1

    @pytest.mark.parametrize("status", [408, 429])
    def test_throttled_request_is_retried(self, tmp_path, status):
        with StubService(fail_times=2, status=status) as svc:
            assert embed_tokens("zeta", self.cfg(svc.endpoint, tmp_path)).t == 1
            assert svc.request_count == 3

    def test_instance_reads_each_token_once(self, monkeypatch):
        monkeypatch.delenv("TBVAD_CACHE_DIR", raising=False)
        with StubService() as svc:
            cfg = EmbedderConfig(backend="remote", d=8, endpoint=svc.endpoint, seed=0)
            emb = RemoteEmbedder(cfg)
            assert emb.cache is None
            first = emb.embed_tokens("theta iota theta")
            assert svc.request_count == 1
            second = emb.embed_tokens("iota theta")
            assert svc.request_count == 1
            assert np.array_equal(second.vectors, first.vectors[[1, 0]])

    def test_embed_captions_fetches_distinct_tokens_together(self, tmp_path):
        texts = [" ".join(f"w{(7 * i + j) % 150}" for j in range(12)) for i in range(40)]
        distinct = {t for text in texts for t in tokenize(text)}
        assert len(distinct) > 128
        with StubService() as svc:
            cfg = self.cfg(svc.endpoint, tmp_path)
            pooled = RemoteEmbedder(cfg).embed_captions(texts)
            assert svc.request_count == -(-len(distinct) // 64)
            assert sum(len(r["body"]["texts"]) for r in svc.requests) == len(distinct)
            # A fresh instance reads the same vectors back from the disk cache.
            again = RemoteEmbedder(cfg).embed_captions(texts)
            assert svc.request_count == -(-len(distinct) // 64)
            for text, vec, vec_again in zip(texts, pooled, again):
                assert np.array_equal(vec, mean_pool(embed_tokens(text, cfg)))
                assert np.array_equal(vec, vec_again)

    def test_failure_carries_attempt_count(self, tmp_path):
        with StubService(fail_times=99) as svc:
            with pytest.raises(RemoteServiceError, match="3 attempt"):
                embed_tokens("zeta", self.cfg(svc.endpoint, tmp_path))

    def test_request_body_is_the_compact_json_bytes(self, tmp_path):
        with StubService() as svc:
            embed_tokens("kappa lambda", self.cfg(svc.endpoint, tmp_path))
            (request,) = svc.requests
        payload = {"texts": ["kappa", "lambda"], "dim": 8}
        assert request["raw"] == json.dumps(payload).encode("utf-8")
        assert request["content_type"] == "application/json"

    def test_truncated_reply_is_retried(self, tmp_path, monkeypatch):
        monkeypatch.setattr("tbvad.remote.BACKOFF_S", 0.0)
        with StubService(short_by=983) as svc:
            with pytest.raises(RemoteServiceError, match="IncompleteRead.*3 attempt"):
                embed_tokens("mu", self.cfg(svc.endpoint, tmp_path))
            assert svc.request_count == 3

    def test_no_server_listening(self, tmp_path, monkeypatch):
        monkeypatch.setattr("tbvad.remote.BACKOFF_S", 0.0)
        with StubService() as svc:
            endpoint = svc.endpoint
        with pytest.raises(RemoteServiceError, match="3 attempt") as caught:
            embed_tokens("nu", self.cfg(endpoint, tmp_path))
        assert caught.value.attempts == 3

    def test_no_content_reply_is_retried(self, tmp_path, monkeypatch):
        monkeypatch.setattr("tbvad.remote.BACKOFF_S", 0.0)
        with StubService(fail_times=99, status=204) as svc:
            with pytest.raises(RemoteServiceError, match="HTTP 204.*3 attempt"):
                embed_tokens("xi", self.cfg(svc.endpoint, tmp_path))
            assert svc.request_count == 3

    def test_redirect_is_followed_as_get(self, tmp_path):
        with StubService(fail_times=1, status=302, location="/gone") as svc:
            with pytest.raises(RemoteServiceError, match="HTTP 404.*1 attempt"):
                embed_tokens("omicron", self.cfg(svc.endpoint, tmp_path))
            assert [(r["method"], r["path"]) for r in svc.requests] == [("POST", "/embed"),
                                                                         ("GET", "/gone")]

    @pytest.mark.parametrize("endpoint", ["localhost:9", "file:///dev/null", "ftp://127.0.0.1:9"])
    def test_endpoint_that_is_not_http_is_rejected(self, tmp_path, endpoint):
        with pytest.raises(RemoteServiceError, match="not an http or https URL"):
            embed_tokens("pi", self.cfg(endpoint, tmp_path))

    def test_dimension_mismatch_is_hard_error(self, tmp_path):
        with StubService(embed_fn=lambda text, dim: [0.0] * (dim + 1)) as svc:
            with pytest.raises(ValidationError, match="dim"):
                embed_tokens("eta", self.cfg(svc.endpoint, tmp_path))

    def test_cache_file_format(self, tmp_path):
        cache = VectorCache(tmp_path / "vc")
        keys = [VectorCache.key("http://x", 4, w) for w in ("word", "other")]
        rows = np.array([[1.5, -2.5, 0.0, 3.25], [4.0, 0.5, -1.0, 2.0]], dtype=np.float32)
        cache.put(list(zip(keys, rows)))
        (path,) = (tmp_path / "vc").iterdir()
        raw = path.read_bytes()
        assert path.name == hashlib.sha256(raw).hexdigest() + ".vecs"
        assert len(raw) == 16 + 2 * 32 + 2 * 4 * 4
        assert int.from_bytes(raw[:8], "little") == 2
        assert int.from_bytes(raw[8:16], "little") == 4
        assert raw[16:80] == bytes.fromhex(keys[0]) + bytes.fromhex(keys[1])
        assert raw[80:] == rows.astype("<f4").tobytes()
        assert np.array_equal(cache.get(keys[1]), rows[1])

    def test_fresh_instance_reads_vectors_back(self, tmp_path):
        rng = np.random.default_rng(5)
        items = [(VectorCache.key("http://x", 8, f"w{i}"), rng.normal(size=8).astype(np.float32))
                 for i in range(130)]
        VectorCache(tmp_path / "vc").put(items[:70])
        VectorCache(tmp_path / "vc").put(items[70:])
        fresh = VectorCache(tmp_path / "vc")
        for key, vec in items:
            assert np.array_equal(fresh.get(key), vec)
        assert fresh.get(VectorCache.key("http://x", 8, "unknown")) is None

    def test_truncated_cache_file_ignored(self, tmp_path, caplog):
        key = VectorCache.key("http://x", 4, "word")
        VectorCache(tmp_path / "vc").put([(key, np.ones(4, dtype=np.float32))])
        (path,) = (tmp_path / "vc").iterdir()
        path.write_bytes(path.read_bytes()[:30])
        assert VectorCache(tmp_path / "vc").get(key) is None
        assert "do not match its name" in caplog.text

    def test_pack_length_checked_against_header(self, tmp_path, caplog):
        key = VectorCache.key("http://x", 4, "word")
        VectorCache(tmp_path / "vc").put([(key, np.ones(4, dtype=np.float32))])
        (path,) = (tmp_path / "vc").iterdir()
        raw = path.read_bytes()[:-4]
        path.unlink()
        (tmp_path / "vc" / f"{hashlib.sha256(raw).hexdigest()}.vecs").write_bytes(raw)
        assert VectorCache(tmp_path / "vc").get(key) is None
        assert "does not match its header" in caplog.text

    def test_duplicate_key_resolves_to_lowest_pack_name(self, tmp_path):
        key = VectorCache.key("http://x", 4, "word")
        versions = [np.full(4, float(i), dtype=np.float32) for i in range(4)]
        for vec in versions:
            VectorCache(tmp_path / "vc").put([(key, vec)])
        packs = sorted((tmp_path / "vc").iterdir())
        assert len(packs) == 4
        lowest = np.frombuffer(packs[0].read_bytes()[-16:], dtype="<f4")
        assert np.array_equal(VectorCache(tmp_path / "vc").get(key), lowest)

    @pytest.mark.parametrize("damage", ["edit", "truncate"])
    def test_damaged_pack_dropped_and_refetched(self, tmp_path, caplog, damage):
        with StubService() as svc:
            cfg = self.cfg(svc.endpoint, tmp_path)
            first = embed_tokens("kappa lambda mu", cfg)
            assert svc.request_count == 1
            (path,) = (tmp_path / "cache" / "embed").iterdir()
            raw = bytearray(path.read_bytes())
            if damage == "edit":
                raw[-1] ^= 0x40
            else:
                del raw[-4:]
            path.write_bytes(bytes(raw))
            again = embed_tokens("kappa lambda mu", cfg)
            assert svc.request_count == 2
            assert sum(len(r["body"]["texts"]) for r in svc.requests) == 6
        assert np.array_equal(first.vectors, again.vectors)
        assert "dropping cache pack" in caplog.text

    def test_old_per_token_file_ignored(self, tmp_path):
        key = VectorCache.key("http://x", 4, "word")
        old = np.ones(4, dtype="<f4")
        (tmp_path / "vc").mkdir()
        (tmp_path / "vc" / f"{key}.vec").write_bytes((4).to_bytes(8, "little") + old.tobytes())
        assert VectorCache(tmp_path / "vc").get(key) is None

    def test_requires_endpoint(self):
        with pytest.raises(ValidationError, match="endpoint"):
            EmbedderConfig(backend="remote", d=4)

    def test_cache_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TBVAD_CACHE_DIR", str(tmp_path / "envcache"))
        with StubService() as svc:
            cfg = EmbedderConfig(backend="remote", d=4, endpoint=svc.endpoint, seed=0)
            embed_tokens("hello", cfg)
        assert any((tmp_path / "envcache" / "embed").iterdir())

    def test_timeout_env_parsing(self, monkeypatch):
        from tbvad.remote import http_timeout_seconds
        monkeypatch.setenv("TBVAD_HTTP_TIMEOUT_MS", "2500")
        assert http_timeout_seconds() == 2.5
        for raw in ("junk", "0", "-5"):
            monkeypatch.setenv("TBVAD_HTTP_TIMEOUT_MS", raw)
            assert http_timeout_seconds() == 30.0
