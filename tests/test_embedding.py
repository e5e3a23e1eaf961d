from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tbvad.embedding import (
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

from stubs import StubService

HASH64 = EmbedderConfig(backend="hash", d=64, max_tokens=512, seed=7)


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
        assert np.array_equal(a.mask, b.mask)

    def test_truncation_to_max_tokens(self):
        text = " ".join(f"tok{i}" for i in range(600))
        cfg = EmbedderConfig(backend="hash", d=16, max_tokens=512, seed=0)
        seq = embed_tokens(text, cfg)
        assert seq.t == 512

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


class TestMeanPool:
    def test_hand_mean(self):
        seq = TokenEmbeddingSeq(vectors=np.array([[1.0, 3.0], [3.0, 5.0]]), mask=np.array([True, True]))
        assert np.array_equal(mean_pool(seq), np.array([2.0, 4.0]))

    def test_single_row_identity(self):
        v = np.array([[0.5, -1.5, 2.0]])
        seq = TokenEmbeddingSeq(vectors=v, mask=np.array([True]))
        assert np.array_equal(mean_pool(seq), v[0])

    def test_masked_rows_excluded(self):
        vectors = np.array([[2.0, 2.0], [0.0, 0.0], [4.0, 6.0]])
        seq = TokenEmbeddingSeq(vectors=vectors, mask=np.array([True, False, True]))
        assert np.array_equal(mean_pool(seq), np.array([3.0, 4.0]))

    def test_all_masked_rejected(self):
        seq = TokenEmbeddingSeq(vectors=np.zeros((2, 3)), mask=np.array([False, False]))
        with pytest.raises(ValidationError, match="masked"):
            mean_pool(seq)

    def test_matches_sum_divide_oracle(self):
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(5, 8))
        seq = TokenEmbeddingSeq(vectors=vectors, mask=np.ones(5, dtype=bool))
        oracle = np.zeros(8)
        for row in vectors:
            oracle += row
        oracle /= 5
        assert np.max(np.abs(mean_pool(seq) - oracle)) <= 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        vectors = rng.normal(size=(6, 4))
        seq = TokenEmbeddingSeq(vectors=vectors, mask=np.ones(6, dtype=bool))
        perm = rng.permutation(6)
        seq_p = TokenEmbeddingSeq(vectors=vectors[perm], mask=np.ones(6, dtype=bool))
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
    def test_masked_rows_must_be_zero(self):
        with pytest.raises(ValidationError, match="all-zero"):
            TokenEmbeddingSeq(vectors=np.ones((2, 3)), mask=np.array([True, False]))

    def test_non_finite_rejected(self):
        bad = np.array([[1.0, np.inf]])
        with pytest.raises(ValidationError):
            TokenEmbeddingSeq(vectors=bad, mask=np.array([True]))


class TestRemoteEmbedder:
    def cfg(self, endpoint, tmp_path, d=8):
        return EmbedderConfig(backend="remote", d=d, max_tokens=512,
                              endpoint=endpoint, cache_dir=str(tmp_path / "cache"), seed=0)

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

    def test_dimension_mismatch_is_hard_error(self, tmp_path):
        with StubService(embed_fn=lambda text, dim: [0.0] * (dim + 1)) as svc:
            with pytest.raises(ValidationError, match="dim"):
                embed_tokens("eta", self.cfg(svc.endpoint, tmp_path))

    def test_cache_file_format(self, tmp_path):
        cache = VectorCache(tmp_path / "vc")
        key = VectorCache.key("http://x", 4, "word")
        cache.put(key, np.array([1.5, -2.5, 0.0, 3.25], dtype=np.float32))
        raw = (tmp_path / "vc" / f"{key}.vec").read_bytes()
        assert len(raw) == 8 + 4 * 4
        assert int.from_bytes(raw[:8], "little") == 4
        got = cache.get(key)
        assert np.array_equal(got, np.array([1.5, -2.5, 0.0, 3.25], dtype=np.float32))

    def test_truncated_cache_file_ignored(self, tmp_path):
        cache = VectorCache(tmp_path / "vc")
        key = VectorCache.key("http://x", 4, "word")
        cache.put(key, np.ones(4, dtype=np.float32))
        path = tmp_path / "vc" / f"{key}.vec"
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get(key) is None

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
        monkeypatch.setenv("TBVAD_HTTP_TIMEOUT_MS", "junk")
        assert http_timeout_seconds() == 30.0
