from __future__ import annotations

import hashlib
import json

import pytest

from tbvad.corpus import load_captions, save_captions
from tbvad.errors import ValidationError
from tbvad.knowledge import ASPECTS
from tbvad.synthetic import (
    ANOMALY_POOLS,
    DOMAIN_B_ANOMALY_POOLS,
    DOMAIN_B_NORMAL_POOLS,
    NORMAL_POOLS,
    SyntheticConfig,
    domain_config,
    generate_corpus,
    write_corpus,
)


def all_words(pools):
    return {w for words in pools.values() for w in words}


class TestGenerateCorpus:
    def test_deterministic_for_seed(self):
        a, _ = generate_corpus(SyntheticConfig(n_videos=20, seed=9))
        b, _ = generate_corpus(SyntheticConfig(n_videos=20, seed=9))
        assert [v.video_id for v in a.videos] == [v.video_id for v in b.videos]
        assert all(va.captions == vb.captions for va, vb in zip(a.videos, b.videos))

    def test_seed_changes_content(self):
        a, _ = generate_corpus(SyntheticConfig(n_videos=20, seed=1))
        b, _ = generate_corpus(SyntheticConfig(n_videos=20, seed=2))
        assert any(va.captions != vb.captions for va, vb in zip(a.videos, b.videos))

    def test_anomaly_ratio_respected(self):
        corpus, _ = generate_corpus(SyntheticConfig(n_videos=40, anomaly_ratio=0.25, seed=3))
        n_abnormal = sum(1 for v in corpus.videos if v.label == "abnormal")
        assert n_abnormal == 10

    def test_abnormal_videos_contain_planted_words(self):
        cfg = SyntheticConfig(n_videos=30, seed=4, planted_aspects=("object",))
        corpus, _ = generate_corpus(cfg)
        planted = set(ANOMALY_POOLS["object"])
        for video in corpus.videos:
            text = " ".join(c.text.lower() for c in video.captions)
            has_planted = any(w in text for w in planted)
            if video.label == "abnormal":
                assert has_planted, video.video_id

    def test_manifest_matches_corpus(self):
        corpus, manifest = generate_corpus(SyntheticConfig(n_videos=25, seed=5))
        assert len(manifest["videos"]) == 25
        for video, entry in zip(corpus.videos, manifest["videos"]):
            assert entry["video_id"] == video.video_id
            assert entry["label"] == video.label
            assert entry["n_captions"] == len(video.captions)

    def test_captions_have_one_sentence_per_aspect(self):
        corpus, _ = generate_corpus(SyntheticConfig(n_videos=4, seed=6))
        from tbvad.corpus import sentence_split
        for video in corpus.videos:
            for cap in video.captions:
                assert len(sentence_split(cap.text)) == len(ASPECTS)

    def test_write_round_trip(self, tmp_path):
        cfg = SyntheticConfig(n_videos=12, seed=7, source_tag="rt")
        written = write_corpus(cfg, tmp_path / "c.jsonl", tmp_path / "m.json")
        loaded = load_captions(tmp_path / "c.jsonl", source_tag="rt")
        assert [v.video_id for v in loaded.videos] == [v.video_id for v in written.videos]
        manifest = json.loads((tmp_path / "m.json").read_text())
        assert {v.video_id: len(v.captions) for v in loaded.videos} == \
               {v["video_id"]: v["n_captions"] for v in manifest["videos"]}

    def test_bad_config_rejected(self):
        with pytest.raises(ValidationError):
            SyntheticConfig(n_videos=1)
        with pytest.raises(ValidationError):
            SyntheticConfig(anomaly_ratio=1.5)
        with pytest.raises(ValidationError):
            SyntheticConfig(planted_aspects=("nonsense",))


class TestDomains:
    def test_domain_presets(self):
        a = domain_config("a", n_videos=10)
        b_shared = domain_config("b-shared", n_videos=10)
        b_disjoint = domain_config("b-disjoint", n_videos=10)
        assert a.normal_pools == NORMAL_POOLS
        assert b_shared.normal_pools == DOMAIN_B_NORMAL_POOLS
        assert b_shared.anomaly_pools == ANOMALY_POOLS
        assert b_disjoint.anomaly_pools == DOMAIN_B_ANOMALY_POOLS
        with pytest.raises(ValidationError):
            domain_config("c")

    def test_domain_vocabularies_disjoint(self):
        assert not (all_words(NORMAL_POOLS) & all_words(DOMAIN_B_NORMAL_POOLS))
        assert not (all_words(ANOMALY_POOLS) & all_words(DOMAIN_B_ANOMALY_POOLS))
        assert not (all_words(NORMAL_POOLS) & all_words(ANOMALY_POOLS))


# Small pools of unequal sizes, one of a single word, so every draw bound differs.
CUSTOM_NORMAL_POOLS = {"context": ("still",), "action": ("sitting", "reading", "napping"),
                       "object": ("cup", "book"),
                       "environment": ("cafe", "library", "bench", "porch", "attic")}
CUSTOM_ANOMALY_POOLS = {"context": ("tense", "frantic"), "action": ("stabbing",),
                        "object": ("gun", "axe", "rope"), "environment": ("fire",)}


class TestCorpusBytesPinned:
    """The bytes ``save_captions`` writes for a seed are fixed.

    The digests were taken when each caption drew its eight words and
    templates with scalar ``rng.integers`` calls; drawing them in one call
    must read the same stream, also around the per-frame ``rng.random()``
    noise draws.
    """

    @pytest.mark.parametrize("cfg, want", [
        (SyntheticConfig(),
         "7d8f129c7cad17bdfe2e4172b622944fe45e18c7fa7b2f2f58453a1a33e4486b"),
        (SyntheticConfig(n_videos=60, planted_aspects=("environment", "object"),
                         normal_noise_rate=0.3, seed=7),
         "909478306b0a34b6d625cf5d5625b6572c2ff7384586aa0300d86d88c54b9d83"),
        (SyntheticConfig(n_videos=40, seed=3, normal_pools=CUSTOM_NORMAL_POOLS,
                         anomaly_pools=CUSTOM_ANOMALY_POOLS),
         "91fa533471264544086b03d76b5abc15734be75511fc1e9bca4a8e0cedcd448e"),
    ], ids=["default", "environment-object-noise", "custom-pools"])
    def test_saved_corpus_digest(self, tmp_path, cfg, want):
        path = tmp_path / "c.jsonl"
        save_captions(generate_corpus(cfg)[0], path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want
